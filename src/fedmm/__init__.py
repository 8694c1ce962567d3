"""Federated minimax optimization: FedMM, GDA baselines, and a simulation harness."""

import numpy as _np

# the per-row kernels are np.matvec, np.vecmat and np.vecdot, all in numpy 2.2
if not all(hasattr(_np, name) for name in ("matvec", "vecmat", "vecdot")):
    raise ImportError(
        f"fedmm requires numpy>=2.2 (np.matvec, np.vecmat, np.vecdot); found numpy {_np.__version__}"
    )
del _np

from fedmm.core import (
    ConvergenceError,
    DivergenceError,
    HyperParams,
    PrimalDualPair,
    ServerState,
    seeded_rng,
    vector,
    zeros,
)
from fedmm.federation import (
    ExperimentConfig,
    PartitionMode,
    PartitionSpec,
    ProblemKind,
    ProblemSpec,
    RunLog,
    run_experiment,
)
from fedmm.optim import Federation, OptimizerKind

__all__ = [
    "ConvergenceError",
    "DivergenceError",
    "ExperimentConfig",
    "Federation",
    "HyperParams",
    "OptimizerKind",
    "PartitionMode",
    "PartitionSpec",
    "PrimalDualPair",
    "ProblemKind",
    "ProblemSpec",
    "RunLog",
    "ServerState",
    "run_experiment",
    "seeded_rng",
    "vector",
    "zeros",
]

__version__ = "0.1.0"
