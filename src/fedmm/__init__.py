"""Federated minimax optimization: FedMM, GDA baselines, and a simulation harness."""

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
    "RunLog",
    "ServerState",
    "run_experiment",
    "seeded_rng",
    "vector",
    "zeros",
]

__version__ = "0.1.0"
