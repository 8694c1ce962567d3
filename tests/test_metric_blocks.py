"""Block metrics against a per-round reference loop, byte for byte.

run_experiment evaluates its metrics once per block of rounds
(`federation.MetricsBlock`). The reference below is the loop it replaced: after
every round, the one-round consensus norms, the global loss at one pair, the
phi oracle on sampled rounds and the target accuracy of one omega, each
written out here with (N, d) arrays. The runs cover every block boundary
(0, 1, B - 1, B, B + 1 and 2B + 3 rounds), three metrics_every values, all
five optimizers, both problems, minibatch mode, and a 32-client quadratic
whose block holds fewer than 64 rounds.
"""

from dataclasses import replace

import numpy as np
import pytest

from fedmm import federation
from fedmm.core import ConvergenceError, HyperParams, ServerState, row_norms, row_sum
from fedmm.federation import (
    ExperimentConfig,
    PartitionMode,
    PartitionSpec,
    ProblemKind,
    RoundMetrics,
    RunLog,
    block_rounds,
    run_experiment,
)
from fedmm.objectives import DomainAdaptObjective, phi_value_and_grad, stacked
from fedmm.optim import Federation, OptimizerKind, run_round

_DANN_HYPER = HyperParams(eta1=0.1, eta2=0.25, nu=0.5, local_steps=(2,), tol=1e-4)
_DANN = dict(problem=ProblemKind.DOMAIN_ADAPT, toy_n_per_domain=12, toy_holdout_n=16, seed=3)

# name -> (the config but its optimizer, rounds and metrics_every; N; d1 + d2)
PROBLEMS = {
    "quadratic": (
        dict(problem=ProblemKind.QUADRATIC, hyper=HyperParams(eta1=0.1, eta2=0.1, local_steps=(3,))),
        3, 7,
    ),
    "quadratic_32": (
        dict(
            problem=ProblemKind.QUADRATIC, quad_n_clients=32, quad_d1=20, quad_d2=10,
            hyper=HyperParams(eta1=0.05, eta2=0.05, local_steps=(2,)),
        ),
        32, 30,
    ),
    # p = 1.0 gives two shards of 12 points: the batched DANN view
    "dann_equal": (dict(**_DANN, hyper=_DANN_HYPER, partition=PartitionSpec(p=1.0)), 2, 5),
    # shards of 12, 6 and 6 points: the per-row view
    "dann_unequal": (
        dict(
            **_DANN, hyper=_DANN_HYPER,
            partition=PartitionSpec(3, mode=PartitionMode.ONE_SOURCE_TWO_TARGET),
        ),
        3, 5,
    ),
    "dann_minibatch": (
        dict(**_DANN, hyper=_DANN_HYPER, partition=PartitionSpec(p=1.0), batch_size=5), 2, 5,
    ),
}
METRICS_EVERY = (1, 3, 7)
CASES = [
    (name, kind)
    for name in PROBLEMS
    for kind in OptimizerKind
    # minibatches need shards, which central GDA pools
    if not (name == "dann_minibatch" and kind is OptimizerKind.CENTRAL_GDA)
]


def _consensus(fed, pair):
    return (
        max(row_norms(fed.omega - pair.omega).tolist()),
        max(row_norms(fed.psi - pair.psi).tolist()),
    )


def _global_loss(view, pair):
    OM, PS = np.empty((view.n, len(pair.omega))), np.empty((view.n, len(pair.psi)))
    OM[:], PS[:] = pair.omega, pair.psi
    return float((row_sum(view.values(OM, PS)) + 0.0) / view.n)


def _phi_grad_norm(view, omega, tol):
    try:
        _, grad = phi_value_and_grad(view, omega, tol, max_iters=federation._PHI_ORACLE_ITER_CAP)
    except ConvergenceError:
        return None
    return float(np.linalg.norm(grad))


def reference_csv(config: ExperimentConfig) -> str:
    """The run's CSV with every metric taken right after its round, one round at a time."""
    problem = federation.prepare(config)
    batch_rng = np.random.Generator(np.random.PCG64(problem.batch_seq))
    hp = config.hyper.expanded(len(problem.clients))
    server = ServerState(problem.init_pair)
    fed = Federation.initial(problem.clients, problem.init_pair)
    oracle = fed.view if problem.oracle is None else problem.oracle
    log = RunLog(config_echo=config.echo(), seed=config.seed)
    for t in range(hp.rounds):
        if config.batch_size > 0:
            batches = [shard.sample(batch_rng, config.batch_size) for shard in problem.shards]
            view = stacked([DomainAdaptObjective(b, hp.nu, problem.layout) for b in batches])
            fed = Federation(view, fed.Z, fed.D)
        fed = run_round(config.optimizer, fed, server, hp)
        gp = server.global_pair
        phi = None
        if t % config.metrics_every == 0 or t == hp.rounds - 1:
            phi = _phi_grad_norm(oracle, gp.omega, hp.tol)
        accuracy = None
        if problem.accuracy is not None:
            objective, holdout = problem.accuracy
            pred = objective.predict(gp.omega, holdout.X)
            accuracy = float(np.mean(pred == holdout.y))
        log.rounds.append(
            RoundMetrics(
                t, phi, *_consensus(fed, gp), _global_loss(oracle, gp), accuracy, server.floats_sent
            )
        )
    return log.csv_text()


def _config(name: str, kind: OptimizerKind, rounds: int, metrics_every: int) -> ExperimentConfig:
    base = PROBLEMS[name][0]
    return ExperimentConfig(
        optimizer=kind, metrics_every=metrics_every,
        **{**base, "hyper": replace(base["hyper"], rounds=rounds)},
    )


def test_block_sizes():
    # the sizes the README states: 64 rounds at the small shapes, 17 at N = 32, d = 30
    assert [block_rounds(n, d) for (_, n, d) in PROBLEMS.values()] == [64, 17, 64, 64, 64]
    assert block_rounds(1, 10**6) == 1


@pytest.mark.parametrize("name, kind", CASES, ids=[f"{n}-{k.value}" for n, k in CASES])
def test_block_csv_equals_per_round_reference(name, kind):
    _, n, d = PROBLEMS[name]
    if kind is OptimizerKind.CENTRAL_GDA:
        n = 1
    b = block_rounds(n, d)
    for rounds in (0, 1, b - 1, b, b + 1, 2 * b + 3):
        for every in METRICS_EVERY:
            config = _config(name, kind, rounds, every)
            got = run_experiment(config).csv_text()
            assert got == reference_csv(config), f"rounds={rounds} metrics_every={every} (B={b})"
