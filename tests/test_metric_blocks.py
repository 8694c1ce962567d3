"""Block metrics against a per-round reference loop, byte for byte.

run_experiment evaluates its metrics once per block of rounds
(`federation.MetricsBlock`). The reference below is the loop it replaced: after
every round, the one-round consensus norms, the global loss at one pair, the
phi oracle on sampled rounds and the target accuracy of one omega, each
written out here with (N, d) arrays. The runs cover every block boundary
(0, 1, B - 1, B, B + 1 and 2B + 3 rounds, B the size of the block the run
builds), three metrics_every values, all five optimizers, both problems,
minibatch mode, and the blocks under 64 rounds: a 32-client quadratic, a
DANN toy with a 240-point holdout, and a 2000-point dataset file whose block
is one round.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedmm import federation
from fedmm.cli import parse_config
from fedmm.core import ConvergenceError, HyperParams, ServerState, row_norms, row_sum
from fedmm.federation import (
    ExperimentConfig,
    PartitionMode,
    PartitionSpec,
    ProblemKind,
    ProblemSpec,
    RoundMetrics,
    RunLog,
    block_rounds,
    prepare,
    run_experiment,
)
from fedmm.objectives import (
    SOURCE,
    TARGET,
    UNLABELED,
    DomainAdaptDataset,
    DomainAdaptObjective,
    PooledView,
    phi_value_and_grad,
    save_dataset,
    stacked,
)
from fedmm.optim import Federation, LocalRound, OptimizerKind, run_round

_DANN_HYPER = HyperParams(eta1=0.1, eta2=0.25, nu=0.5, local_steps=(2,), tol=1e-4)
_DANN_TOY = ProblemSpec(ProblemKind.DOMAIN_ADAPT, n_per_domain=12, holdout_n=16)
_DANN = dict(problem=_DANN_TOY, seed=3)

# name -> the config but its optimizer, rounds and metrics_every
PROBLEMS = {
    "quadratic": dict(
        problem=ProblemSpec(ProblemKind.QUADRATIC),
        hyper=HyperParams(eta1=0.1, eta2=0.1, local_steps=(3,)),
    ),
    "quadratic_32": dict(
        problem=ProblemSpec(ProblemKind.QUADRATIC, n_clients=32, d1=20, d2=10),
        hyper=HyperParams(eta1=0.05, eta2=0.05, local_steps=(2,)),
    ),
    # p = 1.0 gives two shards of 12 points: the batched DANN view
    "dann_equal": dict(**_DANN, hyper=_DANN_HYPER, partition=PartitionSpec(p=1.0)),
    # shards of 12, 6 and 6 points: the per-row view
    "dann_unequal": dict(
        **_DANN, hyper=_DANN_HYPER, partition=PartitionSpec(mode=PartitionMode.ONE_SOURCE_TWO_TARGET),
    ),
    "dann_minibatch": dict(**_DANN, hyper=_DANN_HYPER, partition=PartitionSpec(p=1.0), batch_size=5),
    # the shipped toy's 240-point holdout
    "dann_holdout_240": dict(
        **{**_DANN, "problem": replace(_DANN_TOY, holdout_n=240)}, hyper=_DANN_HYPER,
        partition=PartitionSpec(p=1.0),
    ),
    # `dataset_file`'s 2 x 1000 points, no holdout
    "dataset_file": dict(
        problem=ProblemSpec(ProblemKind.DOMAIN_ADAPT), hyper=replace(_DANN_HYPER, local_steps=(1,)),
    ),
}
# the block each problem's run builds, the same for every optimizer: B = min(64, 16384 // (P d))
# with P the clients' points (1 per quadratic client) plus the holdout's, d = d1 + d2
BLOCK_ROUNDS = {
    "quadratic": 64,  # P = 3, d = 7
    "quadratic_32": 17,  # P = 32, d = 30
    "dann_equal": 64,  # P = 24 + 16, d = 5
    "dann_unequal": 64,  # P = 24 + 16, d = 5
    "dann_minibatch": 64,  # the full shards': P = 24 + 16, d = 5
    "dann_holdout_240": 12,  # P = 24 + 240, d = 5
    "dataset_file": 1,  # P = 2000, d = 8 * 8 + 2 * 8 + 8
}
METRICS_EVERY = (1, 3, 7)
CASES = [
    (name, kind)
    for name in PROBLEMS
    for kind in OptimizerKind
    # minibatches need shards, which central GDA pools
    if not (name == "dann_minibatch" and kind is OptimizerKind.CENTRAL_GDA)
]


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory) -> str:
    """A dataset file of 1000 source and 1000 target points, 8 features, 2 classes."""
    rng = np.random.default_rng(11)
    domain = np.repeat([SOURCE, TARGET], 1000)
    y = np.where(domain == SOURCE, rng.integers(0, 2, 2000), UNLABELED)
    X = rng.standard_normal((2000, 8)) + 0.5 * domain[:, None]
    path = tmp_path_factory.mktemp("blocks") / "two_domains.txt"
    save_dataset(path, DomainAdaptDataset(X, y, domain), 2)
    return str(path)


def _consensus(fed, pair):
    return (
        max(row_norms(fed.omega - pair.omega).tolist()),
        max(row_norms(fed.psi - pair.psi).tolist()),
    )


def _global_loss(view, pair):
    Z = np.empty((view.n, len(pair.row)))
    Z[:] = pair.row
    return float((row_sum(view.values(Z)) + 0.0) / view.n)


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
    hp = config.hyper.expanded(problem.view.n)
    server = ServerState(problem.init_pair)
    fed = Federation.initial(problem.view, problem.init_pair)
    # central GDA on quadratics trains a pooled view: the metrics are its clients' averages
    oracle = problem.view.clients if isinstance(problem.view, PooledView) else problem.view
    log = RunLog()
    for t in range(hp.rounds):
        if config.batch_size > 0:
            objs = problem.view.objectives
            batches = [o.dataset.sample(batch_rng, config.batch_size) for o in objs]
            view = stacked([DomainAdaptObjective(b, hp.nu, o.layout) for b, o in zip(batches, objs)])
            fed = Federation(view, fed.Z, fed.D)
        fed = run_round(LocalRound(config.optimizer, fed.view, hp), fed, server)
        gp = server.global_pair
        phi = None
        if t % config.metrics_every == 0 or t == hp.rounds - 1:
            phi = _phi_grad_norm(oracle, gp.omega, hp.tol)
        accuracy = None
        if problem.accuracy is not None:
            objective, holdout = problem.accuracy
            pred = objective.predict(gp.omega, holdout.X)
            accuracy = float(np.mean(pred == holdout.y))
        log.append(
            RoundMetrics(
                t, phi, *_consensus(fed, gp), _global_loss(oracle, gp), accuracy, server.floats_sent
            )
        )
    return log.csv_text()


def _config(
    name: str, kind: OptimizerKind, rounds: int, metrics_every: int, dataset_file: str
) -> ExperimentConfig:
    base = PROBLEMS[name]
    if name == "dataset_file":
        base = {**base, "problem": replace(base["problem"], file=dataset_file)}
    return ExperimentConfig(
        optimizer=kind, metrics_every=metrics_every,
        **{**base, "hyper": replace(base["hyper"], rounds=rounds)},
    )


class _Built(Exception):
    pass


def built_block_rounds(config: ExperimentConfig) -> int:
    """The rounds of the metric block run_experiment builds for config, stopped before round 0.

    The run gets 64 rounds, the most a block holds, so the block is never cut short.
    """
    sizes = []

    def spy(view, size, *args):
        sizes.append(size)
        raise _Built

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(federation, "MetricsBlock", spy)
        with pytest.raises(_Built):
            run_experiment(replace(config, hyper=replace(config.hyper, rounds=64)))
    return sizes[0]


def test_block_sizes(dataset_file):
    # the sizes the README states: 64 rounds at the small shapes, 17 at N = 32, d = 30, and
    # fewer the more points a round's metrics evaluate; central GDA's pooled row evaluates
    # the same points as the clients
    for kind in (OptimizerKind.FEDMM, OptimizerKind.CENTRAL_GDA):
        names = [name for name, k in CASES if k is kind]
        got = {name: built_block_rounds(_config(name, kind, 64, 1, dataset_file)) for name in names}
        assert got == {name: BLOCK_ROUNDS[name] for name in names}, kind
    # the shipped label-shift toy: (60 + 60 + 240) points x d = 5, 1800 floats a round
    toy = parse_config(Path(__file__).parent.parent / "configs" / "label_shift_fedmm.cfg")
    assert built_block_rounds(toy) == 9
    assert block_rounds(1, 10**6) == 1


@pytest.mark.parametrize("name, kind", CASES, ids=[f"{n}-{k.value}" for n, k in CASES])
def test_block_csv_equals_per_round_reference(name, kind, dataset_file):
    b = built_block_rounds(_config(name, kind, 64, 1, dataset_file))
    assert b == BLOCK_ROUNDS[name]
    for rounds in sorted({0, 1, b - 1, b, b + 1, 2 * b + 3}):
        for every in METRICS_EVERY:
            config = _config(name, kind, rounds, every, dataset_file)
            got = run_experiment(config).csv_text()
            assert got == reference_csv(config), f"rounds={rounds} metrics_every={every} (B={b})"


def test_a_big_dataset_file_flushes_in_bounded_memory(dataset_file):
    """64 rounds on 2 x 1000 points: each flush evaluates one round, not a 64-round block.

    With 64-round blocks the flush's global loss held (64, 2, 1000, 8) features
    and the run peaked at about 13 MB under tracemalloc; with one-round
    blocks it peaks at about 0.9 MB.
    """
    config = _config("dataset_file", OptimizerKind.FEDMM, 64, 64, dataset_file)
    problem = prepare(config)
    tracemalloc.start()
    try:
        log = run_experiment(config, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log.rounds) == 64
    assert peak < 3_000_000, f"peak {peak / 1e6:.2f} MB"


def test_a_log_past_its_first_chunk_equals_the_per_round_reference(dataset_file):
    """300 rounds in 17-round blocks outgrow the log's first buffer; the reference's rows outgrow theirs.

    The run's log starts with room for 256 rounds, which holds 15 blocks (255
    rounds); the 16th block grows it, to room for 272 + 256 rounds. The
    reference appends one row at a time and grows its log at the 257th. Both
    write the same CSV, and the run reads back every row alike by index,
    negative index and iteration.
    """
    config = _config("quadratic_32", OptimizerKind.FEDSGDA, 300, 7, dataset_file)
    log = run_experiment(config)
    assert log.csv_text() == reference_csv(config)
    rows = list(log.rounds)
    assert [m.round for m in rows] == list(range(300))
    assert [log.rounds[i] for i in range(300)] == rows == [log.rounds[i - 300] for i in range(300)]
