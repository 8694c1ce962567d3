"""Round-based client/server simulation: partitioning, run loop, metrics, CSV.

The round loop is a barrier-synchronized fan-out/fan-in; metrics and the
communication ledger are recorded once per completed round. Everything is
deterministic given (config, seed): the only randomness flows through child
seeds spawned from the config seed.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from fedmm.core import (
    ConvergenceError,
    DivergenceError,
    HyperParams,
    PrimalDualPair,
    ServerState,
    Vector,
    row_norms,
    vector,
    zeros,
)
from fedmm.objectives import (
    SOURCE,
    TARGET,
    DomainAdaptDataset,
    DomainAdaptObjective,
    LocalObjective,
    MeanObjective,
    ModelLayout,
    QuadraticSaddle,
    StackedObjectives,
    load_dataset,
    load_quadratic_specs,
    phi_value_and_grad,
    stacked,
)
from fedmm.optim import Federation, OptimizerKind, run_round
from fedmm import problems


class PartitionMode(Enum):
    TWO_CLIENT_P = "two_client_p"
    ONE_SOURCE_ONE_TARGET = "one_source_one_target"
    ONE_SOURCE_TWO_TARGET = "one_source_two_target"
    TWO_SOURCE_ONE_TARGET = "two_source_one_target"

    @classmethod
    def parse(cls, name: str) -> "PartitionMode":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown partition mode {name!r} (expected: {valid})") from None


_MODE_CLIENTS = {
    PartitionMode.TWO_CLIENT_P: 2,
    PartitionMode.ONE_SOURCE_ONE_TARGET: 2,
    PartitionMode.ONE_SOURCE_TWO_TARGET: 3,
    PartitionMode.TWO_SOURCE_ONE_TARGET: 3,
}


@dataclass(frozen=True)
class PartitionSpec:
    n_clients: int = 2
    p: float = 0.5
    mode: PartitionMode = PartitionMode.TWO_CLIENT_P

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        want = _MODE_CLIENTS[self.mode]
        if self.n_clients != want:
            raise ValueError(
                f"mode {self.mode.value} requires n_clients={want}, got {self.n_clients}"
            )


def _halves(n: int) -> list[int]:
    # np.array_split's sizes: the first part takes the odd point
    return [n - n // 2, n // 2]


def partition_counts(n_source: int, n_target: int, spec: PartitionSpec) -> list[tuple[int, int]]:
    """(source points, target points) of each client, in client order.

    The counts depend only on the domain sizes, p and the mode, never on the
    RNG, so a config can be checked before any data is drawn. A client left
    with no points at all is an error (its objective would be degenerate).
    """
    if spec.mode is PartitionMode.TWO_CLIENT_P:
        n_src_1 = int(round(spec.p * n_source))
        n_tgt_1 = int(round((1.0 - spec.p) * n_target))
        counts = [(n_src_1, n_tgt_1), (n_source - n_src_1, n_target - n_tgt_1)]
    elif spec.mode is PartitionMode.ONE_SOURCE_ONE_TARGET:
        counts = [(n_source, 0), (0, n_target)]
    elif spec.mode is PartitionMode.ONE_SOURCE_TWO_TARGET:
        counts = [(n_source, 0)] + [(0, k) for k in _halves(n_target)]
    elif spec.mode is PartitionMode.TWO_SOURCE_ONE_TARGET:
        counts = [(k, 0) for k in _halves(n_source)] + [(0, n_target)]
    else:  # pragma: no cover
        raise ValueError(f"unhandled mode {spec.mode}")
    for i, (n_src, n_tgt) in enumerate(counts):
        if n_src + n_tgt == 0:
            raise ValueError(f"client {i} receives zero points (degenerate objective)")
    return counts


def _split_uniform(idx: np.ndarray, sizes: list[int], rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(idx)
    return [np.sort(chunk) for chunk in np.split(perm, np.cumsum(sizes)[:-1])]


def partition_label_shift(
    dataset: DomainAdaptDataset, spec: PartitionSpec, rng: np.random.Generator
) -> list[DomainAdaptDataset]:
    """Disjointly cover the dataset across clients with label-shift parameter p.

    TWO_CLIENT_P gives client 0 a uniform fraction p of the source points and
    (1-p) of the target points; client 1 gets the complement. p=1.0 fully
    separates the domains. The multi-client modes pin one domain per client
    group and split that group's pool uniformly. The group sizes are
    `partition_counts`.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    src = np.flatnonzero(dataset.domain == SOURCE)
    tgt = np.flatnonzero(dataset.domain == TARGET)
    counts = partition_counts(len(src), len(tgt), spec)

    if spec.mode is PartitionMode.TWO_CLIENT_P:
        (n_src_1, n_tgt_1), _ = counts
        src_perm = rng.permutation(src)
        tgt_perm = rng.permutation(tgt)
        one = np.sort(np.concatenate([src_perm[:n_src_1], tgt_perm[:n_tgt_1]]))
        two = np.sort(np.concatenate([src_perm[n_src_1:], tgt_perm[n_tgt_1:]]))
        groups = [one, two]
    elif spec.mode is PartitionMode.ONE_SOURCE_ONE_TARGET:
        groups = [src, tgt]
    elif spec.mode is PartitionMode.ONE_SOURCE_TWO_TARGET:
        groups = [src] + _split_uniform(tgt, [n for _, n in counts[1:]], rng)
    else:  # TWO_SOURCE_ONE_TARGET
        groups = _split_uniform(src, [n for n, _ in counts[:2]], rng) + [tgt]
    return [dataset.subset(g) for g in groups]


def evaluate_target_accuracy(
    objective: DomainAdaptObjective, omega: Vector, holdout: DomainAdaptDataset
) -> float:
    """Fraction of holdout points whose predictor argmax matches the true label.

    The holdout carries ground-truth labels the optimizers never see; argmax
    ties resolve to the lowest class index.
    """
    if len(holdout) == 0:
        raise ValueError("holdout is empty")
    if (holdout.y < 0).any():
        raise ValueError("holdout points must carry ground-truth labels")
    pred = objective.predict(omega, holdout.X)
    return float(np.mean(pred == holdout.y))


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    phi_grad_norm: float | None
    consensus_omega: float
    consensus_psi: float
    global_loss: float
    target_accuracy: float | None
    floats_communicated: int


METRIC_FIELDS = tuple(f.name for f in fields(RoundMetrics))
CSV_HEADER = ",".join(METRIC_FIELDS)

# the metric oracle must never dominate a round: past this budget the sample
# degrades to an empty field instead
_PHI_ORACLE_ITER_CAP = 5000


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def consensus(fed: Federation, pair: PrimalDualPair) -> tuple[float, float]:
    """(max_i ||omega_i - omega||, max_i ||psi_i - psi||): the clients' spread around the pair."""
    return (
        max(row_norms(fed.omega - pair.omega).tolist()),
        max(row_norms(fed.psi - pair.psi).tolist()),
    )


def write_atomic(path: str | Path, text: str) -> None:
    """Write-then-rename so failures never leave a partial file behind.

    Each call writes its own uniquely named temp file next to the target, so
    concurrent writers to one path never share a temp file; the last rename wins.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


@dataclass
class RunLog:
    """Per-round metrics plus the config echo; serializes to the run CSV."""

    config_echo: dict
    seed: int
    rounds: list[RoundMetrics] = field(default_factory=list)

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for m in self.rounds:
            lines.append(",".join(_fmt(getattr(m, name)) for name in METRIC_FIELDS))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        write_atomic(path, self.csv_text())

    def final(self) -> RoundMetrics | None:
        return self.rounds[-1] if self.rounds else None


class ProblemKind(Enum):
    QUADRATIC = "quadratic"
    DOMAIN_ADAPT = "domain_adapt"

    @classmethod
    def parse(cls, name: str) -> "ProblemKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown problem {name!r} (expected: {valid})") from None


@dataclass(frozen=True)
class ExperimentConfig:
    optimizer: OptimizerKind
    problem: ProblemKind
    hyper: HyperParams = HyperParams()
    partition: PartitionSpec = PartitionSpec()
    seed: int = 0
    metrics_every: int = 1
    output_path: str = "run.csv"
    problem_file: str | None = None
    quad_n_clients: int = 3
    quad_d1: int = 4
    quad_d2: int = 3
    toy_n_per_domain: int = 60
    toy_holdout_n: int = 240
    batch_size: int = 0

    def __post_init__(self):
        for key, value in (
            ("problem.n_clients", self.quad_n_clients),
            ("problem.d1", self.quad_d1),
            ("problem.d2", self.quad_d2),
            ("problem.n_per_domain", self.toy_n_per_domain),
            ("problem.holdout_n", self.toy_holdout_n),
        ):
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.metrics_every < 1:
            raise ValueError(f"metrics_every must be >= 1, got {self.metrics_every}")
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {self.batch_size}")
        # the CSV is written next to this name; "", "." and "/" name no file
        if "\x00" in self.output_path or not Path(self.output_path).name:
            raise ValueError(f"output_path must name a file, got {self.output_path!r}")

    def echo(self) -> dict:
        """Every key parse_config accepts, under its config name, with this config's value."""
        d = {
            "optimizer": self.optimizer.value,
            "problem": self.problem.value,
            "problem.file": self.problem_file,
            "problem.n_clients": self.quad_n_clients,
            "problem.d1": self.quad_d1,
            "problem.d2": self.quad_d2,
            "problem.n_per_domain": self.toy_n_per_domain,
            "problem.holdout_n": self.toy_holdout_n,
            "seed": self.seed,
            "metrics_every": self.metrics_every,
            "output_path": self.output_path,
            "batch_size": self.batch_size,
            "partition.mode": self.partition.mode.value,
            "partition.n_clients": self.partition.n_clients,
            "partition.p": self.partition.p,
        }
        for f in fields(self.hyper):
            d[f"hyper.{f.name}"] = getattr(self.hyper, f.name)
        return d


def simulated_clients(config: ExperimentConfig) -> int:
    """Number of clients the round loop runs; central_gda runs one pooled client."""
    if config.optimizer is OptimizerKind.CENTRAL_GDA:
        return 1
    if config.problem is ProblemKind.DOMAIN_ADAPT:
        return config.partition.n_clients
    if config.problem_file:
        return len(load_quadratic_specs(config.problem_file))
    return config.quad_n_clients


@dataclass
class _BuiltProblem:
    """Everything run_experiment needs after problem construction.

    oracle is the metric oracles' view when it is not the simulated clients'
    own: central GDA on quadratics trains one MeanObjective, whose view holds
    the clients it pools.
    """

    sim_objectives: list[LocalObjective]
    init_pair: PrimalDualPair
    holdout: DomainAdaptDataset | None
    accuracy_objective: DomainAdaptObjective | None
    shards: list[DomainAdaptDataset] | None
    layout: ModelLayout | None
    oracle: StackedObjectives | None = None


def _build_problem(config: ExperimentConfig, seed_seq: np.random.SeedSequence) -> _BuiltProblem:
    data_seq, init_seq, part_seq = seed_seq.spawn(3)

    if config.problem is ProblemKind.QUADRATIC:
        if config.problem_file:
            specs = load_quadratic_specs(config.problem_file)
        else:
            specs = problems.synthetic_quadratic_specs(
                config.quad_n_clients, config.quad_d1, config.quad_d2
            )
        objs: list[LocalObjective] = [QuadraticSaddle(s) for s in specs]
        d1, d2 = objs[0].dims
        init = PrimalDualPair(zeros(d1), zeros(d2))
        if config.optimizer is OptimizerKind.CENTRAL_GDA:
            pooled = MeanObjective(objs)
            return _BuiltProblem([pooled], init, None, None, None, None, pooled.view)
        return _BuiltProblem(objs, init, None, None, None, None)

    # domain adaptation
    if config.problem_file:
        dataset, n_classes = load_dataset(config.problem_file)
        holdout = None
        layout = ModelLayout(dataset.X.shape[1], dataset.X.shape[1], n_classes)
    else:
        dataset, holdout, layout = problems.domain_shift_toy(
            np.random.Generator(np.random.PCG64(data_seq)),
            n_per_domain=config.toy_n_per_domain,
            holdout_n=config.toy_holdout_n,
        )

    pooled = DomainAdaptObjective(dataset, config.hyper.nu, layout)
    init_rng = np.random.Generator(np.random.PCG64(init_seq))
    init = PrimalDualPair(
        vector(0.1 * init_rng.standard_normal(layout.d1)),
        vector(0.1 * init_rng.standard_normal(layout.d2)),
    )

    if config.optimizer is OptimizerKind.CENTRAL_GDA:
        return _BuiltProblem([pooled], init, holdout, pooled, None, layout)

    part_rng = np.random.Generator(np.random.PCG64(part_seq))
    shards = partition_label_shift(dataset, config.partition, part_rng)
    objs = [DomainAdaptObjective(s, config.hyper.nu, layout) for s in shards]
    return _BuiltProblem(objs, init, holdout, pooled, shards, layout)


def run_experiment(config: ExperimentConfig) -> RunLog:
    """Execute T rounds of the configured optimizer and record per-round metrics.

    phi_grad_norm is computed through the diagnostics oracle (which peeks at
    all clients' objectives) every metrics_every-th round and on the final
    round; an inner-max failure degrades it to None instead of aborting.
    """
    seed_seq = np.random.SeedSequence(config.seed)
    built = _build_problem(config, seed_seq)
    batch_seq = seed_seq.spawn(1)[0]

    hp = config.hyper.expanded(len(built.sim_objectives))
    server = ServerState(built.init_pair)
    fed = Federation.initial(built.sim_objectives, built.init_pair)
    oracle = fed.view if built.oracle is None else built.oracle

    log = RunLog(config_echo=config.echo(), seed=config.seed)
    batch_rng = np.random.Generator(np.random.PCG64(batch_seq))

    for t in range(hp.rounds):
        if config.batch_size > 0 and built.shards is not None:
            # seeded minibatch mode: fresh per-round subsample of each shard
            batches = [shard.sample(batch_rng, config.batch_size) for shard in built.shards]
            view = stacked([DomainAdaptObjective(b, hp.nu, built.layout) for b in batches])
            fed = Federation(view, fed.Z, fed.D)
        try:
            fed = run_round(config.optimizer, fed, server, hp)
        except DivergenceError as e:
            raise DivergenceError(f"round {t}: {e.where}", e.step) from e

        gp = server.global_pair
        consensus_om, consensus_ps = consensus(fed, gp)
        global_loss = oracle.mean_value(gp.omega, gp.psi)

        phi_grad_norm: float | None = None
        if t % config.metrics_every == 0 or t == hp.rounds - 1:
            try:
                _, phi_grad = phi_value_and_grad(
                    oracle, gp.omega, hp.tol, max_iters=_PHI_ORACLE_ITER_CAP
                )
                phi_grad_norm = float(np.linalg.norm(phi_grad))
            except ConvergenceError:
                phi_grad_norm = None

        accuracy: float | None = None
        if built.holdout is not None and built.accuracy_objective is not None:
            accuracy = evaluate_target_accuracy(
                built.accuracy_objective, gp.omega, built.holdout
            )

        log.rounds.append(
            RoundMetrics(
                round=t,
                phi_grad_norm=phi_grad_norm,
                consensus_omega=consensus_om,
                consensus_psi=consensus_ps,
                global_loss=global_loss,
                target_accuracy=accuracy,
                floats_communicated=server.floats_sent,
            )
        )

    return log
