"""Round-based client/server simulation: partitioning, run loop, metrics, CSV.

The round loop is a barrier-synchronized fan-out/fan-in; the communication
ledger is recorded once per completed round, and each round's metrics once
per block of rounds (`MetricsBlock`), with the values the round alone would
give. Everything is deterministic given (config, seed): the only randomness
flows through child seeds spawned from the config seed.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from fedmm.core import (
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
    load_quadratic_objectives,
    phi_grads,
    stacked,
)
from fedmm.optim import Federation, OptimizerKind, run_round
from fedmm import problems


class PartitionMode(Enum):
    TWO_CLIENT_P = "two_client_p"
    ONE_SOURCE_ONE_TARGET = "one_source_one_target"
    ONE_SOURCE_TWO_TARGET = "one_source_two_target"
    TWO_SOURCE_ONE_TARGET = "two_source_one_target"


class _Split(NamedTuple):
    n_clients: int
    # (n_source, n_target, p) -> each client's (source points, target points)
    counts: Callable[[int, int, float], list[tuple[int, int]]]
    shuffled: tuple[bool, bool]  # whether the source, then the target, indices are permuted


def _p_counts(n_source: int, n_target: int, p: float) -> list[tuple[int, int]]:
    n_src_1, n_tgt_1 = int(round(p * n_source)), int(round((1.0 - p) * n_target))
    return [(n_src_1, n_tgt_1), (n_source - n_src_1, n_target - n_tgt_1)]


# each mode's split; a halved domain gives its first client the odd point, as np.array_split does
_MODES = {
    PartitionMode.TWO_CLIENT_P: _Split(2, _p_counts, (True, True)),
    PartitionMode.ONE_SOURCE_ONE_TARGET: _Split(
        2, lambda s, t, p: [(s, 0), (0, t)], (False, False)
    ),
    PartitionMode.ONE_SOURCE_TWO_TARGET: _Split(
        3, lambda s, t, p: [(s, 0), (0, t - t // 2), (0, t // 2)], (False, True)
    ),
    PartitionMode.TWO_SOURCE_ONE_TARGET: _Split(
        3, lambda s, t, p: [(s - s // 2, 0), (s // 2, 0), (0, t)], (True, False)
    ),
}


@dataclass(frozen=True)
class PartitionSpec:
    n_clients: int = 2
    p: float = 0.5
    mode: PartitionMode = PartitionMode.TWO_CLIENT_P

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"partition.p must lie in [0, 1], got {self.p}")
        want = _MODES[self.mode].n_clients
        if self.n_clients != want:
            raise ValueError(
                f"partition.n_clients must be {want} for partition.mode = {self.mode.value}, "
                f"got {self.n_clients}"
            )


def partition_counts(n_source: int, n_target: int, spec: PartitionSpec) -> list[tuple[int, int]]:
    """(source points, target points) of each client, in client order.

    The counts depend only on the domain sizes, p and the mode, never on the
    RNG. A client left with no points at all is an error (its objective
    would be degenerate).
    """
    counts = _MODES[spec.mode].counts(n_source, n_target, spec.p)
    for i, (n_src, n_tgt) in enumerate(counts):
        if n_src + n_tgt == 0:
            raise ValueError(f"client {i} receives zero points (degenerate objective)")
    return counts


def partition_label_shift(
    dataset: DomainAdaptDataset, spec: PartitionSpec, rng: np.random.Generator
) -> list[DomainAdaptDataset]:
    """Disjointly cover the dataset across clients with label-shift parameter p.

    TWO_CLIENT_P gives client 0 a uniform fraction p of the source points and
    (1-p) of the target points; client 1 gets the complement. p=1.0 fully
    separates the domains. The multi-client modes pin one domain per client
    group and split that group's pool uniformly. The group sizes are
    `partition_counts`; each client takes the next block of the (shuffled)
    source and target indices, sorted.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    src = np.flatnonzero(dataset.domain == SOURCE)
    tgt = np.flatnonzero(dataset.domain == TARGET)
    counts = partition_counts(len(src), len(tgt), spec)
    shuffle_src, shuffle_tgt = _MODES[spec.mode].shuffled
    src = rng.permutation(src) if shuffle_src else src  # the source draw comes first
    tgt = rng.permutation(tgt) if shuffle_tgt else tgt
    shards, i, j = [], 0, 0
    for n_src, n_tgt in counts:
        shards.append(dataset.subset(np.sort(np.concatenate([src[i:i + n_src], tgt[j:j + n_tgt]]))))
        i, j = i + n_src, j + n_tgt
    return shards


def evaluate_target_accuracy(
    objective: DomainAdaptObjective, omega: Vector, holdout: DomainAdaptDataset
) -> float | np.ndarray:
    """Fraction of holdout points whose predictor argmax matches the true label.

    The holdout carries ground-truth labels the optimizers never see; argmax
    ties resolve to the lowest class index. A (K, d1) stack of omegas gives
    the (K,) accuracies in one batched prediction, each exactly the float a
    one-omega call returns (the counts are exact).
    """
    if len(holdout) == 0:
        raise ValueError("holdout is empty")
    if (holdout.y < 0).any():
        raise ValueError("holdout points must carry ground-truth labels")
    pred = objective.predict(omega, holdout.X)
    accuracy = np.mean(pred == holdout.y, axis=-1)
    return float(accuracy) if accuracy.ndim == 0 else accuracy


@dataclass
class RoundMetrics:
    """One round's CSV row.

    A plain dataclass, not a frozen one: a frozen __init__ sets each field
    through object.__setattr__, and building a block's 64 rows that way took
    about a third of a quadratic metric-block flush.
    """

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
    """One cell's text, the only cell format.

    None is empty, a bool lower-case, an int exact, a str as is, a tuple its
    comma list (as config files write it), any other number repr(float).
    """
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return ",".join(map(_fmt, x))
    return repr(float(x))


def to_csv(header: str, rows: Iterable[Sequence]) -> str:
    """The CSV text of a header line and rows of cells: the only CSV writer."""
    return "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def _consensus(Z: np.ndarray, P: np.ndarray, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """max_i ||omega_i - omega|| and max_i ||psi_i - psi|| of each of B rounds, two (B,) arrays.

    Z holds the rounds' (B, N, d1 + d2) client rows and P their (B, d1 + d2)
    pairs. Each norm is row_norms' one-vector norm; max is exact.
    """
    return (
        row_norms(Z[..., :d1] - P[..., None, :d1]).max(axis=-1),
        row_norms(Z[..., d1:] - P[..., None, d1:]).max(axis=-1),
    )


def consensus(fed: Federation, pair: PrimalDualPair) -> tuple[float, float]:
    """(max_i ||omega_i - omega||, max_i ||psi_i - psi||): the clients' spread around the pair."""
    omega, psi = _consensus(fed.Z, pair.row, pair.dims[0])
    return float(omega), float(psi)


# A metric block holds at most this many rounds and this many client-row floats
_BLOCK_ROUNDS = 64
_BLOCK_FLOATS = 16384


def block_rounds(n_clients: int, d: int) -> int:
    """Rounds per metric block for N clients of d = d1 + d2 parameters: min(64, 16384 // (N d)), at least 1."""
    return min(_BLOCK_ROUNDS, max(1, _BLOCK_FLOATS // (n_clients * d)))


class MetricsBlock:
    """Several rounds' metric inputs, evaluated together once the block is full.

    `add` copies a round's client rows fed.Z and its global pair's joint row
    [omega | psi] into preallocated buffers. `flush` turns the buffered
    rounds into their RoundMetrics rows and empties the block:

    - consensus: row_norms of Z - pair on each block, then the max over clients;
    - global loss: one `mean_values` call of the oracle view at all the pairs;
    - target accuracy: one `evaluate_target_accuracy` call on all the omegas;
    - phi_grad_norm: one `phi_grads` call at the sampled rounds' omegas, then
      row_norms; a round whose inner maximization failed gets None. Phi's
      value is never computed.

    Every value is bit for bit what the one-round calls (`consensus`,
    `mean_value`, a one-omega `evaluate_target_accuracy` or
    `phi_value_and_grad`) give: each row's dot products, matrix products and
    solves keep the one-round shapes, and max and argmax are exact.
    """

    def __init__(
        self,
        oracle: StackedObjectives,
        n_clients: int,
        size: int,
        tol: float,
        accuracy: tuple[DomainAdaptObjective, DomainAdaptDataset] | None = None,
    ):
        self.oracle, self.tol, self.accuracy = oracle, tol, accuracy
        d = sum(oracle.dims)
        self.Z = np.empty((size, n_clients, d))
        self.P = np.empty((size, d))
        self.rounds: list[tuple[int, int, bool]] = []  # (round, floats sent, phi sampled)

    @property
    def full(self) -> bool:
        return len(self.rounds) == len(self.Z)

    def add(self, t: int, fed: Federation, server: ServerState, sample_phi: bool) -> None:
        """Buffer round t: the clients' rows, the server's pair and its ledger."""
        k = len(self.rounds)
        self.Z[k] = fed.Z
        self.P[k] = server.global_pair.row
        self.rounds.append((t, server.floats_sent, sample_phi))

    def flush(self) -> list[RoundMetrics]:
        """The buffered rounds' metrics, in round order; the block is empty afterwards."""
        k, d1 = len(self.rounds), self.oracle.dims[0]
        if not k:
            return []
        Z, P = self.Z[:k], self.P[:k]
        omegas = P[:, :d1]
        spread_om, spread_ps = (c.tolist() for c in _consensus(Z, P, d1))
        loss = self.oracle.mean_values(omegas, P[:, d1:]).tolist()
        accuracy = [None] * k
        if self.accuracy is not None:
            objective, holdout = self.accuracy
            accuracy = evaluate_target_accuracy(objective, omegas, holdout).tolist()
        phi = [None] * k
        sampled = [b for b, (_, _, sample_phi) in enumerate(self.rounds) if sample_phi]
        if sampled:
            out = phi_grads(self.oracle, omegas[sampled], self.tol, max_iters=_PHI_ORACLE_ITER_CAP)
            for b, norm, error in zip(sampled, row_norms(out.grads).tolist(), out.errors):
                phi[b] = norm if error is None else None
        ts, floats, _ = zip(*self.rounds)
        rows = list(map(RoundMetrics, ts, phi, spread_om, spread_ps, loss, accuracy, floats))  # field order
        self.rounds = []
        return rows


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
        return to_csv(CSV_HEADER, map(attrgetter(*METRIC_FIELDS), self.rounds))

    def write_csv(self, path: str | Path) -> None:
        write_atomic(path, self.csv_text())

    def final(self) -> RoundMetrics | None:
        return self.rounds[-1] if self.rounds else None


class ProblemKind(Enum):
    QUADRATIC = "quadratic"
    DOMAIN_ADAPT = "domain_adapt"


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
        # minibatches subsample the clients' domain-adaptation shards; quadratic
        # clients have none, and central GDA pools them into one client
        quadratic = self.problem is ProblemKind.QUADRATIC
        if self.batch_size > 0 and (quadratic or self.optimizer is OptimizerKind.CENTRAL_GDA):
            which = "problem = quadratic" if quadratic else "optimizer = central_gda"
            raise ValueError(
                f"batch_size must be 0 for {which}, got {self.batch_size}: "
                "minibatches sample the clients' domain-adaptation shards"
            )
        # the CSV is written next to this name; "", "." and "/" name no file
        if "\x00" in self.output_path or not Path(self.output_path).name:
            raise ValueError(f"output_path must name a file, got {self.output_path!r}")

    def echo(self) -> dict:
        """Every config key with this config's value, an enum by its name."""
        out = {}
        for key, value in zip(CONFIG_KEYS, _config_values(self)):
            out[key] = value.value if isinstance(value, Enum) else value
        return out


def _parser(convert: Callable[[str], object], expected: str) -> Callable[[str], object]:
    """A config value's parser: convert(raw), or ValueError naming what was expected."""

    def parse(raw: str):
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(f"expected {expected}, got {raw!r}") from None

    return parse


def _enum_parser(cls: type[Enum]) -> Callable[[str], Enum]:
    return _parser(lambda raw: cls(raw.lower()), "one of " + ", ".join(m.value for m in cls))


_INT = _parser(int, "an integer")
# a hyper.* or partition.* key's parser, by the type of its field's default
_PARSERS = {
    int: _INT,
    float: _parser(float, "a number"),
    tuple: _parser(lambda raw: tuple(map(int, raw.split(","))), "an integer or comma list"),
    PartitionMode: _enum_parser(PartitionMode),
}
# config key -> (its ExperimentConfig attribute path, its parser): the only list of config keys
CONFIG_KEYS = {
    "optimizer": ("optimizer", _enum_parser(OptimizerKind)),
    "problem": ("problem", _enum_parser(ProblemKind)),
    "problem.file": ("problem_file", str),
    "problem.n_clients": ("quad_n_clients", _INT),
    "problem.d1": ("quad_d1", _INT),
    "problem.d2": ("quad_d2", _INT),
    "problem.n_per_domain": ("toy_n_per_domain", _INT),
    "problem.holdout_n": ("toy_holdout_n", _INT),
    "seed": ("seed", _INT),
    "metrics_every": ("metrics_every", _INT),
    "output_path": ("output_path", str),
    "batch_size": ("batch_size", _INT),
    **{
        f"{group}.{f.name}": (f"{group}.{f.name}", _PARSERS[type(f.default)])
        for group, cls in (("hyper", HyperParams), ("partition", PartitionSpec))
        for f in fields(cls)
    },
}
# a config's values, in CONFIG_KEYS order
_config_values = attrgetter(*(path for path, _ in CONFIG_KEYS.values()))


@dataclass(frozen=True)
class Problem:
    """What a run builds from its config, once, in `prepare`.

    config is the config it was prepared from, and the only one it runs under;
    clients are the simulated clients (one pooled client for central GDA). Each
    run seeds its minibatch Generator afresh from batch_seq, so a Problem reruns
    to the same bytes.
    accuracy is the (objective, labeled holdout) pair of the target accuracy;
    minibatches are drawn from shards under layout. oracle is the metric
    view when it is not the clients' own: central GDA on quadratics trains
    one MeanObjective, whose view holds the clients it pools.
    """

    config: ExperimentConfig
    clients: tuple[LocalObjective, ...]
    init_pair: PrimalDualPair
    batch_seq: np.random.SeedSequence
    accuracy: tuple[DomainAdaptObjective, DomainAdaptDataset] | None = None
    shards: tuple[DomainAdaptDataset, ...] | None = None
    layout: ModelLayout | None = None
    oracle: StackedObjectives | None = None


def prepare(config: ExperimentConfig) -> Problem:
    """The only place a config becomes a problem; a problem.file is read here, once.

    The config seed spawns the data, init, partition and minibatch streams.
    A bad problem.file, a partition that leaves a client without points and
    local_steps that do not fit the clients raise ValueError naming the key.
    """
    data_seq, init_seq, part_seq, batch_seq = np.random.SeedSequence(config.seed).spawn(4)
    path, quadratic = config.problem_file, config.problem is ProblemKind.QUADRATIC
    load = load_quadratic_objectives if quadratic else load_dataset
    try:
        loaded = None if path is None else load(path)
    except (FileNotFoundError, IsADirectoryError):
        raise ValueError(f"problem.file does not exist: {path}") from None
    except (OSError, ValueError) as e:
        raise ValueError(f"problem.file: {e}") from None
    central = config.optimizer is OptimizerKind.CENTRAL_GDA
    accuracy = shards = layout = oracle = None

    if quadratic:
        objs = loaded
        if loaded is None:
            n, d1, d2 = config.quad_n_clients, config.quad_d1, config.quad_d2
            try:
                specs = problems.synthetic_quadratic_specs(n, d1, d2)
            except RuntimeError as e:
                raise ValueError(
                    f"problem.n_clients={n} problem.d1={d1} problem.d2={d2}: {e}"
                ) from None
            objs = [QuadraticSaddle(s) for s in specs]
        d1, d2 = objs[0].dims
        init = PrimalDualPair(zeros(d1), zeros(d2))
        if central:
            pooled = MeanObjective(objs)
            objs, oracle = [pooled], pooled.view
    else:
        if loaded is not None:
            (dataset, n_classes), holdout = loaded, None
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
        if holdout is not None:
            accuracy = (pooled, holdout)
        if central:
            objs = [pooled]
        else:
            part_rng = np.random.Generator(np.random.PCG64(part_seq))
            try:
                shards = tuple(partition_label_shift(dataset, config.partition, part_rng))
            except ValueError as e:  # never on the toy: it has two points per domain
                n_src, part = int((dataset.domain == SOURCE).sum()), config.partition
                raise ValueError(
                    f"partition: {e}: problem.file {path} has {n_src} source and "
                    f"{len(dataset) - n_src} target points, "
                    f"partition.mode={part.mode.value} partition.p={part.p}"
                ) from None
            objs = [DomainAdaptObjective(s, config.hyper.nu, layout) for s in shards]

    try:
        config.hyper.expanded(len(objs))
    except ValueError as e:
        raise ValueError(f"hyper.local_steps: {e}") from None
    return Problem(config, tuple(objs), init, batch_seq, accuracy, shards, layout, oracle)


def run_experiment(config: ExperimentConfig, problem: Problem | None = None) -> RunLog:
    """Execute T rounds of the configured optimizer and record per-round metrics.

    problem is `prepare(config)`'s Problem, prepared here when not given;
    one prepared from another config raises ValueError.
    Each round's state goes into a MetricsBlock, which evaluates the metrics
    of a block_rounds(N, d1 + d2) block of rounds at once (and the last,
    shorter block after the final round). phi_grad_norm is computed through
    the diagnostics oracle (which peeks at all clients' objectives) every
    metrics_every-th round and on the final round; an inner-max failure
    degrades it to None instead of aborting.
    """
    if problem is None:
        problem = prepare(config)
    elif problem.config != config:
        raise ValueError("problem was prepared from another config")
    hp = config.hyper.expanded(len(problem.clients))
    server = ServerState(problem.init_pair)
    fed = Federation.initial(problem.clients, problem.init_pair)
    oracle = fed.view if problem.oracle is None else problem.oracle
    size = min(hp.rounds, block_rounds(fed.n, sum(oracle.dims)))
    block = MetricsBlock(oracle, fed.n, size, hp.tol, problem.accuracy)

    log = RunLog(config_echo=config.echo(), seed=config.seed)
    batch_rng = np.random.Generator(np.random.PCG64(problem.batch_seq))

    for t in range(hp.rounds):
        if config.batch_size > 0:
            # seeded minibatch mode: fresh per-round subsample of each shard
            batches = [shard.sample(batch_rng, config.batch_size) for shard in problem.shards]
            view = stacked([DomainAdaptObjective(b, hp.nu, problem.layout) for b in batches])
            fed = Federation(view, fed.Z, fed.D)
        try:
            fed = run_round(config.optimizer, fed, server, hp)
        except DivergenceError as e:
            raise DivergenceError(f"round {t}: {e.where}", e.step) from e
        block.add(t, fed, server, t % config.metrics_every == 0 or t == hp.rounds - 1)
        if block.full:
            log.rounds += block.flush()
    log.rounds += block.flush()
    return log
