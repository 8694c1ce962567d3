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
from collections import abc
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from itertools import islice, starmap
from operator import attrgetter, index
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, get_args, get_type_hints

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
    ModelLayout,
    PooledView,
    QuadraticSaddle,
    StackedObjectives,
    _StackedQuadratic,
    _unpooled,
    load_dataset,
    load_quadratic_objectives,
    phi_grads,
    pooled,
    stacked,
)
from fedmm.optim import Federation, LocalRound, OptimizerKind, run_round
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
    p: float = 0.5
    mode: PartitionMode = PartitionMode.TWO_CLIENT_P

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"partition.p must lie in [0, 1], got {self.p}")

    @property
    def n_clients(self) -> int:
        """The mode's client count, the only one a split in that mode has."""
        return _MODES[self.mode].n_clients


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


@dataclass(frozen=True)
class RoundMetrics:
    """One round's CSV row and the only statement of the per-round fields: `RECORD` derives from it.

    Every field is a plain Python int, float or None (a round whose
    phi_grad_norm was not sampled or failed, or a run without target
    accuracy). A row is built when it is read, so it is frozen: setting a
    field could not change the log.
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
_TYPES = get_type_hints(RoundMetrics)
_OPTIONAL_FIELDS = tuple(name for name, t in _TYPES.items() if type(None) in get_args(t))
# One logged round, packed, 58 bytes: the fields in RoundMetrics order, an int
# as int64 and any other as float64, then whether each optional field is None.
# A missing cell's float is NaN, but NaN never means missing: a loss can be NaN.
RECORD = np.dtype(
    [(name, np.int64 if t is int else np.float64) for name, t in _TYPES.items()]
    + [(f"{name}_missing", bool) for name in _OPTIONAL_FIELDS]
)

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


# to_csv's text comes in pieces of at most this many rows
_CSV_PIECE_ROWS = 256


def to_csv(header: str, rows: Iterable[Sequence]) -> Iterator[str]:
    """The CSV text of a header line and rows of cells: the only CSV writer.

    The text comes in pieces, the header line and then at most 256 rows
    each, read from rows as they are needed; "".join gives the whole text.
    """
    yield header + "\n"
    rows = iter(rows)
    while piece := [",".join(map(_fmt, row)) for row in islice(rows, _CSV_PIECE_ROWS)]:
        yield "\n".join(piece) + "\n"


def consensus(Z: np.ndarray, P: np.ndarray, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """(max_i ||omega_i - omega||, max_i ||psi_i - psi||): the clients' spread around the pair.

    Z holds one round's (N, d1 + d2) client rows, or B rounds', and P the
    pairs' joint rows. Each norm is row_norms' one-vector norm; max is exact.
    """
    return (
        row_norms(Z[..., :d1] - P[..., None, :d1]).max(axis=-1),
        row_norms(Z[..., d1:] - P[..., None, d1:]).max(axis=-1),
    )


# A metric block's evaluation, B rounds of P data points times d = d1 + d2
# parameters, holds at most this many floats: the only bound on B
_BLOCK_FLOATS = 16384


def round_points(
    view: StackedObjectives,
    accuracy: tuple[DomainAdaptObjective, DomainAdaptDataset] | None,
) -> int:
    """P, the data points one round's metrics evaluate.

    Each DANN client's shard size, or 1 per quadratic client, plus the
    holdout's points when the run measures target accuracy. A pooled view
    counts the clients it averages, since its global loss evaluates every one
    of them.
    """
    clients = _unpooled(view)
    quadratic = isinstance(clients, _StackedQuadratic)
    points = clients.n if quadratic else sum(len(o.dataset) for o in clients.objectives)
    return points + (0 if accuracy is None else len(accuracy[1]))


def block_rounds(points: int, d: int) -> int:
    """Rounds B per metric block when a round's metrics evaluate P points of d = d1 + d2 parameters.

    B = 16384 // (P d), at least 1, so that B P d, about the floats a flush's
    evaluation holds, stays within 16 384 unless one round alone exceeds it.
    That budget is the only bound: it also bounds the buffered client rows,
    N d a round (P >= N), and B reaches 8192 on one quadratic client with
    d1 = d2 = 1. P is `round_points`: N on quadratic clients.
    """
    return max(1, _BLOCK_FLOATS // (points * d))


class MetricsBlock:
    """Several rounds' metric inputs, evaluated together once the block is full.

    `add` copies a round's client rows fed.Z, its global pair's joint row
    [omega | psi], its index, its ledger and whether phi is sampled into
    preallocated arrays, the index and the ledger straight into the block's
    `RECORD`s, so the block holds no Python object per round. `flush`
    evaluates the buffered rounds' metrics, fills the rest of the records by
    field name, appends them to a RunLog in one call and empties the block:

    - consensus: row_norms of Z - pair on each block, then the max over clients;
    - global loss: one `values` call of `pooled(view)` at all the pairs;
    - target accuracy: one `evaluate_target_accuracy` call on all the omegas;
    - phi_grad_norm: one `phi_grads` call at the sampled rounds' omegas, then
      row_norms; a round whose inner maximization failed gets None. Phi's
      value is never computed.

    Every value is bit for bit what the one-round calls (`consensus` of one
    round, a one-pair pooled `values`, a one-omega `evaluate_target_accuracy`
    or `phi_value_and_grad`) give: each row's dot products, matrix products
    and solves keep the one-round shapes, and max and argmax are exact. A
    flush's temporaries grow as size * P * (d1 + d2) floats, P the
    `round_points` of the view and accuracy, and the buffers as size rounds
    of N (d1 + d2) + d1 + d2 floats and a 59-byte record and flag, so
    run_experiment takes size from `block_rounds`, whose float budget bounds
    both.
    """

    def __init__(
        self,
        view: StackedObjectives,
        size: int,
        tol: float,
        accuracy: tuple[DomainAdaptObjective, DomainAdaptDataset] | None = None,
    ):
        self.view, self.pooled, self.tol, self.accuracy = view, pooled(view), tol, accuracy
        d = sum(view.dims)
        self.Z = np.empty((size, view.n, d))
        self.P = np.empty((size, d))
        self.records = np.empty(size, RECORD)
        # views of the records' round and ledger columns, which add fills
        self._round, self._floats = self.records["round"], self.records["floats_communicated"]
        self.sampled = np.empty(size, bool)  # whether each round's phi_grad_norm is sampled
        self.size, self.k = size, 0  # the rounds it holds, and the rounds buffered

    @property
    def full(self) -> bool:
        return self.k == self.size

    def add(self, t: int, fed: Federation, server: ServerState, sample_phi: bool) -> None:
        """Buffer round t: the clients' rows, the server's pair and its ledger."""
        k = self.k
        self.Z[k] = fed.Z
        self.P[k] = server.global_pair.row
        self._round[k], self._floats[k], self.sampled[k] = t, server.floats_sent, sample_phi
        self.k = k + 1

    def flush(self, log: RunLog) -> None:
        """Log the buffered rounds' metrics after log's rounds, in round order; the block is empty afterwards."""
        k, d1 = self.k, self.view.dims[0]
        if not k:
            return
        Z, P = self.Z[:k], self.P[:k]
        omegas = P[:, :d1]
        spread = consensus(Z, P, d1)
        loss = self.pooled.values(P[:, None])[:, 0]
        accuracy = np.nan
        if self.accuracy is not None:
            objective, holdout = self.accuracy
            accuracy = evaluate_target_accuracy(objective, omegas, holdout)
        sampled = self.sampled[:k]
        some = True in sampled  # any() without a call
        if some:
            got = phi_grads(self.pooled, omegas[sampled], self.tol, max_iters=_PHI_ORACLE_ITER_CAP)
        r = self.records[:k]
        r["consensus_omega"], r["consensus_psi"] = spread
        r["global_loss"], r["target_accuracy"] = loss, accuracy
        r["phi_grad_norm"], r["phi_grad_norm_missing"] = np.nan, True  # but where sampled, below
        r["target_accuracy_missing"] = self.accuracy is None
        if some:
            r["phi_grad_norm"][sampled] = row_norms(got.grads)  # NaN where the inner max failed
            r["phi_grad_norm_missing"][sampled] = [error is not None for error in got.errors]
        log._extend(r)
        self.k = 0


def write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write-then-rename so failures never leave a partial file behind.

    text is the file's text, or its pieces in order, each written as it
    comes. Each call writes its own uniquely named temp file next to the
    target, so concurrent writers to one path never share a temp file; the
    last rename wins.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as f:
            if isinstance(text, str):
                f.write(text)
            else:
                f.writelines(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


def _cells(records: np.ndarray) -> Iterator[tuple]:
    """RECORD records as rows of Python ints, floats and None: the only record-to-row conversion."""
    column = {name: records[name].tolist() for name in RECORD.names}
    for name in _OPTIONAL_FIELDS:
        column[name] = [None if m else v for v, m in zip(column[name], column[f"{name}_missing"])]
    return zip(*map(column.get, METRIC_FIELDS))


# a RunLog's buffer starts with room for this many rounds, and grows by at least as many
_LOG_SPARE_ROUNDS = 256


class RunLog:
    """Per-round metrics; serializes to the run CSV.

    Each round is one `RECORD` in a byte buffer, never sized from the run's
    round count. A write that does not fit resizes the buffer, in place
    where the allocator can, to room for max(256, 1/16 of the logged rounds)
    more, so past 4096 rounds at most 1/16 of it is spare: 61.6 bytes a
    round. numpy resizes no array that something else references, such as a
    live view or a trace or profile hook; the log then copies into a new
    buffer instead. Every read drops its views before it returns or yields,
    so without a hook the buffer grows in place. `rounds` reads the log back
    as a read-only sequence of RoundMetrics, each built when it is read.
    """

    def __init__(self):
        self._bytes = np.empty(_LOG_SPARE_ROUNDS * RECORD.itemsize, np.uint8)
        self._n = 0  # the rounds logged

    @property
    def rounds(self) -> LoggedRounds:
        # a new view each time: a log that held its view would be a reference cycle, which only
        # the cyclic garbage collector frees, so finished logs would pile up until it ran
        return LoggedRounds(self)

    def _records(self, lo: int, hi: int) -> np.ndarray:
        """Logged rounds lo:hi as RECORD records, a view of the buffer."""
        return self._bytes[lo * RECORD.itemsize:hi * RECORD.itemsize].view(RECORD)

    def _extend(self, records: np.ndarray) -> None:
        """Log a contiguous (k,) RECORD array's rounds after the logged ones."""
        raw, at = records.view(np.uint8), self._n * RECORD.itemsize
        end = at + raw.size
        if end > self._bytes.size:
            size = end + max(end // 16, _LOG_SPARE_ROUNDS * RECORD.itemsize)
            try:
                self._bytes.resize(size)
            except ValueError:  # something holds a reference, a trace or profile hook say: copy instead
                grown = np.empty(size, np.uint8)
                grown[:at] = self._bytes[:at]
                self._bytes = grown
        self._bytes[at:end] = raw
        self._n = end // RECORD.itemsize

    def append(self, row: RoundMetrics) -> None:
        """Log one round's row after the logged ones; a None phi_grad_norm or target_accuracy is missing."""
        values = [getattr(row, name) for name in METRIC_FIELDS]
        missing = [getattr(row, name) is None for name in _OPTIONAL_FIELDS]
        # converted before anything is logged, so a bad row logs nothing
        self._extend(np.array([(*[np.nan if v is None else v for v in values], *missing)], RECORD))

    def _rows(self) -> Iterator[tuple]:
        """The logged rounds as `_cells` rows, 256 at a time; no view of the buffer is held across a yield."""
        n = self._n
        for lo in range(0, n, _CSV_PIECE_ROWS):
            yield from _cells(self._records(lo, min(lo + _CSV_PIECE_ROWS, n)))

    def column(self, name: str) -> np.ndarray:
        """One field's values over the logged rounds, a new (T,) int64 or float64 array.

        A missing phi_grad_norm or target_accuracy reads NaN here; `missing`
        tells it apart from a measured NaN.
        """
        return self._records(0, self._n)[name].copy()

    def missing(self, name: str) -> np.ndarray:
        """Whether each logged round's phi_grad_norm or target_accuracy is None, a new (T,) bool array."""
        return self._records(0, self._n)[f"{name}_missing"].copy()

    def csv_text(self) -> str:
        return "".join(to_csv(CSV_HEADER, self._rows()))

    def write_csv(self, path: str | Path) -> None:
        """Write the run CSV atomically, streamed: at most 256 rounds' cells and text are held at once."""
        write_atomic(path, to_csv(CSV_HEADER, self._rows()))

    def final(self) -> RoundMetrics | None:
        return self.rounds[-1] if self._n else None


class LoggedRounds(abc.Sequence):
    """A RunLog's rounds, read-only: len, an index (negative ones too) or iteration gives RoundMetrics."""

    def __init__(self, log: RunLog):
        self._log = log

    def __len__(self) -> int:
        return self._log._n

    def __getitem__(self, i) -> RoundMetrics:
        i = range(self._log._n)[index(i)]  # IndexError past either end; a negative index counts from the end
        return RoundMetrics(*next(_cells(self._log._records(i, i + 1))))

    def __iter__(self) -> Iterator[RoundMetrics]:
        return starmap(RoundMetrics, self._log._rows())


class ProblemKind(Enum):
    QUADRATIC = "quadratic"
    DOMAIN_ADAPT = "domain_adapt"


# a synthetic instance holds at most this many floats; a larger one is a config error
_SYNTHETIC_FLOATS = 2**24


@dataclass(frozen=True)
class ProblemSpec:
    """The problem a run builds: its kind, and an instance file or the sizes of a synthetic one."""

    kind: ProblemKind
    file: str | None = None
    n_clients: int = 3
    d1: int = 4
    d2: int = 3
    n_per_domain: int = 60
    holdout_n: int = 240

    def __post_init__(self):
        for name in ("n_clients", "d1", "d2", "n_per_domain", "holdout_n"):
            if getattr(self, name) < 1:
                raise ValueError(f"problem.{name} must be >= 1, got {getattr(self, name)}")
        n, d1, d2 = self.n_clients, self.d1, self.d2
        if self.kind is ProblemKind.QUADRATIC:
            names, floats = ("n_clients", "d1", "d2"), n * (d1 * d1 + d1 * d2 + d2 * d2 + d1 + d2)
        else:
            names, floats = ("n_per_domain", "holdout_n"), 2 * (2 * self.n_per_domain + self.holdout_n)
        if self.file is None and floats > _SYNTHETIC_FLOATS:
            named = " ".join(f"problem.{name}={getattr(self, name)}" for name in names)
            raise ValueError(f"{named}: a synthetic instance of {floats} floats, past the bound of 2**24")


# parse_config builds the groups in field order, then the config: a bad hyper.* key
# is reported first, then partition.*, problem.* and the top-level keys
@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    hyper: HyperParams = HyperParams()
    partition: PartitionSpec = PartitionSpec()
    optimizer: OptimizerKind
    problem: ProblemSpec
    seed: int = 0
    metrics_every: int = 1
    output_path: str = "run.csv"
    batch_size: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.metrics_every < 1:
            raise ValueError(f"metrics_every must be >= 1, got {self.metrics_every}")
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {self.batch_size}")
        # minibatches subsample the clients' domain-adaptation shards; quadratic
        # clients have none, and central GDA pools them into one client
        quadratic = self.problem.kind is ProblemKind.QUADRATIC
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
        values = (attrgetter(path)(self) for path, *_ in CONFIG_KEYS.values())
        return {key: v.value if isinstance(v, Enum) else v for key, v in zip(CONFIG_KEYS, values)}


# a config field's conversion of its value's text, and what the text must be, by the field's type
_CONVERSIONS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    str: (str, "text"),
    str | None: (str, "text"),
    tuple[int, ...]: (lambda raw: tuple(map(int, raw.split(","))), "an integer or comma list"),
}


def _enum_conversion(cls: type[Enum]) -> tuple[Callable[[str], Enum], str]:
    return (lambda raw: cls(raw.lower())), "one of " + ", ".join(m.value for m in cls)


def _config_keys(cls: type, prefix: str = "") -> Iterator[tuple[str, tuple]]:
    """(key, (attribute path, conversion, expected, required)) of each field of cls, a group's fields in its place.

    A group is a dataclass-typed field. A key is its field's attribute path, but a group's
    `kind` field takes the bare group key: `problem = quadratic` sets problem.kind.
    """
    hints = get_type_hints(cls)
    for f in fields(cls):
        path, hint = prefix + f.name, hints[f.name]
        if is_dataclass(hint):
            yield from _config_keys(hint, path + ".")
        else:
            convert, expected = _CONVERSIONS[hint] if hint in _CONVERSIONS else _enum_conversion(hint)
            key = prefix[:-1] if f.name == "kind" else path
            yield key, (path, convert, expected, f.default is MISSING)


# config key -> (attribute path, conversion, expected, required): the only list of config keys
CONFIG_KEYS = dict(_config_keys(ExperimentConfig))


@dataclass(frozen=True)
class Problem:
    """What a run builds from its config, once, in `prepare`.

    config is the config it was prepared from, and the only one it runs under.
    view is the stacked view of the simulated clients, which the run trains
    and measures; central GDA has one pooled row, the pooled dataset's
    objective or a PooledView of the quadratic clients. Each run seeds its
    minibatch Generator afresh from batch_seq, so a Problem reruns to the
    same bytes. accuracy is the (objective, labeled holdout) pair of the
    target accuracy.
    """

    config: ExperimentConfig
    view: StackedObjectives
    init_pair: PrimalDualPair
    accuracy: tuple[DomainAdaptObjective, DomainAdaptDataset] | None = None

    @property
    def batch_seq(self) -> np.random.SeedSequence:
        """The minibatch stream's seed, built when it is read: only minibatch runs read it."""
        return _stream(self.config.seed, _BATCH)


# the config seed's child streams, numbered as SeedSequence(seed).spawn(4) numbers them
_DATA, _INIT, _PARTITION, _BATCH = range(4)


def _stream(seed: int, i: int) -> np.random.SeedSequence:
    # child i of SeedSequence(seed), bit for bit spawn(4)[i], without spawning the others
    return np.random.SeedSequence(seed, spawn_key=(i,))


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_stream(seed, i)))


def prepare(config: ExperimentConfig) -> Problem:
    """The only place a config becomes a problem; a problem.file is read here, once.

    The config seed's child streams seed the toy data, the initial pair, the
    partition and the minibatches; each is built only where it is read, and
    quadratic problems read none of them.
    A bad problem.file, a partition that leaves a client without points and
    local_steps that do not fit the clients raise ValueError naming the key.
    """
    spec = config.problem
    path, quadratic = spec.file, spec.kind is ProblemKind.QUADRATIC
    load = load_quadratic_objectives if quadratic else load_dataset
    try:
        loaded = None if path is None else load(path)
    except (FileNotFoundError, IsADirectoryError):
        raise ValueError(f"problem.file does not exist: {path}") from None
    except (OSError, ValueError) as e:
        raise ValueError(f"problem.file: {e}") from None
    central = config.optimizer is OptimizerKind.CENTRAL_GDA
    accuracy = None

    if quadratic:
        objs = loaded
        if loaded is None:
            n, d1, d2 = spec.n_clients, spec.d1, spec.d2
            try:
                specs = problems.synthetic_quadratic_specs(n, d1, d2)
            except RuntimeError as e:
                raise ValueError(
                    f"problem.n_clients={n} problem.d1={d1} problem.d2={d2}: {e}"
                ) from None
            objs = [QuadraticSaddle(s) for s in specs]
        d1, d2 = objs[0].dims
        init = PrimalDualPair(zeros(d1), zeros(d2))
    else:
        if loaded is not None:
            (dataset, n_classes), holdout = loaded, None
            layout = ModelLayout(dataset.X.shape[1], dataset.X.shape[1], n_classes)
        else:
            dataset, holdout, layout = problems.domain_shift_toy(
                _rng(config.seed, _DATA), spec.n_per_domain, spec.holdout_n
            )
        pooled = DomainAdaptObjective(dataset, config.hyper.nu, layout)
        init_rng = _rng(config.seed, _INIT)
        init = PrimalDualPair(
            vector(0.1 * init_rng.standard_normal(layout.d1)),
            vector(0.1 * init_rng.standard_normal(layout.d2)),
        )
        if holdout is not None:
            accuracy = (pooled, holdout)
        if central:
            objs = [pooled]
        else:
            part_rng = _rng(config.seed, _PARTITION)
            try:
                shards = partition_label_shift(dataset, config.partition, part_rng)
            except ValueError as e:  # never on the toy: it has two points per domain
                n_src, part = int((dataset.domain == SOURCE).sum()), config.partition
                raise ValueError(
                    f"partition: {e}: problem.file {path} has {n_src} source and "
                    f"{len(dataset) - n_src} target points, "
                    f"partition.mode={part.mode.value} partition.p={part.p}"
                ) from None
            objs = [DomainAdaptObjective(s, config.hyper.nu, layout) for s in shards]

    view = stacked(objs)
    if central and quadratic:
        view = PooledView(view)
    try:
        config.hyper.expanded(view.n)
    except ValueError as e:
        raise ValueError(f"hyper.local_steps: {e}") from None
    return Problem(config, view, init, accuracy)


def run_experiment(config: ExperimentConfig, problem: Problem | None = None) -> RunLog:
    """Execute T rounds of the configured optimizer and record per-round metrics.

    problem is `prepare(config)`'s Problem, prepared here when not given;
    one prepared from another config raises ValueError.
    Each round's state goes into a MetricsBlock, which evaluates the metrics
    of a block of rounds at once (and the last, shorter block after the
    final round), all on problem.view. The block holds
    block_rounds(round_points(problem.view, problem.accuracy), d1 + d2)
    rounds, or the run's rounds when they are fewer: the float budget alone
    sizes it, fewer rounds the more data a round's metrics evaluate (780 on
    the shipped three-client quadratic, 9 on the label-shift toy).
    phi_grad_norm is computed every metrics_every-th round and on the final
    round; an inner-max failure degrades it to None instead of aborting.
    """
    if problem is None:
        problem = prepare(config)
    elif problem.config != config:
        raise ValueError("problem was prepared from another config")
    hp = config.hyper.expanded(problem.view.n)
    server = ServerState(problem.init_pair)
    fed = Federation.initial(problem.view, problem.init_pair)
    points = round_points(problem.view, problem.accuracy)
    size = min(hp.rounds, block_rounds(points, sum(problem.view.dims)))
    block = MetricsBlock(fed.view, size, hp.tol, problem.accuracy)

    log = RunLog()
    every, last, batch = config.metrics_every, hp.rounds - 1, config.batch_size
    # only seeded minibatch mode draws from its stream; one round serves every sampled view
    batch_rng = np.random.Generator(np.random.PCG64(problem.batch_seq)) if batch else None
    local = LocalRound(config.optimizer, fed.view, hp) if hp.rounds else None

    for t in range(hp.rounds):
        if batch:
            # a fresh per-round subsample of each client's shard
            view = stacked([
                DomainAdaptObjective(o.dataset.sample(batch_rng, batch), hp.nu, o.layout)
                for o in problem.view.objectives
            ])
            fed = Federation(view, fed.Z, fed.D)
        try:
            fed = run_round(local, fed, server)
        except DivergenceError as e:
            raise DivergenceError(f"round {t}: {e.where}", e.step) from e
        block.add(t, fed, server, t % every == 0 or t == last)
        if block.full:
            block.flush(log)
    block.flush(log)
    return log
