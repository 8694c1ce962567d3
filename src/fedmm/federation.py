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
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass, fields
from enum import Enum
from itertools import islice, starmap
from operator import attrgetter, index
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    """One round's CSV row, as a RunLog reads it back from its columns.

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


# A metric block holds at most this many rounds, and its evaluation, B rounds
# of P data points times d = d1 + d2 parameters, at most this many floats
_BLOCK_ROUNDS = 64
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

    B = min(64, 16384 // (P d)), at least 1, so that B P d, about the floats
    a flush's evaluation holds, stays within 16 384 unless one round alone
    exceeds it. That also bounds the buffered client rows, N d a round
    (P >= N). P is `round_points`: N on quadratic clients.
    """
    return min(_BLOCK_ROUNDS, max(1, _BLOCK_FLOATS // (points * d)))


# the fields of _Columns' ints, floats and missing rows, in row order
_INT_FIELDS = ("round", "floats_communicated")
_FLOAT_FIELDS = ("phi_grad_norm", "consensus_omega", "consensus_psi", "global_loss", "target_accuracy")
_OPTIONAL_FIELDS = ("phi_grad_norm", "target_accuracy")


class _Columns:
    """Rows of RoundMetrics stored by field: row j of an array is one field, column i one round.

    ints holds round and floats_communicated, floats the five metric fields
    in RoundMetrics order, and missing whether phi_grad_norm, then
    target_accuracy, is None: 58 bytes a round. A missing cell's float is
    NaN, but NaN never means missing, since a real loss or norm can be NaN.
    """

    __slots__ = ("rounds", "ints", "floats", "missing")

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.ints = np.empty((2, rounds), np.int64)
        self.floats = np.empty((5, rounds))
        self.missing = np.empty((2, rounds), bool)

    def cells(self, lo: int, hi: int) -> Iterator[tuple]:
        """Rounds lo:hi as tuples of Python ints, floats and None, in RoundMetrics field order."""
        (t, sent), (phi, om, ps, loss, acc), (no_phi, no_acc) = (
            a[:, lo:hi].tolist() for a in (self.ints, self.floats, self.missing)
        )
        phi = [None if m else v for v, m in zip(phi, no_phi)]
        acc = [None if m else v for v, m in zip(acc, no_acc)]
        return zip(t, phi, om, ps, loss, acc, sent)


class MetricsBlock:
    """Several rounds' metric inputs, evaluated together once the block is full.

    `add` copies a round's client rows fed.Z and its global pair's joint row
    [omega | psi] into preallocated buffers. `flush` evaluates the buffered
    rounds' metrics, writes them straight into a RunLog's columns and
    empties the block:

    - consensus: row_norms of Z - pair on each block, then the max over clients;
    - global loss: one `values` call of `pooled(view)` at all the pairs;
    - target accuracy: one `evaluate_target_accuracy` call on all the omegas;
    - phi_grad_norm: one `phi_grads` call at the sampled rounds' omegas, then
      row_norms; a round whose inner maximization failed gets None. Phi's
      value is never computed.

    Every value is bit for bit what the one-round calls (`consensus`, a
    one-pair pooled `values`, a one-omega `evaluate_target_accuracy` or
    `phi_value_and_grad`) give: each row's dot products, matrix products and
    solves keep the one-round shapes, and max and argmax are exact. A
    flush's temporaries grow as size * P * (d1 + d2) floats, P the
    `round_points` of the view and accuracy, so run_experiment takes size
    from `block_rounds`.
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

    def flush(self, log: RunLog) -> None:
        """Log the buffered rounds' metrics after log's rounds, in round order; the block is empty afterwards."""
        k, d1 = len(self.rounds), self.view.dims[0]
        if not k:
            return
        Z, P = self.Z[:k], self.P[:k]
        omegas = P[:, :d1]
        spread = _consensus(Z, P, d1)
        loss = self.pooled.values(omegas[:, None], P[:, None, d1:])[:, 0]
        accuracy = np.nan
        if self.accuracy is not None:
            objective, holdout = self.accuracy
            accuracy = evaluate_target_accuracy(objective, omegas, holdout)
        ts, floats, sample_phi = zip(*self.rounds)
        sampled = [b for b, sample in enumerate(sample_phi) if sample]
        if sampled:
            got = phi_grads(self.pooled, omegas[sampled], self.tol, max_iters=_PHI_ORACLE_ITER_CAP)
        ints, F, missing = log._claim(k)
        ints[:] = ts, floats
        F[0], F[1:4], F[4] = np.nan, (*spread, loss), accuracy
        missing[:] = [True], [self.accuracy is None]  # phi_grad_norm: but where sampled, below
        if sampled:
            F[0, sampled] = row_norms(got.grads)  # NaN where the inner max failed
            missing[0, sampled] = [error is not None for error in got.errors]
        self.rounds = []


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


# a RunLog chunk holds about this many rounds: the whole number of k-round writes that fit
_LOG_CHUNK_ROUNDS = 256


class RunLog:
    """Per-round metrics plus the config echo; serializes to the run CSV.

    The rounds are stored by column, 58 bytes a round (`_Columns`), in
    chunks allocated as rounds are logged, never sized up front from the
    run's round count. The log starts with one chunk of 256 rounds. A write
    of k rounds goes into the last chunk when it has room, else into a new
    one of max(1, 256 // k) * k rounds, which the run's k-round metric
    blocks then fill exactly. `rounds` reads the log back as a read-only
    sequence of RoundMetrics, each built when it is read.
    """

    def __init__(self, config_echo: dict, seed: int):
        self.config_echo, self.seed = config_echo, seed
        self._chunks, self._starts = [_Columns(_LOG_CHUNK_ROUNDS)], [0]  # and each one's first round
        self._n = self._at = 0  # the rounds logged, and those of them in the last chunk

    @property
    def rounds(self) -> LoggedRounds:
        # a new view each time: a log that held its view would be a reference cycle, which only
        # the cyclic garbage collector frees, so finished logs would pile up until it ran
        return LoggedRounds(self)

    def _claim(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ints, floats and missing columns of k more rounds, views for the caller to fill.

        The k rounds count as logged from here on.
        """
        c, at = self._chunks[-1], self._at
        if at + k > c.rounds:
            c, at = _Columns(max(1, _LOG_CHUNK_ROUNDS // k) * k), 0
            self._chunks.append(c)
            self._starts.append(self._n)
        self._at = stop = at + k
        self._n += k
        return c.ints[:, at:stop], c.floats[:, at:stop], c.missing[:, at:stop]

    def append(self, row: RoundMetrics) -> None:
        """Log one round's row after the logged ones; a None phi_grad_norm or target_accuracy is missing."""
        phi, acc = row.phi_grad_norm, row.target_accuracy
        cells = (  # converted before the round is claimed, so a bad row logs nothing
            np.array((row.round, row.floats_communicated), np.int64),
            np.array((
                np.nan if phi is None else phi, row.consensus_omega, row.consensus_psi,
                row.global_loss, np.nan if acc is None else acc,
            ), np.float64),
            (phi is None, acc is None),
        )
        for column, values in zip(self._claim(1), cells):
            column[:, 0] = values

    def _logged(self) -> Iterator[tuple[_Columns, int]]:
        """Each chunk and its number of logged rounds."""
        ends = [*self._starts[1:], self._n]
        return zip(self._chunks, (end - start for start, end in zip(self._starts, ends)))

    def _cells(self) -> Iterator[tuple]:
        for chunk, rounds in self._logged():
            yield from chunk.cells(0, rounds)

    def _row(self, i: int) -> RoundMetrics:
        """Round i's row, 0 <= i < the rounds logged."""
        c = bisect_right(self._starts, i) - 1
        at = i - self._starts[c]
        return RoundMetrics(*next(self._chunks[c].cells(at, at + 1)))

    def column(self, name: str) -> np.ndarray:
        """One field's values over the logged rounds, a new (T,) int64 or float64 array.

        A missing phi_grad_norm or target_accuracy reads NaN here; `missing`
        tells it apart from a measured NaN.
        """
        if name in _INT_FIELDS:
            return self._gather("ints", _INT_FIELDS.index(name))
        return self._gather("floats", _FLOAT_FIELDS.index(name))

    def missing(self, name: str) -> np.ndarray:
        """Whether each logged round's phi_grad_norm or target_accuracy is None, a new (T,) bool array."""
        return self._gather("missing", _OPTIONAL_FIELDS.index(name))

    def _gather(self, columns: str, j: int) -> np.ndarray:
        """Row j of the chunks' `columns` arrays ("ints", "floats" or "missing"), logged rounds only."""
        return np.concatenate([getattr(c, columns)[j, :n] for c, n in self._logged()])

    def csv_text(self) -> str:
        return "".join(to_csv(CSV_HEADER, self._cells()))

    def write_csv(self, path: str | Path) -> None:
        """Write the run CSV atomically, streamed: at most a chunk's cells and 256 rows' text are held at once."""
        write_atomic(path, to_csv(CSV_HEADER, self._cells()))

    def final(self) -> RoundMetrics | None:
        return self.rounds[-1] if self._n else None


class LoggedRounds(abc.Sequence):
    """A RunLog's rounds, read-only: len, an index (negative ones too) or iteration gives RoundMetrics."""

    def __init__(self, log: RunLog):
        self._log = log

    def __len__(self) -> int:
        return self._log._n

    def __getitem__(self, i) -> RoundMetrics:
        n, i = self._log._n, index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("round index out of range")
        return self._log._row(i)

    def __iter__(self) -> Iterator[RoundMetrics]:
        return starmap(RoundMetrics, self._log._cells())


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
    batch_seq: np.random.SeedSequence
    accuracy: tuple[DomainAdaptObjective, DomainAdaptDataset] | None = None


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
    accuracy = None

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
    return Problem(config, view, init, batch_seq, accuracy)


def run_experiment(config: ExperimentConfig, problem: Problem | None = None) -> RunLog:
    """Execute T rounds of the configured optimizer and record per-round metrics.

    problem is `prepare(config)`'s Problem, prepared here when not given;
    one prepared from another config raises ValueError.
    Each round's state goes into a MetricsBlock, which evaluates the metrics
    of a block of rounds at once (and the last, shorter block after the
    final round), all on problem.view. The block holds
    block_rounds(round_points(problem.view, problem.accuracy), d1 + d2)
    rounds, fewer the more data a round's metrics evaluate.
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

    log = RunLog(config_echo=config.echo(), seed=config.seed)
    batch_rng = np.random.Generator(np.random.PCG64(problem.batch_seq))

    for t in range(hp.rounds):
        if config.batch_size > 0:
            # seeded minibatch mode: fresh per-round subsample of each client's shard
            view = stacked([
                DomainAdaptObjective(o.dataset.sample(batch_rng, config.batch_size), hp.nu, o.layout)
                for o in problem.view.objectives
            ])
            fed = Federation(view, fed.Z, fed.D)
        try:
            fed = run_round(config.optimizer, fed, server, hp)
        except DivergenceError as e:
            raise DivergenceError(f"round {t}: {e.where}", e.step) from e
        block.add(t, fed, server, t % config.metrics_every == 0 or t == hp.rounds - 1)
        if block.full:
            block.flush(log)
    block.flush(log)
    return log
