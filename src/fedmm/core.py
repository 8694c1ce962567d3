"""Parameter containers, deterministic RNG, and the per-row vector kernels.

Parameter vectors are flat 1-D float64 numpy arrays, frozen (read-only) at
construction. Every operation here is pure: inputs are never modified and
results are freshly allocated. All randomness in the package flows through
:func:`seeded_rng`, which pins a single generator algorithm (PCG64) so that
identical seeds give identical streams across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

Vector = np.ndarray


class DivergenceError(RuntimeError):
    """An optimizer iterate became non-finite."""

    def __init__(self, where: str, step: int):
        super().__init__(f"non-finite iterate in {where} at step {step}")
        self.where = where
        self.step = step


class ConvergenceError(RuntimeError):
    """An iterative solve hit its iteration cap before reaching tolerance."""

    def __init__(self, what: str, grad_norm: float, iterations: int):
        super().__init__(
            f"{what} did not converge: gradient norm {grad_norm:.3e} "
            f"after {iterations} iterations"
        )
        self.grad_norm = grad_norm
        self.iterations = iterations


def vector(data: Sequence[float] | np.ndarray) -> Vector:
    """Build a frozen float64 parameter vector, rejecting NaN/Inf."""
    v = np.array(data, dtype=np.float64).reshape(-1)
    require_finite(v)
    v.flags.writeable = False
    return v


class RejectedRows(ValueError):
    """require_finite's error; row is the first row (client) that holds a NaN or an infinity."""

    def __init__(self, row: int):
        super().__init__("parameter vector contains non-finite entries")
        self.row = row


def require_finite(a: np.ndarray) -> None:
    """Raise vector()'s ValueError, a RejectedRows, if `a` holds a NaN or an infinity.

    Its row is the lowest failing row of an (..., N, d) stack, or 0 for a
    vector, searched for only once the one passing reduction has failed.
    """
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        rows = np.isfinite(a).reshape((-1,) + np.atleast_2d(a).shape[-2:]).all(axis=(0, 2))
        raise RejectedRows(int(np.argmin(rows)))


def zeros(n: int) -> Vector:
    v = np.zeros(n, dtype=np.float64)
    v.flags.writeable = False
    return v


def row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Each row's X[..., r, :] . Y[..., r, :], bit for bit the dot product a 1-D `x @ y` takes.

    Axes before the last one are rows, any number of them: (N, d) gives (N,),
    (B, N, d) gives (B, N). A plain (N, d) @ (d,) matvec rounds differently.
    """
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def row_norms(G: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, bit for bit what np.linalg.norm gives for that row.

    np.linalg.norm takes a vector's norm as sqrt(g . g), with the same dot
    product. Leading axes are kept, as in row_dot.
    """
    return np.sqrt(row_dot(G, G))


def row_sum(rows: np.ndarray, axis: int = 0) -> np.ndarray:
    """rows[0] + rows[1] + ... along `axis` in order, one add per row, as a loop over the rows adds them.

    Axes before `axis` are leading axes, each position summed on its own:
    row_sum(V, axis=1) of a (B, N) array gives the B sums of N values.
    np.add.accumulate adds strictly in sequence; np.sum would switch to
    pairwise summation when the rows have one entry.
    """
    acc = np.add.accumulate(rows, axis=axis)
    return acc[-1] if axis == 0 else acc[(slice(None),) * (axis % acc.ndim) + (-1,)]


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: PCG64 keyed by the 64-bit seed, nothing else."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True, init=False)
class PrimalDualPair:
    """One (omega, psi) point of the minimax problem, held as one frozen joint row.

    row is the (d1 + d2,) array [omega | psi]; omega and psi are read-only
    views of its two blocks, and dims is (d1, d2). PrimalDualPair(omega, psi)
    concatenates the blocks once; `of_row` takes a frozen row as it is, which
    is how the aggregated pair reaches the next round without a copy.
    """

    omega: Vector
    psi: Vector
    row: Vector = field(init=False, repr=False, compare=False)
    dims: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __init__(self, omega: Vector, psi: Vector):
        row = np.concatenate((omega, psi))
        row.flags.writeable = False
        self.__dict__.update(vars(self.of_row(row, len(omega))))

    @classmethod
    def of_row(cls, row: Vector, d1: int) -> "PrimalDualPair":
        """The pair whose joint row is the frozen (d1 + d2,) `row`, taken as it is."""
        pair = cls.__new__(cls)
        # set past the frozen __setattr__, as a frozen dataclass's own __init__ does
        pair.__dict__.update(omega=row[:d1], psi=row[d1:], row=row, dims=(d1, len(row) - d1))
        return pair


@dataclass
class ServerState:
    """Global consensus pair plus the round counter and communication ledger."""

    global_pair: PrimalDualPair
    round: int = 0
    floats_sent: int = 0

    def record_round(self, n_clients: int) -> None:
        """One round = every client downloads and uploads both blocks."""
        self.floats_sent += n_clients * 2 * len(self.global_pair.row)
        self.round += 1


@dataclass(frozen=True)
class HyperParams:
    """Optimizer hyperparameters shared by all algorithm variants.

    local_steps holds one entry per client (M_i). local_tol, when positive,
    switches FedMM's local solve from fixed-step to run-until-gradient-norm
    mode; it is ignored by the other optimizers.
    """

    mu1: float = 1.0
    mu2: float = 1.0
    eta1: float = 0.01
    eta2: float = 0.01
    eta3: float = 1.0
    nu: float = 0.25
    local_steps: tuple[int, ...] = (20,)
    rounds: int = 200
    prox_mu: float = 1.0
    tol: float = 1e-6
    local_tol: float = 0.0
    local_max_iters: int = 200_000

    def __post_init__(self):
        for name in ("mu1", "mu2", "eta1", "eta2", "nu", "prox_mu", "tol", "local_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"hyper.{name} must be finite, got {value!r}")
        # (field, whether its value is in range, the range), checked in field order
        for name, ok, rule in (
            ("mu1", self.mu1 > 0, "must be positive"),
            ("mu2", self.mu2 > 0, "must be positive"),
            ("eta1", self.eta1 > 0, "must be positive"),
            ("eta2", self.eta2 > 0, "must be positive"),
            ("eta3", 0.0 < self.eta3 <= 1.0, "must be in (0, 1]"),
            ("nu", self.nu >= 0, "must be nonnegative"),
            ("local_steps", all(m >= 1 for m in self.local_steps), "must all be >= 1"),
            ("rounds", self.rounds >= 0, "must be >= 0"),
            ("prox_mu", self.prox_mu >= 0, "must be nonnegative"),
            ("tol", self.tol > 0, "must be positive"),
            ("local_tol", self.local_tol >= 0, "must be nonnegative"),
            ("local_max_iters", self.local_max_iters >= 1, "must be >= 1"),
        ):
            if not ok:
                raise ValueError(f"hyper.{name} {rule}, got {getattr(self, name)}")

    def expanded(self, n_clients: int) -> "HyperParams":
        """Replicate a single M entry to one per client."""
        if len(self.local_steps) == n_clients:
            return self
        if len(self.local_steps) == 1:
            return replace(self, local_steps=self.local_steps * n_clients)
        raise ValueError(
            f"local_steps has {len(self.local_steps)} entries for {n_clients} clients"
        )
