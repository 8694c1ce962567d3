"""Local minimax objectives: quadratic saddles and the domain-adaptation toy.

Both families expose value / grad_omega / grad_psi on flat parameter vectors,
plus grads(omega, psi) -> (grad_omega, grad_psi), which evaluates both
blocks at one point. `stacked(objectives)` evaluates N clients at N points
in one call, as the optimizers' client-stacked local solve needs: its
joint_grads takes (N, d1 + d2) joint rows [omega | psi] and returns the
gradients as joint rows [grad_omega | grad_psi] in one buffer, every row
evaluated (the optimizers mask rows in their step, not here). The same view
gives the per-round metric oracles their client averages (the global loss,
MeanObjective, inner_max and the phi oracle), summed in client order by one
`row_sum` call.

Each family's math is written once, in its stacked view. A QuadraticSaddle
or DomainAdaptObjective evaluates itself through a one-row view of itself,
so one client alone, the per-row fallback and the batched view all run the
same code.

The quadratic family is the closed-form-verifiable workhorse:

    f(omega, psi) = 1/2 om'A om + om'B ps - 1/2 ps'C ps + a'om + c'ps

with C positive definite, so the inner maximizer has the closed form
psi*(omega) = Cbar^-1 (Bbar' omega + cbar) when averaged over clients.

The domain-adaptation objective is the smallest model with the split between
a minimized block (linear extractor W and softmax predictor V) and a
maximized block (logistic domain classifier u): labeled points contribute
cross-entropy plus nu*log(1 - h(z)), unlabeled points contribute
nu*log(h(z)), with z = W x the extracted feature.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from fedmm.core import ConvergenceError, Vector, require_finite, row_dot, row_sum, vector

SOURCE = 0
TARGET = 1
UNLABELED = -1


class LocalObjective(ABC):
    """Deterministic full-batch objective f_i(omega, psi) with analytic gradients."""

    @property
    @abstractmethod
    def dims(self) -> tuple[int, int]:
        """(d1, d2) = (len(omega), len(psi))."""

    @abstractmethod
    def value(self, omega: Vector, psi: Vector) -> float: ...

    @abstractmethod
    def grad_omega(self, omega: Vector, psi: Vector) -> Vector: ...

    @abstractmethod
    def grad_psi(self, omega: Vector, psi: Vector) -> Vector: ...

    def grads(self, omega: Vector, psi: Vector) -> tuple[Vector, Vector]:
        """(grad_omega, grad_psi) at one point; override to share work between blocks."""
        return self.grad_omega(omega, psi), self.grad_psi(omega, psi)


# --------------------------- quadratic family --------------------------- #


@dataclass(frozen=True)
class QuadraticSaddleSpec:
    """Matrices of one client's quadratic saddle; A may be indefinite, C must be PD."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    a: Vector
    c: Vector


def _symmetric(M: np.ndarray) -> np.ndarray:
    """Per stacked matrix, np.allclose(M, M.T, atol=1e-12) as one expression: (N,) bools.

    allclose's rule |a - b| <= atol + rtol*|b| with b = M.T and its default
    rtol = 1e-5; for finite entries it accepts exactly what allclose does.
    """
    MT = np.swapaxes(M, 1, 2)
    # a NaN from inf - inf, or an overflowed difference, compares False: not symmetric
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.abs(M - MT) <= 1e-12 + 1e-5 * np.abs(MT)).reshape(len(M), -1).all(axis=1)


def _blocks(rows: np.ndarray, d1: int, d2: int) -> tuple[np.ndarray, ...]:
    """Views A (N, d1, d1), B (N, d1, d2), C (N, d2, d2), a (N, d1), c (N, d2) of client rows.

    Row r of `rows` is client r's [A | B | C | a | c], each block row-major:
    the layout of a quadratic instance file.
    """
    n = len(rows)
    i1 = d1 * d1
    i2 = i1 + d1 * d2
    i3 = i2 + d2 * d2
    i4 = i3 + d1
    return (
        rows[:, :i1].reshape(n, d1, d1),
        rows[:, i1:i2].reshape(n, d1, d2),
        rows[:, i2:i3].reshape(n, d2, d2),
        rows[:, i3:i4],
        rows[:, i4:],
    )


def _quadratic_fault(rows: np.ndarray, d1: int, d2: int) -> tuple[int, str] | None:
    """The first client whose quadratic saddle is malformed, and what is wrong; None if none is.

    `rows` holds one client per row, laid out as _blocks reads it. A client
    passes when every entry is finite, A and C are symmetric (as _symmetric
    decides) and C is positive definite, which one batched eigvalsh decides.
    """
    blocks = _blocks(rows, d1, d2)
    A, C = blocks[0], blocks[2]
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        # eigvalsh fails on a non-finite matrix; such a client fails as non-finite anyway
        C = np.where(finite[:, None, None], C, np.eye(d2))
    lam_min = np.linalg.eigvalsh(C).min(axis=1)
    sym_a, sym_c = _symmetric(A), _symmetric(C)
    ok = finite & sym_a & sym_c & (lam_min > 0.0)
    if ok.all():
        return None
    i = int(ok.argmin())
    if not finite[i]:
        name = next(k for k, x in zip("ABCac", blocks) if not np.isfinite(x[i]).all())
        return i, f"{name} has a non-finite entry"
    if not sym_a[i]:
        return i, "A must be symmetric"
    if not sym_c[i]:
        return i, "C must be symmetric"
    return i, f"C is not positive definite: smallest eigenvalue {lam_min[i]:.6e}"


class QuadraticSaddle(LocalObjective):
    def __init__(self, spec: QuadraticSaddleSpec):
        blocks = [np.asarray(x, dtype=np.float64) for x in (spec.A, spec.B, spec.C)]
        blocks += [np.asarray(x, dtype=np.float64).reshape(-1) for x in (spec.a, spec.c)]
        A, B, C, a, c = blocks
        d1, d2 = len(a), len(c)
        if A.shape != (d1, d1) or B.shape != (d1, d2) or C.shape != (d2, d2):
            raise ValueError(
                f"inconsistent shapes: A{A.shape} B{B.shape} C{C.shape} a({d1},) c({d2},)"
            )
        # one frozen row in the file layout, which the loader's check reads as well
        row = np.concatenate([x.reshape(-1) for x in blocks]).reshape(1, -1)
        row.flags.writeable = False
        fault = _quadratic_fault(row, d1, d2)
        if fault is not None:
            raise ValueError(fault[1])
        self.A, self.B, self.C, self.a, self.c = (x[0] for x in _blocks(row, d1, d2))

    @classmethod
    def _checked(cls, A, B, C, a, c) -> "QuadraticSaddle":
        """An objective on frozen blocks that _quadratic_fault has already passed."""
        obj = cls.__new__(cls)
        obj.A, obj.B, obj.C, obj.a, obj.c = A, B, C, a, c
        return obj

    @property
    def dims(self) -> tuple[int, int]:
        return len(self.a), len(self.c)

    @functools.cached_property
    def _view(self) -> "_StackedQuadratic":
        return _StackedQuadratic((self,))

    def value(self, omega: Vector, psi: Vector) -> float:
        return float(self._view.values(_row(omega), _row(psi))[0])

    def grad_omega(self, omega: Vector, psi: Vector) -> Vector:
        return vector(self._view.grad_omega(_row(omega), _row(psi))[0])

    def grad_psi(self, omega: Vector, psi: Vector) -> Vector:
        return vector(self._view.grad_psi(_row(omega), _row(psi))[0])

    def strong_concavity_modulus(self) -> float:
        """Curvature bound B of the psi block: smallest eigenvalue of C."""
        return float(np.linalg.eigvalsh(self.C).min())

    def lipschitz_bounds(self) -> dict[str, float]:
        """Operator-norm gradient Lipschitz constants L11, L12, L21, L22."""
        nB = float(np.linalg.norm(self.B, 2))
        return {
            "L11": float(np.linalg.norm(self.A, 2)),
            "L12": nB,
            "L21": nB,
            "L22": float(np.linalg.norm(self.C, 2)),
        }


# ----------------------- domain-adaptation family ----------------------- #


@dataclass(frozen=True)
class ModelLayout:
    """Block layout of the flat parameter vectors.

    omega = [W (feat_dim x in_dim, row-major), V (n_classes x feat_dim, row-major)]
    psi   = [u (feat_dim,)]
    """

    in_dim: int
    feat_dim: int
    n_classes: int

    @property
    def d1(self) -> int:
        return self.feat_dim * self.in_dim + self.n_classes * self.feat_dim

    @property
    def d2(self) -> int:
        return self.feat_dim

    def unpack_omega(self, omega: Vector) -> tuple[np.ndarray, np.ndarray]:
        """Views W and V of omega; an (..., d1) stack of omegas gives (..., feat, in) and (..., classes, feat)."""
        nw, lead = self.feat_dim * self.in_dim, omega.shape[:-1]
        W = omega[..., :nw].reshape(lead + (self.feat_dim, self.in_dim))
        V = omega[..., nw:].reshape(lead + (self.n_classes, self.feat_dim))
        return W, V


@dataclass
class DomainAdaptDataset:
    """Feature matrix plus per-point labels and domain flags.

    domain is SOURCE (0) or TARGET (1); labels are class indices on source
    points and UNLABELED (-1) on target points. A holdout dataset (harness-only
    evaluation knowledge) may carry ground-truth labels on target points.
    """

    X: np.ndarray
    y: np.ndarray
    domain: np.ndarray
    holdout: bool = False

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.domain = np.asarray(self.domain, dtype=np.int64)
        n = len(self.X)
        if self.y.shape != (n,) or self.domain.shape != (n,):
            raise ValueError("X, y, domain must have matching first dimension")
        if not ((self.domain == SOURCE) | (self.domain == TARGET)).all():
            raise ValueError("domain flags must be SOURCE (0) or TARGET (1)")
        if (self.y[self.domain == SOURCE] < 0).any():
            raise ValueError("every source point must carry a label")
        if not self.holdout and (self.y[self.domain == TARGET] != UNLABELED).any():
            raise ValueError("target points must be unlabeled (-1)")

    def __len__(self) -> int:
        return len(self.X)

    def subset(self, idx: np.ndarray) -> "DomainAdaptDataset":
        return DomainAdaptDataset(self.X[idx], self.y[idx], self.domain[idx], self.holdout)

    def sample(self, rng: np.random.Generator, batch_size: int) -> "DomainAdaptDataset":
        """Seeded minibatch (without replacement); full batch is the default elsewhere."""
        n = len(self)
        k = min(batch_size, n)
        idx = rng.choice(n, size=k, replace=False)
        return self.subset(np.sort(idx))


def _softplus(t: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, t)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return np.exp(-_softplus(-t))


class DomainAdaptObjective(LocalObjective):
    """DANN-style adversarial objective on one client's shard, full-batch."""

    def __init__(
        self,
        dataset: DomainAdaptDataset,
        nu: float,
        layout: ModelLayout,
        alpha: float | None = None,
    ):
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        if dataset.holdout:
            raise ValueError("holdout datasets are evaluation-only, not trainable")
        if dataset.X.shape[1] != layout.in_dim:
            raise ValueError(
                f"feature dim {dataset.X.shape[1]} does not match layout.in_dim {layout.in_dim}"
            )
        labeled = dataset.y[dataset.domain == SOURCE]
        if labeled.size and labeled.max() >= layout.n_classes:
            raise ValueError(
                f"label {labeled.max()} outside class range 0..{layout.n_classes - 1}"
            )
        self.dataset = dataset
        self.nu = float(nu)
        self.layout = layout
        self.alpha = 1.0 / len(dataset) if alpha is None else float(alpha)
        self._labeled = dataset.domain == SOURCE
        # constant per shard: labeled rows, their labels, and a row index for them
        self._lab_idx = np.flatnonzero(self._labeled)
        self._lab_y = dataset.y[self._lab_idx]
        self._lab_rows = np.arange(len(self._lab_idx))

    @property
    def dims(self) -> tuple[int, int]:
        return self.layout.d1, self.layout.d2

    @functools.cached_property
    def _view(self) -> "_StackedDomainAdapt":
        return _StackedDomainAdapt((self,))

    def value(self, omega: Vector, psi: Vector) -> float:
        return float(self._view.values(_row(omega), _row(psi))[0])

    def grads(self, omega: Vector, psi: Vector) -> tuple[Vector, Vector]:
        # both blocks from one forward/backward pass
        G = self._view.joint_grads(np.hstack((_row(omega), _row(psi))))[0]
        return vector(G[: self.layout.d1]), vector(G[self.layout.d1 :])

    def grad_omega(self, omega: Vector, psi: Vector) -> Vector:
        return self.grads(omega, psi)[0]

    def grad_psi(self, omega: Vector, psi: Vector) -> Vector:
        return vector(self._view.grad_psi(_row(omega), _row(psi))[0])

    def predict(self, omega: Vector, X: np.ndarray) -> np.ndarray:
        """Predictor argmax over classes; ties resolve to the lowest index.

        omega may be a (K, d1) stack: the result is then (K, n), row k the
        predictions of omega[k], each computed with one omega's matmuls.
        """
        W, V = self.layout.unpack_omega(np.asarray(omega))
        logits = (X @ W.swapaxes(-1, -2)) @ V.swapaxes(-1, -2)
        return np.argmax(logits, axis=-1)

    def ascent_curvature_bound(self, omega: Vector) -> float:
        """Upper bound on the psi-Hessian norm at fixed omega (for step sizing)."""
        Z = self._view._features(_row(omega))[0]
        gram = self.alpha * (Z.T @ Z)
        return 0.25 * self.nu * float(np.linalg.norm(gram, 2))


# ---------------------------- stacked views ---------------------------- #


def _row(block) -> np.ndarray:
    # an array-like omega or psi as the (1, d) float64 points of a one-row view
    return np.asarray(block, dtype=np.float64).reshape(1, -1)


def _common_dims(objectives: Sequence[LocalObjective]) -> tuple[int, int]:
    if not objectives:
        raise ValueError("a stacked view needs at least one objective")
    dims = objectives[0].dims
    for i, o in enumerate(objectives):
        if o.dims != dims:
            raise ValueError(f"objective {i} has dims {o.dims}, objective 0 has {dims}")
    return dims


def _row_vecmat(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    # each row's X[..., r, :] @ M[r], the vector-matrix product of a 1-D `x @ M`
    return (X[..., None, :] @ M)[..., 0, :]


def _row_sums(a: np.ndarray) -> np.ndarray:
    # each row's np.sum over the last axis, as the 1-D sum of that row takes it:
    # numpy sums a strided row in another order
    return np.sum(np.ascontiguousarray(a), axis=-1)


class StackedObjectives:
    """N objectives evaluated at N points at once: row i of every array is objective i.

    This general view calls each objective's own value / grads / grad_psi and
    writes the results into fresh arrays, so any LocalObjective works (a
    built-in objective answers through a one-row view of itself);
    all-quadratic client lists get a batched-matmul view instead (see
    `stacked`). The mean_* methods evaluate the uniform average of the
    objectives at one point, the global f of the metric oracles; their client
    sums run in row order, as one client after the other would add them.
    `values` and `mean_values` also take leading axes: K points evaluated in
    one call, each exactly as a call of its own would evaluate it.
    """

    def __init__(self, objectives: Sequence[LocalObjective]):
        self.dims = _common_dims(objectives)
        self.n = len(objectives)
        self.objectives = tuple(objectives)

    def values(self, OM: np.ndarray, PS: np.ndarray) -> np.ndarray:
        """Row r's objective value at (OM[..., r, :], PS[..., r, :]): (N,), or (..., N) with leading axes."""
        out = np.empty(OM.shape[:-1])
        for lead in np.ndindex(OM.shape[:-2]):
            for r, o in enumerate(self.objectives):
                out[lead + (r,)] = o.value(OM[lead + (r,)], PS[lead + (r,)])
        return out

    def joint_grads(self, Z: np.ndarray) -> np.ndarray:
        """[G_OM | G_PS] at the (N, d1 + d2) joint points [OM | PS], in one (N, d1 + d2) array."""
        d1 = self.dims[0]
        G = np.empty(Z.shape)
        for r, obj in enumerate(self.objectives):
            G[r, :d1], G[r, d1:] = obj.grads(Z[r, :d1], Z[r, d1:])
        return G

    def grad_psi(self, OM: np.ndarray, PS: np.ndarray) -> np.ndarray:
        """The psi block of `joint_grads` alone at the (N, d1) / (N, d2) points, (N, d2)."""
        G_PS = np.empty(PS.shape)
        for r, obj in enumerate(self.objectives):
            G_PS[r] = obj.grad_psi(OM[r], PS[r])
        return G_PS

    def _at(self, omega, psi) -> tuple[np.ndarray, np.ndarray]:
        # every row at the one point, (N, d); a (K, d) stack of points gives (K, N, d).
        # Filling an empty array is cheaper than np.tile
        omega, psi = np.asarray(omega), np.asarray(psi)
        OM = np.empty(omega.shape[:-1] + (self.n, omega.shape[-1]))
        PS = np.empty(psi.shape[:-1] + (self.n, psi.shape[-1]))
        OM[:], PS[:] = omega[..., None, :], psi[..., None, :]
        return OM, PS

    def mean_values(self, omega: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """The client average at each of K points (omega[k], psi[k]), (K,), in one `values` call."""
        # + 0.0 as in _bars: a zero-started sum of all -0.0 values is +0.0
        return (row_sum(self.values(*self._at(omega, psi)), axis=-1) + 0.0) / self.n

    def mean_value(self, omega: Vector, psi: Vector) -> float:
        return float(self.mean_values(omega, psi))

    def mean_grads(self, omega: Vector, psi: Vector) -> tuple[Vector, Vector]:
        mean = row_sum(self.joint_grads(np.hstack(self._at(omega, psi)))) / self.n
        return mean[: len(omega)], mean[len(omega) :]

    def mean_grad_psi(self, omega: Vector, psi: Vector) -> Vector:
        return row_sum(self.grad_psi(*self._at(omega, psi))) / self.n


class QuadraticBars(NamedTuple):
    """Client averages of a quadratic instance's matrices, the closed forms' inputs."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    a: Vector
    c: Vector


def _bars(*stacks) -> QuadraticBars:
    # the clients in order, summed from zero: + 0.0 turns an all -0.0 sum into +0.0
    bars = [(row_sum(np.asarray(stack)) + 0.0) / len(stack) for stack in stacks]
    for b in bars:
        b.flags.writeable = False
    return QuadraticBars(*bars)


class _StackedQuadratic(StackedObjectives):
    """Quadratic clients: every row's value and gradient from batched matmuls.

    It keeps the stacked matrices, not the objectives. Each row's matmuls and
    dot products take the shapes a single client's vector products take.
    """

    def __init__(self, objectives: Sequence[QuadraticSaddle]):
        self.dims = _common_dims(objectives)
        self.n = len(objectives)
        self.A = np.stack([o.A for o in objectives])
        self.B = np.stack([o.B for o in objectives])
        # B' as a transposed view: BLAS reads it as a 1-D `B.T @ om` does, which keeps the bits
        self.BT = np.swapaxes(self.B, 1, 2)
        self.C = np.stack([o.C for o in objectives])
        self.a = np.stack([o.a for o in objectives])
        self.c = np.stack([o.c for o in objectives])

    def values(self, OM, PS):
        # 1/2 om'A om + om'B ps - 1/2 ps'C ps + a'om + c'ps, each product left to right
        return (
            row_dot(_row_vecmat(0.5 * OM, self.A), OM)
            + row_dot(_row_vecmat(OM, self.B), PS)
            - row_dot(_row_vecmat(0.5 * PS, self.C), PS)
            + row_dot(self.a, OM)
            + row_dot(self.c, PS)
        )

    def joint_grads(self, Z):
        # both blocks into one buffer; the matmuls read the joint rows' blocks in place
        d1 = self.dims[0]
        OM, PS = Z[:, :d1], Z[:, d1:]
        G = np.empty(Z.shape)
        G[:, :d1] = self.grad_omega(OM, PS)
        G[:, d1:] = self.grad_psi(OM, PS)
        return G

    def grad_omega(self, OM, PS):
        """A om + B ps + a, (N, d1)."""
        return (self.A @ OM[..., None])[..., 0] + (self.B @ PS[..., None])[..., 0] + self.a

    def grad_psi(self, OM, PS):
        """B' om - C ps + c, (N, d2)."""
        return (self.BT @ OM[..., None])[..., 0] - (self.C @ PS[..., None])[..., 0] + self.c

    @functools.cached_property
    def bars(self) -> QuadraticBars:
        return _bars(self.A, self.B, self.C, self.a, self.c)


class _StackedDomainAdapt(StackedObjectives):
    """DANN clients with one layout, one nu and one shard size: all rows at once.

    values, joint_grads and grad_psi run the forward (and backward) pass with a
    leading client axis. Each row's matmuls keep the shapes and memory layout
    one client's pass gives them, and the gradients pick the labeled points
    with np.where instead of by indexing, so every row is bit for bit what a
    one-row view of its objective computes. `values` also takes leading axes
    (K points per client) and sums each row's terms over that row's own
    points in contiguous memory (`_row_sums`): a sum across rows, or along
    strided memory, would round differently.
    """

    def __init__(self, objectives: Sequence[DomainAdaptObjective]):
        super().__init__(objectives)
        first = objectives[0]
        self.layout, self.nu = first.layout, first.nu
        self.X = np.stack([o.dataset.X for o in objectives])  # (N, n, in_dim)
        self.labeled = np.stack([o._labeled for o in objectives])  # (N, n)
        self.onehot = np.zeros(self.labeled.shape + (self.layout.n_classes,))
        for r, o in enumerate(objectives):
            self.onehot[r, o._lab_idx, o._lab_y] = 1.0
        self.alpha = np.array([o.alpha for o in objectives])[:, None, None]

    def _features(self, OM):
        # Z = X W' (..., N, n, feat), W unpacked as unpack_omega does
        L = self.layout
        W = OM[..., : L.feat_dim * L.in_dim].reshape(OM.shape[:-1] + (L.feat_dim, L.in_dim))
        return self.X @ W.swapaxes(-1, -2)

    def _forward(self, OM):
        """(Z, V, logits): the features, the predictor V and the class logits Z V', per row."""
        L = self.layout
        Z = self._features(OM)
        V = OM[..., L.feat_dim * L.in_dim :].reshape(OM.shape[:-1] + (L.n_classes, L.feat_dim))
        return Z, V, Z @ V.swapaxes(-1, -2)

    @staticmethod
    def _domain_logits(Z, PS):
        # t = z . psi, the domain classifier's logit of every point, (..., N, n)
        return (Z @ PS[..., :, None])[..., 0]

    def _dt(self, Z, PS):
        """d(loss)/dt of the domain terms, per point."""
        s = _sigmoid(self._domain_logits(Z, PS))
        return np.where(self.labeled, -self.nu * s, self.nu * (1.0 - s))

    def values(self, OM, PS):
        Z, _, logits = self._forward(OM)
        T = self._domain_logits(Z, PS)
        out = np.empty(T.shape[:-1])
        for r, o in enumerate(self.objectives):
            t, lab, total = T[..., r, :], o._labeled, 0.0
            if o._lab_idx.size:
                lab_logits = logits[..., r, o._lab_idx, :]
                lse = np.logaddexp.reduce(lab_logits, axis=-1)
                picked = lab_logits[..., o._lab_rows, o._lab_y]
                total += _row_sums(lse - picked)  # cross-entropy
                total += _row_sums(-self.nu * _softplus(t[..., lab]))  # nu*log(1-h)
            if (~lab).any():
                total += _row_sums(-self.nu * _softplus(-t[..., ~lab]))  # nu*log(h)
            out[..., r] = o.alpha * total
        return out

    def joint_grads(self, points):
        L = self.layout
        nw, d1 = L.feat_dim * L.in_dim, L.d1
        OM, PS = points[:, :d1], points[:, d1:]
        Z, V, logits = self._forward(OM)
        # the row max class by class: max is exact, so any order gives the reduction's bits
        top = logits[..., :1]
        for k in range(1, L.n_classes):
            top = np.maximum(top, logits[..., k : k + 1])
        p = np.exp(logits - top)
        p /= p.sum(axis=2, keepdims=True)
        dlogits = np.where(self.labeled[..., None], p - self.onehot, 0.0)
        dt = self._dt(Z, PS)
        dZ = dlogits @ V + dt[:, :, None] * PS[:, None, :]
        # [gW | gV | g_psi] in one buffer, the omega block laid out as unpack_omega reads it
        G = np.empty((self.n, d1 + L.d2))
        G[:, :nw] = (self.alpha * (dZ.swapaxes(1, 2) @ self.X)).reshape(self.n, -1)
        G[:, nw:d1] = (self.alpha * (dlogits.swapaxes(1, 2) @ Z)).reshape(self.n, -1)
        G[:, d1:] = (self.alpha * (Z.swapaxes(1, 2) @ dt[:, :, None]))[..., 0]
        require_finite(G)  # as vector() would on the per-row view
        return G

    def grad_psi(self, OM, PS):
        Z = self._features(OM)
        G_PS = (self.alpha * (Z.swapaxes(1, 2) @ self._dt(Z, PS)[:, :, None]))[..., 0]
        require_finite(G_PS)
        return G_PS


def _equal_dann_shards(objs: Sequence[LocalObjective]) -> bool:
    return all(type(o) is DomainAdaptObjective for o in objs) and len(
        {(o.layout, o.nu, len(o.dataset)) for o in objs}
    ) == 1


def stacked(objectives: Sequence[LocalObjective]) -> StackedObjectives:
    """A new stacked view of these objectives; nothing is cached.

    Plain QuadraticSaddle lists get batched matmuls. Plain
    DomainAdaptObjective lists with one layout, one nu and one shard size get
    batched values and gradients. Any other list (unequal shards,
    MeanObjective, subclasses) takes the per-row view, which calls each
    objective. A caller that evaluates the same objectives again keeps the
    view it got.
    """
    objs = tuple(objectives)
    if objs and _equal_dann_shards(objs):
        return _StackedDomainAdapt(objs)
    if objs and all(type(o) is QuadraticSaddle for o in objs):
        return _StackedQuadratic(objs)
    return StackedObjectives(objs)


def _all_quadratic(view: StackedObjectives) -> bool:
    # subclasses sit on the per-row view but keep the quadratic closed forms
    return isinstance(view, _StackedQuadratic) or all(
        isinstance(o, QuadraticSaddle) for o in view.objectives
    )


def quadratic_bars(view: StackedObjectives) -> QuadraticBars:
    """(Abar, Bbar, Cbar, abar, cbar) of a view's quadratic clients, averaged in client order.

    The batched quadratic view computes them once and keeps them; the
    per-row view of QuadraticSaddle subclasses averages on each call.
    """
    if isinstance(view, _StackedQuadratic):
        return view.bars
    if not _all_quadratic(view):
        raise ValueError("quadratic_bars needs QuadraticSaddle objectives")
    return _bars(*([getattr(o, k) for o in view.objectives] for k in QuadraticBars._fields))


# ----------------------------- global views ----------------------------- #


class MeanObjective(LocalObjective):
    """Uniform average of client objectives: the pooled/global f, through their stacked view."""

    def __init__(self, parts: Sequence[LocalObjective]):
        self.view = stacked(parts)

    @property
    def dims(self) -> tuple[int, int]:
        return self.view.dims

    def value(self, omega: Vector, psi: Vector) -> float:
        return self.view.mean_value(omega, psi)

    def grads(self, omega: Vector, psi: Vector) -> tuple[Vector, Vector]:
        return self.view.mean_grads(omega, psi)

    def grad_omega(self, omega: Vector, psi: Vector) -> Vector:
        return self.grads(omega, psi)[0]

    def grad_psi(self, omega: Vector, psi: Vector) -> Vector:
        return self.view.mean_grad_psi(omega, psi)


def inner_max(
    view: StackedObjectives,
    omega: Vector,
    tol: float,
    method: str = "auto",
    max_iters: int = 100_000,
) -> Vector:
    """Maximize the view's client average over psi at fixed omega.

    Quadratic clients get the closed form psibar = Cbar^-1 (Bbar' omega + cbar);
    domain-adaptation clients get gradient ascent with a curvature-derived
    step, raising ConvergenceError (with the final gradient norm) at the cap.
    Gradient ascent on quadratics steps by 1 / ||Cbar||; any other objective
    type has no known curvature bound and is rejected.
    """
    if method not in ("auto", "closed_form", "gradient_ascent"):
        raise ValueError(f"unknown inner_max method {method!r}")
    if _all_quadratic(view):
        bars = quadratic_bars(view)
        if method != "gradient_ascent":
            return vector(np.linalg.solve(bars.C, bars.B.T @ omega + bars.c))
        curv = float(np.linalg.norm(bars.C, 2))
    else:
        if method == "closed_form":
            raise ValueError("closed_form inner_max requires quadratic clients")
        for o in view.objectives:
            if not isinstance(o, DomainAdaptObjective):
                raise ValueError(
                    f"inner_max has no ascent curvature bound for {type(o).__name__} "
                    "objectives (only QuadraticSaddle or DomainAdaptObjective lists)"
                )
        curv = max(o.ascent_curvature_bound(omega) for o in view.objectives)
    step = 1.0 / max(curv, 1e-12)

    psi, it = np.zeros(view.dims[1]), 0
    try:
        g = view.mean_grad_psi(omega, psi)
        gnorm = float(np.linalg.norm(g))
        while not gnorm <= tol and it < max_iters:
            psi = psi + step * g
            g = view.mean_grad_psi(omega, psi)
            gnorm = float(np.linalg.norm(g))
            it += 1
    except ValueError:
        # a non-finite ascent gradient is a failed solve, as the iteration cap is
        raise ConvergenceError("inner_max gradient ascent", math.inf, it) from None
    if gnorm <= tol:
        return vector(psi)
    raise ConvergenceError("inner_max gradient ascent", gnorm, max_iters)


def phi_value_and_grad(
    view: StackedObjectives,
    omega: Vector,
    tol: float,
    **inner_kwargs,
) -> tuple[float, Vector]:
    """Max-function value and its gradient at omega (Danskin: grad at the maximizer)."""
    psi_star = inner_max(view, omega, tol, **inner_kwargs)
    return view.mean_value(omega, psi_star), view.mean_grads(omega, psi_star)[0]


# ------------------------- plain-text instance files ------------------------- #
#
# Both formats share the conventions: '#' starts a comment, tokens are
# whitespace-separated, matrices are row-major, and the first three tokens are
# the header "d1 d2 N".
#
# Quadratic instance file: header d1 d2 N, then per client
#   A (d1*d1), B (d1*d2), C (d2*d2), a (d1), c (d2).
# Dataset file: header d1 d2 N with d1 = feature dim, d2 = number of classes,
#   then N records "domain label x_1 ... x_d1" (domain 0=source 1=target,
#   label -1 = unlabeled).


def _records(
    path: str | Path, width: Callable[[int, int], int]
) -> tuple[tuple[int, int, int], list[str], np.ndarray]:
    """A text file's `d1 d2 N` header, the tokens after it and its N records of width(d1, d2) values.

    The records parse in one bulk pass into one frozen (N, width) float
    array; every error names the file.
    """
    # str.split() breaks on every line boundary str.splitlines() does, so only
    # a text with comments needs a pass per line
    text = Path(path).read_text()
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    toks = text.split()
    del text  # so that the text and the parsed floats are never held at once
    if len(toks) < 3:
        raise ValueError(f"{path}: missing 'd1 d2 N' header")
    try:
        head = d1, d2, n = tuple(int(t) for t in toks[:3])
    except ValueError:
        got = " ".join(toks[:3])
        raise ValueError(f"{path}: header 'd1 d2 N' must be integers, got {got}") from None
    if min(head) < 1:
        raise ValueError(f"{path}: header 'd1 d2 N' must be positive, got {d1} {d2} {n}")
    per, body = width(d1, d2), toks[3:]
    if len(body) != n * per:
        raise ValueError(f"{path}: expected {n * per} values, found {len(body)}")
    try:
        # float() parses each token, correctly rounded, without a list of floats in between
        vals = np.array(body, dtype=np.float64).reshape(n, per)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    vals.flags.writeable = False
    return head, body, vals


def _read_quadratic(path: str | Path) -> tuple[np.ndarray, ...]:
    """The checked blocks A, B, C, a, c of a quadratic instance file, stacked over clients.

    The values parse into one frozen array of client rows and the blocks are
    views of it; _quadratic_fault checks every client at once, and a failure
    names the file and the first failing client.
    """
    (d1, d2, _), _, vals = _records(path, lambda d1, d2: d1 * d1 + d1 * d2 + d2 * d2 + d1 + d2)
    fault = _quadratic_fault(vals, d1, d2)
    if fault is not None:
        raise ValueError(f"{path}: client {fault[0]}: {fault[1]}")
    return _blocks(vals, d1, d2)


def load_quadratic_specs(path: str | Path) -> list[QuadraticSaddleSpec]:
    """Read and check a quadratic instance file: one spec per client."""
    return [QuadraticSaddleSpec(*blocks) for blocks in zip(*_read_quadratic(path))]


def load_quadratic_objectives(path: str | Path) -> list[QuadraticSaddle]:
    """Read and check a quadratic instance file: one objective per client.

    The same as QuadraticSaddle(spec) for each of load_quadratic_specs' specs,
    but the file's one batched check stands for the per-client ones.
    """
    return [QuadraticSaddle._checked(*blocks) for blocks in zip(*_read_quadratic(path))]


def save_quadratic_specs(path: str | Path, specs: Sequence[QuadraticSaddleSpec]) -> None:
    d1, d2 = len(specs[0].a), len(specs[0].c)
    lines = [f"{d1} {d2} {len(specs)}"]
    for s in specs:
        for block in (s.A, s.B, s.C, s.a, s.c):
            lines.append(" ".join(repr(float(v)) for v in np.asarray(block).reshape(-1)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path: str | Path) -> tuple[DomainAdaptDataset, int]:
    """Read and check a dataset file of `domain label x_1 .. x_d` records; returns (dataset, n_classes).

    Domain and label must be integer tokens and every feature finite; a
    failure names the file and the first failing record (0-based).
    """
    (d, n_classes, _), body, vals = _records(path, lambda d, _: 2 + d)
    heads = np.array([body[0 :: 2 + d], body[1 :: 2 + d]])
    del body  # so that the tokens and the copied features are never held at once
    # a token that parsed as a float and is a sign and decimal digits is an integer
    integer = np.char.isdecimal(np.char.lstrip(heads, "+-")).all(axis=0)
    # clipped so the cast is exact; a clipped domain or label is out of range anyway
    dom, y = np.where(integer, vals[:, :2].T, 0).clip(-2, max(n_classes, 2)).astype(np.int64)
    nonfinite = ~np.isfinite(vals[:, 2:]).all(axis=1)
    bad = ~integer | nonfinite | (y >= n_classes) | (y < UNLABELED)
    if bad.any():
        i = np.argmax(bad)
        why = f"label {heads[1, i]} outside class range 0..{n_classes - 1} (or -1 unlabeled)"
        if nonfinite[i]:
            why = "a feature is not finite"
        if not integer[i]:
            why = f"domain and label must be integers, got {heads[0, i]} {heads[1, i]}"
        raise ValueError(f"{path}: record {i}: {why}")
    try:
        return DomainAdaptDataset(vals[:, 2:].copy(), y, dom), n_classes
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_dataset(path: str | Path, ds: DomainAdaptDataset, n_classes: int) -> None:
    lines = [f"{ds.X.shape[1]} {n_classes} {len(ds)}"]
    for i in range(len(ds)):
        xs = " ".join(repr(float(v)) for v in ds.X[i])
        lines.append(f"{int(ds.domain[i])} {int(ds.y[i])} {xs}")
    Path(path).write_text("\n".join(lines) + "\n")
