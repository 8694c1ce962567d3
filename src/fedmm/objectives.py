"""Local minimax objectives: quadratic saddles and the domain-adaptation toy.

A client is a QuadraticSaddle or a DomainAdaptObjective, and runs evaluate
clients only through views. `stacked(objectives)` evaluates N clients at N
points in one call: every view method takes (..., N, d1 + d2) joint rows
[omega | psi], and joint_grads returns the gradients as joint rows
[grad_omega | grad_psi] in one buffer, every row evaluated (the optimizers
mask rows in their step).
Quadratic clients get batched matmuls, DANN clients one batched pass per
(layout, nu, shard size) group. `pooled(view)` is the clients' uniform
average, the global objective f, as the one-row `PooledView`: the only code
that averages clients, in client order by one `row_sum` call.

`inner_maximizers` is the only inner maximizer: the max function's inner
maximizers at a stack of K omegas. On quadratic clients the closed form of
all K omegas runs as stacked calls; on domain-adaptation clients a gradient
ascent on the pooled row runs omega by omega. `phi_grads` adds the Danskin
gradients that a run's metric block needs, the omega blocks of one pooled
joint_grads call; it never computes the max
function's value. `phi_value_and_grad`, its one-omega call, adds that for
the checks and the tests.

Each family's math is written once, in its stacked view. An objective holds
only its inputs, never a view: its own value / grad_omega / grad_psi build a
one-row view of it on each call.

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
import os
import re
from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from stat import S_ISREG
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from fedmm.core import ConvergenceError, RejectedRows, Vector, require_finite, row_dot, row_sum, vector

SOURCE = 0
TARGET = 1
UNLABELED = -1


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


class QuadraticSaddle:
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

    def value(self, omega: Vector, psi: Vector) -> float:
        return float(_StackedQuadratic((self,)).values(_row(omega, psi))[0])

    def grad_omega(self, omega: Vector, psi: Vector) -> Vector:
        return vector(_StackedQuadratic((self,)).joint_grads(_row(omega, psi))[0, : len(self.a)])

    def grad_psi(self, omega: Vector, psi: Vector) -> Vector:
        return vector(_StackedQuadratic((self,)).grad_psi(_row(omega, psi))[0])


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


class DomainAdaptObjective:
    """DANN-style adversarial objective on one client's shard, full-batch."""

    def __init__(self, dataset: DomainAdaptDataset, nu: float, layout: ModelLayout):
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
        self.alpha = 1.0 / len(dataset)

    @property
    def dims(self) -> tuple[int, int]:
        return self.layout.d1, self.layout.d2

    def value(self, omega: Vector, psi: Vector) -> float:
        return float(_StackedDomainAdapt((self,)).values(_row(omega, psi))[0])

    def grad_omega(self, omega: Vector, psi: Vector) -> Vector:
        # the omega block of one joint forward/backward pass
        return vector(_StackedDomainAdapt((self,)).joint_grads(_row(omega, psi))[0, : self.layout.d1])

    def grad_psi(self, omega: Vector, psi: Vector) -> Vector:
        return vector(_StackedDomainAdapt((self,)).grad_psi(_row(omega, psi))[0])

    def predict(self, omega: Vector, X: np.ndarray) -> np.ndarray:
        """Predictor argmax over classes; ties resolve to the lowest index.

        omega may be a (K, d1) stack: the result is then (K, n), row k the
        predictions of omega[k], each computed with one omega's matmuls.
        """
        W, V = self.layout.unpack_omega(np.asarray(omega))
        logits = (X @ W.swapaxes(-1, -2)) @ V.swapaxes(-1, -2)
        return np.argmax(logits, axis=-1)


# ---------------------------- stacked views ---------------------------- #


def _row(*blocks) -> np.ndarray:
    # array-like blocks (an omega and a psi, or an omega alone) as one (1, d) float64 row
    return np.concatenate([np.asarray(b, dtype=np.float64).reshape(-1) for b in blocks]).reshape(1, -1)


def _common_dims(objectives: Sequence) -> tuple[int, int]:
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
    """The base of every view: N clients at N points at once, row i of every array client i.

    A view has dims (d1, d2), its row count n, values(Z) -> (N,) and
    joint_grads(Z) -> the (N, d1 + d2) gradient rows [G_OM | G_PS], both at
    the joint rows Z = [OM | PS]; the built-in views add grad_psi(Z) -> G_PS
    for the inner ascent. Every method takes the rows with leading axes too,
    (..., N, d1 + d2) in one call. A non-finite gradient raises
    RejectedRows, naming the first rejected row.
    """

    dims: tuple[int, int]
    n: int


class QuadraticBars(NamedTuple):
    """Client averages of a quadratic instance's matrices, the closed forms' inputs."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    a: Vector
    c: Vector


def _bars(*stacks) -> QuadraticBars:
    # the clients in order, summed from zero: + 0.0 turns an all -0.0 sum into +0.0
    bars = [(row_sum(stack) + 0.0) / len(stack) for stack in stacks]
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

    def values(self, Z):
        # 1/2 om'A om + om'B ps - 1/2 ps'C ps + a'om + c'ps, each product left to right
        OM, PS = Z[..., : self.dims[0]], Z[..., self.dims[0] :]
        return (
            row_dot(_row_vecmat(0.5 * OM, self.A), OM)
            + row_dot(_row_vecmat(OM, self.B), PS)
            - row_dot(_row_vecmat(0.5 * PS, self.C), PS)
            + row_dot(self.a, OM)
            + row_dot(self.c, PS)
        )

    def joint_grads(self, Z):
        """[A om + B ps + a | B' om - C ps + c]; leading axes broadcast, each row one client's matvecs."""
        # both blocks into one buffer; the matmuls read the joint rows' blocks in place
        d1 = self.dims[0]
        OM, PS = Z[..., :d1, None], Z[..., d1:, None]
        G = np.empty(Z.shape)
        G[..., :d1] = (self.A @ OM)[..., 0] + (self.B @ PS)[..., 0] + self.a
        G[..., d1:] = (self.BT @ OM)[..., 0] - (self.C @ PS)[..., 0] + self.c
        return G

    def grad_psi(self, Z):
        return self.joint_grads(Z)[..., self.dims[0] :]

    @functools.cached_property
    def bars(self) -> QuadraticBars:
        return _bars(self.A, self.B, self.C, self.a, self.c)


class _StackedDomainAdapt(StackedObjectives):
    """DANN clients with one layout, one nu and one shard size: all rows at once.

    values, joint_grads and grad_psi run the forward (and backward) pass with a
    leading client axis, curvature_bounds its features alone. Each row's
    matmuls keep the shapes and memory layout one client's pass gives them,
    and the gradients pick the labeled points with np.where instead of by
    indexing, so every row is bit for bit what a one-row view of its
    objective computes. On leading axes (K points per client) `values` and
    `grad_psi` run batched and `joint_grads` runs one batched pass per
    leading index. `values`
    sums each row's terms over that row's own points in contiguous memory
    (`_row_sums`): a sum across rows, or along strided memory, would round
    differently.

    The per-point constants, labeled points included, are built once from the
    datasets, in the shapes the pass uses, so a step makes few numpy calls, few of them broadcast, and none changes a bit.
    The label mask is only pre-broadcast over the classes. dt is nu*(c - s),
    c = -0.0 on labeled points and 1 elsewhere: -0.0 - s is -s exactly, zero
    included, and nu*(-s) is -nu*s. alpha scales the assembled gradient rows
    once, after the products: the same alpha*x as when each block was scaled.
    """

    def __init__(self, objectives: Sequence[DomainAdaptObjective]):
        self.dims, self.n, self.objectives = _common_dims(objectives), len(objectives), tuple(objectives)
        first = objectives[0]
        L = self.layout = first.layout
        self.nu = first.nu
        self.X = np.stack([o.dataset.X for o in objectives])  # (N, n, in_dim)
        lab = np.stack([o.dataset.domain == SOURCE for o in objectives])  # (N, n)
        self.onehot = np.zeros(lab.shape + (L.n_classes,))
        # per row: its label mask, labeled points, a row index for them, their labels and alpha
        self._labels = []
        for r, o in enumerate(objectives):
            idx = np.flatnonzero(lab[r])
            self.onehot[r, idx, o.dataset.y[idx]] = 1.0
            self._labels.append((lab[r], idx, np.arange(idx.size), o.dataset.y[idx], o.alpha))
        self._lab_classes = np.broadcast_to(lab[..., None], self.onehot.shape).copy()
        self._dt_shift = np.where(lab[..., None], -0.0, 1.0)  # (N, n, 1), as dt
        # each row's alpha in every column: the scale multiplies G unbroadcast
        self.alpha = np.repeat([[o.alpha] for o in objectives], L.d1 + L.d2, axis=1)
        self._nw, self._d1 = L.feat_dim * L.in_dim, L.d1
        self._w_shape, self._v_shape = (L.feat_dim, L.in_dim), (L.n_classes, L.feat_dim)

    def _features(self, OM):
        # Z = X W' (..., N, n, feat), W unpacked as unpack_omega does
        W = OM[..., : self._nw].reshape(OM.shape[:-1] + self._w_shape)
        return self.X @ W.swapaxes(-1, -2)

    def _forward(self, OM):
        """(Z, V, logits): the features, the predictor V and the class logits Z V', per row."""
        Z = self._features(OM)
        V = OM[..., self._nw : self._d1].reshape(OM.shape[:-1] + self._v_shape)
        return Z, V, Z @ V.swapaxes(-1, -2)

    @staticmethod
    def _domain_logits(Z, PS):
        # t = z . psi, the domain classifier's logit of every point, (..., N, n, 1)
        return Z @ PS[..., :, None]

    def _dt(self, Z, PS):
        """d(loss)/dt of the domain terms per point, (N, n, 1): -nu*s labeled, nu*(1 - s) not."""
        s = _sigmoid(self._domain_logits(Z, PS))
        return self.nu * (self._dt_shift - s)

    def values(self, points):
        Z, _, logits = self._forward(points)  # the features; its slices read the omega block alone
        T = self._domain_logits(Z, points[..., self._d1 :])[..., 0]
        out = np.empty(T.shape[:-1])
        for r, (lab, idx, rows, y, alpha) in enumerate(self._labels):
            t, total = T[..., r, :], 0.0
            if idx.size:
                lab_logits = logits[..., r, idx, :]
                lse = np.logaddexp.reduce(lab_logits, axis=-1)
                picked = lab_logits[..., rows, y]
                total += _row_sums(lse - picked)  # cross-entropy
                total += _row_sums(-self.nu * _softplus(t[..., lab]))  # nu*log(1-h)
            if (~lab).any():
                total += _row_sums(-self.nu * _softplus(-t[..., ~lab]))  # nu*log(h)
            out[..., r] = alpha * total
        return out

    def joint_grads(self, points):
        if points.ndim > 2:  # one batched pass per leading index
            G = np.empty(points.shape)
            for lead in np.ndindex(points.shape[:-2]):
                G[lead] = self.joint_grads(points[lead])
            return G
        n, PS = self.n, points[:, self._d1 :]
        Z, V, logits = self._forward(points)
        # the row max class by class: max is exact, so any order gives the reduction's bits
        top = logits[..., :1]
        for k in range(1, self.layout.n_classes):
            top = np.maximum(top, logits[..., k : k + 1])
        p = np.exp(logits - top)
        p = p / np.add.reduce(p, axis=2, keepdims=True)
        dlogits = np.where(self._lab_classes, p - self.onehot, 0.0)
        dt = self._dt(Z, PS)
        dZ = dlogits @ V + dt * PS[:, None, :]
        gW, gV, g_psi = dZ.swapaxes(1, 2) @ self.X, dlogits.swapaxes(1, 2) @ Z, Z.swapaxes(1, 2) @ dt
        # [gW | gV | g_psi] in one buffer, the omega block laid out as unpack_omega reads it
        G = np.concatenate((gW.reshape(n, -1), gV.reshape(n, -1), g_psi.reshape(n, -1)), axis=1)
        G *= self.alpha
        require_finite(G)
        return G

    def grad_psi(self, points):
        Z, PS = self._features(points), points[..., self._d1 :]
        G_PS = self.alpha[:, self._d1 :] * (Z.swapaxes(-1, -2) @ self._dt(Z, PS)).reshape(PS.shape)
        require_finite(G_PS)
        return G_PS

    def curvature_bounds(self, omega):
        """Each row's bound 0.25 nu ||alpha Z'Z||_2 on its psi-Hessian norm at a (1, d1) omega, (N,)."""
        Z = self._features(omega)
        grams = self.alpha[:, :1, None] * (Z.swapaxes(-1, -2) @ Z)
        return 0.25 * self.nu * np.linalg.norm(grams, 2, axis=(-2, -1))


class _SizeGroups(StackedObjectives):
    """DANN clients whose (layout, nu, shard size) differ: one _StackedDomainAdapt per key.

    groups holds them in order of first appearance, and rows their client
    indices. Every method evaluates each group on its rows of the input,
    leading axes included, into the same rows of the output: no row's
    arithmetic reads another row, so each keeps its bits. A rejected gradient
    raises once every group has run, naming the lowest rejected client.
    """

    def __init__(self, objectives: Sequence[DomainAdaptObjective]):
        self.dims, self.n, self.objectives = _common_dims(objectives), len(objectives), tuple(objectives)
        keys = [(o.layout, o.nu, len(o.dataset)) for o in objectives]
        self.rows = [[r for r, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]
        self.groups = [_StackedDomainAdapt([objectives[r] for r in rows]) for rows in self.rows]

    def _scatter(self, method: str, out: np.ndarray, points: np.ndarray) -> np.ndarray:
        lead, rejected = (slice(None),) * (points.ndim - 2), []
        for rows, group in zip(self.rows, self.groups):
            at = lead + (rows,)
            try:
                out[at] = getattr(group, method)(points[at])
            except RejectedRows as e:
                rejected.append(rows[e.row])
        if rejected:
            raise RejectedRows(min(rejected))
        return out

    def values(self, Z):
        return self._scatter("values", np.empty(Z.shape[:-1]), Z)

    def joint_grads(self, Z):
        return self._scatter("joint_grads", np.empty(Z.shape), Z)

    def grad_psi(self, Z):
        return self._scatter("grad_psi", np.empty(Z.shape[:-1] + self.dims[1:]), Z)

    def curvature_bounds(self, omega):
        out = np.empty(self.n)
        for rows, group in zip(self.rows, self.groups):
            out[rows] = group.curvature_bounds(omega)
        return out


def stacked(objectives: Sequence[QuadraticSaddle | DomainAdaptObjective]) -> StackedObjectives:
    """A new stacked view of these objectives; nothing is cached.

    QuadraticSaddle lists get batched matmuls, DomainAdaptObjective lists one
    batched pass per (layout, nu, shard size) group, in a `_SizeGroups` view
    when there are several. Subclasses and mixed lists are a ValueError
    naming the type. A caller that evaluates the same objectives again keeps
    the view it got.
    """
    objs = tuple(objectives)
    for i, o in enumerate(objs):
        if type(o) not in (QuadraticSaddle, DomainAdaptObjective) or type(o) is not type(objs[0]):
            raise ValueError(
                f"objective {i} is a {type(o).__name__}: a stacked view takes plain "
                "QuadraticSaddle objectives or plain DomainAdaptObjective objectives"
            )
    if objs and type(objs[0]) is QuadraticSaddle:
        return _StackedQuadratic(objs)
    view = _SizeGroups(objs)
    return view.groups[0] if len(view.groups) == 1 else view


def _unpooled(view: StackedObjectives) -> StackedObjectives:
    # a pooled view's closed forms are those of the clients it averages
    return view.clients if isinstance(view, PooledView) else view


def quadratic_bars(view: StackedObjectives) -> QuadraticBars:
    """(Abar, Bbar, Cbar, abar, cbar) of a view's quadratic clients, averaged in client order, computed once per view."""
    view = _unpooled(view)
    if not isinstance(view, _StackedQuadratic):
        raise ValueError("quadratic_bars needs QuadraticSaddle objectives")
    return view.bars


class PooledView(StackedObjectives):
    """One row that is the uniform average of a view's clients, the global f: central GDA's pooled client.

    The only code that averages clients. Row 0 at a point evaluates every
    client there through `clients` and adds them in client order, one `row_sum`:
    `values` adds their + 0.0, the gradients do not. Leading axes are K
    points as (K, 1, d1 + d2) rows. A
    client's rejected gradient is a RejectedRows of row 0, the view's one
    row, not of the client's row in `clients`.
    """

    def __init__(self, clients: StackedObjectives):
        self.clients, self.dims, self.n = clients, clients.dims, 1

    def values(self, Z):
        # + 0.0 as in _bars: a zero-started sum of all -0.0 values is +0.0
        V = self.clients.values(Z.repeat(self.clients.n, axis=-2))
        return (row_sum(V, axis=-1)[..., None] + 0.0) / self.clients.n

    def joint_grads(self, Z):
        return self._mean(self.clients.joint_grads, Z)

    def grad_psi(self, Z):
        return self._mean(self.clients.grad_psi, Z)

    def _mean(self, grads, Z):
        # every client at each (..., 1, d) row, their (..., N, d) gradients averaged into one row;
        # the axis is counted from the front, so a (1, d) row takes row_sum's axis-0 path
        n = self.clients.n
        try:
            G = grads(Z.repeat(n, axis=-2))
        except RejectedRows as e:
            raise RejectedRows(0) from e
        return row_sum(G, axis=G.ndim - 2)[..., None, :] / n


def pooled(view: StackedObjectives) -> PooledView:
    """The view's clients averaged into one row; the view itself when it is already pooled."""
    return view if isinstance(view, PooledView) else PooledView(view)


def _closed_form_psi(bars: QuadraticBars, omegas: np.ndarray) -> np.ndarray:
    """psi*(omega) = Cbar^-1 (Bbar' omega + cbar) at each of the (K, d1) omegas, (K, d2).

    K gemv calls and one broadcast solve (K LAPACK solves of one right-hand
    side each): every omega gets the calls a lone `Bbar.T @ omega` and
    `np.linalg.solve(Cbar, rhs)` make, and so their bits.
    """
    rhs = (bars.B.T @ omegas[..., None])[..., 0] + bars.c
    return np.linalg.solve(bars.C, rhs[..., None])[..., 0]


def _ascent(pool: PooledView, omega: np.ndarray, step: float, tol: float, max_iters: int) -> np.ndarray:
    """Gradient ascent from zero on the pooled row's psi at a (1, d1) omega: the (1, d2) maximizer.

    It raises ConvergenceError at the cap, or at a non-finite gradient with grad_norm inf.
    """
    point, it = np.concatenate((omega, np.zeros((1, pool.dims[1]))), axis=1), 0
    psi = point[:, pool.dims[0] :]  # stepped in place
    try:
        g = pool.grad_psi(point)
        gnorm = float(np.linalg.norm(g))
        while not gnorm <= tol and it < max_iters:
            psi += step * g
            g = pool.grad_psi(point)
            gnorm = float(np.linalg.norm(g))
            it += 1
    except ValueError:
        gnorm = math.inf  # raised below: in here the view's error, and its frames, would be its context
    if gnorm <= tol:
        return psi
    raise ConvergenceError("inner_max gradient ascent", gnorm, it)


class PhiGrads(NamedTuple):
    """The max function's inner maximizers and gradients at K omegas, and which of them failed.

    psi[k] is the inner maximizer at omegas[k] and grads[k] the Danskin
    gradient there: the client average of grad_omega at (omegas[k], psi[k]).
    errors[k] is None, or the ConvergenceError of omega k's failed inner
    solve, whose rows of psi and grads are NaN.
    """

    psi: np.ndarray
    grads: np.ndarray
    errors: tuple[ConvergenceError | None, ...]


def inner_maximizers(
    view: StackedObjectives, omegas: np.ndarray, tol: float, max_iters: int = 100_000
) -> tuple[np.ndarray, tuple[ConvergenceError | None, ...]]:
    """(psi, errors): the maximizers over psi of f = `pooled(view)` at the (K, d1) omegas, (K, d2).

    Quadratic clients get the closed form psibar = Cbar^-1 (Bbar' omega +
    cbar) of all K omegas at once; DANN clients get `_ascent` omega by omega,
    its step 1 / the largest client bound of one `curvature_bounds` call of
    the clients' view at that omega. errors[k] is None, or the
    ConvergenceError of omega k's failed ascent, without its traceback, so
    that no error holds this call's views; its psi row is NaN. Other views
    have no known curvature bound and are rejected.
    """
    clients = _unpooled(view)
    if isinstance(clients, _StackedQuadratic):
        psi = _closed_form_psi(clients.bars, omegas)
        require_finite(psi)  # as vector() would at one omega
        return psi, (None,) * len(omegas)
    if not isinstance(clients, (_StackedDomainAdapt, _SizeGroups)):
        raise ValueError(
            f"inner_maximizers has no ascent curvature bound for a {type(clients).__name__} "
            "view (only QuadraticSaddle or DomainAdaptObjective clients)"
        )
    pool = pooled(view)
    psi, errors = np.full((len(omegas), view.dims[1]), np.nan), []
    for k, omega in enumerate(omegas[:, None]):  # each omega as a (1, d1) row
        step = 1.0 / max(max(clients.curvature_bounds(omega).tolist()), 1e-12)
        try:
            psi[k] = _ascent(pool, omega, step, tol, max_iters)[0]
            errors.append(None)
        except ConvergenceError as e:
            errors.append(e.with_traceback(None))
    return psi, tuple(errors)


def phi_grads(
    view: StackedObjectives,
    omegas: np.ndarray,
    tol: float,
    max_iters: int = 100_000,
) -> PhiGrads:
    """Inner maximizers and gradients of Phi(omega) = max_psi f(omega, psi) at the (K, d1) omegas.

    `inner_maximizers`, then the Danskin gradients of the omegas it solved:
    the omega blocks of one pooled `joint_grads` call at the K rows
    [omega_k | psi_k]. Phi's value is not computed.
    """
    psi, errors = inner_maximizers(view, omegas, tol, max_iters)
    ok = [e is None for e in errors]
    grads = np.full(omegas.shape, np.nan)
    rows = np.concatenate((omegas[ok], psi[ok]), axis=1)[:, None]
    grads[ok] = pooled(view).joint_grads(rows)[:, 0, : omegas.shape[1]]
    return PhiGrads(psi, grads, errors)


def phi_value_and_grad(
    view: StackedObjectives, omega: Vector, tol: float, max_iters: int = 100_000
) -> tuple[float, Vector]:
    """Max-function value and its gradient at one omega: the one-omega call of `phi_grads`."""
    out = phi_grads(view, _row(omega), tol, max_iters)
    if out.errors[0] is not None:
        raise out.errors[0]
    return float(pooled(view).values(_row(omega, out.psi[0]))[0]), out.grads[0]


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
#   label -1 = unlabeled); d2 <= N.


# characters read at a time; a chunk then runs to the end of its last whole line
_CHUNK_CHARS = 1 << 13
# a comment ends at every line boundary str.splitlines() knows
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def _tokens(text: str) -> list[str]:
    # str.split() breaks on every line boundary, so dropping the comments leaves the other tokens whole
    return (_COMMENT.sub("", text) if "#" in text else text).split()


def _token_chunks(f: TextIO) -> Iterator[list[str]]:
    """An open text file's tokens, comments dropped, one chunk of whole lines at a time.

    A chunk ends at its last "\n", which text mode also makes of "\r\n" and
    "\r"; a file whose lines end only in rarer boundaries is one long line.
    """
    tail = ""
    while chunk := f.read(_CHUNK_CHARS):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        tail = text[cut:]
        yield _tokens(text[:cut])
    yield _tokens(tail)


def _records(
    path: str | Path, width: Callable[[int, int], int], lead: int = 0
) -> tuple[tuple[int, int, int], np.ndarray, np.ndarray, list[list[str]]]:
    """A text file's `d1 d2 N` header and its N records of width(d1, d2) values, streamed.

    Returns the header, an (N, width - lead) array of each record's values
    after its first `lead`, an (N, lead) array of those, and their tokens as
    `lead` lists of N strings. The file is read a chunk of whole lines at a
    time, and each chunk's tokens parse in one bulk pass straight into the
    arrays: neither the text nor its tokens are ever held whole. Every error
    names the file, and the errors and their order are a whole-file parse's,
    because every byte is decoded before any other error is raised.
    """
    try:
        with open(path) as f:
            st = os.fstat(f.fileno())
            chunks = _token_chunks(f)
            try:
                # tokens are at least a byte each: a regular file holds fewer than its size
                return _parse(path, chunks, width, lead, st.st_size if S_ISREG(st.st_mode) else math.inf)
            finally:
                deque(chunks, maxlen=0)
    except UnicodeDecodeError:
        Path(path).read_text()  # raises the whole-file read's error, its position counted from the start
        raise


def _parse(
    path: str | Path, chunks: Iterator[list[str]], width: Callable[[int, int], int], lead: int, room: float
) -> tuple[tuple[int, int, int], np.ndarray, np.ndarray, list[list[str]]]:
    """_records' parse of a file's token chunks, which hold at most room tokens."""
    head = []
    for more in chunks:  # the header's three tokens may span lines
        head += more
        if len(head) >= 3:
            break
    if len(head) < 3:
        raise ValueError(f"{path}: missing 'd1 d2 N' header")
    try:
        dims = d1, d2, n = tuple(int(t) for t in head[:3])
    except ValueError:
        got = " ".join(head[:3])
        raise ValueError(f"{path}: header 'd1 d2 N' must be integers, got {got}") from None
    if min(dims) < 1:
        raise ValueError(f"{path}: header 'd1 d2 N' must be positive, got {d1} {d2} {n}")
    per = width(d1, d2)
    want = n * per
    # nothing is allocated for a count the file cannot hold; it is only counted
    todo = want if want <= room else 0
    rest, firsts = np.empty((n, per - lead) if todo else 0), np.empty((n, lead) if todo else 0)
    texts = [[] for _ in range(lead)]
    found, failed, part, r = 0, None, np.empty(0), 0
    for more in chain([head[3:]], chunks):
        found += len(more)
        if not todo:
            continue
        take, at = more[:todo], want - todo
        try:
            # float() parses each token, correctly rounded, without a list of floats in between
            vals = np.array(take, dtype=np.float64)
        except ValueError as e:
            # a wrong count wins over a bad token: remember the first one, and count on
            failed, todo = ValueError(f"{path}: {e}"), 0
            continue
        todo -= len(take)
        for c, col in enumerate(texts):
            col += take[(c - at) % per :: per]
        if part.size:  # the values of a record that began in an earlier chunk
            vals = np.concatenate((part, vals))
        m = len(vals) // per
        block = vals[: m * per].reshape(m, per)
        firsts[r : r + m], rest[r : r + m] = block[:, :lead], block[:, lead:]
        part, r = vals[m * per :], r + m
    if found != want:
        raise ValueError(f"{path}: expected {want} values, found {found}")
    if failed is not None:
        raise failed
    return dims, rest, firsts, texts


def _read_quadratic(path: str | Path) -> tuple[np.ndarray, ...]:
    """The checked blocks A, B, C, a, c of a quadratic instance file, stacked over clients.

    The values parse into one frozen array of client rows and the blocks are
    views of it; _quadratic_fault checks every client at once, and a failure
    names the file and the first failing client.
    """
    (d1, d2, _), vals, _, _ = _records(path, lambda d1, d2: d1 * d1 + d1 * d2 + d2 * d2 + d1 + d2)
    vals.flags.writeable = False
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
    """Write a quadratic instance file, a line at a time: the header, then a line per block of each client.

    Each value is written as repr(float), which reads back bit for bit.
    """
    d1, d2 = len(specs[0].a), len(specs[0].c)
    with open(path, "w") as f:
        f.write(f"{d1} {d2} {len(specs)}\n")
        for s in specs:
            for block in (s.A, s.B, s.C, s.a, s.c):
                f.write(" ".join(map(repr, np.asarray(block, dtype=np.float64).ravel().tolist())) + "\n")


def load_dataset(path: str | Path) -> tuple[DomainAdaptDataset, int]:
    """Read and check a dataset file of `domain label x_1 .. x_d` records; returns (dataset, n_classes).

    The file is streamed (`_records`): the features parse straight into the
    dataset's X, and of the other tokens only the domains and labels are
    kept. Domain and label must be integer tokens and every feature finite;
    a failure names the file and the first failing record (0-based). The
    header's class count may not exceed the number of records, which bounds
    the model's size by the file's.
    """
    (d, n_classes, n), X, heads, texts = _records(path, lambda d, _: 2 + d, lead=2)
    texts = np.array(texts)
    # a token that parsed as a float and is a sign and decimal digits is an integer
    integer = np.char.isdecimal(np.char.lstrip(texts, "+-")).all(axis=0)
    # clipped so the cast is exact; a clipped domain or label is out of range anyway
    dom, y = np.where(integer, heads.T, 0).clip(-2, max(n_classes, 2)).astype(np.int64)
    nonfinite = ~np.isfinite(X).all(axis=1)
    bad = ~integer | nonfinite | (y >= n_classes) | (y < UNLABELED)
    if bad.any():
        i = np.argmax(bad)
        why = f"label {texts[1, i]} outside class range 0..{n_classes - 1} (or -1 unlabeled)"
        if nonfinite[i]:
            why = "a feature is not finite"
        if not integer[i]:
            why = f"domain and label must be integers, got {texts[0, i]} {texts[1, i]}"
        raise ValueError(f"{path}: record {i}: {why}")
    if n_classes > n:
        # the model holds n_classes * d predictor weights: the file's size bounds them
        raise ValueError(f"{path}: header class count {n_classes} exceeds the {n} records")
    try:
        return DomainAdaptDataset(X, y, dom), n_classes
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_dataset(path: str | Path, ds: DomainAdaptDataset, n_classes: int) -> None:
    """Write a dataset file, a line at a time: the header, then a `domain label x_1 .. x_d` line per point."""
    with open(path, "w") as f:
        f.write(f"{ds.X.shape[1]} {n_classes} {len(ds)}\n")
        for x, dom, y in zip(ds.X, ds.domain, ds.y):
            f.write(f"{int(dom)} {int(y)} {' '.join(map(repr, x.tolist()))}\n")
