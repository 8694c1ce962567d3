"""Test-only references: the engine's round, problem-file readers and per-row kernels.

The per-client formulas for the objectives' values and gradients, and the
client-order means, are `fedmm.checks`'s: `fedmm check` and the tests
compare the views with the same plain-numpy reference. This module builds on
them:

- `per_block_round`, one federated round in plain numpy, each block on its
  own in the order of operations of the per-block engine the joint-row
  engine replaced. Its clients are quadratic or DANN objectives, or a
  `MeanOfClients`: the pooled client central GDA trains.
- The quadratic's curvature and Lipschitz bounds and the brute-force
  minimizer of its max-function, which only the tests use.
- The problem-file readers as they were before they streamed: the whole
  text, then every token, then one bulk parse. The streamed readers must
  give the same arrays bit for bit, or raise the same ValueError.
- The per-row products as batched matmuls, the `[..., None]` / `[..., 0]`
  idiom that numpy's np.vecdot, np.vecmat and np.matvec replaced in
  `core.row_dot`, `row_norms` and the quadratic view: the kernels must give
  these bits.
"""

from pathlib import Path

import numpy as np

from fedmm.checks import client_grads, ref_mean
from fedmm.core import ConvergenceError, DivergenceError, row_norms, vector
from fedmm.objectives import UNLABELED, DomainAdaptDataset, _blocks, _quadratic_fault, quadratic_bars, stacked
from fedmm.optim import OptimizerKind

K = OptimizerKind
MULTI_STEP = (K.FEDMM, K.FEDAVG_GDA, K.FEDPROX_GDA)
WHERE = {
    K.FEDMM: "fedmm local round (client {})",
    K.FEDAVG_GDA: "fedavg_gda local round (client {})",
    K.FEDPROX_GDA: "fedprox_gda local round (client {})",
    K.FEDSGDA: "fedsgda round (client {})",
    K.CENTRAL_GDA: "centralized gda step",
}


class MeanOfClients:
    """A pooled client: each gradient block the `ref_mean` of its clients' at the same point."""

    def __init__(self, objectives):
        self.objectives, self.dims = objectives, objectives[0].dims


def reference_grads(obj, om, ps):
    """(grad_omega, grad_psi) of a quadratic or DANN client, or of a MeanOfClients, at one point."""
    if isinstance(obj, MeanOfClients):
        g_om, g_ps = zip(*(client_grads(o, om, ps) for o in obj.objectives))
        return ref_mean(g_om), ref_mean(g_ps)
    return client_grads(obj, om, ps)


def per_block_round(kind, objs, lam, beta, gp, hp, t, local_tol):
    """One round, each block on its own, in the per-block engine's order of operations.

    Client r is objs[r] with duals lam[r] and beta[r]. Returns (omega, psi,
    lam, beta, upload omega, upload psi) as (N, d) arrays and the aggregated
    (omega_bar, psi_bar); raises the engine's DivergenceError or
    ConvergenceError, naming the lowest failing client.
    """
    n = len(objs)
    OM, PS = np.empty((n, len(gp.omega))), np.empty((n, len(gp.psi)))
    OM[:], PS[:] = gp.omega, gp.psi

    def grads(OM, PS, rows):
        G_OM, G_PS = np.zeros(OM.shape), np.zeros(PS.shape)
        for r, obj in enumerate(objs):
            if rows is None or rows[r]:
                G_OM[r], G_PS[r] = reference_grads(obj, OM[r], PS[r])
        if kind is K.FEDMM:
            return G_OM + lam + hp.mu1 * (OM - gp.omega), G_PS - beta - hp.mu2 * (PS - gp.psi)
        if kind is K.FEDPROX_GDA and hp.prox_mu != 0.0:
            return (
                G_OM + hp.prox_mu * (OM - gp.omega), G_PS - hp.prox_mu * (PS - gp.psi)
            )
        return G_OM, G_PS

    def step(OM, PS, G, rows):
        new_om, new_ps = OM - hp.eta1 * G[0], PS + hp.eta2 * G[1]
        if rows is None:
            return new_om, new_ps
        return np.where(rows[:, None], new_om, OM), np.where(rows[:, None], new_ps, PS)

    def check(OM, PS, where, m):
        for r in range(n):
            if not (np.abs(OM[r]).max() <= 1e100 and np.abs(PS[r]).max() <= 1e100):
                raise DivergenceError(where.format(r), m)

    if kind is K.FEDMM and local_tol:
        where = "fedmm local solve (client {})"
        rows = None
        for m in range(hp.local_max_iters + 1):
            G = grads(OM, PS, rows)
            gn = np.maximum(row_norms(G[0]), row_norms(G[1]))
            active = gn > local_tol if rows is None else rows & (gn > local_tol)
            if not active.any():
                break
            if m == hp.local_max_iters:
                r = np.flatnonzero(active)[0]
                raise ConvergenceError(where.format(r), float(gn[r]), m)
            rows = None if active.all() else active
            OM, PS = step(OM, PS, G, rows)
            check(OM, PS, where, m)
    else:
        steps = np.array(hp.expanded(n).local_steps if kind in MULTI_STEP else (1,) * n)
        for m in range(steps.max()):
            rows = None if m < steps.min() else steps > m
            OM, PS = step(OM, PS, grads(OM, PS, rows), rows)
            check(OM, PS, WHERE[kind], m)

    up_om, up_ps = OM, PS
    if kind is K.FEDMM:
        lam = lam + hp.mu1 * (OM - gp.omega)
        beta = beta + hp.mu2 * (PS - gp.psi)
        up_om = OM + (hp.eta3**t / hp.mu1) * lam
        up_ps = PS + (hp.eta3**t / hp.mu2) * beta
    bar_om, bar_ps = np.zeros(OM.shape[1]), np.zeros(PS.shape[1])
    for r in range(n):
        bar_om += up_om[r]
        bar_ps += up_ps[r]
    return (OM, PS, lam, beta, up_om, up_ps), (bar_om / n, bar_ps / n)


def quadratic_phi_minimizer(objectives):
    """Brute-force reference: the unique stationary point of the max-function."""
    Abar, Bbar, Cbar, abar, cbar = quadratic_bars(stacked(objectives))
    H = Abar + Bbar @ np.linalg.solve(Cbar, Bbar.T)
    rhs = -(abar + Bbar @ np.linalg.solve(Cbar, cbar))
    return vector(np.linalg.solve(H, rhs))


def matmul_row_dot(X, Y):
    """Each row's X[..., r, :] . Y[..., r, :] as a (1, d) @ (d, 1) matmul per row."""
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def matmul_row_norms(G):
    return np.sqrt(matmul_row_dot(G, G))


def matmul_row_vecmat(X, M):
    """Each row's X[..., r, :] @ M[r] as a (1, d) @ (d, e) matmul per row."""
    return (X[..., None, :] @ M)[..., 0, :]


def matmul_quadratic_values(view, Z):
    """A quadratic view's values at the joint rows Z, each product a per-row matmul."""
    OM, PS = Z[..., : view.dims[0]], Z[..., view.dims[0] :]
    return (
        matmul_row_dot(matmul_row_vecmat(0.5 * OM, view.A), OM)
        + matmul_row_dot(matmul_row_vecmat(OM, view.B), PS)
        - matmul_row_dot(matmul_row_vecmat(0.5 * PS, view.C), PS)
        + matmul_row_dot(view.a, OM)
        + matmul_row_dot(view.c, PS)
    )


def matmul_quadratic_joint_grads(view, Z):
    """[A om + B ps + a | B' om - C ps + c] at the joint rows Z, each matvec a (d, e) @ (e, 1) matmul."""
    d1 = view.dims[0]
    OM, PS = Z[..., :d1, None], Z[..., d1:, None]
    G = np.empty(Z.shape)
    G[..., :d1] = (view.A @ OM)[..., 0] + (view.B @ PS)[..., 0] + view.a
    G[..., d1:] = (view.BT @ OM)[..., 0] - (view.C @ PS)[..., 0] + view.c
    return G


def matmul_closed_form_psi(bars, omegas):
    """Cbar^-1 (Bbar' omega + cbar) at each of the (K, d1) omegas, Bbar' omega as a matmul per omega."""
    rhs = (bars.B.T @ omegas[..., None])[..., 0] + bars.c
    return np.linalg.solve(bars.C, rhs[..., None])[..., 0]


def strong_concavity_modulus(obj):
    """Curvature bound of a quadratic's psi block: the smallest eigenvalue of C."""
    return float(np.linalg.eigvalsh(obj.C).min())


def lipschitz_bounds(obj):
    """A quadratic's operator-norm gradient Lipschitz constants L11, L12, L21, L22."""
    nB = float(np.linalg.norm(obj.B, 2))
    return {
        "L11": float(np.linalg.norm(obj.A, 2)),
        "L12": nB,
        "L21": nB,
        "L22": float(np.linalg.norm(obj.C, 2)),
    }


def records(path, width):
    """A text file's `d1 d2 N` header, the tokens after it and its N records of width(d1, d2) values."""
    text = Path(path).read_text()
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    toks = text.split()
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
        vals = np.array(body, dtype=np.float64).reshape(n, per)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    vals.flags.writeable = False
    return head, body, vals


def read_quadratic(path):
    """The checked blocks A, B, C, a, c of a quadratic instance file, stacked over clients."""
    (d1, d2, _), _, vals = records(path, lambda d1, d2: d1 * d1 + d1 * d2 + d2 * d2 + d1 + d2)
    fault = _quadratic_fault(vals, d1, d2)
    if fault is not None:
        raise ValueError(f"{path}: client {fault[0]}: {fault[1]}")
    return _blocks(vals, d1, d2)


def load_dataset(path):
    """(dataset, n_classes) of a checked dataset file of `domain label x_1 .. x_d` records."""
    (d, n_classes, n), body, vals = records(path, lambda d, _: 2 + d)
    heads = np.array([body[0 :: 2 + d], body[1 :: 2 + d]])
    integer = np.char.isdecimal(np.char.lstrip(heads, "+-")).all(axis=0)
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
    if n_classes > n:
        raise ValueError(f"{path}: header class count {n_classes} exceeds the {n} records")
    try:
        return DomainAdaptDataset(vals[:, 2:].copy(), y, dom), n_classes
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
