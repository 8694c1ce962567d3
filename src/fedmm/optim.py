"""The federated minimax optimizers and the centralized oracle.

All five optimizers run one client-stacked local solve: row r of an (N, d)
array is one client's iterate, and each simultaneous (Jacobi) GDA step moves
every row at once. A rule table holds what the optimizers do differently.
Aggregation sums in ascending client-id order, so results are independent
of the order the clients are given in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from fedmm.core import ClientState, ConvergenceError, DivergenceError, HyperParams
from fedmm.core import PrimalDualPair, Vector, row_norms, vector
from fedmm.objectives import StackedObjectives, stacked


class OptimizerKind(Enum):
    FEDMM = "fedmm"
    FEDSGDA = "fedsgda"
    FEDAVG_GDA = "fedavg_gda"
    FEDPROX_GDA = "fedprox_gda"
    CENTRAL_GDA = "central_gda"

    @classmethod
    def parse(cls, name: str) -> "OptimizerKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown optimizer {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class LocalRoundOutput:
    """One client's upload: the vectors the server will average."""

    client_id: int
    omega_out: Vector
    psi_out: Vector

    @property
    def floats(self) -> int:
        return len(self.omega_out) + len(self.psi_out)


class _Rule(NamedTuple):
    multi_step: bool  # each client takes its M_i local steps, else one step
    penalty: str | None  # None, "prox" (prox_mu; none at 0) or "al" (mu1/mu2 and the duals)
    where: str  # error-message label, formatted with the client id


# An "al" round also takes the dual step, uploads the dual-shifted iterates
# and honours local_tol; every other round uploads its plain iterates.
_RULES = {
    OptimizerKind.FEDMM: _Rule(True, "al", "fedmm local round (client {})"),
    OptimizerKind.FEDAVG_GDA: _Rule(True, None, "fedavg_gda local round (client {})"),
    OptimizerKind.FEDPROX_GDA: _Rule(True, "prox", "fedprox_gda local round (client {})"),
    OptimizerKind.FEDSGDA: _Rule(False, None, "fedsgda round (client {})"),
    OptimizerKind.CENTRAL_GDA: _Rule(False, None, "centralized gda step"),
}


@dataclass(frozen=True)
class LocalSolve:
    """One stacked local round: row r of every frozen (N, d) array is clients[r].

    clients are in ascending id order; omega/psi are the end-of-round
    iterates, omega_out/psi_out the uploads, lam/beta the duals after the
    round (None unless the rule takes a dual step).
    """

    clients: list[ClientState]
    omega: np.ndarray
    psi: np.ndarray
    lam: np.ndarray | None
    beta: np.ndarray | None
    omega_out: np.ndarray
    psi_out: np.ndarray

    def states(self) -> list[ClientState]:
        """Each client's state after the round, with row views as its vectors."""
        out = []
        for r, c in enumerate(self.clients):
            lam, beta = (c.lam, c.beta) if self.lam is None else (self.lam[r], self.beta[r])
            pair = PrimalDualPair(self.omega[r], self.psi[r])
            out.append(ClientState(c.id, c.objective, pair, lam, beta))
        return out

    def outputs(self) -> list[LocalRoundOutput]:
        return [LocalRoundOutput(c.id, self.omega_out[r], self.psi_out[r])
                for r, c in enumerate(self.clients)]


_DIVERGENCE_CAP = 1e100


def _check_finite(om: np.ndarray, ps: np.ndarray, where: str, step: int) -> None:
    # magnitudes past the cap overflow inside the next gradient evaluation,
    # so treat them as divergence already; NaN fails the comparison too
    if not (np.abs(om).max() <= _DIVERGENCE_CAP and np.abs(ps).max() <= _DIVERGENCE_CAP):
        raise DivergenceError(where, step)


def _check_rows(OM, PS, ids: list[int], where: str, step: int) -> None:
    """_check_finite on every row (ids ascending); a failure names the first failing client."""
    try:
        _check_finite(OM, PS, where, step)
    except DivergenceError:
        for r, i in enumerate(ids):
            _check_finite(OM[r], PS[r], where.format(i), step)
        raise


def _local_grads(view: StackedObjectives, OM, PS, rows, penalty, duals, gp: PrimalDualPair):
    """Stacked local-step gradients: f's plus the penalty, when the rule has one.

    al:   grad_om f + lam + mu1*(om - om0),  grad_ps f - beta - mu2*(ps - ps0)
    prox: the same without the duals. No penalty adds no arithmetic at all,
    which keeps FedProxGDA(prox_mu=0) bit-exactly FedAvgGDA.
    """
    G_OM, G_PS = view.grads(OM, PS, rows)
    if penalty is None:
        return G_OM, G_PS
    w1, w2 = penalty
    if duals is None:
        return G_OM + w1 * (OM - gp.omega), G_PS - w2 * (PS - gp.psi)
    lam, beta = duals
    return G_OM + lam + w1 * (OM - gp.omega), G_PS - beta - w2 * (PS - gp.psi)


def _step(OM, PS, G, rows, hp: HyperParams):
    """One simultaneous GDA step of the rows in the mask (every row when None)."""
    new_om, new_ps = OM - hp.eta1 * G[0], PS + hp.eta2 * G[1]
    if rows is None:
        return new_om, new_ps
    return np.where(rows[:, None], new_om, OM), np.where(rows[:, None], new_ps, PS)


def local_solve(
    kind: OptimizerKind, clients: Sequence[ClientState], global_pair: PrimalDualPair,
    hp: HyperParams, t: int = 0, local_tol: float | None = None,
) -> LocalSolve:
    """One local round of `kind` for every client at once, starting from the globals.

    A row stops after its client's M_i steps or, in FedMM's run-to-tolerance
    mode (local_tol > 0), once both local gradient norms are at most
    local_tol, capped by hp.local_max_iters. Client ids must be distinct.
    """
    rule = _RULES[kind]
    clients = [clients[k] for k in _id_order([c.id for c in clients])]
    ids = [c.id for c in clients]
    view = stacked([c.objective for c in clients])
    if view.dims != global_pair.dims:
        raise ValueError(f"objective dims {view.dims} differ from the pair's {global_pair.dims}")
    OM = np.tile(global_pair.omega, (len(ids), 1))
    PS = np.tile(global_pair.psi, (len(ids), 1))
    duals = penalty = None
    if rule.penalty == "al":
        lam = np.array([c.lam for c in clients])
        beta = np.array([c.beta for c in clients])
        if lam.shape != OM.shape or beta.shape != PS.shape:
            raise ValueError("client duals do not match the objective dims")
        duals, penalty = (lam, beta), (hp.mu1, hp.mu2)
    elif rule.penalty == "prox" and hp.prox_mu != 0.0:
        penalty = (hp.prox_mu, hp.prox_mu)

    def grads(OM, PS, rows):
        return _local_grads(view, OM, PS, rows, penalty, duals, global_pair)

    if duals is None or not local_tol or local_tol <= 0:
        steps = np.array([hp.steps_for(i) if rule.multi_step else 1 for i in ids])
        fewest = steps.min()
        for m in range(steps.max()):
            rows = None if m < fewest else steps > m
            OM, PS = _step(OM, PS, grads(OM, PS, rows), rows, hp)
            _check_rows(OM, PS, ids, rule.where, m)
    else:
        where = "fedmm local solve (client {})"
        rows = np.ones(len(ids), dtype=bool)
        # the last pass only evaluates: rows still above tolerance then fail
        for m in range(hp.local_max_iters + 1):
            G = grads(OM, PS, rows)
            gn = np.maximum(row_norms(G[0]), row_norms(G[1]))
            rows &= gn > local_tol
            if not rows.any():
                break
            if m == hp.local_max_iters:
                r = np.flatnonzero(rows)[0]
                raise ConvergenceError(where.format(ids[r]), float(gn[r]), m)
            OM, PS = _step(OM, PS, G, None if rows.all() else rows, hp)
            _check_rows(OM, PS, ids, where, m)

    new_lam = new_beta = None
    up_om, up_ps = OM, PS
    if duals is not None:
        new_lam = lam + hp.mu1 * (OM - global_pair.omega)
        new_beta = beta + hp.mu2 * (PS - global_pair.psi)
        decay = hp.eta3**t
        up_om = OM + (decay / hp.mu1) * new_lam
        up_ps = PS + (decay / hp.mu2) * new_beta
    for a in (OM, PS, new_lam, new_beta, up_om, up_ps):
        if a is not None:
            a.flags.writeable = False
    return LocalSolve(clients, OM, PS, new_lam, new_beta, up_om, up_ps)


def _id_order(ids: Sequence[int], n_expected: int | None = None) -> list[int]:
    """Positions of `ids` in ascending id order; duplicate or missing ids are an error."""
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate client ids: {sorted({i for i in ids if ids.count(i) > 1})}")
    if n_expected is not None:
        missing = sorted(set(range(n_expected)) - set(ids))
        if missing:
            raise ValueError(f"missing client ids: {missing}")
    return sorted(range(len(ids)), key=ids.__getitem__)


def _average(up_om: np.ndarray, up_ps: np.ndarray) -> PrimalDualPair:
    """Plain average of the upload rows, summed from zero in row order."""
    om = np.zeros(up_om.shape[1])
    ps = np.zeros(up_ps.shape[1])
    for row_om, row_ps in zip(up_om, up_ps):
        om += row_om
        ps += row_ps
    return PrimalDualPair(vector(om / len(up_om)), vector(ps / len(up_om)))


def fedmm_aggregate(outputs: Sequence[LocalRoundOutput], n_expected=None) -> PrimalDualPair:
    """Plain average of uploads, summed in ascending client-id order."""
    if not outputs:
        raise ValueError("no client outputs to aggregate")
    ordered = [outputs[k] for k in _id_order([o.client_id for o in outputs], n_expected)]
    d1, d2 = len(ordered[0].omega_out), len(ordered[0].psi_out)
    for o in ordered:
        if len(o.omega_out) != d1 or len(o.psi_out) != d2:
            raise ValueError(f"client {o.client_id}: output dimensions disagree")
    return _average(np.array([o.omega_out for o in ordered]), np.array([o.psi_out for o in ordered]))


def augmented_lagrangian_grads(state: ClientState, global_pair, hp) -> tuple[Vector, Vector]:
    """Gradients of the per-client augmented Lagrangian at the state's pair.

    grad_omega = grad_om f + lam + mu1*(om - om0)     (descent direction input)
    grad_psi   = grad_ps f - beta - mu2*(ps - ps0)    (ascent direction input)
    """
    pair, duals = state.pair, (state.lam[None], state.beta[None])
    g_om, g_ps = _local_grads(stacked([state.objective]), pair.omega[None], pair.psi[None],
                              None, (hp.mu1, hp.mu2), duals, global_pair)
    return g_om[0], g_ps[0]


def fedmm_local_round(
    state: ClientState, global_pair: PrimalDualPair, hp: HyperParams, t: int,
    local_tol: float | None = None,
) -> tuple[ClientState, LocalRoundOutput]:
    """One FedMM client round: local GDA, dual step, consensus-shifted upload.

    The upload is omega + (eta3**t / mu1) * lambda and the psi analogue; the
    returned state keeps the unshifted iterates together with the new duals.
    """
    res = local_solve(OptimizerKind.FEDMM, [state], global_pair, hp, t, local_tol)
    return res.states()[0], res.outputs()[0]


def _single(kind, obj, pair, hp, client_id: int) -> LocalRoundOutput:
    return local_solve(kind, [ClientState.initial(client_id, obj, pair)], pair, hp).outputs()[0]


def fedavg_gda_local(obj, global_pair, hp, client_id: int = 0) -> LocalRoundOutput:
    """Multi-step local update on the raw f_i (M_i simultaneous GDA steps)."""
    return _single(OptimizerKind.FEDAVG_GDA, obj, global_pair, hp, client_id)


def fedprox_gda_local(obj, global_pair, hp, client_id: int = 0) -> LocalRoundOutput:
    """Multi-step local update on the prox-regularized objective."""
    return _single(OptimizerKind.FEDPROX_GDA, obj, global_pair, hp, client_id)


def centralized_gda_step(global_obj, pair, eta1: float, eta2: float) -> PrimalDualPair:
    """One simultaneous GDA step on the pooled objective."""
    out = _single(OptimizerKind.CENTRAL_GDA, global_obj, pair, HyperParams(eta1=eta1, eta2=eta2), 0)
    return PrimalDualPair(out.omega_out, out.psi_out)


def fedsgda_round(clients: Sequence[ClientState], server, hp: HyperParams):
    """One FedSGDA round: a single plain GDA step per client, then averaging."""
    return run_round(OptimizerKind.FEDSGDA, clients, server, hp), server


def run_round(
    kind: OptimizerKind, clients: Sequence[ClientState], server, hp: HyperParams,
    local_tol: float | None = None,
) -> list[ClientState]:
    """Advance one communication round of the chosen optimizer, mutating server.

    Client ids must be 0..N-1; the new states come back in the order given.
    """
    n = len(clients)
    if kind is OptimizerKind.CENTRAL_GDA and n != 1:
        raise ValueError("central_gda expects a single pooled client")
    _id_order([c.id for c in clients], n_expected=n)
    res = local_solve(kind, clients, server.global_pair, hp, server.round, local_tol)
    server.global_pair = _average(res.omega_out, res.psi_out)
    server.record_round(n)
    new = {s.id: s for s in res.states()}
    return [new[c.id] for c in clients]
