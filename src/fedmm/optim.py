"""The federated minimax optimizers and the centralized oracle.

All five optimizers run one client-stacked local solve: row r of an (N, d)
array is one client's iterate, and each simultaneous (Jacobi) GDA step moves
every row at once. A rule table holds what the optimizers do differently.
Between rounds the clients' state is one `Federation` record of such arrays,
and aggregation sums the upload rows in client order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from fedmm.core import ConvergenceError, DivergenceError, HyperParams, PrimalDualPair
from fedmm.core import row_norms, vector
from fedmm.objectives import LocalObjective, StackedObjectives, stacked


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Federation:
    """Every client's state between rounds: row r of each frozen (N, d) array is client r.

    view evaluates the client objectives; omega/psi are the end-of-round
    iterates and lam/beta the consensus duals, which only FedMM's dual step
    moves.
    """

    view: StackedObjectives
    omega: np.ndarray
    psi: np.ndarray
    lam: np.ndarray
    beta: np.ndarray

    @classmethod
    def initial(cls, objectives: Sequence[LocalObjective], pair: PrimalDualPair) -> "Federation":
        """Round 0: every row at `pair`, every dual zero."""
        view = stacked(objectives)
        if view.dims != pair.dims:
            raise ValueError(f"objective dims {view.dims} differ from the pair's {pair.dims}")
        (d1, d2), n = view.dims, view.n
        OM, PS = np.empty((n, d1)), np.empty((n, d2))
        OM[:], PS[:] = pair.omega, pair.psi
        return cls(view, *map(_frozen, (OM, PS, np.zeros((n, d1)), np.zeros((n, d2)))))

    @property
    def n(self) -> int:
        return self.view.n


_DIVERGENCE_CAP = 1e100


def _check_finite(om: np.ndarray, ps: np.ndarray, where: str, step: int) -> None:
    # magnitudes past the cap overflow inside the next gradient evaluation,
    # so treat them as divergence already; NaN fails the comparison too
    if not (np.abs(om).max() <= _DIVERGENCE_CAP and np.abs(ps).max() <= _DIVERGENCE_CAP):
        raise DivergenceError(where, step)


def _check_rows(OM, PS, where: str, step: int) -> None:
    """_check_finite on the whole stack; a failure names the first failing client."""
    try:
        _check_finite(OM, PS, where, step)
    except DivergenceError:
        for r in range(len(OM)):
            _check_finite(OM[r], PS[r], where.format(r), step)
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
    kind: OptimizerKind, fed: Federation, global_pair: PrimalDualPair,
    hp: HyperParams, t: int = 0, local_tol: float | None = None,
) -> tuple[Federation, np.ndarray, np.ndarray]:
    """One local round of `kind` for every client at once, starting from the globals.

    Returns the federation after the round and the frozen (N, d1) / (N, d2)
    uploads. A row stops after its client's M_i steps or, in FedMM's
    run-to-tolerance mode (local_tol > 0), once both local gradient norms are
    at most local_tol, capped by hp.local_max_iters.
    """
    rule = _RULES[kind]
    view, n = fed.view, fed.n
    if view.dims != global_pair.dims:
        raise ValueError(f"objective dims {view.dims} differ from the pair's {global_pair.dims}")
    OM, PS = np.empty(fed.omega.shape), np.empty(fed.psi.shape)
    OM[:], PS[:] = global_pair.omega, global_pair.psi
    duals = penalty = None
    if rule.penalty == "al":
        duals, penalty = (fed.lam, fed.beta), (hp.mu1, hp.mu2)
    elif rule.penalty == "prox" and hp.prox_mu != 0.0:
        penalty = (hp.prox_mu, hp.prox_mu)

    def grads(OM, PS, rows):
        return _local_grads(view, OM, PS, rows, penalty, duals, global_pair)

    if duals is None or not local_tol or local_tol <= 0:
        steps = np.array(hp.expanded(n).local_steps if rule.multi_step else (1,) * n)
        fewest = steps.min()
        for m in range(steps.max()):
            rows = None if m < fewest else steps > m
            OM, PS = _step(OM, PS, grads(OM, PS, rows), rows, hp)
            _check_rows(OM, PS, rule.where, m)
    else:
        where = "fedmm local solve (client {})"
        rows = None  # every row runs until one converges
        # the last pass only evaluates: rows still above tolerance then fail
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
            OM, PS = _step(OM, PS, G, rows, hp)
            _check_rows(OM, PS, where, m)

    lam, beta, up_om, up_ps = fed.lam, fed.beta, OM, PS
    if duals is not None:
        lam = _frozen(lam + hp.mu1 * (OM - global_pair.omega))
        beta = _frozen(beta + hp.mu2 * (PS - global_pair.psi))
        decay = hp.eta3**t
        up_om = _frozen(OM + (decay / hp.mu1) * lam)
        up_ps = _frozen(PS + (decay / hp.mu2) * beta)
    return Federation(view, _frozen(OM), _frozen(PS), lam, beta), up_om, up_ps


def fedmm_aggregate(up_om: np.ndarray, up_ps: np.ndarray) -> PrimalDualPair:
    """Plain average of the upload rows, summed from zero in row (client) order."""
    om = np.zeros(up_om.shape[1])
    ps = np.zeros(up_ps.shape[1])
    for row_om, row_ps in zip(up_om, up_ps):
        om += row_om
        ps += row_ps
    return PrimalDualPair(vector(om / len(up_om)), vector(ps / len(up_om)))


def run_round(
    kind: OptimizerKind, fed: Federation, server, hp: HyperParams,
    local_tol: float | None = None,
) -> Federation:
    """Advance one communication round of the chosen optimizer, mutating server."""
    if kind is OptimizerKind.CENTRAL_GDA and fed.n != 1:
        raise ValueError("central_gda expects a single pooled client")
    fed, up_om, up_ps = local_solve(kind, fed, server.global_pair, hp, server.round, local_tol)
    server.global_pair = fedmm_aggregate(up_om, up_ps)
    server.record_round(fed.n)
    return fed
