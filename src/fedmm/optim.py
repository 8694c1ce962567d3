"""The federated minimax optimizers and the centralized oracle.

All five optimizers run one client-stacked local solve on joint rows: row r
of an (N, d1 + d2) array is client r's [omega | psi], and each simultaneous
(Jacobi) GDA step moves every row at once. The ascent block's sign flips live
in signed per-column weights ([eta1 | -eta2] for the step, [mu1 | -mu2] or
[prox_mu | -prox_mu] for the penalty, [decay/mu1 | -decay/mu2] for the
upload) and in the duals, kept as [lam | -beta]; so the penalty, the step,
the dual step and the upload are each one expression over the joint row.
Negation is exact, so this rounds as the two blocks would on their own. A
rule table holds what the optimizers do differently.

`LocalRound` is the one round function, built once per run from what no
round changes (a one-off round is `LocalRound(kind, fed.view, hp)(fed, pair,
t)`), and one loop serves both of its modes: fixed M_i steps, or FedMM's
run-to-tolerance when hp.local_tol > 0. Each pass evaluates every row; once
some row is done, the step's row mask keeps that row's iterate. Between
rounds the clients' state is one `Federation` record of such arrays, and
aggregation sums the (N, d1 + d2) upload rows in client order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from fedmm.core import ConvergenceError, DivergenceError, HyperParams, PrimalDualPair, RejectedRows
from fedmm.core import row_dot, row_sum
from fedmm.objectives import StackedObjectives, stacked


class OptimizerKind(Enum):
    FEDMM = "fedmm"
    FEDSGDA = "fedsgda"
    FEDAVG_GDA = "fedavg_gda"
    FEDPROX_GDA = "fedprox_gda"
    CENTRAL_GDA = "central_gda"


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


@functools.lru_cache(maxsize=32)
def joint_weights(a: float, b: float, d1: int, d2: int, rows: int | None = None) -> np.ndarray:
    """The frozen (d1 + d2,) weight vector [a ... a | -b ... -b] of a joint row.

    The descent block takes the weight and the ascent block its negation, so
    one expression serves both blocks: negation is exact, so x - b*y and
    x + (-b)*y round alike. With `rows`, the (rows, d1 + d2) stack of it: the
    step's products are the same, and numpy runs them faster unbroadcast.
    """
    w = np.empty(d1 + d2 if rows is None else (rows, d1 + d2))
    w[..., :d1], w[..., d1:] = a, -b
    return _frozen(w)


@dataclass(frozen=True)
class Federation:
    """Every client's state between rounds, one joint row per client.

    Row r of the frozen (N, d1 + d2) array Z is client r's end-of-round
    iterate [omega | psi]. Row r of D holds its consensus duals signed as they
    enter the local step, [lam | -beta]; only FedMM's dual step moves them.
    view evaluates the client objectives, and omega, psi, lam and beta read
    the (N, d) blocks back.
    """

    view: StackedObjectives
    Z: np.ndarray
    D: np.ndarray

    @classmethod
    def initial(
        cls, objectives: Sequence | StackedObjectives, pair: PrimalDualPair
    ) -> "Federation":
        """Round 0: every row at `pair`, every dual zero; the objectives `stacked` takes, or a view already built."""
        view = objectives if isinstance(objectives, StackedObjectives) else stacked(objectives)
        if view.dims != pair.dims:
            raise ValueError(f"objective dims {view.dims} differ from the pair's {pair.dims}")
        Z, D = np.empty((view.n, sum(view.dims))), np.zeros((view.n, sum(view.dims)))
        Z[:] = pair.row
        D[:, view.dims[0] :] = -0.0  # beta = +0.0, kept as -beta
        return cls(view, _frozen(Z), _frozen(D))

    @property
    def n(self) -> int:
        return self.view.n

    @property
    def omega(self) -> np.ndarray:
        return self.Z[:, : self.view.dims[0]]

    @property
    def psi(self) -> np.ndarray:
        return self.Z[:, self.view.dims[0] :]

    @property
    def lam(self) -> np.ndarray:
        return self.D[:, : self.view.dims[0]]

    @property
    def beta(self) -> np.ndarray:
        return _frozen(-self.D[:, self.view.dims[0] :])


_DIVERGENCE_CAP = 1e100


def _bounded(Z: np.ndarray, axis: int | None = None):
    """The divergence rule: whether every entry (of each row, with axis=-1) is at most the cap.

    Magnitudes past the cap overflow inside the next gradient evaluation, so
    they count as divergence already; NaN fails the comparison too.
    """
    return np.maximum.reduce(np.abs(Z), axis=axis) <= _DIVERGENCE_CAP


def _check_finite(Z: np.ndarray, where: str, step: int) -> None:
    """The check of one local step's iterate, called once per step and for nothing else."""
    if not _bounded(Z):
        raise DivergenceError(where, step)


def _first_unbounded(Z: np.ndarray, where: str, step: int) -> DivergenceError:
    """The DivergenceError of an (N, d) stack that breaks the rule: it names the first failing row."""
    return DivergenceError(where.format(np.flatnonzero(~_bounded(Z, -1))[0]), step)


def _local_grads(view: StackedObjectives, Z, W, D, Z0) -> np.ndarray:
    """Joint local-step gradients: f's plus the penalty, when the rule has one.

    al:   G + D + W*(Z - Z0), with D = [lam | -beta] and W = [mu1 | -mu2], which is
          [grad_om f + lam + mu1*(om - om0) | grad_ps f - beta - mu2*(ps - ps0)]
    prox: G + W*(Z - Z0), with W = [prox_mu | -prox_mu]. No penalty adds no
    arithmetic at all, which keeps FedProxGDA(prox_mu=0) bit-exactly FedAvgGDA.
    """
    G = view.joint_grads(Z)
    if W is None:
        return G
    if D is None:
        return G + W * (Z - Z0)
    return G + D + W * (Z - Z0)


def _step(Z, E, G, rows):
    """One simultaneous GDA step Z - E*G, E = [eta1 | -eta2], of the rows in the mask.

    Every row steps when the mask is None; the others keep their Z, whatever G holds.
    """
    new = Z - E * G
    return new if rows is None else np.where(rows[:, None], new, Z)


class LocalRound:
    """The local round of `kind` under `hp` for every client of a view's shape, built once per run.

    Everything that no round changes is computed here, once: the rule, the
    step weights E, the penalty weights W, the upload weights U when eta3 == 1
    (U then takes the same value every round), the tolerance, the pass count,
    the fewest M_i with the M_i array for the row mask, and the error label.
    It depends on the view only through its client count and dims, so one
    round serves every federation of that shape, a minibatch run's per-round
    views included; calling it with another shape raises ValueError.

    Calling it runs one round, `local(fed, global_pair, t)`, and returns the
    federation after the round and the frozen (N, d1 + d2) upload rows. A row
    stops after its client's M_i steps or, in FedMM's run-to-tolerance mode
    (hp.local_tol > 0), once both local gradient norms are at most
    hp.local_tol, capped by hp.local_max_iters. Every row's gradient is
    evaluated at every step; only _step's mask keeps a finished row.

    Every step's iterate is checked against the divergence rule, so a plain
    upload (the iterate) needs no check of its own; FedMM's dual-shifted
    upload is checked once, where it is formed. A non-finite gradient at a
    finite iterate (the view's RejectedRows) is a divergence at that step too,
    named after the first client whose gradient row the view rejected.
    """

    def __init__(self, kind: OptimizerKind, view: StackedObjectives, hp: HyperParams):
        rule = _RULES[kind]
        n, (d1, d2) = view.n, view.dims
        self.kind, self.n, self.dims, self.hp = kind, n, view.dims, hp
        self.E = joint_weights(hp.eta1, hp.eta2, d1, d2, n)
        self.W = self.U = None
        self.al = rule.penalty == "al"
        if self.al:
            self.W = joint_weights(hp.mu1, hp.mu2, d1, d2, n)
            if hp.eta3 == 1.0:  # decay = 1.0**t = 1.0 every round
                self.U = joint_weights(1.0 / hp.mu1, 1.0 / hp.mu2, d1, d2)
        elif rule.penalty == "prox" and hp.prox_mu != 0.0:
            self.W = joint_weights(hp.prox_mu, hp.prox_mu, d1, d2, n)

        self.tol, self.steps = hp.local_tol if self.al else 0.0, None
        if self.tol > 0:
            # the last pass only evaluates: rows still above tolerance then fail
            self.where, self.passes, self.fewest = "fedmm local solve (client {})", hp.local_max_iters + 1, 0
        elif rule.multi_step:
            steps = hp.expanded(n).local_steps
            self.where, self.passes, self.fewest = rule.where, max(steps), min(steps)
            if self.fewest < self.passes:  # a row mask is needed only when the M_i differ
                self.steps = np.array(steps)
        else:
            self.where, self.passes, self.fewest = rule.where, 1, 1

    def __call__(
        self, fed: Federation, global_pair: PrimalDualPair, t: int = 0
    ) -> tuple[Federation, np.ndarray]:
        view, n, (d1, d2) = fed.view, self.n, self.dims
        if view.n != n or view.dims != self.dims:
            raise ValueError(
                f"the round is for {n} clients of dims {self.dims}, "
                f"the federation has {view.n} of dims {view.dims}"
            )
        if view.dims != global_pair.dims:
            raise ValueError(f"objective dims {view.dims} differ from the pair's {global_pair.dims}")
        E, W, tol, where, fewest, steps = self.E, self.W, self.tol, self.where, self.fewest, self.steps
        D = fed.D if self.al else None
        Z = Z0 = np.empty(fed.Z.shape)  # the global pair in every row, where each row starts
        Z0[:] = global_pair.row
        rows = None  # every row steps until one is done
        for m in range(self.passes):
            try:
                G = _local_grads(view, Z, W, D, Z0)
            except RejectedRows as e:  # the view's finiteness check
                raise DivergenceError(f"{where.format(e.row)} gradient", m) from None
            if tol > 0:
                # the larger block norm; sqrt is correctly rounded and monotone, so
                # sqrt(max) is the max of the two norms bit for bit, NaN included
                GO, GP = G[:, :d1], G[:, d1:]
                gn = np.sqrt(np.maximum(row_dot(GO, GO), row_dot(GP, GP)))
                active = gn > tol if rows is None else rows & (gn > tol)
                left = np.count_nonzero(active)
                if not left:
                    break
                if m == self.passes - 1:
                    r = np.flatnonzero(active)[0]
                    raise ConvergenceError(where.format(r), float(gn[r]), m)
                rows = None if left == n else active
            else:
                rows = None if m < fewest else steps > m
            Z = _step(Z, E, G, rows)
            try:
                _check_finite(Z, where, m)
            except DivergenceError:
                raise _first_unbounded(Z, where, m) from None

        Z = _frozen(Z)
        if D is None:
            return Federation(view, Z, fed.D), Z
        # the dual step, then the dual-shifted upload Z + U*D with U = [decay/mu1 | -decay/mu2]
        D = _frozen(D + W * (Z - Z0))
        U = self.U
        if U is None:
            decay = self.hp.eta3**t
            U = joint_weights(decay / self.hp.mu1, decay / self.hp.mu2, d1, d2)
        up = Z + U * D
        if not _bounded(up):
            raise _first_unbounded(up, "fedmm upload (client {})", m)
        return Federation(view, Z, D), _frozen(up)


def fedmm_aggregate(uploads: np.ndarray, d1: int) -> PrimalDualPair:
    """Plain average of the (N, d1 + d2) upload rows: the pair whose frozen joint row is the mean.

    The sum adds the rows in row (client) order, started from zero: the + 0.0
    turns a column of -0.0 rows into the +0.0 that a zero-started sum gives.
    A round's uploads are at most 1e100 in magnitude, so their mean is
    finite and is not checked again.
    """
    return PrimalDualPair.of_row(_frozen((row_sum(uploads) + 0.0) / len(uploads)), d1)


def run_round(local: LocalRound, fed: Federation, server) -> Federation:
    """Advance one communication round of the round's optimizer, mutating server."""
    if local.kind is OptimizerKind.CENTRAL_GDA and fed.n != 1:
        raise ValueError("central_gda expects a single pooled client")
    fed, up = local(fed, server.global_pair, server.round)
    server.global_pair = fedmm_aggregate(up, local.dims[0])
    server.record_round(fed.n)
    return fed
