"""The federated minimax optimizers and the centralized oracle.

Every optimizer is a (local round, aggregate) pair over ClientState /
ServerState. Inner loops are simultaneous (Jacobi) GDA: both gradients are
evaluated at the current iterate before either block moves. Aggregation sums
in ascending client-id order so results are independent of completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from fedmm.core import (
    ClientState,
    ConvergenceError,
    DivergenceError,
    HyperParams,
    PrimalDualPair,
    Vector,
    vector,
)
from fedmm.objectives import LocalObjective


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


def augmented_lagrangian_grads(
    state: ClientState, global_pair: PrimalDualPair, hp: HyperParams
) -> tuple[Vector, Vector]:
    """Gradients of the per-client augmented Lagrangian at the state's pair.

    grad_omega = grad_om f + lam + mu1*(om - om0)     (descent direction input)
    grad_psi   = grad_ps f - beta - mu2*(ps - ps0)    (ascent direction input)
    """
    return _al_grads(
        state.objective,
        state.pair.omega,
        state.pair.psi,
        state.lam,
        state.beta,
        global_pair,
        hp,
    )


def _al_grads(obj, om, ps, lam, beta, global_pair: PrimalDualPair, hp: HyperParams):
    f_om, f_ps = obj.grads(om, ps)
    g_om = f_om + lam + hp.mu1 * (om - global_pair.omega)
    g_ps = f_ps - beta - hp.mu2 * (ps - global_pair.psi)
    return g_om, g_ps


_DIVERGENCE_CAP = 1e100


def _check_finite(om: np.ndarray, ps: np.ndarray, where: str, step: int) -> None:
    # magnitudes past the cap overflow inside the next gradient evaluation,
    # so treat them as divergence already; NaN fails the comparison too
    if not (np.abs(om).max() <= _DIVERGENCE_CAP and np.abs(ps).max() <= _DIVERGENCE_CAP):
        raise DivergenceError(where, step)


def fedmm_local_round(
    state: ClientState,
    global_pair: PrimalDualPair,
    hp: HyperParams,
    t: int,
    local_tol: float | None = None,
) -> tuple[ClientState, LocalRoundOutput]:
    """One FedMM client round: local GDA, dual step, consensus-shifted upload.

    With local_tol unset, runs the fixed M_i simultaneous GDA steps on the
    augmented Lagrangian. With local_tol set, iterates until both local
    gradient norms drop below it (capped by hp.local_max_iters).

    The upload is omega + (eta3**t / mu1) * lambda and the psi analogue; the
    returned state keeps the unshifted iterates together with the new duals.
    """
    obj = state.objective
    om = np.array(global_pair.omega)
    ps = np.array(global_pair.psi)
    lam, beta = state.lam, state.beta

    if local_tol is not None and local_tol > 0:
        done = False
        for m in range(hp.local_max_iters):
            g_om, g_ps = _al_grads(obj, om, ps, lam, beta, global_pair, hp)
            if max(np.linalg.norm(g_om), np.linalg.norm(g_ps)) <= local_tol:
                done = True
                break
            om = om - hp.eta1 * g_om
            ps = ps + hp.eta2 * g_ps
            _check_finite(om, ps, f"fedmm local solve (client {state.id})", m)
        if not done:
            g_om, g_ps = _al_grads(obj, om, ps, lam, beta, global_pair, hp)
            gn = max(float(np.linalg.norm(g_om)), float(np.linalg.norm(g_ps)))
            if gn > local_tol:
                raise ConvergenceError(
                    f"fedmm local solve (client {state.id})", gn, hp.local_max_iters
                )
    else:
        for m in range(hp.steps_for(state.id)):
            g_om, g_ps = _al_grads(obj, om, ps, lam, beta, global_pair, hp)
            om = om - hp.eta1 * g_om
            ps = ps + hp.eta2 * g_ps
            _check_finite(om, ps, f"fedmm local round (client {state.id})", m)

    new_lam = lam + hp.mu1 * (om - global_pair.omega)
    new_beta = beta + hp.mu2 * (ps - global_pair.psi)
    decay = hp.eta3**t
    om_out = om + (decay / hp.mu1) * new_lam
    ps_out = ps + (decay / hp.mu2) * new_beta

    new_state = ClientState(
        id=state.id,
        objective=obj,
        pair=PrimalDualPair(vector(om), vector(ps)),
        lam=vector(new_lam),
        beta=vector(new_beta),
    )
    return new_state, LocalRoundOutput(state.id, vector(om_out), vector(ps_out))


def fedmm_aggregate(
    outputs: Sequence[LocalRoundOutput], n_expected: int | None = None
) -> PrimalDualPair:
    """Plain average of uploads, summed in ascending client-id order."""
    if not outputs:
        raise ValueError("no client outputs to aggregate")
    if n_expected is not None:
        have = {o.client_id for o in outputs}
        missing = sorted(set(range(n_expected)) - have)
        if missing:
            raise ValueError(f"missing client outputs: {missing}")
    ordered = sorted(outputs, key=lambda o: o.client_id)
    d1, d2 = len(ordered[0].omega_out), len(ordered[0].psi_out)
    for o in ordered:
        if len(o.omega_out) != d1 or len(o.psi_out) != d2:
            raise ValueError(f"client {o.client_id}: output dimensions disagree")
    om = np.zeros(d1)
    ps = np.zeros(d2)
    for o in ordered:
        om += o.omega_out
        ps += o.psi_out
    n = len(ordered)
    return PrimalDualPair(vector(om / n), vector(ps / n))


def _gda_local(
    obj: LocalObjective,
    global_pair: PrimalDualPair,
    eta1: float,
    eta2: float,
    steps: int,
    prox_mu: float,
    client_id: int,
    where: str,
) -> LocalRoundOutput:
    """Simultaneous GDA from the globals on f_i, optionally prox-regularized.

    prox_mu == 0 takes the identical code path as the plain objective, which
    is what makes FedProxGDA(prox_mu=0) bit-exactly FedAvgGDA.
    """
    om = np.array(global_pair.omega)
    ps = np.array(global_pair.psi)
    for m in range(steps):
        g_om, g_ps = obj.grads(om, ps)
        if prox_mu != 0.0:
            g_om = g_om + prox_mu * (om - global_pair.omega)
            g_ps = g_ps - prox_mu * (ps - global_pair.psi)
        om = om - eta1 * g_om
        ps = ps + eta2 * g_ps
        _check_finite(om, ps, where, m)
    return LocalRoundOutput(client_id, vector(om), vector(ps))


def fedavg_gda_local(
    obj: LocalObjective, global_pair: PrimalDualPair, hp: HyperParams, client_id: int = 0
) -> LocalRoundOutput:
    """Multi-step local update on the raw f_i (M_i simultaneous GDA steps)."""
    return _gda_local(
        obj,
        global_pair,
        hp.eta1,
        hp.eta2,
        hp.steps_for(client_id),
        0.0,
        client_id,
        f"fedavg_gda local round (client {client_id})",
    )


def fedprox_gda_local(
    obj: LocalObjective, global_pair: PrimalDualPair, hp: HyperParams, client_id: int = 0
) -> LocalRoundOutput:
    """Multi-step local update on the prox-regularized objective."""
    return _gda_local(
        obj,
        global_pair,
        hp.eta1,
        hp.eta2,
        hp.steps_for(client_id),
        hp.prox_mu,
        client_id,
        f"fedprox_gda local round (client {client_id})",
    )


def centralized_gda_step(
    global_obj: LocalObjective, pair: PrimalDualPair, eta1: float, eta2: float
) -> PrimalDualPair:
    """One simultaneous GDA step on the pooled objective."""
    out = _gda_local(global_obj, pair, eta1, eta2, 1, 0.0, 0, "centralized gda step")
    return PrimalDualPair(out.omega_out, out.psi_out)


def fedsgda_round(
    clients: Sequence[ClientState], server, hp: HyperParams
) -> tuple[list[ClientState], "object"]:
    """One FedSGDA round: a single plain GDA step per client, then averaging."""
    outputs = [
        _gda_local(
            c.objective,
            server.global_pair,
            hp.eta1,
            hp.eta2,
            1,
            0.0,
            c.id,
            f"fedsgda round (client {c.id})",
        )
        for c in clients
    ]
    new_clients = [
        replace(c, pair=PrimalDualPair(o.omega_out, o.psi_out))
        for c, o in zip(clients, outputs)
    ]
    server.global_pair = fedmm_aggregate(outputs, n_expected=len(clients))
    server.record_round(len(clients))
    return new_clients, server


def run_round(
    kind: OptimizerKind,
    clients: Sequence[ClientState],
    server,
    hp: HyperParams,
    local_tol: float | None = None,
) -> list[ClientState]:
    """Advance one communication round of the chosen optimizer, mutating server."""
    n = len(clients)
    if kind is OptimizerKind.FEDSGDA:
        new_clients, _ = fedsgda_round(clients, server, hp)
        return new_clients

    if kind is OptimizerKind.FEDMM:
        t = server.round
        new_clients = []
        outputs = []
        for c in clients:
            ns, out = fedmm_local_round(c, server.global_pair, hp, t, local_tol=local_tol)
            new_clients.append(ns)
            outputs.append(out)
        server.global_pair = fedmm_aggregate(outputs, n_expected=n)
        server.record_round(n)
        return new_clients

    if kind in (OptimizerKind.FEDAVG_GDA, OptimizerKind.FEDPROX_GDA):
        local = fedavg_gda_local if kind is OptimizerKind.FEDAVG_GDA else fedprox_gda_local
        outputs = [local(c.objective, server.global_pair, hp, c.id) for c in clients]
        new_clients = [
            replace(c, pair=PrimalDualPair(o.omega_out, o.psi_out))
            for c, o in zip(clients, outputs)
        ]
        server.global_pair = fedmm_aggregate(outputs, n_expected=n)
        server.record_round(n)
        return new_clients

    if kind is OptimizerKind.CENTRAL_GDA:
        if n != 1:
            raise ValueError("central_gda expects a single pooled client")
        c = clients[0]
        new_pair = centralized_gda_step(c.objective, server.global_pair, hp.eta1, hp.eta2)
        server.global_pair = new_pair
        server.record_round(1)
        return [replace(c, pair=new_pair)]

    raise ValueError(f"unhandled optimizer kind {kind}")
