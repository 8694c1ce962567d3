"""Verification oracles: algebraic identity checks, stationarity summaries,
and empirical and closed-form constant estimation.

The four identity checks compare one converged federated round against the
closed-form relations that exact local solves imply:

  sum_identity_psi    sum_i psi_i' = sum_i psi_i + (1/mu2) sum_i grad_ps f_i(after)
  sum_identity_omega  sum_i om_i'  = sum_i om_i  - (1/mu1) sum_i grad_om f_i(after)
  step_identity_psi   mu2 (psi_i' - psi0) = grad_ps f_i(after) - grad_ps f_i(before)
  step_identity_omega mu1 (om_i'  - om0)  = grad_om f_i(before) - grad_om f_i(after)

Each picks up residue proportional to the achieved local gradient norm e, so
the pass tolerance scales as 1e-8 + 10*e (times N for the summed identities).
All checks are read-only: they never mutate optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from fedmm.core import HyperParams, PrimalDualPair, ServerState, Vector, row_norms, row_sum, vector
from fedmm.federation import to_csv
from fedmm.objectives import DomainAdaptObjective, QuadraticSaddle, inner_maximizers, quadratic_bars, stacked
from fedmm.optim import Federation, LocalRound, OptimizerKind, joint_weights, run_round

BASE_TOL = 1e-8
TOL_ERROR_FACTOR = 10.0


@dataclass(frozen=True)
class IdentityReport:
    name: str
    round: int
    residual_norm: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual_norm <= self.tolerance


def reports_to_csv(reports: Sequence[IdentityReport]) -> str:
    rows = ((r.name, r.round, r.residual_norm, r.tolerance, r.passed) for r in reports)
    return "".join(to_csv("name,round,residual,tolerance,pass", rows))


def _block_norms(fed: Federation, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # each joint row's omega-block and psi-block norms
    d1 = fed.view.dims[0]
    return row_norms(R[:, :d1]), row_norms(R[:, d1:])


def _solve_errors(fed: Federation, G: np.ndarray) -> np.ndarray:
    # each row's max(||grad_om f + lam||, ||grad_ps f - beta||), G + D with D = [lam | -beta]
    return np.maximum(*_block_norms(fed, G + fed.D))


def check_identities(
    before: Federation,
    after: Federation,
    global_before: PrimalDualPair,
    hp: HyperParams,
    round_index: int = 0,
    grads: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[IdentityReport]:
    """Residuals of the four converged-round identities for one federated round.

    `before`/`after` are the federation records just before and just after
    one FedMM round with run-to-tolerance local solves; `global_before` is
    the consensus pair the round started from. Each side's gradients are one stacked call,
    each client sum one `row_sum` in client order; grads, when given, are
    (before's, after's) `joint_grads` stacks, which a caller that has them
    passes instead. Both blocks of each identity are one joint-row expression
    with W = [mu1 | -mu2]: the psi block's residual comes out negated, which
    no norm sees.
    """
    if before.view.dims != after.view.dims or before.Z.shape != after.Z.shape:
        raise ValueError("before/after federations do not match")
    d1, d2 = after.view.dims
    W = joint_weights(hp.mu1, hp.mu2, d1, d2)
    Z0 = global_before.row
    if grads is None:
        grads = before.view.joint_grads(before.Z), after.view.joint_grads(after.Z)
    G_b, G_a = grads
    e = max(_solve_errors(after, G_a).tolist())
    tol_step = BASE_TOL + TOL_ERROR_FACTOR * e
    tol_sum = tol_step * after.n

    # [sum om_a - sum om_b + sum g_om_a / mu1 | sum ps_a - sum ps_b - sum g_ps_a / mu2]
    S = row_sum(after.Z) - row_sum(before.Z) + row_sum(G_a) / W
    res_a1 = float(np.linalg.norm(S[d1:]))
    res_a2 = float(np.linalg.norm(S[:d1]))
    # [mu1 (om_a - om0) - (g_om_b - g_om_a) | -(mu2 (ps_a - ps0) - (g_ps_a - g_ps_b))]
    R = W * (after.Z - Z0) + (G_a - G_b)
    res_a4, res_a3 = (max(r.tolist()) for r in _block_norms(after, R))

    return [
        IdentityReport("sum_identity_psi", round_index, res_a1, tol_sum),
        IdentityReport("sum_identity_omega", round_index, res_a2, tol_sum),
        IdentityReport("step_identity_psi", round_index, res_a3, tol_step),
        IdentityReport("step_identity_omega", round_index, res_a4, tol_step),
    ]


def run_identity_suite(
    objectives: Sequence[QuadraticSaddle | DomainAdaptObjective],
    hp: HyperParams,
    rounds: int,
    local_tol: float = 1e-10,
) -> list[IdentityReport]:
    """Drive FedMM from the origin with local solves run to `local_tol`, and check every round.

    local_tol replaces hp.local_tol. The per-client step identities need the
    *previous* round to have been solved to optimality, which is vacuous at
    round 0 (duals are zero there), so they are skipped for the first round.
    Each round's gradient stack is evaluated once: as the round's `after`,
    then again as the next round's `before`, the same view at the same rows.
    """
    d1, d2 = objectives[0].dims
    pair = PrimalDualPair(vector(np.zeros(d1)), vector(np.zeros(d2)))
    server = ServerState(pair)
    fed = Federation.initial(objectives, pair)
    hp = replace(hp.expanded(fed.n), local_tol=local_tol)
    local = LocalRound(OptimizerKind.FEDMM, fed.view, hp)

    reports: list[IdentityReport] = []
    G = fed.view.joint_grads(fed.Z)
    for t in range(rounds):
        before, G_before, global_before = fed, G, server.global_pair
        fed = run_round(local, fed, server)
        G = fed.view.joint_grads(fed.Z)
        round_reports = check_identities(before, fed, global_before, hp, round_index=t, grads=(G_before, G))
        if t == 0:
            round_reports = [r for r in round_reports if r.name.startswith("sum_")]
        reports.extend(round_reports)
    return reports


def estimate_kappa(
    objectives: Sequence[QuadraticSaddle | DomainAdaptObjective],
    omega_pairs: Sequence[tuple[Vector, Vector]],
    tol: float,
) -> float:
    """Empirical Lipschitz modulus of the inner maximizer over probe pairs.

    Every pair is checked first; then one `inner_maximizers` call solves the
    inner max at all 2K omegas, and the first omega whose solve failed raises
    its ConvergenceError.
    """
    if not omega_pairs:
        raise ValueError("estimate_kappa needs at least one probe pair")
    omegas = np.array([om for pair in omega_pairs for om in pair], dtype=np.float64)
    denoms = [float(np.linalg.norm(om - om_prime)) for om, om_prime in zip(omegas[::2], omegas[1::2])]
    if 0.0 in denoms:
        raise ValueError("duplicate probe pair (omega == omega'): ratio undefined")
    psi, errors = inner_maximizers(stacked(objectives), omegas, tol)
    for error in errors:
        if error is not None:
            raise error
    best = 0.0
    for psi_a, psi_b, denom in zip(psi[::2], psi[1::2], denoms):
        best = max(best, float(np.linalg.norm(psi_a - psi_b)) / denom)
    return best


@dataclass(frozen=True)
class StationaritySummary:
    min: float
    final: float
    first_round_below: int | None


def stationarity_series(log, tol: float) -> StationaritySummary:
    """Summarize the phi-gradient-norm column of a run log, its sampled rounds only."""
    sampled = ~log.missing("phi_grad_norm")
    values = log.column("phi_grad_norm")[sampled].tolist()
    if not values:
        raise ValueError("no stationarity samples")
    rounds = log.column("round")[sampled].tolist()
    first = next((r for r, v in zip(rounds, values) if v <= tol), None)
    return StationaritySummary(min=min(values), final=values[-1], first_round_below=first)


# ------------------------- quadratic closed forms ------------------------- #


def quadratic_kappa_bound(objectives: Sequence[QuadraticSaddle]) -> float:
    """Closed-form operator norm of Cbar^-1 Bbar' (the true kappa)."""
    _, Bbar, Cbar, _, _ = quadratic_bars(stacked(objectives))
    return float(np.linalg.norm(np.linalg.solve(Cbar, Bbar.T), 2))
