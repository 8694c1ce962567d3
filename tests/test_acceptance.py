"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else; the experiment constants
were calibrated once against closed-form / centralized references and then
frozen (see the module constants below).
"""

import time

import numpy as np
import pytest

from fedmm.checks import (
    check_equiv_fedavg_fedsgda,
    check_equiv_fedprox_fedavg,
    check_equiv_fedsgda_central,
)
from fedmm.core import HyperParams, PrimalDualPair, ServerState, seeded_rng, vector, zeros
from fedmm.diagnostics import (
    quadratic_phi_minimizer,
    run_identity_suite,
    stationarity_series,
    finite_diff_grad,
)
from fedmm.federation import (
    ExperimentConfig,
    PartitionMode,
    PartitionSpec,
    ProblemKind,
    run_experiment,
)
from fedmm.objectives import (
    SOURCE,
    TARGET,
    UNLABELED,
    DomainAdaptDataset,
    DomainAdaptObjective,
    ModelLayout,
    QuadraticSaddle,
)
from fedmm.optim import Federation, LocalRound, OptimizerKind, run_round
from fedmm.problems import synthetic_quadratic_specs

# ----- frozen experiment constants ---------------------------------------
# Quadratic stationarity/communication runs (criteria 4, 5):
QUAD_ETA = 0.1
QUAD_M = 20
STATIONARITY_TOL = 1e-4
CONSENSUS_TOL = 1e-6
MATCHED_TARGET = 1e-3
ROUND_BUDGET = 500
FEDSGDA_ROUND_CAP = 4000

# Label-shift toy (criterion 6); seed frozen by the calibration scan:
TOY_SEED = 7
TOY_ROUNDS = 200
TOY_M = 50
TOY_ETA1 = 0.1
TOY_ETA2 = 0.25
TOY_NU = 0.5
DEGRADATION_MARGIN = 0.05
CENTRAL_MARGIN = 0.02


def _line(n, name, ok):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")


def rel_err(got, want):
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want))) / max(
        float(np.linalg.norm(want)), 1e-12
    )


def big_domain_adapt_objective():
    """A wider model (d1 + d2 = 48 <= 50) than the frozen toy, for probing."""
    rng = seeded_rng(1001)
    layout = ModelLayout(in_dim=8, feat_dim=4, n_classes=3)
    n = 30
    X = rng.standard_normal((n, 8))
    y = np.concatenate([rng.integers(0, 3, size=n // 2), np.full(n - n // 2, UNLABELED)])
    dom = np.concatenate([np.full(n // 2, SOURCE), np.full(n - n // 2, TARGET)])
    return DomainAdaptObjective(DomainAdaptDataset(X, y, dom), nu=0.4, layout=layout)


class TestCriterion1GradientOracle:
    def test_gradients_match_finite_differences(self):
        t0 = time.time()
        worst = 0.0
        quad = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(2, d1=30, d2=20)]
        da = big_domain_adapt_objective()
        rng = seeded_rng(1002)
        for obj, n_probes in ((quad[0], 50), (quad[1], 50), (da, 100)):
            d1, d2 = obj.dims
            for _ in range(n_probes):
                om = vector(0.7 * rng.standard_normal(d1))
                ps = vector(0.7 * rng.standard_normal(d2))
                fd_om = finite_diff_grad(lambda v: obj.value(v, ps), om, 1e-6)
                fd_ps = finite_diff_grad(lambda v: obj.value(om, v), ps, 1e-6)
                worst = max(worst, rel_err(obj.grad_omega(om, ps), fd_om))
                worst = max(worst, rel_err(obj.grad_psi(om, ps), fd_ps))
        elapsed = time.time() - t0
        ok = worst <= 1e-5 and elapsed < 5.0
        _line(1, "gradient_oracle", ok)
        assert worst <= 1e-5, f"worst relative error {worst:.3e}"
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


class TestCriterion2IdentitySuite:
    def test_all_four_identities_hold_50_rounds(self):
        t0 = time.time()
        objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
        hp = HyperParams(eta1=0.2, eta2=0.2, eta3=1.0, rounds=51)
        reports = run_identity_suite(objs, hp, rounds=51, local_tol=1e-10)
        elapsed = time.time() - t0
        by_name = {}
        for r in reports:
            by_name.setdefault(r.name, []).append(r)
        ok = True
        for name in (
            "sum_identity_psi",
            "sum_identity_omega",
            "step_identity_psi",
            "step_identity_omega",
        ):
            rounds = by_name.get(name, [])
            worst = max((r.residual_norm for r in rounds), default=np.inf)
            if len(rounds) < 50 or worst > 1e-8:
                ok = False
        _line(2, "converged_round_identity_suite", ok and elapsed < 30.0)
        for name, rounds in by_name.items():
            assert len(rounds) >= 50, f"{name}: only {len(rounds)} rounds checked"
            worst = max(r.residual_norm for r in rounds)
            assert worst <= 1e-8, f"{name}: worst residual {worst:.3e}"
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def _criterion_check(n, name, check, **params):
    """Run a built-in check with this criterion's parameters; print its line, then re-raise a failure."""
    try:
        check(**params)
    except AssertionError:
        _line(n, name, False)
        raise
    _line(n, name, True)


class TestCriterion3OracleEquivalence:
    """The bit-exact optimizer equivalences, through the checks `fedmm check` runs, at this criterion's sizes."""

    def test_fedsgda_n1_is_centralized(self):
        _criterion_check(
            3, "oracle_equivalence_fedsgda_central", check_equiv_fedsgda_central,
            rounds=100, eta1=0.05, eta2=0.08,
        )

    def test_fedprox_mu0_is_fedavg(self):
        _criterion_check(
            3, "oracle_equivalence_fedprox_fedavg", check_equiv_fedprox_fedavg,
            seed=1003, eta=0.04, local_steps=17,
        )

    def test_fedavg_m1_is_fedsgda(self):
        _criterion_check(
            3, "oracle_equivalence_fedavg_fedsgda", check_equiv_fedavg_fedsgda,
            rounds=100, eta1=0.05, eta2=0.05,
        )


def fedmm_quadratic_config(rounds=ROUND_BUDGET):
    return ExperimentConfig(
        optimizer=OptimizerKind.FEDMM,
        problem=ProblemKind.QUADRATIC,
        hyper=HyperParams(
            mu1=1.0, mu2=1.0, eta1=QUAD_ETA, eta2=QUAD_ETA, eta3=1.0,
            local_steps=(QUAD_M,), rounds=rounds,
        ),
        seed=0,
    )


class TestCriterion4StationarityConvergence:
    def test_fedmm_reaches_stationarity_and_consensus(self):
        t0 = time.time()
        cfg = fedmm_quadratic_config()
        log = run_experiment(cfg)
        summary = stationarity_series(log, STATIONARITY_TOL)
        final = log.final()

        # brute-force reference solve: drive the same rounds at state level and
        # compare the final consensus point against the closed-form minimizer
        # of the max-function, which is what the 1e-4 threshold was tuned on
        objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
        wstar = quadratic_phi_minimizer(objs)
        d1, d2 = objs[0].dims
        pair = PrimalDualPair(zeros(d1), zeros(d2))
        server = ServerState(pair)
        fed = Federation.initial(objs, pair)
        hp = cfg.hyper.expanded(3)
        for _ in range(ROUND_BUDGET):
            fed = run_round(LocalRound(OptimizerKind.FEDMM, fed.view, hp), fed, server)
        dist = float(np.linalg.norm(server.global_pair.omega - wstar))

        elapsed = time.time() - t0
        reached = summary.first_round_below is not None
        consensus_ok = final.consensus_omega <= CONSENSUS_TOL
        on_reference = dist <= 1e-3
        _line(4, "stationarity_convergence", reached and consensus_ok and on_reference and elapsed < 60)
        assert reached, f"phi grad norm never reached {STATIONARITY_TOL}"
        assert summary.first_round_below < ROUND_BUDGET
        assert final.phi_grad_norm <= STATIONARITY_TOL
        assert consensus_ok, f"consensus residual {final.consensus_omega:.3e}"
        assert on_reference, f"final consensus point {dist:.3e} from the reference minimizer"
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


class TestCriterion5CommunicationSaving:
    def test_fedmm_needs_at_most_20pct_of_fedsgda_rounds(self):
        t0 = time.time()
        fedmm_log = run_experiment(fedmm_quadratic_config())
        sgda_cfg = ExperimentConfig(
            optimizer=OptimizerKind.FEDSGDA,
            problem=ProblemKind.QUADRATIC,
            hyper=HyperParams(
                eta1=QUAD_ETA, eta2=QUAD_ETA, rounds=FEDSGDA_ROUND_CAP,
            ),
            seed=0,
        )
        sgda_log = run_experiment(sgda_cfg)
        r_fedmm = stationarity_series(fedmm_log, MATCHED_TARGET).first_round_below
        r_sgda = stationarity_series(sgda_log, MATCHED_TARGET).first_round_below
        elapsed = time.time() - t0
        ok = r_fedmm is not None and r_sgda is not None and (r_fedmm + 1) <= 0.2 * (r_sgda + 1)
        _line(5, "communication_saving", ok)
        assert r_fedmm is not None and r_sgda is not None
        assert (r_fedmm + 1) <= 0.2 * (r_sgda + 1), (
            f"FedMM {r_fedmm + 1} rounds vs FedSGDA {r_sgda + 1} rounds"
        )
        assert elapsed < 60.0


def toy_config(optimizer, p, rounds, local_steps):
    return ExperimentConfig(
        optimizer=optimizer,
        problem=ProblemKind.DOMAIN_ADAPT,
        hyper=HyperParams(
            eta1=TOY_ETA1, eta2=TOY_ETA2, nu=TOY_NU,
            local_steps=(local_steps,), rounds=rounds, tol=1e-4,
        ),
        partition=PartitionSpec(p=p, mode=PartitionMode.TWO_CLIENT_P),
        seed=TOY_SEED,
        metrics_every=10**9,
    )


class TestCriterion6LabelShiftDegradation:
    def test_p_sweep_and_fedmm_recovery(self):
        t0 = time.time()
        acc = {}
        for p in (0.5, 0.75, 1.0):
            log = run_experiment(toy_config(OptimizerKind.FEDAVG_GDA, p, TOY_ROUNDS, TOY_M))
            acc[p] = log.final().target_accuracy
        central = run_experiment(
            toy_config(OptimizerKind.CENTRAL_GDA, 0.5, TOY_ROUNDS * TOY_M, 1)
        ).final().target_accuracy
        fedmm = run_experiment(
            toy_config(OptimizerKind.FEDMM, 1.0, TOY_ROUNDS, TOY_M)
        ).final().target_accuracy
        elapsed = time.time() - t0
        degraded = acc[0.5] - acc[1.0] >= DEGRADATION_MARGIN
        tracks_central = fedmm >= central - CENTRAL_MARGIN
        beats_fedavg = fedmm > acc[1.0]
        _line(6, "label_shift_degradation", degraded and tracks_central and beats_fedavg)
        assert degraded, (
            f"FedAvgGDA accuracy p=0.5 {acc[0.5]:.3f} vs p=1.0 {acc[1.0]:.3f}: "
            f"degradation below {DEGRADATION_MARGIN}"
        )
        assert tracks_central, f"FedMM {fedmm:.3f} vs centralized {central:.3f}"
        assert beats_fedavg, f"FedMM {fedmm:.3f} vs FedAvgGDA {acc[1.0]:.3f}"
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"


class TestCriterion7DeterminismAndLedger:
    def test_byte_identical_csv_and_exact_ledger(self, tmp_path):
        cfg = fedmm_quadratic_config(rounds=40)
        a = run_experiment(cfg).csv_text().encode()
        b = run_experiment(cfg).csv_text().encode()
        byte_identical = a == b

        ledger_ok = True
        for kind, n in (
            (OptimizerKind.FEDMM, 3),
            (OptimizerKind.FEDAVG_GDA, 3),
            (OptimizerKind.FEDSGDA, 3),
            (OptimizerKind.CENTRAL_GDA, 1),
        ):
            cfg_k = ExperimentConfig(
                optimizer=kind, problem=ProblemKind.QUADRATIC,
                hyper=HyperParams(eta1=0.05, eta2=0.05, local_steps=(5,), rounds=12),
                seed=0,
            )
            log = run_experiment(cfg_k)
            d1, d2 = 4, 3
            want = 12 * n * 2 * (d1 + d2)
            ledger_ok = ledger_ok and log.final().floats_communicated == want

        toy = toy_config(OptimizerKind.FEDAVG_GDA, 0.75, 8, 5)
        t1 = run_experiment(toy).csv_text().encode()
        t2 = run_experiment(toy).csv_text().encode()
        byte_identical = byte_identical and t1 == t2

        _line(7, "determinism_and_ledger", byte_identical and ledger_ok)
        assert byte_identical
        assert ledger_ok
