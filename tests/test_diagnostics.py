from dataclasses import replace

import numpy as np
import pytest

from fedmm import diagnostics
from fedmm.checks import check_kappa_bound, finite_diff_grad, grad_check, local_solve_error
from fedmm.core import (
    ConvergenceError,
    HyperParams,
    PrimalDualPair,
    ServerState,
    seeded_rng,
    vector,
    zeros,
)
from fedmm.diagnostics import (
    IdentityReport,
    StationaritySummary,
    check_identities,
    estimate_kappa,
    quadratic_kappa_bound,
    reports_to_csv,
    run_identity_suite,
    stationarity_series,
)
from fedmm.federation import RoundMetrics, RunLog
from fedmm.objectives import (
    DomainAdaptObjective,
    PooledView,
    QuadraticSaddle,
    QuadraticSaddleSpec,
    StackedObjectives,
    inner_maximizers,
    phi_value_and_grad,
    quadratic_bars,
    stacked,
)
from fedmm.optim import Federation, LocalRound, OptimizerKind, run_round
from fedmm.problems import domain_shift_toy, synthetic_quadratic_specs
from reference_math import quadratic_phi_minimizer


def three_clients():
    return [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]


def make_log(values):
    log = RunLog()
    for i, v in enumerate(values):
        log.append(
            RoundMetrics(
                round=i, phi_grad_norm=v, consensus_omega=0.0, consensus_psi=0.0,
                global_loss=0.0, target_accuracy=None, floats_communicated=i + 1,
            )
        )
    return log


class TestFiniteDiffGrad:
    def test_known_quadratic(self):
        got = finite_diff_grad(lambda x: float(x @ x), vector([1.0, 2.0]), 1e-6)
        assert np.allclose(got, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        got = finite_diff_grad(lambda x: 3.0, vector([1.0, 2.0, 3.0]), 1e-6)
        assert np.array_equal(got, [0.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda x: float("nan"), vector([1.0]), 1e-6)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, vector([1.0]), 0.0)

    def test_agreement_on_random_domain_adapt_instances(self):
        from fedmm.objectives import (
            SOURCE,
            TARGET,
            UNLABELED,
            DomainAdaptDataset,
            DomainAdaptObjective,
            ModelLayout,
        )

        rng = seeded_rng(44)
        layout = ModelLayout(in_dim=3, feat_dim=2, n_classes=2)
        for _ in range(20):
            n_src, n_tgt = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            ds = DomainAdaptDataset(
                X=rng.standard_normal((n_src + n_tgt, 3)),
                y=np.concatenate([rng.integers(0, 2, n_src), np.full(n_tgt, UNLABELED)]),
                domain=np.concatenate([np.full(n_src, SOURCE), np.full(n_tgt, TARGET)]),
            )
            obj = DomainAdaptObjective(ds, nu=float(rng.uniform(0.1, 1.0)), layout=layout)
            grad_check(obj, rng, 1, tol=1e-5, scale=0.6)


class ZeroObjective(StackedObjectives):
    """Test view of two identically-zero clients: every state is stationary."""

    dims, n = (2, 2), 2

    def joint_grads(self, Z):
        return np.zeros(Z.shape)


class TestCheckIdentities:
    def test_zero_objective_zero_duals_exact(self):
        pair = PrimalDualPair(zeros(2), zeros(2))
        hp = HyperParams()
        fed = Federation.initial(ZeroObjective(), pair)
        reports = check_identities(fed, fed, pair, hp)
        assert all(r.residual_norm == 0.0 for r in reports)
        assert all(r.passed for r in reports)

    def test_converged_rounds_hold_to_1e8(self):
        hp = HyperParams(eta1=0.2, eta2=0.2, eta3=1.0)
        reports = run_identity_suite(three_clients(), hp, rounds=8, local_tol=1e-12)
        assert all(r.passed for r in reports)
        assert max(r.residual_norm for r in reports) <= 1e-8

    def test_suite_evaluates_each_round_gradient_stack_once(self, monkeypatch):
        # round t's `before` stack is round t-1's `after` stack: after each round the suite
        # evaluates one stack, where it evaluated the after's and again the before's
        events, inside = [], []
        view_type = type(stacked(three_clients()))
        joint_grads = view_type.joint_grads

        def spied_grads(self, Z):
            if not inside:
                events.append("grads")
            return joint_grads(self, Z)

        def spied_round(*args):
            events.append("round")
            inside.append(True)
            try:
                return run_round(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(view_type, "joint_grads", spied_grads)
        monkeypatch.setattr(diagnostics, "run_round", spied_round)
        run_identity_suite(three_clients(), HyperParams(eta1=0.2, eta2=0.2), rounds=5, local_tol=1e-10)
        assert events == ["grads"] + ["round", "grads"] * 5

    def test_truncated_local_solve_fails_some_identity(self):
        objs = three_clients()
        pair = PrimalDualPair(zeros(objs[0].dims[0]), zeros(objs[0].dims[1]))
        server = ServerState(pair)
        fed = Federation.initial(objs, pair)
        hp = HyperParams(eta1=0.05, eta2=0.05, local_steps=(1,))
        failed_any = False
        for t in range(3):
            before = fed
            gb = server.global_pair
            fed = run_round(LocalRound(OptimizerKind.FEDMM, fed.view, hp), fed, server)
            # fixed tolerance shows that one M=1 step is nowhere near converged
            reports = check_identities(before, fed, gb, hp, round_index=t)
            fixed = [r.residual_norm <= 1e-8 for r in reports]
            failed_any = failed_any or not all(fixed)
        assert failed_any

    def test_truncated_round_then_converged_round_fails_step_identities(self):
        # the scaled tolerance only sees the current round's error, so a
        # truncated round surfaces in the NEXT round's step identities
        objs = three_clients()
        pair = PrimalDualPair(zeros(objs[0].dims[0]), zeros(objs[0].dims[1]))
        server = ServerState(pair)
        fed = Federation.initial(objs, pair)
        fed = run_round(
            LocalRound(OptimizerKind.FEDMM, fed.view, HyperParams(eta1=0.05, eta2=0.05, local_steps=(1,))),
            fed, server,
        )
        before = fed
        gb = server.global_pair
        hp = HyperParams(eta1=0.2, eta2=0.2)
        fed = run_round(LocalRound(OptimizerKind.FEDMM, fed.view, replace(hp, local_tol=1e-12)), fed, server)
        reports = {r.name: r for r in check_identities(before, fed, gb, hp, round_index=1)}
        assert not reports["step_identity_psi"].passed
        assert not reports["step_identity_omega"].passed
        assert reports["sum_identity_psi"].passed
        assert reports["sum_identity_omega"].passed

    def test_tolerance_couples_to_local_error(self):
        objs = three_clients()
        pair = PrimalDualPair(zeros(objs[0].dims[0]), zeros(objs[0].dims[1]))
        server = ServerState(pair)
        before = Federation.initial(objs, pair)
        hp = HyperParams(eta1=0.2, eta2=0.2, local_steps=(4,))
        fed = run_round(LocalRound(OptimizerKind.FEDMM, before.view, hp), before, server)
        e = max(local_solve_error(fed))
        reports = check_identities(before, fed, pair, hp)
        assert e > 1e-6
        for r in reports:
            assert r.tolerance >= 1e-8 + 10 * e

    def test_mismatched_lists_rejected(self):
        objs = three_clients()
        pair = PrimalDualPair(zeros(objs[0].dims[0]), zeros(objs[0].dims[1]))
        three, two = Federation.initial(objs, pair), Federation.initial(objs[:2], pair)
        with pytest.raises(ValueError, match="match"):
            check_identities(three, two, pair, HyperParams())

    def test_check_is_side_effect_free(self):
        objs = three_clients()
        pair = PrimalDualPair(zeros(objs[0].dims[0]), zeros(objs[0].dims[1]))
        server = ServerState(pair)
        hp = HyperParams(eta1=0.2, eta2=0.2)
        before = Federation.initial(objs, pair)
        fed = run_round(LocalRound(OptimizerKind.FEDMM, before.view, replace(hp, local_tol=1e-11)), before, server)
        snap = [a.copy() for a in (fed.omega, fed.psi, fed.lam, fed.beta)]
        check_identities(before, fed, pair, hp)
        for a, want in zip((fed.omega, fed.psi, fed.lam, fed.beta), snap):
            assert np.array_equal(a, want)

    def test_suite_tolerance_replaces_the_callers(self):
        hp = HyperParams(eta1=0.2, eta2=0.2)
        want = run_identity_suite(three_clients(), hp, rounds=3, local_tol=1e-10)
        loose = replace(hp, local_tol=1e-3)
        assert run_identity_suite(three_clients(), loose, rounds=3, local_tol=1e-10) == want

    def test_residuals_decay_with_local_tolerance(self):
        objs = three_clients()
        hp = HyperParams(eta1=0.2, eta2=0.2)
        worst = []
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            reports = run_identity_suite(objs, hp, rounds=4, local_tol=tol)
            worst.append(max(r.residual_norm for r in reports))
        # at most linear in the local error: each 100x tighter tol wins >= ~100x
        assert worst[1] <= worst[0] * 1e-1
        assert worst[2] <= worst[1] * 1e-1
        assert worst[3] <= worst[2] * 1e-1

    def test_dual_recovery_after_converged_round(self):
        objs = three_clients()
        pair = PrimalDualPair(zeros(objs[0].dims[0]), zeros(objs[0].dims[1]))
        server = ServerState(pair)
        fed = Federation.initial(objs, pair)
        fed = run_round(
            LocalRound(OptimizerKind.FEDMM, fed.view, HyperParams(eta1=0.2, eta2=0.2, local_tol=1e-12)),
            fed, server,
        )
        for r, obj in enumerate(objs):
            om, ps = fed.omega[r], fed.psi[r]
            assert np.linalg.norm(obj.grad_omega(om, ps) + fed.lam[r]) <= 1e-8
            assert np.linalg.norm(obj.grad_psi(om, ps) - fed.beta[r]) <= 1e-8

    def test_csv_serialization(self):
        reports = [IdentityReport("sum_identity_psi", 3, 1e-12, 1e-8)]
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "name,round,residual,tolerance,pass"
        assert lines[1].startswith("sum_identity_psi,3,1e-12,1e-08,true")


class TestEstimateKappa:
    def test_quadratic_never_exceeds_operator_norm(self):
        check_kappa_bound(seed=41, pairs=20)

    def test_estimate_tightens_with_dense_probes(self):
        objs = three_clients()
        bound = quadratic_kappa_bound(objs)
        rng = seeded_rng(42)
        d1 = objs[0].dims[0]
        pairs = [(vector(rng.standard_normal(d1)), vector(rng.standard_normal(d1))) for _ in range(200)]
        est = estimate_kappa(objs, pairs, tol=1e-12)
        assert est >= 0.5 * bound

    def test_b_zero_gives_zero(self):
        obj = QuadraticSaddle(
            QuadraticSaddleSpec(
                A=np.eye(2) * 0.5, B=np.zeros((2, 2)), C=np.eye(2),
                a=vector([0.0, 0.0]), c=vector([1.0, 0.0]),
            )
        )
        pairs = [(vector([1.0, 0.0]), vector([0.0, 1.0]))]
        assert estimate_kappa([obj], pairs, tol=1e-12) == 0.0

    def test_duplicate_pair_rejected(self):
        objs = three_clients()
        om = vector(np.ones(objs[0].dims[0]))
        with pytest.raises(ValueError, match="duplicate"):
            estimate_kappa(objs, [(om, om)], tol=1e-12)

    @staticmethod
    def counted_inner_maximizers(monkeypatch) -> list[int]:
        calls = []

        def counted(view, omegas, tol, max_iters=100_000):
            calls.append(len(omegas))
            return inner_maximizers(view, omegas, tol, max_iters)

        monkeypatch.setattr(diagnostics, "inner_maximizers", counted)
        return calls

    def test_one_inner_maximizers_call_gives_the_pairwise_ratios(self, monkeypatch):
        objs = three_clients()
        rng = seeded_rng(43)
        d1 = objs[0].dims[0]
        pairs = [(vector(rng.standard_normal(d1)), vector(rng.standard_normal(d1))) for _ in range(5)]
        view = stacked(objs)
        want = 0.0
        for om, om_prime in pairs:
            psi, _ = inner_maximizers(view, np.stack((om, om_prime)), 1e-12)
            want = max(want, float(np.linalg.norm(psi[0] - psi[1])) / float(np.linalg.norm(om - om_prime)))
        calls = self.counted_inner_maximizers(monkeypatch)
        assert estimate_kappa(objs, pairs, tol=1e-12) == want
        assert calls == [10]

    @pytest.mark.parametrize("kind", ["quadratic", "dann"])
    def test_no_gradient_of_omega_is_evaluated(self, monkeypatch, kind):
        # the ratios read the inner maximizers alone, never the Danskin gradients
        if kind == "quadratic":
            objs = three_clients()
        else:
            dataset, _, layout = domain_shift_toy(seeded_rng(45), n_per_domain=10, holdout_n=4)
            objs = [DomainAdaptObjective(dataset, 0.5, layout)]
        rng = seeded_rng(46)
        d1 = objs[0].dims[0]
        pairs = [(vector(rng.standard_normal(d1)), vector(rng.standard_normal(d1))) for _ in range(3)]
        calls = []
        for cls in {type(stacked(objs)), PooledView}:
            joint_grads = cls.joint_grads
            monkeypatch.setattr(
                cls, "joint_grads", lambda self, *a, f=joint_grads: calls.append(a) or f(self, *a)
            )
        assert estimate_kappa(objs, pairs, tol=1e-8) > 0.0
        assert calls == []

    def test_every_pair_is_checked_before_any_solve(self, monkeypatch):
        objs = three_clients()
        d1 = objs[0].dims[0]
        om = vector(np.ones(d1))
        calls = self.counted_inner_maximizers(monkeypatch)
        with pytest.raises(ValueError, match="duplicate"):
            estimate_kappa(objs, [(om, zeros(d1)), (om, om)], tol=1e-12)
        assert calls == []

    def test_a_failed_omega_raises_its_convergence_error(self):
        dataset, _, layout = domain_shift_toy(seeded_rng(44), n_per_domain=10, holdout_n=4)
        objs = [DomainAdaptObjective(dataset, 0.5, layout)]
        pairs = [(zeros(layout.d1), vector(np.full(layout.d1, 1e200)))]
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc:
            estimate_kappa(objs, pairs, tol=1e-6)
        assert exc.value.grad_norm == np.inf and exc.value.iterations == 0


class TestStationaritySeries:
    def test_decreasing_series(self):
        summary = stationarity_series(make_log([3.0, 2.0, 1.0]), tol=1.5)
        assert summary == StationaritySummary(min=1.0, final=1.0, first_round_below=2)

    def test_never_below(self):
        summary = stationarity_series(make_log([3.0, 2.0]), tol=0.5)
        assert summary.first_round_below is None

    def test_all_none_rejected(self):
        with pytest.raises(ValueError, match="no stationarity samples"):
            stationarity_series(make_log([None, None]), tol=1.0)

    def test_none_entries_skipped(self):
        summary = stationarity_series(make_log([None, 2.0, None, 0.5]), tol=1.0)
        assert summary.min == 0.5
        assert summary.first_round_below == 3


def quadratic_phi_hessian(objectives):
    """Hessian of the max-function: Abar + Bbar Cbar^-1 Bbar'."""
    Abar, Bbar, Cbar, _, _ = quadratic_bars(stacked(objectives))
    return Abar + Bbar @ np.linalg.solve(Cbar, Bbar.T)


class TestQuadraticClosedForms:
    def test_minimizer_is_stationary(self):
        objs = three_clients()
        wstar = quadratic_phi_minimizer(objs)
        _, grad = phi_value_and_grad(stacked(objs), wstar, tol=1e-12)
        assert np.linalg.norm(grad) <= 1e-10

    def test_hessian_matches_finite_difference_of_grad(self):
        objs = three_clients()
        H = quadratic_phi_hessian(objs)
        d1 = objs[0].dims[0]
        om = vector(np.zeros(d1))
        view = stacked(objs)
        for j in range(d1):
            e = np.zeros(d1)
            e[j] = 1e-6
            _, gp = phi_value_and_grad(view, vector(om + e), tol=1e-12)
            _, gm = phi_value_and_grad(view, vector(om - e), tol=1e-12)
            col = (gp - gm) / 2e-6
            assert np.allclose(col, H[:, j], atol=1e-6)
