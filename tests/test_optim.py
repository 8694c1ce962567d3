from dataclasses import replace

import numpy as np
import pytest

from fedmm.checks import check_equiv_fedavg_fedsgda, check_equiv_fedprox_fedavg, check_equiv_fedsgda_central
from fedmm.core import (
    DivergenceError,
    HyperParams,
    PrimalDualPair,
    ServerState,
    require_finite,
    vector,
    zeros,
)
from fedmm.objectives import (
    DomainAdaptDataset,
    DomainAdaptObjective,
    ModelLayout,
    QuadraticSaddle,
    QuadraticSaddleSpec,
    StackedObjectives,
    stacked,
)
from fedmm import optim
from fedmm.optim import (
    Federation,
    LocalRound,
    OptimizerKind,
    _check_finite,
    _local_grads,
    fedmm_aggregate,
    joint_weights,
    run_round,
)
from fedmm.problems import synthetic_quadratic_specs


class ConstantGrad(StackedObjectives):
    """Test view with constant gradients: row r's is [g_om[r] | g_ps[r]]; 1-D blocks make one client."""

    def __init__(self, g_om, g_ps):
        g_om, g_ps = np.atleast_2d(g_om), np.atleast_2d(g_ps)
        self.G, self.n, self.dims = np.hstack((g_om, g_ps)), len(g_om), (g_om.shape[1], g_ps.shape[1])

    def joint_grads(self, Z):
        return np.array(self.G)


def zero_objective(d1=1, d2=1, n=1):
    return ConstantGrad(np.zeros((n, d1)), np.zeros((n, d2)))


def view_of(obj):
    """A one-client view: a test view as it is, a built-in objective stacked."""
    return obj if isinstance(obj, StackedObjectives) else stacked([obj])


def pair_of(om, ps):
    return PrimalDualPair(vector(om), vector(ps))


K = OptimizerKind


def al_grads(obj, pair, lam, beta, global_pair, hp):
    """FedMM's local-step gradients (the augmented Lagrangian's) of one client at `pair`."""
    d1, d2 = obj.dims
    G = _local_grads(
        view_of(obj), np.concatenate((pair.omega, pair.psi))[None],
        joint_weights(hp.mu1, hp.mu2, d1, d2), np.concatenate((lam, -beta))[None],
        np.concatenate((global_pair.omega, global_pair.psi)),
    )
    return G[0, :d1], G[0, d1:]


def one_client(kind, obj, global_pair, hp, t=0):
    """One client's local round from the globals with zero duals: (federation, upload pair)."""
    fed = Federation.initial(view_of(obj), global_pair)
    fed, up = LocalRound(kind, fed.view, hp)(fed, global_pair, t)
    d1 = obj.dims[0]
    return fed, PrimalDualPair(up[0, :d1], up[0, d1:])


def central_step(obj, pair, eta1, eta2):
    """One central GDA round on the pooled objective: the new global pair."""
    server = ServerState(pair)
    fed = Federation.initial(view_of(obj), pair)
    run_round(LocalRound(K.CENTRAL_GDA, fed.view, HyperParams(eta1=eta1, eta2=eta2)), fed, server)
    return server.global_pair


class TestAugmentedLagrangianGrads:
    def test_vanishes_to_raw_gradients_at_consensus(self):
        obj = ConstantGrad([2.0], [3.0])
        gp = pair_of([1.0], [1.0])
        g_om, g_ps = al_grads(obj, gp, zeros(1), zeros(1), gp, HyperParams(mu1=2.0, mu2=5.0))
        assert np.array_equal(g_om, [2.0])
        assert np.array_equal(g_ps, [3.0])

    def test_omega_penalty_and_dual(self):
        obj = zero_objective()
        gp = pair_of([0.0], [0.0])
        g_om, _ = al_grads(obj, pair_of([1.0], [0.0]), vector([3.0]), zeros(1), gp, HyperParams(mu1=2.0))
        assert np.array_equal(g_om, [5.0])

    def test_psi_minus_signs(self):
        obj = zero_objective()
        gp = pair_of([0.0], [0.0])
        _, g_ps = al_grads(obj, pair_of([0.0], [1.0]), zeros(1), vector([1.0]), gp, HyperParams(mu2=1.0))
        assert np.array_equal(g_ps, [-2.0])


class TestFedmmLocalRound:
    def test_fixed_point_of_all_updates(self):
        obj = zero_objective()
        gp = pair_of([0.7], [-0.3])
        fed, out = one_client(K.FEDMM, obj, gp, HyperParams(local_steps=(4,)), t=0)
        assert np.array_equal(fed.omega[0], gp.omega)
        assert np.array_equal(fed.lam[0], [0.0])
        assert np.array_equal(out.omega, gp.omega)
        assert np.array_equal(out.psi, gp.psi)

    def test_hand_trace_eta3_one(self):
        # M=1, eta1=1, mu1=1, lambda=0, grad_om f == [2], om0=[0]:
        # om1 = -2, lam1 = -2, upload = om1 + lam1 = -4
        obj = ConstantGrad([2.0], [0.0])
        gp = pair_of([0.0], [0.0])
        hp = HyperParams(eta1=1.0, eta2=1.0, mu1=1.0, mu2=1.0, eta3=1.0, local_steps=(1,))
        fed, out = one_client(K.FEDMM, obj, gp, hp, t=0)
        assert np.array_equal(fed.omega[0], [-2.0])
        assert np.array_equal(fed.lam[0], [-2.0])
        assert np.array_equal(out.omega, [-4.0])

    def test_hand_trace_eta3_decay_at_round_one(self):
        # same trace at t=1 with eta3=0.5: decay factor 0.5 => upload -3
        obj = ConstantGrad([2.0], [0.0])
        gp = pair_of([0.0], [0.0])
        hp = HyperParams(eta1=1.0, eta2=1.0, mu1=1.0, mu2=1.0, eta3=0.5, local_steps=(1,))
        _, out = one_client(K.FEDMM, obj, gp, hp, t=1)
        assert np.array_equal(out.omega, [-3.0])

    def test_eta3_power_zero_is_one(self):
        obj = ConstantGrad([2.0], [0.0])
        gp = pair_of([0.0], [0.0])
        hp = HyperParams(eta1=1.0, eta2=1.0, eta3=0.5, local_steps=(1,))
        _, out = one_client(K.FEDMM, obj, gp, hp, t=0)
        assert np.array_equal(out.omega, [-4.0])

    def test_divergence_names_step(self):
        obj = QuadraticSaddle(
            QuadraticSaddleSpec(
                A=np.array([[-100.0]]), B=np.zeros((1, 1)), C=np.eye(1),
                a=vector([1.0]), c=vector([0.0]),
            )
        )
        gp = pair_of([1.0], [0.0])
        hp = HyperParams(eta1=10.0, eta2=0.1, local_steps=(500,))
        with pytest.raises(DivergenceError) as exc:
            one_client(K.FEDMM, obj, gp, hp, t=0)
        assert exc.value.step >= 0

    def test_run_to_tolerance_mode(self):
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        d1, d2 = obj.dims
        gp = pair_of(np.zeros(d1), np.zeros(d2))
        hp = HyperParams(eta1=0.2, eta2=0.2, local_tol=1e-11)
        fed, _ = one_client(K.FEDMM, obj, gp, hp, t=0)
        end = PrimalDualPair(fed.omega[0], fed.psi[0])
        g_om, g_ps = al_grads(obj, end, zeros(d1), zeros(d2), gp, hp)
        assert max(np.linalg.norm(g_om), np.linalg.norm(g_ps)) <= 1e-11


class TestCheckFinite:
    CAP = 1e100

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, np.nextafter(1e100, np.inf), -np.nextafter(1e100, np.inf)]
    )
    @pytest.mark.parametrize("block", ["omega", "psi"])
    def test_raises_in_either_block(self, bad, block):
        om = np.array([0.5, -2.0, 3.0])
        ps = np.array([1.0, 0.0])
        (om if block == "omega" else ps)[1] = bad
        with pytest.raises(DivergenceError) as exc:
            _check_finite(np.concatenate((om, ps)), "test", 7)
        assert exc.value.step == 7

    def test_passes_at_the_cap(self):
        _check_finite(np.array([self.CAP, -self.CAP, -self.CAP]), "test", 0)


class RejectsPastMinusTwo(StackedObjectives):
    """Test view: gradient 1 in omega, 0 in psi; a rejecting row's is rejected once its omega < -2."""

    dims = (1, 1)

    def __init__(self, rejecting):
        self.rejecting, self.n = np.array(rejecting), len(rejecting)

    def joint_grads(self, Z):
        G = np.zeros(Z.shape)
        G[:, 0] = np.where(self.rejecting & (Z[:, 0] < -2.0), np.inf, 1.0)
        require_finite(G)
        return G


class TestDivergenceRules:
    def test_each_step_is_checked_once(self, monkeypatch):
        """The traced benchmark counts local steps by wrapping _check_finite."""
        calls = []

        def counted(Z, where, step):
            calls.append(step)
            return _check_finite(Z, where, step)

        monkeypatch.setattr(optim, "_check_finite", counted)
        objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(2, 2, 2)]
        pair = pair_of(np.zeros(2), np.zeros(2))
        fed = Federation.initial(objs, pair)
        for kind, hp, steps in (
            (K.FEDMM, HyperParams(eta1=0.1, eta2=0.1, local_steps=(3, 5)), 5),
            (K.FEDSGDA, HyperParams(eta1=0.1, eta2=0.1), 1),
            (K.FEDPROX_GDA, HyperParams(eta1=0.1, eta2=0.1, local_steps=(4,)), 4),
        ):
            calls.clear()
            run_round(LocalRound(kind, fed.view, hp), fed, ServerState(pair))
            assert calls == list(range(steps))

    def test_upload_past_the_cap_is_divergence_at_the_last_step(self):
        # M = 1 from the globals: omega = -g and lam = -mu1 g, so the upload is -2g; for
        # g = 6e99 the iterate is within the cap and the upload past it
        view = ConstantGrad([[1.0], [6e99], [6e99]], [[0.0]] * 3)
        pair = pair_of([0.0], [0.0])
        hp = HyperParams(eta1=1.0, mu1=1e60, local_steps=(1,))
        fed = Federation.initial(view, pair)
        with pytest.raises(DivergenceError) as exc:
            LocalRound(K.FEDMM, fed.view, hp)(fed, pair)
        assert (exc.value.where, exc.value.step) == ("fedmm upload (client 1)", 0)
        # client 0 alone passes: its upload is -2g = -2
        fed = Federation.initial(ConstantGrad([1.0], [0.0]), pair)
        _, up = LocalRound(K.FEDMM, fed.view, hp)(fed, pair)
        assert np.array_equal(up, [[-2.0, 0.0]])

    @pytest.mark.parametrize("kind", [K.FEDAVG_GDA, K.FEDMM])
    def test_rejected_gradient_at_a_finite_iterate_is_divergence(self, kind):
        pair = pair_of([0.0], [0.0])
        fed = Federation.initial(RejectsPastMinusTwo([True, True]), pair)
        hp = HyperParams(eta1=1.0, mu1=1e-9, local_steps=(5,))
        # omega is 0, -1, -2, then -3 before step 3, whose gradient the objective rejects
        with pytest.raises(DivergenceError) as exc:
            LocalRound(kind, fed.view, hp)(fed, pair)
        assert (exc.value.where, exc.value.step) == (f"{kind.value} local round (client 0) gradient", 3)

    def test_a_rejected_gradient_names_the_first_rejecting_client(self):
        pair = pair_of([0.0], [0.0])
        # both rows step alike; only client 1's row rejects its gradient at omega = -3
        fed = Federation.initial(RejectsPastMinusTwo([False, True]), pair)
        with pytest.raises(DivergenceError) as exc:
            LocalRound(K.FEDMM, fed.view, HyperParams(eta1=1.0, mu1=1e-9, local_steps=(5,)))(fed, pair)
        assert (exc.value.where, exc.value.step) == ("fedmm local round (client 1) gradient", 3)

    def test_a_rejected_gradient_names_the_first_rejecting_client_across_size_groups(self):
        # shards of 30, 20 and 30 points: clients 0 and 2 share a batched pass, client 1
        # has its own. At W = V = 1e200 the class logits of a nonzero feature overflow,
        # so clients 1 and 2 reject their gradients; client 0's features are all zero.
        layout, rng = ModelLayout(2, 1, 2), np.random.default_rng(0)
        objs = [
            DomainAdaptObjective(
                DomainAdaptDataset(scale * rng.standard_normal((n, 2)), np.zeros(n), np.zeros(n)),
                0.5, layout,
            )
            for n, scale in ((30, 0.0), (20, 1.0), (30, 1.0))
        ]
        pair = pair_of(np.full(layout.d1, 1e200), np.zeros(layout.d2))
        fed = Federation.initial(objs, pair)
        assert [list(rows) for rows in fed.view.rows] == [[0, 2], [1]]
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            LocalRound(K.FEDAVG_GDA, fed.view, HyperParams(local_steps=(5,)))(fed, pair)
        assert (exc.value.where, exc.value.step) == ("fedavg_gda local round (client 1) gradient", 0)


class TestFedmmAggregate:
    def test_the_pair_is_views_of_the_frozen_mean_row(self):
        got = fedmm_aggregate(np.array([[2.0, 0.0, -1.0], [4.0, 1.0, -0.0]]), 1)
        assert np.array_equal(got.row, [3.0, 0.5, -0.5]) and not got.row.flags.writeable
        assert got.dims == (1, 2)
        for block in (got.omega, got.psi):
            assert block.base is got.row and not block.flags.writeable

    def test_single_client_identity(self):
        got = fedmm_aggregate(np.array([[1.5, -2.0]]), 1)
        assert np.array_equal(got.omega, [1.5]) and np.array_equal(got.psi, [-2.0])

    def test_two_client_mean(self):
        got = fedmm_aggregate(np.array([[2.0, 0.0], [4.0, 1.0]]), 1)
        assert np.array_equal(got.omega, [3.0]) and np.array_equal(got.psi, [0.5])

    def test_payload_size(self):
        # each client uploads d1 + d2 = 3 floats and downloads as many
        obj = ConstantGrad([1.0, 2.0], [3.0])
        pair = pair_of([0.0, 0.0], [0.0])
        fed = Federation.initial(obj, pair)
        fed, up = LocalRound(K.FEDSGDA, fed.view, HyperParams())(fed, pair)
        assert up.shape[1] == 3
        server = ServerState(pair)
        run_round(LocalRound(K.FEDSGDA, fed.view, HyperParams()), fed, server)
        assert server.floats_sent == 2 * 3


class TestFedSgda:
    def test_matches_centralized_bit_exact(self):
        check_equiv_fedsgda_central(rounds=100, eta1=0.05, eta2=0.07)

    def test_zero_gradient_leaves_globals(self):
        pair = pair_of([0.4], [0.2])
        server = ServerState(pair)
        fed = Federation.initial(zero_objective(n=2), pair)
        run_round(LocalRound(K.FEDSGDA, fed.view, HyperParams()), fed, server)
        assert np.array_equal(server.global_pair.omega, [0.4])

    def test_two_client_scalar_average(self):
        view = ConstantGrad([[1.0], [3.0]], [[0.0], [0.0]])
        pair = pair_of([0.0], [0.0])
        server = ServerState(pair)
        fed = Federation.initial(view, pair)
        run_round(LocalRound(K.FEDSGDA, view, HyperParams(eta1=0.1, eta2=0.1)), fed, server)
        assert np.allclose(server.global_pair.omega, [-0.2], atol=1e-15)


class TestFedAvgProx:
    def test_prox_zero_equals_fedavg_bit_exact(self):
        check_equiv_fedprox_fedavg(seed=4, eta1=0.03, eta2=0.04, local_steps=11)

    def test_m1_equals_fedsgda_step(self):
        check_equiv_fedavg_fedsgda(rounds=1, eta1=0.05, eta2=0.05, n_clients=1)

    def test_fedmm_zero_duals_matches_fedprox_first_step(self):
        # mu1=mu2=prox_mu, M=1, duals 0: the two update rules coincide
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        d1, d2 = obj.dims
        rng = np.random.default_rng(5)
        start = pair_of(rng.standard_normal(d1), rng.standard_normal(d2))
        hp = HyperParams(eta1=0.05, eta2=0.05, mu1=0.7, mu2=0.7, prox_mu=0.7, local_steps=(1,))
        fed, _ = one_client(K.FEDMM, obj, start, hp, t=0)
        _, prox = one_client(K.FEDPROX_GDA, obj, start, hp)
        assert np.allclose(fed.omega[0], prox.omega, atol=0, rtol=0)
        assert np.allclose(fed.psi[0], prox.psi, atol=0, rtol=0)


class TestCentralizedGda:
    def test_hand_trace_simple_saddle(self):
        # f = om*ps - ps^2/2 from (1, 0) with eta=0.5 -> (1, 0.5)
        obj = QuadraticSaddle(
            QuadraticSaddleSpec(
                A=np.zeros((1, 1)), B=np.ones((1, 1)), C=np.eye(1),
                a=vector([0.0]), c=vector([0.0]),
            )
        )
        got = central_step(obj, pair_of([1.0], [0.0]), 0.5, 0.5)
        assert np.array_equal(got.omega, [1.0])
        assert np.array_equal(got.psi, [0.5])

    def test_stationary_point_unchanged(self):
        obj = QuadraticSaddle(
            QuadraticSaddleSpec(
                A=np.zeros((1, 1)), B=np.ones((1, 1)), C=np.eye(1),
                a=vector([0.0]), c=vector([0.0]),
            )
        )
        got = central_step(obj, pair_of([0.0], [0.0]), 0.5, 0.5)
        assert np.array_equal(got.omega, [0.0]) and np.array_equal(got.psi, [0.0])

    def test_more_than_one_client_rejected(self):
        pair = pair_of([0.0], [0.0])
        fed = Federation.initial(zero_objective(n=2), pair)
        with pytest.raises(ValueError, match="single pooled client"):
            run_round(LocalRound(K.CENTRAL_GDA, fed.view, HyperParams()), fed, ServerState(pair))


class TestRoundInvariants:
    def test_homogeneous_clients_stay_identical(self):
        spec = synthetic_quadratic_specs(1)[0]
        objs = [QuadraticSaddle(spec) for _ in range(3)]
        d1, d2 = objs[0].dims
        pair = pair_of(np.zeros(d1), np.zeros(d2))
        for kind in (K.FEDMM, K.FEDSGDA, K.FEDAVG_GDA, K.FEDPROX_GDA):
            server = ServerState(pair)
            fed = Federation.initial(objs, pair)
            hp = HyperParams(eta1=0.05, eta2=0.05, local_steps=(5,))
            for _ in range(10):
                fed = run_round(LocalRound(kind, fed.view, hp), fed, server)
                for a in (fed.omega, fed.psi, fed.lam, fed.beta):
                    for row in a[1:]:
                        assert np.array_equal(row, a[0])

    def test_states_passed_in_are_not_mutated(self):
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        d1, d2 = obj.dims
        pair = pair_of(np.zeros(d1), np.zeros(d2))
        fed = Federation.initial([obj], pair)
        om_before = fed.omega.copy()
        lam_before = fed.lam.copy()
        LocalRound(K.FEDMM, fed.view, HyperParams(local_steps=(3,)))(fed, pair, 0)
        assert np.array_equal(fed.omega, om_before)
        assert np.array_equal(fed.lam, lam_before)


class TestLocalTolIsFedmmOnly:
    @pytest.mark.parametrize(
        "kind, prox_mu",
        [(K.FEDSGDA, 1.0), (K.FEDAVG_GDA, 1.0), (K.FEDPROX_GDA, 0.0), (K.FEDPROX_GDA, 0.5),
         (K.CENTRAL_GDA, 1.0)],
    )
    def test_other_optimizers_ignore_local_tol(self, kind, prox_mu):
        objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
        if kind is K.CENTRAL_GDA:
            objs = objs[:1]
        d1, d2 = objs[0].dims
        rng = np.random.default_rng(6)
        pair = pair_of(rng.standard_normal(d1), rng.standard_normal(d2))
        hp = HyperParams(eta1=0.05, eta2=0.05, prox_mu=prox_mu, local_steps=(4,))
        runs = []
        for local_tol in (0.0, 1e-8):
            server, fed = ServerState(pair), Federation.initial(objs, pair)
            for _ in range(5):
                fed = run_round(LocalRound(kind, fed.view, replace(hp, local_tol=local_tol)), fed, server)
            runs.append((fed.Z, fed.D, server.global_pair.omega, server.global_pair.psi))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
