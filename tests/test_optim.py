import numpy as np
import pytest

from fedmm.core import (
    ClientState,
    DivergenceError,
    HyperParams,
    PrimalDualPair,
    ServerState,
    vector,
    zeros,
)
from fedmm.objectives import LocalObjective, QuadraticSaddle, QuadraticSaddleSpec
from fedmm.optim import (
    LocalRoundOutput,
    OptimizerKind,
    _check_finite,
    augmented_lagrangian_grads,
    centralized_gda_step,
    fedavg_gda_local,
    fedmm_aggregate,
    fedmm_local_round,
    fedprox_gda_local,
    fedsgda_round,
    run_round,
)
from fedmm.problems import synthetic_quadratic_specs


class ConstantGrad(LocalObjective):
    """Test stub with constant gradients (value is affine)."""

    def __init__(self, g_om, g_ps):
        self.g_om = vector(g_om)
        self.g_ps = vector(g_ps)

    @property
    def dims(self):
        return len(self.g_om), len(self.g_ps)

    def value(self, omega, psi):
        return float(self.g_om @ omega + self.g_ps @ psi)

    def grad_omega(self, omega, psi):
        return self.g_om

    def grad_psi(self, omega, psi):
        return self.g_ps


def zero_objective(d1=1, d2=1):
    return ConstantGrad(np.zeros(d1), np.zeros(d2))


def pair_of(om, ps):
    return PrimalDualPair(vector(om), vector(ps))


class TestAugmentedLagrangianGrads:
    def test_vanishes_to_raw_gradients_at_consensus(self):
        obj = ConstantGrad([2.0], [3.0])
        gp = pair_of([1.0], [1.0])
        state = ClientState(0, obj, gp, lam=zeros(1), beta=zeros(1))
        g_om, g_ps = augmented_lagrangian_grads(state, gp, HyperParams(mu1=2.0, mu2=5.0))
        assert np.array_equal(g_om, [2.0])
        assert np.array_equal(g_ps, [3.0])

    def test_omega_penalty_and_dual(self):
        obj = zero_objective()
        gp = pair_of([0.0], [0.0])
        state = ClientState(0, obj, pair_of([1.0], [0.0]), lam=vector([3.0]), beta=zeros(1))
        g_om, _ = augmented_lagrangian_grads(state, gp, HyperParams(mu1=2.0))
        assert np.array_equal(g_om, [5.0])

    def test_psi_minus_signs(self):
        obj = zero_objective()
        gp = pair_of([0.0], [0.0])
        state = ClientState(0, obj, pair_of([0.0], [1.0]), lam=zeros(1), beta=vector([1.0]))
        _, g_ps = augmented_lagrangian_grads(state, gp, HyperParams(mu2=1.0))
        assert np.array_equal(g_ps, [-2.0])


class TestFedmmLocalRound:
    def test_fixed_point_of_all_updates(self):
        obj = zero_objective()
        gp = pair_of([0.7], [-0.3])
        state = ClientState.initial(0, obj, gp)
        new_state, out = fedmm_local_round(state, gp, HyperParams(local_steps=(4,)), t=0)
        assert np.array_equal(new_state.pair.omega, gp.omega)
        assert np.array_equal(new_state.lam, [0.0])
        assert np.array_equal(out.omega_out, gp.omega)
        assert np.array_equal(out.psi_out, gp.psi)

    def test_hand_trace_eta3_one(self):
        # M=1, eta1=1, mu1=1, lambda=0, grad_om f == [2], om0=[0]:
        # om1 = -2, lam1 = -2, upload = om1 + lam1 = -4
        obj = ConstantGrad([2.0], [0.0])
        gp = pair_of([0.0], [0.0])
        state = ClientState.initial(0, obj, gp)
        hp = HyperParams(eta1=1.0, eta2=1.0, mu1=1.0, mu2=1.0, eta3=1.0, local_steps=(1,))
        new_state, out = fedmm_local_round(state, gp, hp, t=0)
        assert np.array_equal(new_state.pair.omega, [-2.0])
        assert np.array_equal(new_state.lam, [-2.0])
        assert np.array_equal(out.omega_out, [-4.0])

    def test_hand_trace_eta3_decay_at_round_one(self):
        # same trace at t=1 with eta3=0.5: decay factor 0.5 => upload -3
        obj = ConstantGrad([2.0], [0.0])
        gp = pair_of([0.0], [0.0])
        state = ClientState.initial(0, obj, gp)
        hp = HyperParams(eta1=1.0, eta2=1.0, mu1=1.0, mu2=1.0, eta3=0.5, local_steps=(1,))
        _, out = fedmm_local_round(state, gp, hp, t=1)
        assert np.array_equal(out.omega_out, [-3.0])

    def test_eta3_power_zero_is_one(self):
        obj = ConstantGrad([2.0], [0.0])
        gp = pair_of([0.0], [0.0])
        state = ClientState.initial(0, obj, gp)
        hp = HyperParams(eta1=1.0, eta2=1.0, eta3=0.5, local_steps=(1,))
        _, out = fedmm_local_round(state, gp, hp, t=0)
        assert np.array_equal(out.omega_out, [-4.0])

    def test_divergence_names_step(self):
        obj = QuadraticSaddle(
            QuadraticSaddleSpec(
                A=np.array([[-100.0]]), B=np.zeros((1, 1)), C=np.eye(1),
                a=vector([1.0]), c=vector([0.0]),
            )
        )
        gp = pair_of([1.0], [0.0])
        state = ClientState.initial(0, obj, gp)
        hp = HyperParams(eta1=10.0, eta2=0.1, local_steps=(500,))
        with pytest.raises(DivergenceError) as exc:
            fedmm_local_round(state, gp, hp, t=0)
        assert exc.value.step >= 0

    def test_run_to_tolerance_mode(self):
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        d1, d2 = obj.dims
        gp = pair_of(np.zeros(d1), np.zeros(d2))
        state = ClientState.initial(0, obj, gp)
        hp = HyperParams(eta1=0.2, eta2=0.2)
        new_state, _ = fedmm_local_round(state, gp, hp, t=0, local_tol=1e-11)
        g_om, g_ps = augmented_lagrangian_grads(
            ClientState(0, obj, new_state.pair, state.lam, state.beta), gp, hp
        )
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
            _check_finite(om, ps, "test", 7)
        assert exc.value.step == 7

    def test_passes_at_the_cap(self):
        _check_finite(np.array([self.CAP, -self.CAP]), np.array([-self.CAP]), "test", 0)


class TestFedmmAggregate:
    def test_single_client_identity(self):
        out = LocalRoundOutput(0, vector([1.5]), vector([-2.0]))
        got = fedmm_aggregate([out])
        assert np.array_equal(got.omega, [1.5]) and np.array_equal(got.psi, [-2.0])

    def test_two_client_mean(self):
        outs = [
            LocalRoundOutput(0, vector([2.0]), vector([0.0])),
            LocalRoundOutput(1, vector([4.0]), vector([1.0])),
        ]
        got = fedmm_aggregate(outs)
        assert np.array_equal(got.omega, [3.0]) and np.array_equal(got.psi, [0.5])

    def test_permutation_bit_identical(self):
        rng = np.random.default_rng(3)
        outs = [LocalRoundOutput(i, vector(rng.standard_normal(5)), vector(rng.standard_normal(2))) for i in range(6)]
        a = fedmm_aggregate(outs)
        b = fedmm_aggregate(list(reversed(outs)))
        assert np.array_equal(a.omega, b.omega) and np.array_equal(a.psi, b.psi)

    def test_missing_client_listed(self):
        outs = [LocalRoundOutput(0, vector([1.0]), vector([1.0]))]
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            fedmm_aggregate(outs, n_expected=3)

    def test_payload_size(self):
        out = LocalRoundOutput(0, vector([1.0, 2.0]), vector([3.0]))
        assert out.floats == 3


class TestFedSgda:
    def test_matches_centralized_bit_exact(self):
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        d1, d2 = obj.dims
        pair = pair_of(np.zeros(d1), np.zeros(d2))
        hp = HyperParams(eta1=0.05, eta2=0.07)
        server = ServerState(pair)
        clients = [ClientState.initial(0, obj, pair)]
        central = pair
        for _ in range(100):
            clients, server = fedsgda_round(clients, server, hp)
            central = centralized_gda_step(obj, central, hp.eta1, hp.eta2)
            assert np.array_equal(server.global_pair.omega, central.omega)
            assert np.array_equal(server.global_pair.psi, central.psi)

    def test_zero_gradient_leaves_globals(self):
        objs = [zero_objective(), zero_objective()]
        pair = pair_of([0.4], [0.2])
        server = ServerState(pair)
        clients = [ClientState.initial(i, o, pair) for i, o in enumerate(objs)]
        clients, server = fedsgda_round(clients, server, HyperParams())
        assert np.array_equal(server.global_pair.omega, [0.4])

    def test_two_client_scalar_average(self):
        objs = [ConstantGrad([1.0], [0.0]), ConstantGrad([3.0], [0.0])]
        pair = pair_of([0.0], [0.0])
        server = ServerState(pair)
        clients = [ClientState.initial(i, o, pair) for i, o in enumerate(objs)]
        clients, server = fedsgda_round(clients, server, HyperParams(eta1=0.1, eta2=0.1))
        assert np.allclose(server.global_pair.omega, [-0.2], atol=1e-15)


class TestFedAvgProx:
    def test_prox_zero_equals_fedavg_bit_exact(self):
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        d1, d2 = obj.dims
        rng = np.random.default_rng(4)
        pair = pair_of(rng.standard_normal(d1), rng.standard_normal(d2))
        hp = HyperParams(eta1=0.03, eta2=0.04, prox_mu=0.0, local_steps=(11,))
        a = fedavg_gda_local(obj, pair, hp, 0)
        b = fedprox_gda_local(obj, pair, hp, 0)
        assert np.array_equal(a.omega_out, b.omega_out)
        assert np.array_equal(a.psi_out, b.psi_out)

    def test_m1_equals_fedsgda_step(self):
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        d1, d2 = obj.dims
        pair = pair_of(np.zeros(d1), np.zeros(d2))
        hp = HyperParams(eta1=0.05, eta2=0.05, local_steps=(1,))
        out = fedavg_gda_local(obj, pair, hp, 0)
        server = ServerState(pair)
        clients = [ClientState.initial(0, obj, pair)]
        clients, server = fedsgda_round(clients, server, hp)
        assert np.array_equal(out.omega_out, server.global_pair.omega)

    def test_fedmm_zero_duals_matches_fedprox_first_step(self):
        # mu1=mu2=prox_mu, M=1, duals 0: the two update rules coincide
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        d1, d2 = obj.dims
        rng = np.random.default_rng(5)
        pair = pair_of(rng.standard_normal(d1), rng.standard_normal(d2))
        start = pair_of(rng.standard_normal(d1), rng.standard_normal(d2))
        hp = HyperParams(eta1=0.05, eta2=0.05, mu1=0.7, mu2=0.7, prox_mu=0.7, local_steps=(1,))
        state = ClientState.initial(0, obj, start)
        new_state, _ = fedmm_local_round(state, start, hp, t=0)
        prox = fedprox_gda_local(obj, start, hp, 0)
        assert np.allclose(new_state.pair.omega, prox.omega_out, atol=0, rtol=0)
        assert np.allclose(new_state.pair.psi, prox.psi_out, atol=0, rtol=0)


class TestCentralizedGda:
    def test_hand_trace_simple_saddle(self):
        # f = om*ps - ps^2/2 from (1, 0) with eta=0.5 -> (1, 0.5)
        obj = QuadraticSaddle(
            QuadraticSaddleSpec(
                A=np.zeros((1, 1)), B=np.ones((1, 1)), C=np.eye(1),
                a=vector([0.0]), c=vector([0.0]),
            )
        )
        got = centralized_gda_step(obj, pair_of([1.0], [0.0]), 0.5, 0.5)
        assert np.array_equal(got.omega, [1.0])
        assert np.array_equal(got.psi, [0.5])

    def test_stationary_point_unchanged(self):
        obj = QuadraticSaddle(
            QuadraticSaddleSpec(
                A=np.zeros((1, 1)), B=np.ones((1, 1)), C=np.eye(1),
                a=vector([0.0]), c=vector([0.0]),
            )
        )
        got = centralized_gda_step(obj, pair_of([0.0], [0.0]), 0.5, 0.5)
        assert np.array_equal(got.omega, [0.0]) and np.array_equal(got.psi, [0.0])


class TestRoundInvariants:
    def test_homogeneous_clients_stay_identical(self):
        spec = synthetic_quadratic_specs(1)[0]
        objs = [QuadraticSaddle(spec) for _ in range(3)]
        d1, d2 = objs[0].dims
        pair = pair_of(np.zeros(d1), np.zeros(d2))
        for kind in (OptimizerKind.FEDMM, OptimizerKind.FEDSGDA, OptimizerKind.FEDAVG_GDA, OptimizerKind.FEDPROX_GDA):
            server = ServerState(pair)
            clients = [ClientState.initial(i, o, pair) for i, o in enumerate(objs)]
            hp = HyperParams(eta1=0.05, eta2=0.05, local_steps=(5,))
            for _ in range(10):
                clients = run_round(kind, clients, server, hp)
                first = clients[0]
                for c in clients[1:]:
                    assert np.array_equal(c.pair.omega, first.pair.omega)
                    assert np.array_equal(c.pair.psi, first.pair.psi)
                    assert np.array_equal(c.lam, first.lam)
                    assert np.array_equal(c.beta, first.beta)

    def test_states_passed_in_are_not_mutated(self):
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        d1, d2 = obj.dims
        pair = pair_of(np.zeros(d1), np.zeros(d2))
        state = ClientState.initial(0, obj, pair)
        om_before = state.pair.omega.copy()
        lam_before = state.lam.copy()
        fedmm_local_round(state, pair, HyperParams(local_steps=(3,)), t=0)
        assert np.array_equal(state.pair.omega, om_before)
        assert np.array_equal(state.lam, lam_before)
