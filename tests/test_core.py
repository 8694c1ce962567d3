import numpy as np
import pytest

from fedmm.core import (
    ClientState,
    DimensionMismatchError,
    HyperParams,
    PrimalDualPair,
    ServerState,
    axpy,
    dot,
    norm,
    row_dot,
    row_norms,
    seeded_rng,
    vector,
    zeros,
)
from fedmm.objectives import QuadraticSaddle, QuadraticSaddleSpec


def simple_objective(d1=2, d2=2):
    return QuadraticSaddle(
        QuadraticSaddleSpec(
            A=np.zeros((d1, d1)),
            B=np.eye(d1, d2),
            C=np.eye(d2),
            a=vector(np.zeros(d1)),
            c=vector(np.zeros(d2)),
        )
    )


class TestAxpy:
    def test_zero_scale_identity(self):
        assert np.array_equal(axpy(0.0, vector([5, 7]), vector([1, 2])), [1, 2])

    def test_additive_inverse(self):
        assert np.array_equal(axpy(1.0, vector([1, 1]), vector([-1, -1])), [0, 0])

    def test_hand_arithmetic(self):
        got = axpy(2.0, vector([1, -3]), vector([0.5, 0.5]))
        assert np.allclose(got, [2.5, -5.5], atol=0, rtol=0)

    def test_dimension_mismatch_names_lengths(self):
        with pytest.raises(DimensionMismatchError) as exc:
            axpy(1.0, vector([1, 2, 3]), vector([1, 2]))
        assert "3" in str(exc.value) and "2" in str(exc.value)

    def test_inputs_unmodified(self):
        x = vector([1.0, 2.0])
        y = vector([3.0, 4.0])
        x_copy, y_copy = x.copy(), y.copy()
        axpy(2.5, x, y)
        assert np.array_equal(x, x_copy) and np.array_equal(y, y_copy)


class TestVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            vector([1.0, np.nan])
        with pytest.raises(ValueError):
            vector([np.inf])

    def test_frozen(self):
        v = vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v[0] = 3.0

    def test_float64(self):
        assert vector([1, 2]).dtype == np.float64


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(42).standard_normal(100)
        b = seeded_rng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ_early(self):
        a = seeded_rng(42).standard_normal(10)
        b = seeded_rng(43).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_seed_zero_not_degenerate(self):
        draws = seeded_rng(0).standard_normal(10)
        assert np.count_nonzero(draws) == 10


class TestNormDot:
    def test_norm_matches_sqrt_dot(self):
        rng = seeded_rng(7)
        for n in (1, 10, 1000, 10_000):
            x = vector(rng.standard_normal(n))
            assert norm(x) == pytest.approx(np.sqrt(dot(x, x)), rel=1e-12)

    @pytest.mark.parametrize("n, d", [(1, 1), (40, 1), (32, 30), (7, 257)])
    def test_row_forms_are_bit_equal_to_one_row_at_a_time(self, n, d):
        rng = seeded_rng(8)
        X, Y = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        assert np.array_equal(row_dot(X, Y), [x @ y for x, y in zip(X, Y)])
        assert np.array_equal(row_norms(X), [np.linalg.norm(x) for x in X])


class TestStates:
    def test_client_initial_zero_duals(self):
        obj = simple_objective()
        pair = PrimalDualPair(zeros(2), zeros(2))
        state = ClientState.initial(3, obj, pair)
        assert state.id == 3
        assert np.array_equal(state.lam, [0, 0])
        assert np.array_equal(state.beta, [0, 0])

    def test_client_dual_dims_checked(self):
        obj = simple_objective()
        pair = PrimalDualPair(zeros(2), zeros(2))
        with pytest.raises(DimensionMismatchError):
            ClientState(0, obj, pair, lam=zeros(3), beta=zeros(2))

    def test_server_ledger_nondecreasing(self):
        server = ServerState(PrimalDualPair(zeros(2), zeros(3)))
        seen = [server.floats_sent]
        for _ in range(4):
            server.record_round(n_clients=3)
            seen.append(server.floats_sent)
        assert seen == sorted(seen)
        # one round = N * 2 * (d1 + d2)
        assert seen[1] == 3 * 2 * (2 + 3)


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(mu1=0.0)
        with pytest.raises(ValueError):
            HyperParams(eta3=0.0)
        with pytest.raises(ValueError):
            HyperParams(eta3=1.5)
        with pytest.raises(ValueError):
            HyperParams(local_steps=(0,))
        with pytest.raises(ValueError):
            HyperParams(rounds=-1)

    def test_local_solve_fields_validated(self):
        with pytest.raises(ValueError, match="local_tol"):
            HyperParams(local_tol=-1e-9)
        with pytest.raises(ValueError, match="local_max_iters"):
            HyperParams(local_max_iters=0)
        assert HyperParams(local_tol=0.0, local_max_iters=1).local_max_iters == 1

    def test_rounds_zero_allowed(self):
        assert HyperParams(rounds=0).rounds == 0

    def test_expanded(self):
        hp = HyperParams(local_steps=(7,))
        assert hp.expanded(3).local_steps == (7, 7, 7)
        with pytest.raises(ValueError):
            HyperParams(local_steps=(1, 2)).expanded(3)
