from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from fedmm.core import (
    HyperParams,
    PrimalDualPair,
    ServerState,
    row_dot,
    row_norms,
    row_sum,
    seeded_rng,
    vector,
    zeros,
)
from fedmm.objectives import QuadraticSaddle, QuadraticSaddleSpec
from fedmm.optim import Federation


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
            x = rng.standard_normal((1, n))
            assert row_norms(x)[0] == pytest.approx(np.sqrt(row_dot(x, x)[0]), rel=1e-12)

    @pytest.mark.parametrize("n, d", [(1, 1), (40, 1), (32, 30), (7, 257)])
    def test_row_forms_are_bit_equal_to_one_row_at_a_time(self, n, d):
        rng = seeded_rng(8)
        X, Y = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        assert np.array_equal(row_dot(X, Y), [x @ y for x, y in zip(X, Y)])
        assert np.array_equal(row_norms(X), [np.linalg.norm(x) for x in X])

    @pytest.mark.parametrize("lead", [(1,), (3,), (2, 3)])
    @pytest.mark.parametrize("n, d", [(1, 1), (40, 1), (32, 30)])
    def test_leading_axes_are_independent_row_calls(self, lead, n, d):
        rng = seeded_rng(9)
        X, Y = rng.standard_normal(lead + (n, d)), rng.standard_normal(lead + (n, d))
        dots, norms = row_dot(X, Y), row_norms(X)
        assert dots.shape == norms.shape == lead + (n,)
        for i in np.ndindex(lead):
            assert np.array_equal(dots[i], row_dot(X[i], Y[i]))
            assert np.array_equal(norms[i], row_norms(X[i]))


class TestRowSum:
    @pytest.mark.parametrize("n, d", [(1, 1), (17, 1), (40, 3)])
    def test_adds_the_rows_in_order(self, n, d):
        rows = seeded_rng(10).standard_normal((n, d)) * 10.0 ** np.arange(n)[:, None]
        total = rows[0].copy()
        for row in rows[1:]:
            total = total + row
        assert np.array_equal(row_sum(rows), total)

    @pytest.mark.parametrize("n", [1, 17, 40])
    def test_leading_axes_are_summed_on_their_own(self, n):
        V = seeded_rng(11).standard_normal((5, n)) * 10.0 ** np.arange(n)
        want = [row_sum(v) for v in V]
        assert np.array_equal(row_sum(V, axis=1), want)
        assert np.array_equal(row_sum(V, axis=-1), want)
        assert np.array_equal(row_sum(V.T), want)


class TestPrimalDualPair:
    def test_blocks_are_views_of_one_frozen_joint_row(self):
        om, ps = vector([0.5, -1.0]), vector([2.0])
        pair = PrimalDualPair(om, ps)
        assert np.array_equal(pair.row, [0.5, -1.0, 2.0]) and not pair.row.flags.writeable
        assert pair.dims == (2, 1)
        for got, want in ((pair.omega, om), (pair.psi, ps)):
            assert np.array_equal(got, want) and got.base is pair.row and not got.flags.writeable

    def test_of_row_takes_the_row_as_it_is(self):
        row = zeros(5)
        pair = PrimalDualPair.of_row(row, 3)
        assert pair.row is row and pair.dims == (3, 2)
        assert pair.omega.base is row and pair.psi.base is row

    def test_frozen(self):
        pair = PrimalDualPair(zeros(1), zeros(1))
        with pytest.raises(FrozenInstanceError):
            pair.omega = zeros(1)


class TestStates:
    def test_client_initial_zero_duals(self):
        pair = PrimalDualPair(vector([0.5, -1.0]), vector([2.0, 0.0]))
        fed = Federation.initial([simple_objective() for _ in range(4)], pair)
        assert fed.n == 4
        assert np.array_equal(fed.omega, [[0.5, -1.0]] * 4)
        assert np.array_equal(fed.psi, [[2.0, 0.0]] * 4)
        assert np.array_equal(fed.lam, np.zeros((4, 2)))
        assert np.array_equal(fed.beta, np.zeros((4, 2)))
        for a in (fed.omega, fed.psi, fed.lam, fed.beta):
            assert not a.flags.writeable

    def test_client_dual_dims_checked(self):
        pair = PrimalDualPair(zeros(3), zeros(2))
        with pytest.raises(ValueError, match="dims"):
            Federation.initial([simple_objective()], pair)

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
