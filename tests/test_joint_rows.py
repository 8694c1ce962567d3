"""The joint-row engine against a per-block reference, and the client sums against loops.

The engine keeps each client as one (d1 + d2) row [omega | psi] with its
duals stored as [lam | -beta] and folds the ascent block's signs into signed
weight vectors. The reference, `reference_math.per_block_round` on the
plain-numpy client formulas of `fedmm.checks`, computes every round the way
the per-block engine did, each block on its own: descent on omega with
+lam + mu1 (om - om0), ascent on psi with -beta - mu2 (ps - ps0), then the
dual step, the dual-shifted upload and a zero-started sum of the uploads.
`test_engine.py` checks the engine against the same round on DANN clients
and pooled clients. Every comparison is np.array_equal.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmm.core import (
    ConvergenceError,
    DivergenceError,
    HyperParams,
    PrimalDualPair,
    ServerState,
    row_sum,
    vector,
)
from fedmm.objectives import QuadraticSaddle, QuadraticSaddleSpec, _bars, _StackedQuadratic, stacked
from fedmm.optim import Federation, LocalRound, OptimizerKind, fedmm_aggregate, run_round
from fedmm.problems import synthetic_quadratic_specs
from reference_math import per_block_round

K = OptimizerKind


def quadratics(n, d1, d2, rng):
    """n random quadratic clients; A indefinite, C positive definite."""
    objs = []
    for _ in range(n):
        S, Q = rng.standard_normal((d1, d1)), rng.standard_normal((d2, d2))
        spec = QuadraticSaddleSpec(
            A=0.5 * (S + S.T), B=rng.standard_normal((d1, d2)), C=Q @ Q.T / d2 + np.eye(d2),
            a=rng.standard_normal(d1), c=rng.standard_normal(d2),
        )
        objs.append(QuadraticSaddle(spec))
    return objs


def outcome(fn):
    """fn()'s result, or the type and message of the optimizer error it raised."""
    try:
        return fn()
    except (DivergenceError, ConvergenceError) as e:
        return type(e), str(e)


# ------------------------------- the engine ------------------------------- #


@st.composite
def rounds_case(draw):
    kind = draw(st.sampled_from(list(K)))
    n = 1 if kind is K.CENTRAL_GDA else draw(st.integers(1, 6))
    d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    steps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    hp = HyperParams(
        mu1=draw(st.sampled_from([0.5, 1.0, 3.0])),
        mu2=draw(st.sampled_from([0.5, 1.0, 3.0])),
        eta1=draw(st.sampled_from([0.05, 0.1, 0.3, 2.0])),
        eta2=draw(st.sampled_from([0.05, 0.1, 0.3])),
        eta3=draw(st.sampled_from([1.0, 0.7])),
        prox_mu=draw(st.sampled_from([0.0, 0.5, 2.0])),
        local_steps=tuple(steps),
        local_max_iters=200,
    )
    local_tol = draw(st.sampled_from([None, None, 1e-6]))
    return dict(
        kind=kind, n=n, d1=d1, d2=d2, hp=hp, local_tol=local_tol,
        rounds=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=rounds_case())
@example(case=dict(  # run to tolerance with unequal convergence: masked steps
    kind=K.FEDMM, n=6, d1=8, d2=8, hp=HyperParams(eta1=0.1, eta2=0.1, local_max_iters=2000),
    local_tol=1e-8, rounds=3, seed=7,
))
@example(case=dict(  # unequal M_i: the rows that finished early are masked
    kind=K.FEDPROX_GDA, n=5, d1=3, d2=2, hp=HyperParams(local_steps=(1, 5, 2, 5, 3), prox_mu=0.5),
    local_tol=None, rounds=2, seed=3,
))
def test_joint_engine_equals_the_per_block_round(case):
    kind, n, d1, d2, hp = case["kind"], case["n"], case["d1"], case["d2"], case["hp"]
    rng = np.random.default_rng(case["seed"])
    objs = quadratics(n, d1, d2, rng)
    assert isinstance(stacked(objs), _StackedQuadratic)
    start = PrimalDualPair(vector(rng.standard_normal(d1)), vector(rng.standard_normal(d2)))

    server = ServerState(start)
    fed = Federation.initial(objs, start)
    solver_hp = replace(hp, local_tol=case["local_tol"] or 0.0)
    lam, beta = np.zeros((n, d1)), np.zeros((n, d2))
    for t in range(case["rounds"]):
        gp = server.global_pair
        want = outcome(lambda: per_block_round(kind, objs, lam, beta, gp, hp, t, case["local_tol"]))
        got = outcome(lambda: LocalRound(kind, fed.view, solver_hp)(fed, gp, t))
        if isinstance(want[0], type):
            assert got == want
            return
        (om, ps, lam, beta, up_om, up_ps), bar = want
        solved, got_up = got
        got_up_om, got_up_ps = got_up[:, :d1], got_up[:, d1:]
        fed = run_round(LocalRound(kind, fed.view, solver_hp), fed, server)
        for a, b in ((fed.omega, om), (fed.psi, ps), (fed.lam, lam), (fed.beta, beta),
                     (got_up_om, up_om), (got_up_ps, up_ps), (server.global_pair.omega, bar[0]),
                     (server.global_pair.psi, bar[1])):
            assert np.array_equal(a, b)
        assert np.array_equal(solved.Z, fed.Z) and np.array_equal(solved.D, fed.D)
        for a in (fed.Z, fed.D, fed.beta, got_up_om, got_up_ps):
            assert not a.flags.writeable


def test_federation_reads_back_its_blocks():
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3, 4, 2)]
    rng = np.random.default_rng(0)
    om, ps, lam, beta = (rng.standard_normal((3, d)) for d in (4, 2, 4, 2))
    Z, D = np.hstack((om, ps)), np.hstack((lam, -beta))
    Z.flags.writeable = D.flags.writeable = False
    fed = Federation(stacked(objs), Z, D)
    for got, want in ((fed.omega, om), (fed.psi, ps), (fed.lam, lam), (fed.beta, beta)):
        assert np.array_equal(got, want) and not got.flags.writeable
    # zero duals read back as +0.0, as the per-block engine's np.zeros did
    start = Federation.initial(objs, PrimalDualPair(vector(np.zeros(4)), vector(np.zeros(2))))
    for zeros in (start.lam, start.beta):
        assert not np.signbit(zeros).any() and not zeros.any()


# ------------------------------ sign folding ------------------------------ #

SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    1.0, -1.5, 3.25, 1e308, -1e308, np.inf, -np.inf,
])
WEIGHTS = np.array([5e-324, 1e-310, 0.1, 1.0, 3.0, 1e308])  # hyperparameters: positive, finite


def same_bits(a, b) -> bool:
    """Equal bit for bit; any two NaNs count as equal (their sign bits follow the op that made
    them, and a NaN stops the run anyway)."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


def grid(*axes):
    return [g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")]


def test_sign_folding_is_exact_on_special_values():
    x, y, w = grid(SPECIAL, SPECIAL, WEIGHTS)
    with np.errstate(all="ignore"):
        # the identities the joint row rests on
        assert same_bits(x - y, x + (-y))
        assert same_bits(x - w * y, x + (-w) * y)
        # the psi block's step, penalty and upload, per block and on the joint row (D = -beta)
        g, beta, ps = grid(SPECIAL, SPECIAL, SPECIAL)
        for eta in WEIGHTS:
            assert same_bits(ps + eta * g, ps - (-eta) * g)
            for mu in WEIGHTS:
                assert same_bits(g - beta - mu * (ps - 1.5), g + (-beta) + (-mu) * (ps - 1.5))
            assert same_bits(ps + eta * beta, ps + (-eta) * (-beta))


def test_dual_step_differs_at_most_in_the_sign_of_an_exact_zero():
    """-((-beta) + (-mu) y) is beta + mu y, except where the sum cancels exactly.

    Both sums then round to +0.0, so the stored -beta reads back as beta = -0.0
    where the per-block sum holds +0.0: equal values, and no later operation of
    the engine divides by a dual or branches on a sign bit.
    """
    beta, y, mu = grid(SPECIAL, SPECIAL, WEIGHTS)
    with np.errstate(all="ignore"):
        per_block = beta + mu * y
        joint = -((-beta) + (-mu) * y)
    nan = np.isnan(per_block)
    assert np.array_equal(nan, np.isnan(joint))
    assert np.array_equal(per_block[~nan], joint[~nan])
    differ = ~nan & (per_block.view(np.uint64) != joint.view(np.uint64))
    assert (per_block[differ] == 0.0).all()


# ------------------------------ client sums ------------------------------ #


def loop_from_first_row(rows):
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def loop_from_zero(rows):
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total


def bits_and_signs_equal(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [1, 2, 8, 40])
@pytest.mark.parametrize("d", [1, 3, 30])
@pytest.mark.parametrize("zero_column", [False, True], ids=["random", "negative_zero_column"])
def test_one_call_client_sums_equal_the_row_order_loop(n, d, zero_column):
    rng = np.random.default_rng(1000 * n + d)
    # magnitudes from 1e-8 to 1e8, so any other order of the adds rounds differently
    rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
    if zero_column:
        rows[:, 0] = -0.0
    assert bits_and_signs_equal(row_sum(rows), loop_from_first_row(rows))
    want = loop_from_zero(rows) / n
    d1 = (d + 1) // 2
    got = fedmm_aggregate(rows, d1)
    assert bits_and_signs_equal(np.concatenate((got.omega, got.psi)), want)
    assert got.omega.shape == (d1,) and got.psi.shape == (d - d1,)
    assert bits_and_signs_equal(_bars(rows, rows, rows, rows, rows).A, want)
