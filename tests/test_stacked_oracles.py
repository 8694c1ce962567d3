"""The per-round metric oracles through the stacked view against a per-client reference.

Every comparison is exact: the stacked loss, the mean oracle, the phi oracle,
the consensus norms and the cached client averages must reproduce, bit for
bit, what one objective (and one client) after the other computes. The
generated quadratic instances include d2 = 1 with N >= 17, where numpy's
reductions would switch to pairwise summation.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmm.checks import check_stacked_oracles
from fedmm.core import PrimalDualPair, seeded_rng, vector
from fedmm.federation import PartitionSpec, consensus, partition_label_shift
from fedmm.objectives import (
    DomainAdaptObjective,
    LocalObjective,
    MeanObjective,
    QuadraticSaddle,
    QuadraticSaddleSpec,
    phi_value_and_grad,
    quadratic_bars,
    stacked,
)
from fedmm.optim import Federation
from fedmm.problems import domain_shift_toy

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SIZES = dict(
    n=st.integers(1, 40), d1=st.integers(1, 12), d2=st.integers(1, 12), seed=st.integers(0, 2**32 - 1)
)


def quadratic_instance(n, d1, d2, seed):
    """n random quadratic clients and n random (omega, psi) rows."""
    rng = np.random.default_rng(seed)
    objs = []
    for _ in range(n):
        S = rng.standard_normal((d1, d1))
        Q = rng.standard_normal((d2, d2))
        spec = QuadraticSaddleSpec(
            A=S + S.T,
            B=rng.standard_normal((d1, d2)),
            C=Q @ Q.T + np.eye(d2),
            a=rng.standard_normal(d1),
            c=rng.standard_normal(d2),
        )
        objs.append(QuadraticSaddle(spec))
    return objs, 3.0 * rng.standard_normal((n, d1)), 3.0 * rng.standard_normal((n, d2))


def dann_instance():
    """Two DANN clients on shards of unequal size (40 and 33 points)."""
    train, _, layout = domain_shift_toy(seeded_rng(41), n_per_domain=40, holdout_n=4)
    shards = partition_label_shift(train, PartitionSpec(n_clients=2, p=0.75), seeded_rng(42))
    shards[1] = shards[1].subset(np.arange(len(shards[1]) - 7))
    assert len(shards[0]) != len(shards[1])
    objs = [DomainAdaptObjective(s, nu=0.5, layout=layout) for s in shards]
    rng = seeded_rng(43)
    return objs, 0.3 * rng.standard_normal((2, layout.d1)), 0.3 * rng.standard_normal((2, layout.d2))


# ------------------------------ the reference ------------------------------ #


def ref_mean(rows):
    """Client average, adding one client after the other from a copy of the first."""
    total = np.array(rows[0])
    for row in rows[1:]:
        total += row
    return total / len(rows)


def ref_mean_value(objs, om, ps):
    """Client average of the values, a zero-started float loop (Python's sum() may compensate)."""
    total = 0.0
    for o in objs:
        total += o.value(om, ps)
    return total / len(objs)


def ref_inner_max(objs, om, tol):
    if all(isinstance(o, QuadraticSaddle) for o in objs):
        n = len(objs)
        Bbar, Cbar, cbar = (sum(getattr(o, k) for o in objs) / n for k in "BCc")
        return np.linalg.solve(Cbar, Bbar.T @ om + cbar)
    step = 1.0 / max(max(o.ascent_curvature_bound(om) for o in objs), 1e-12)
    psi = np.zeros(objs[0].dims[1])
    g = ref_mean([o.grad_psi(om, psi) for o in objs])
    while np.linalg.norm(g) > tol:
        psi = psi + step * g
        g = ref_mean([o.grad_psi(om, psi) for o in objs])
    return psi


def ref_consensus(OM, PS, pair):
    return (
        max(float(np.linalg.norm(om - pair.omega)) for om in OM),
        max(float(np.linalg.norm(ps - pair.psi)) for ps in PS),
    )


def assert_oracles_match(objs, OM, PS, tol):
    """Every stacked oracle against the reference at rows (OM, PS) and at the point (OM[0], PS[0])."""
    view = stacked(objs)
    want = np.array([o.value(OM[r], PS[r]) for r, o in enumerate(objs)])
    assert np.array_equal(view.values(OM, PS), want)

    om, ps = vector(OM[0]), vector(PS[0])
    g_om = ref_mean([o.grad_omega(om, ps) for o in objs])
    g_ps = ref_mean([o.grad_psi(om, ps) for o in objs])
    assert view.mean_value(om, ps) == ref_mean_value(objs, om, ps)
    for got in (view.mean_grads(om, ps), MeanObjective(objs).grads(om, ps)):
        assert np.array_equal(got[0], g_om) and np.array_equal(got[1], g_ps)
    mean = MeanObjective(objs)
    assert mean.value(om, ps) == ref_mean_value(objs, om, ps)
    assert np.array_equal(mean.grad_omega(om, ps), g_om)
    assert np.array_equal(mean.grad_psi(om, ps), g_ps)

    psi_star = ref_inner_max(objs, om, tol)
    value, grad = phi_value_and_grad(view, om, tol)
    assert value == ref_mean_value(objs, om, psi_star)
    assert np.array_equal(grad, ref_mean([o.grad_omega(om, psi_star) for o in objs]))

    pair = PrimalDualPair(om, ps)
    fed = Federation(view, np.hstack((OM, PS)), np.zeros((len(OM), OM.shape[1] + PS.shape[1])))
    assert consensus(fed, pair) == ref_consensus(OM, PS, pair)


# ------------------------------- properties ------------------------------- #


@PROPERTY
@given(**SIZES)
@example(n=17, d1=3, d2=1, seed=0)
@example(n=40, d1=12, d2=1, seed=1)
@example(n=1, d1=1, d2=1, seed=2)
def test_quadratic_oracles_match_per_client_reference(n, d1, d2, seed):
    objs, OM, PS = quadratic_instance(n, d1, d2, seed)
    assert_oracles_match(objs, OM, PS, tol=1e-12)


@PROPERTY
@given(**SIZES)
@example(n=33, d1=2, d2=1, seed=3)
def test_cached_bars_are_client_order_sums(n, d1, d2, seed):
    objs, _, _ = quadratic_instance(n, d1, d2, seed)
    view = stacked(objs)
    bars = quadratic_bars(view)
    for got, key in zip(bars, "ABCac"):
        assert np.array_equal(got, sum(getattr(o, key) for o in objs) / n)
    assert quadratic_bars(view) is bars  # cached with the view


def test_dann_oracles_on_unequal_shards():
    objs, OM, PS = dann_instance()
    assert_oracles_match(objs, OM, PS, tol=1e-6)


def test_subclasses_take_the_per_row_path_with_the_same_bits():
    class Tagged(QuadraticSaddle):
        pass

    plain, OM, PS = quadratic_instance(5, 4, 1, seed=7)
    tagged = [Tagged(QuadraticSaddleSpec(o.A, o.B, o.C, o.a, o.c)) for o in plain]
    assert type(stacked(tagged)) is not type(stacked(plain))
    assert_oracles_match(tagged, OM, PS, tol=1e-12)
    for a, b in zip(quadratic_bars(stacked(tagged)), quadratic_bars(stacked(plain))):
        assert np.array_equal(a, b)


def test_stacked_oracles_check():
    assert "bit-exact" in check_stacked_oracles()


class Constant(LocalObjective):
    """A client whose value is one fixed number everywhere."""

    dims = (1, 1)

    def __init__(self, c):
        self.c = c

    def value(self, omega, psi):
        return self.c

    def grad_omega(self, omega, psi):
        return vector([0.0])

    def grad_psi(self, omega, psi):
        return vector([0.0])


@pytest.mark.parametrize(
    "values",
    [[-0.0], [-0.0, -0.0, -0.0], [1e16, 1.0, -1e16], [0.1] * 10, [-0.0, 2.5, -2.5]],
)
def test_mean_value_is_a_zero_started_loop(values):
    objs = [Constant(c) for c in values]
    zero = vector([0.0])
    got = stacked(objs).mean_value(zero, zero)
    want = ref_mean_value(objs, zero, zero)
    assert type(got) is float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    if values == [1e16, 1.0, -1e16]:
        assert got == 0.0  # a compensated sum would give 1/3
