"""The per-round metric oracles through the stacked view against a per-client reference.

Every comparison is exact: the stacked loss, the pooled view, the phi oracle,
the consensus norms, the cached client averages and central GDA's pooled
view must reproduce, bit for bit, what the plain-numpy formulas of
`fedmm.checks` compute for one client after the other. The loss, the phi
oracle and the consensus come from `per_client_oracles`, the reference
`fedmm check` (`stacked_oracles`) compares with, so a fault in the views
fails both. The generated quadratic instances include d2 = 1 with N >= 17,
where numpy's reductions would switch to pairwise summation.
"""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmm.checks import (
    check_stacked_oracles,
    client_value,
    dann_curvature_bound,
    mean_value,
    per_client_oracles,
)
from fedmm.core import PrimalDualPair, seeded_rng, vector
from fedmm.federation import PartitionSpec, consensus, partition_label_shift
from fedmm.objectives import (
    SOURCE,
    TARGET,
    UNLABELED,
    DomainAdaptDataset,
    DomainAdaptObjective,
    ModelLayout,
    PooledView,
    QuadraticSaddle,
    QuadraticSaddleSpec,
    StackedObjectives,
    _SizeGroups,
    _StackedDomainAdapt,
    _StackedQuadratic,
    phi_grads,
    phi_value_and_grad,
    pooled,
    quadratic_bars,
    stacked,
)
from fedmm.problems import domain_shift_toy
from reference_math import MeanOfClients, reference_grads

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


def dann_instance(drop: int):
    """Two DANN clients on shards of 40 and 40 - drop points."""
    train, _, layout = domain_shift_toy(seeded_rng(41), n_per_domain=40, holdout_n=4)
    shards = partition_label_shift(train, PartitionSpec(p=0.75), seeded_rng(42))
    shards[1] = shards[1].subset(np.arange(len(shards[1]) - drop))
    assert (len(shards[0]), len(shards[1])) == (40, 40 - drop)
    objs = [DomainAdaptObjective(s, nu=0.5, layout=layout) for s in shards]
    rng = seeded_rng(43)
    return objs, 0.3 * rng.standard_normal((2, layout.d1)), 0.3 * rng.standard_normal((2, layout.d2))


def assert_oracles_match(objs, OM, PS, tol):
    """Every stacked oracle against the reference at rows (OM, PS) and at the point (OM[0], PS[0]).

    The loss, the phi oracle and the consensus are `per_client_oracles`', the
    reference `fedmm check` runs; the client averages are the pooled view's,
    checked at every point (OM[k], PS[k]).
    """
    view = stacked(objs)
    want = np.array([client_value(o, OM[r], PS[r]) for r, o in enumerate(objs)])
    assert np.array_equal(view.values(np.hstack((OM, PS))), want)
    assert_pooled_matches(objs, view, OM, PS, tol)

    Z, pair = np.hstack((OM, PS)), PrimalDualPair(vector(OM[0]), vector(PS[0]))
    loss, (phi_value, phi_grad), cons = per_client_oracles(objs, OM, PS, pair, tol)
    assert pooled(view).values(pair.row[None]).tolist() == [loss]
    value, grad = phi_value_and_grad(view, pair.omega, tol)
    assert value == phi_value and np.array_equal(grad, phi_grad)
    assert consensus(Z, pair.row, OM.shape[1]) == cons

    # leading axes: two stacks of rows at once
    got = view.values(np.stack((Z, Z[::-1])))
    assert np.array_equal(got, [want, view.values(np.ascontiguousarray(Z[::-1]))])


def assert_pooled_matches(objs, view, OM, PS, tol):
    """Central GDA's pooled view of the clients, at each of the N points (OM[k], PS[k]).

    Its one row's value and gradients are the reference client means, and
    its phi oracle is the clients' own at the N omegas.
    """
    pooled_view = pooled(view)
    assert type(pooled_view) is PooledView and pooled(pooled_view) is pooled_view
    points = [(vector(OM[k]), vector(PS[k])) for k in range(len(OM))]
    pool = MeanOfClients(objs)
    want_om, want_ps = zip(*(reference_grads(pool, om, ps) for om, ps in points))
    for (om, ps), g_om, g_ps in zip(points, want_om, want_ps):
        one = np.concatenate((om, ps))[None]
        assert pooled_view.values(one).tolist() == [mean_value(objs, om, ps)]
        assert np.array_equal(pooled_view.joint_grads(one), [np.hstack((g_om, g_ps))])
        assert np.array_equal(pooled_view.grad_psi(one), [g_ps])
    # leading axes: the N points as N stacked (1, d) rows of the pooled view
    K = np.hstack((OM, PS))[:, None, :]
    want_values = [[mean_value(objs, om, ps)] for om, ps in points]
    assert pooled_view.values(K).tolist() == want_values
    assert np.array_equal(pooled_view.joint_grads(K), np.hstack((want_om, want_ps))[:, None, :])
    assert np.array_equal(pooled_view.grad_psi(K), np.array(want_ps)[:, None, :])
    got, want = phi_grads(pooled_view, OM, tol), phi_grads(view, OM, tol)
    assert np.array_equal(got.psi, want.psi) and np.array_equal(got.grads, want.grads)
    assert got.errors == want.errors == (None,) * len(OM)


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


@PROPERTY
@given(
    kind=st.sampled_from([_StackedQuadratic, _StackedDomainAdapt, _SizeGroups]),
    pool=st.booleans(),
    K=st.integers(1, 4),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_leading_axes_are_separate_calls(kind, pool, K, scale, seed):
    """The joint-row contract: every view method at (K, N, d) rows is K calls at (N, d) rows, bit for bit."""
    rng = np.random.default_rng(seed)
    if kind is _StackedQuadratic:
        objs = quadratic_instance(*rng.integers(1, 6, size=3), seed)[0]
    else:
        objs = dann_instance(drop=7 if kind is _SizeGroups else 0)[0]
    view = stacked(objs)
    assert type(view) is kind
    if pool:
        view = pooled(view)
    Z = scale * rng.standard_normal((K, view.n, sum(view.dims)))
    for method in ("values", "joint_grads", "grad_psi"):
        got = getattr(view, method)(Z)
        want = np.stack([getattr(view, method)(Z[k]) for k in range(K)])
        assert got.shape == want.shape and np.array_equal(got, want)


def test_dann_oracles_on_unequal_shards():
    objs, OM, PS = dann_instance(drop=7)
    assert type(stacked(objs)) is _SizeGroups
    assert_oracles_match(objs, OM, PS, tol=1e-6)


def test_dann_oracles_on_equal_shards():
    objs, OM, PS = dann_instance(drop=0)
    assert type(stacked(objs)) is _StackedDomainAdapt
    assert_oracles_match(objs, OM, PS, tol=1e-6)


@PROPERTY
@given(
    in_dim=st.integers(1, 9),
    feat_dim=st.integers(1, 7),
    n_classes=st.integers(2, 9),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_curvature_bounds_equal_the_per_client_bound(in_dim, feat_dim, n_classes, sizes, seed):
    # shards of unequal sizes make a _SizeGroups view; feat_dim > 1 makes every gram a real matrix
    rng = np.random.default_rng(seed)
    layout = ModelLayout(in_dim, feat_dim, n_classes)
    objs = []
    for n in sizes:
        domain = rng.choice([SOURCE, TARGET], size=n)
        y = np.where(domain == SOURCE, rng.integers(0, n_classes, size=n), UNLABELED)
        data = DomainAdaptDataset(rng.standard_normal((n, in_dim)), y, domain)
        objs.append(DomainAdaptObjective(data, nu=0.5, layout=layout))
    om = 2.0 * rng.standard_normal(layout.d1)
    want = [dann_curvature_bound(o, om) for o in objs]
    bounds = stacked(objs).curvature_bounds(om[None])
    assert bounds.tolist() == want


def test_stacked_oracles_check():
    assert "bit-exact" in check_stacked_oracles()


def test_stacked_oracles_check_catches_a_doubled_nu(monkeypatch):
    # a planted fault in the batched DANN view: its domain terms weighted by 2 nu
    init = _StackedDomainAdapt.__init__

    def doubled(self, objectives):
        init(self, objectives)
        self.nu = 2.0 * self.nu

    monkeypatch.setattr(_StackedDomainAdapt, "__init__", doubled)
    with pytest.raises(AssertionError, match="stacked global loss differs"):
        check_stacked_oracles()


class Constant(StackedObjectives):
    """Test view whose client r's value is the fixed number c[r] everywhere."""

    dims = (1, 1)

    def __init__(self, c):
        self.c, self.n = np.array(c), len(c)

    def values(self, Z):
        return np.broadcast_to(self.c, Z.shape[:-1]).copy()


@pytest.mark.parametrize(
    "values",
    [[-0.0], [-0.0, -0.0, -0.0], [1e16, 1.0, -1e16], [0.1] * 10, [-0.0, 2.5, -2.5]],
)
def test_mean_value_is_a_zero_started_loop(values):
    got = float(pooled(Constant(values)).values(np.zeros((1, 2)))[0])
    want = functools.reduce(operator.add, values, 0.0) / len(values)  # a zero-started loop
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    if values == [1e16, 1.0, -1e16]:
        assert got == 0.0  # a compensated sum would give 1/3
