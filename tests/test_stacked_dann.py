"""The batched DANN views against an independent per-client reference.

`stacked()` gives plain DomainAdaptObjective clients with one layout, one nu
and one shard size a batched forward/backward pass, other plain lists one
such pass per (layout, nu, shard size) group, and each objective's own
methods are a one-row call of the same view. Every comparison is exact
(np.array_equal) against the plain-numpy formulas of `reference_math` and
the one-row views: batching and grouping must not change a single bit of any
row.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmm.core import ConvergenceError, RejectedRows, seeded_rng
from fedmm.objectives import (
    SOURCE,
    TARGET,
    UNLABELED,
    DomainAdaptDataset,
    DomainAdaptObjective,
    ModelLayout,
    PooledView,
    _SizeGroups,
    _StackedDomainAdapt,
    inner_maximizers,
    pooled,
    stacked,
)
from reference_math import dann_grad_psi, dann_grads, dann_value, ref_mean

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
LABELING = ("labeled", "unlabeled", "mixed")


def shard(rng, n, layout, labeling):
    """n points; every point labeled, none, or a random mix."""
    if labeling == "labeled":
        domain = np.full(n, SOURCE)
    elif labeling == "unlabeled":
        domain = np.full(n, TARGET)
    else:
        domain = rng.integers(0, 2, n)
    y = np.where(domain == SOURCE, rng.integers(0, layout.n_classes, n), UNLABELED)
    X = rng.choice([0.1, 1.0, 5.0]) * rng.standard_normal((n, layout.in_dim))
    return DomainAdaptDataset(X, y, domain)


def instance(n_clients, in_dim, feat_dim, n_classes, n_points, labelings, seed, nu=0.5):
    """Clients on equal-size shards and one random (omega, psi) row per client."""
    rng = np.random.default_rng(seed)
    layout = ModelLayout(in_dim, feat_dim, n_classes)
    objs = [
        DomainAdaptObjective(shard(rng, n_points, layout, labelings[r % len(labelings)]), nu, layout)
        for r in range(n_clients)
    ]
    OM = rng.choice([0.3, 1.0, 3.0]) * rng.standard_normal((n_clients, layout.d1))
    PS = rng.choice([0.3, 1.0, 3.0]) * rng.standard_normal((n_clients, layout.d2))
    return objs, OM, PS


def per_row(objs, OM, PS):
    """The reference's joint gradient rows and psi blocks, one client after the other."""
    G, G_psi = np.zeros((len(objs), OM.shape[1] + PS.shape[1])), np.zeros(PS.shape)
    for r, o in enumerate(objs):
        G_psi[r] = dann_grad_psi(o, OM[r], PS[r])
        G[r] = np.concatenate(dann_grads(o, OM[r], PS[r]))
    return G, G_psi


@PROPERTY
@given(
    n_clients=st.integers(1, 4),
    in_dim=st.integers(1, 4),
    feat_dim=st.integers(1, 3),
    n_classes=st.integers(2, 9),
    n_points=st.integers(1, 40),
    labelings=st.lists(st.sampled_from(LABELING), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_clients=2, in_dim=2, feat_dim=1, n_classes=2, n_points=60,
         labelings=["labeled", "unlabeled"], seed=0)
@example(n_clients=4, in_dim=4, feat_dim=3, n_classes=4, n_points=1,
         labelings=["mixed"], seed=1)
# from 8 classes up numpy's class-axis sum no longer adds left to right
@example(n_clients=2, in_dim=2, feat_dim=2, n_classes=9, n_points=25,
         labelings=["mixed", "labeled"], seed=2)
def test_batched_gradients_equal_the_per_row_ones(
    n_clients, in_dim, feat_dim, n_classes, n_points, labelings, seed
):
    objs, OM, PS = instance(n_clients, in_dim, feat_dim, n_classes, n_points, labelings, seed)
    view = stacked(objs)
    assert type(view) is _StackedDomainAdapt
    want, want_psi = per_row(objs, OM, PS)
    Z = np.hstack((OM, PS))
    assert np.array_equal(view.joint_grads(Z), want)
    assert np.array_equal(view.grad_psi(Z), want_psi)
    want_values = [dann_value(o, OM[r], PS[r]) for r, o in enumerate(objs)]
    assert np.array_equal(view.values(Z), want_values)
    # each objective alone is a one-row call of its own view
    for r, o in enumerate(objs):
        assert np.array_equal(o.grad_omega(OM[r], PS[r]), want[r, : OM.shape[1]])
        assert np.array_equal(o.grad_psi(OM[r], PS[r]), want_psi[r])
        assert o.value(OM[r], PS[r]) == want_values[r]


@PROPERTY
@given(
    sizes=st.lists(st.sampled_from([1, 6, 9, 12]), min_size=2, max_size=5),
    nus=st.lists(st.sampled_from([0.5, 0.25]), min_size=5, max_size=5),
    K=st.integers(1, 3),
    in_dim=st.integers(1, 3),
    feat_dim=st.integers(1, 3),
    n_classes=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[12, 6, 12, 9], nus=[0.5, 0.5, 0.25, 0.5, 0.5], K=2, in_dim=2, feat_dim=1,
         n_classes=2, seed=0)
def test_grouped_view_equals_one_row_views_and_the_reference(
    sizes, nus, K, in_dim, feat_dim, n_classes, seed
):
    """Unequal shards, sizes repeated out of order, two nus: every row's bits, at (K, N, d) points."""
    rng = np.random.default_rng(seed)
    layout = ModelLayout(in_dim, feat_dim, n_classes)
    objs = [
        DomainAdaptObjective(shard(rng, n, layout, LABELING[r % 3]), nus[r], layout)
        for r, n in enumerate(sizes)
    ]
    view, ones = stacked(objs), [stacked([o]) for o in objs]
    keys = list(dict.fromkeys((len(o.dataset), o.nu) for o in objs))
    assert type(view) is (_SizeGroups if len(keys) > 1 else _StackedDomainAdapt)
    N, (d1, d2) = len(objs), view.dims
    Z = rng.standard_normal((K, N, d1 + d2))
    got_values, got_joint_K, got_psi = view.values(Z), view.joint_grads(Z), view.grad_psi(Z)
    for k in range(K):
        got_joint = view.joint_grads(Z[k])
        for r, (o, one) in enumerate(zip(objs, ones)):
            om, ps = Z[k, r, :d1], Z[k, r, d1:]
            g_om, g_ps = dann_grads(o, om, ps)
            assert got_values[k, r] == dann_value(o, om, ps) == one.values(Z[k, r][None])[0]
            assert np.array_equal(got_joint[r], np.concatenate((g_om, g_ps)))
            assert np.array_equal(got_joint[r], one.joint_grads(Z[k, r][None])[0])
            assert np.array_equal(got_joint_K[k, r], got_joint[r])
            assert np.array_equal(got_psi[k, r], dann_grad_psi(o, om, ps))
            assert np.array_equal(got_psi[k, r], one.grad_psi(Z[k, r][None])[0])
    # the pooled row at client 0's K points: client-order averages of the references
    pool, P = pooled(view), Z[:, :1]
    assert type(pool) is PooledView
    for k in range(K):
        om, ps = P[k, 0, :d1], P[k, 0, d1:]
        total = 0.0
        for o in objs:
            total += dann_value(o, om, ps)
        assert pool.values(P)[k, 0] == total / N
        want = ref_mean([np.concatenate(dann_grads(o, om, ps)) for o in objs])
        assert np.array_equal(pool.joint_grads(P[k])[0], want)
        assert np.array_equal(pool.joint_grads(P)[k, 0], want)
        assert np.array_equal(pool.grad_psi(P)[k, 0], ref_mean([dann_grad_psi(o, om, ps) for o in objs]))


def toy_clients(sizes=(30, 30), nu=0.5, layout=ModelLayout(2, 1, 2), cls=DomainAdaptObjective):
    rng = seeded_rng(3)
    return [cls(shard(rng, n, layout, "mixed"), nu, layout) for n in sizes]


class _Tagged(DomainAdaptObjective):
    pass


@pytest.mark.parametrize(
    "objs",
    [
        pytest.param(toy_clients(sizes=(30, 29)), id="unequal_shards"),
        pytest.param(toy_clients(sizes=(30,))[:1] + toy_clients(nu=0.25)[1:], id="different_nu"),
        # (2, 1, 2) and (1, 1, 3) both give d1 = 4, d2 = 1
        pytest.param(toy_clients(sizes=(30,)) + toy_clients((30,), layout=ModelLayout(1, 1, 3)),
                     id="different_layout"),
    ],
)
def test_other_plain_lists_take_the_grouped_view(objs):
    view = stacked(objs)
    assert type(view) is _SizeGroups and [len(g.objectives) for g in view.groups] == [1, 1]
    rng, (d1, d2) = np.random.default_rng(6), view.dims
    OM, PS = rng.standard_normal((2, d1)), rng.standard_normal((2, d2))
    want, want_psi = per_row(objs, OM, PS)
    Z = np.hstack((OM, PS))
    assert np.array_equal(view.joint_grads(Z), want)
    assert np.array_equal(view.grad_psi(Z), want_psi)
    assert np.array_equal(view.values(Z), [dann_value(o, OM[r], PS[r]) for r, o in enumerate(objs)])


@pytest.mark.parametrize(
    "objs, name",
    [
        pytest.param(toy_clients(cls=_Tagged), "objective 0 is a _Tagged", id="subclass"),
        pytest.param(toy_clients(sizes=(30,)) + toy_clients((30,), cls=_Tagged),
                     "objective 1 is a _Tagged", id="one_subclass"),
    ],
)
def test_subclasses_are_rejected(objs, name):
    with pytest.raises(ValueError, match=name):
        stacked(objs)


def test_equal_shards_take_the_batched_view():
    assert type(stacked(toy_clients())) is _StackedDomainAdapt
    assert type(stacked(toy_clients(sizes=(30,)))) is _StackedDomainAdapt


@pytest.mark.parametrize("block, scale", [("grads", 1e200), ("grad_psi", 1e308)])
def test_nonfinite_gradient_raises_the_same_error_on_both_paths(block, scale):
    """Both gradient blocks (joint_grads) or the psi block alone, on one-row views and batched.

    Every view names its first rejected row: the batched view's first client.
    """
    objs = toy_clients()
    d1, d2 = objs[0].dims
    OM, PS = np.full((2, d1), scale), np.ones((2, d2))

    def call(view, rows):
        Z = np.hstack((OM[rows], PS[rows]))
        return view.joint_grads(Z) if block == "grads" else view.grad_psi(Z)

    with np.errstate(all="ignore"):
        with pytest.raises(RejectedRows) as want:
            call(stacked(objs[1:]), slice(1, 2))
        with pytest.raises(RejectedRows) as got:
            call(stacked(objs), slice(None))
    assert str(got.value) == str(want.value)
    assert "non-finite" in str(want.value)
    assert (got.value.row, want.value.row) == (0, 0)


def test_batched_joint_grads_is_one_pass_per_point(monkeypatch):
    """K = 3 points per client, the shape of the pooled view's Danskin gradients at 3 omegas."""
    objs, _, _ = instance(2, 2, 2, 3, 20, ["mixed", "labeled"], seed=4)
    rng = np.random.default_rng(5)
    d1, d2 = objs[0].dims
    OM, PS = rng.standard_normal((3, 2, d1)), rng.standard_normal((3, 2, d2))
    want = np.array(
        [[np.concatenate(dann_grads(o, OM[k, r], PS[k, r])) for r, o in enumerate(objs)] for k in range(3)]
    )
    passes = []
    joint_grads = _StackedDomainAdapt.joint_grads

    def counted(self, points):
        passes.append(points.shape)
        return joint_grads(self, points)

    monkeypatch.setattr(_StackedDomainAdapt, "joint_grads", counted)
    Z = np.concatenate((OM, PS), axis=-1)
    assert np.array_equal(stacked(objs).joint_grads(Z), want)
    assert passes == [(3, 2, d1 + d2)] + [(2, d1 + d2)] * 3
    # the (N, d) points of a local step: one pass
    assert np.array_equal(stacked(objs).joint_grads(Z[0]), want[0])
    assert passes[4:] == [(2, d1 + d2)]


@pytest.mark.parametrize("sizes", [(30, 29), (30, 30)], ids=["grouped", "batched"])
def test_nonfinite_ascent_gradient_is_a_failed_inner_solve(sizes):
    """The metric oracles empty their field on a ConvergenceError; a ValueError would escape."""
    objs = toy_clients(sizes)
    omega = np.full((1, objs[0].dims[0]), 1e200)
    with np.errstate(all="ignore"):
        psi, (error,) = inner_maximizers(stacked(objs), omega, 1e-6)
    assert isinstance(error, ConvergenceError) and np.isnan(psi).all()
    assert error.grad_norm == np.inf and error.iterations == 0


@pytest.mark.parametrize("method", ["joint_grads", "grad_psi"])
def test_a_pooled_view_names_its_own_row_for_a_rejecting_client(method):
    """A pooled view has one row, so a client's rejected gradient is its row 0.

    Ten labeled source points at unit scale and two 6-point target shards
    whose features are of order 1e307: at a point of all 10s the target
    clients' gradients overflow, in the second group of a size-grouped view.
    """
    layout, rng = ModelLayout(2, 1, 2), np.random.default_rng(0)
    source = DomainAdaptDataset(rng.standard_normal((10, 2)), rng.integers(0, 2, 10), np.full(10, SOURCE))
    targets = [
        DomainAdaptDataset(1e307 * rng.standard_normal((6, 2)), np.full(6, UNLABELED), np.full(6, TARGET))
        for _ in range(2)
    ]
    view = stacked([DomainAdaptObjective(d, 0.5, layout) for d in (source, *targets)])
    assert type(view) is _SizeGroups
    pool, d1 = pooled(view), layout.d1
    z = np.full((1, d1 + layout.d2), 10.0)
    with np.errstate(all="ignore"), pytest.raises(RejectedRows) as rejected:
        getattr(pool, method)(z)
    assert pool.n == 1 and rejected.value.row == 0
    with np.errstate(all="ignore"), pytest.raises(RejectedRows) as by_client:
        getattr(view, method)(np.repeat(z, 3, axis=0))
    assert by_client.value.row > 0  # the clients' own view names a target client
