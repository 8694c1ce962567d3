"""The batched DANN view against an independent per-client reference.

`stacked()` gives plain DomainAdaptObjective clients with one layout, one nu
and one shard size a batched forward/backward pass, and each objective's own
methods are a one-row call of the same view. Every comparison is exact
(np.array_equal) against the plain-numpy formulas of `reference_math`:
batching must not change a single bit of any row.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmm.core import ConvergenceError, seeded_rng
from fedmm.objectives import (
    SOURCE,
    TARGET,
    UNLABELED,
    DomainAdaptDataset,
    DomainAdaptObjective,
    ModelLayout,
    StackedObjectives,
    _StackedDomainAdapt,
    inner_max,
    stacked,
)
from reference_math import dann_grad_psi, dann_grads, dann_value

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
    n_classes=st.integers(2, 4),
    n_points=st.integers(1, 40),
    labelings=st.lists(st.sampled_from(LABELING), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_clients=2, in_dim=2, feat_dim=1, n_classes=2, n_points=60,
         labelings=["labeled", "unlabeled"], seed=0)
@example(n_clients=4, in_dim=4, feat_dim=3, n_classes=4, n_points=1,
         labelings=["mixed"], seed=1)
def test_batched_gradients_equal_the_per_row_ones(
    n_clients, in_dim, feat_dim, n_classes, n_points, labelings, seed
):
    objs, OM, PS = instance(n_clients, in_dim, feat_dim, n_classes, n_points, labelings, seed)
    view = stacked(objs)
    assert type(view) is _StackedDomainAdapt
    want, want_psi = per_row(objs, OM, PS)
    assert np.array_equal(view.joint_grads(np.hstack((OM, PS))), want)
    assert np.array_equal(view.grad_psi(OM, PS), want_psi)
    want_values = [dann_value(o, OM[r], PS[r]) for r, o in enumerate(objs)]
    assert np.array_equal(view.values(OM, PS), want_values)
    # each objective alone is a one-row call of its own view
    for r, o in enumerate(objs):
        assert np.array_equal(np.concatenate(o.grads(OM[r], PS[r])), want[r])
        assert np.array_equal(o.grad_psi(OM[r], PS[r]), want_psi[r])
        assert o.value(OM[r], PS[r]) == want_values[r]


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
        pytest.param(toy_clients(cls=_Tagged), id="subclass"),
        pytest.param(toy_clients(sizes=(30,)) + toy_clients((30,), cls=_Tagged), id="one_subclass"),
    ],
)
def test_other_lists_take_the_per_row_view(objs):
    assert type(stacked(objs)) is StackedObjectives


def test_equal_shards_take_the_batched_view():
    assert type(stacked(toy_clients())) is _StackedDomainAdapt
    assert type(stacked(toy_clients(sizes=(30,)))) is _StackedDomainAdapt


@pytest.mark.parametrize("block, scale", [("grads", 1e200), ("grad_psi", 1e308)])
def test_nonfinite_gradient_raises_the_same_error_on_both_paths(block, scale):
    """Both gradient blocks (joint_grads) or the psi block alone, per-row and batched."""
    objs = toy_clients()
    d1, d2 = objs[0].dims
    OM, PS = np.full((2, d1), scale), np.ones((2, d2))

    def call(view):
        return view.joint_grads(np.hstack((OM, PS))) if block == "grads" else view.grad_psi(OM, PS)

    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as want:
            call(StackedObjectives(objs))
        with pytest.raises(ValueError) as got:
            call(stacked(objs))
    assert str(got.value) == str(want.value)
    assert "non-finite" in str(want.value)



@pytest.mark.parametrize("view_type", [StackedObjectives, stacked], ids=["per_row", "batched"])
def test_nonfinite_ascent_gradient_is_a_failed_inner_solve(view_type):
    """The metric oracles empty their field on a ConvergenceError; a ValueError would escape."""
    objs = toy_clients()
    omega = np.full(objs[0].dims[0], 1e200)
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc:
        inner_max(view_type(objs), omega, 1e-6)
    assert exc.value.grad_norm == np.inf and exc.value.iterations == 0
