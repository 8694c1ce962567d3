"""The batched phi oracle against one-omega calls, bit for bit.

`objectives.phi_grads` evaluates the max function's Danskin gradient at K
omegas at once; `MetricsBlock.flush` calls it once per block on the sampled
rounds' omegas. On quadratic views the closed form runs as stacked calls,
and every omega's gradient must be exactly what a one-omega
`phi_value_and_grad` call and the one-omega closed form written out here
(one solve, then the pooled view's joint gradient) give. DANN's gradient ascent runs omega by
omega, and a failed ascent fails only its own omega.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedmm import federation
from fedmm.core import ConvergenceError, HyperParams, PrimalDualPair, ServerState, seeded_rng, vector
from fedmm.federation import (
    ExperimentConfig,
    MetricsBlock,
    PartitionSpec,
    ProblemKind,
    RunLog,
    partition_label_shift,
    prepare,
)
from fedmm.objectives import (
    DomainAdaptObjective,
    PooledView,
    QuadraticSaddle,
    _StackedQuadratic,
    inner_maximizers,
    phi_grads,
    phi_value_and_grad,
    pooled,
    quadratic_bars,
    stacked,
)
from fedmm.optim import Federation, LocalRound, OptimizerKind, run_round
from fedmm.problems import domain_shift_toy, synthetic_quadratic_specs

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# finite entries with both zeros and magnitudes up to 1e100, far from overflow
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
)


def _views(specs):
    """The two quadratic oracle views: batched, and central GDA's pooled view."""
    plain = [QuadraticSaddle(s) for s in specs]
    return {
        "batched": stacked(plain),
        # prepare() gives central GDA on quadratics this view of its clients
        "pooled": PooledView(stacked(plain)),
    }


def _one_omega_closed_form(view, omega):
    """The one-omega Danskin gradient written out: psi* by one solve, then the pooled joint gradient."""
    bars = quadratic_bars(view)
    psi_star = vector(np.linalg.solve(bars.C, bars.B.T @ omega + bars.c))
    return pooled(view).joint_grads(np.hstack((omega, psi_star))[None])[0, : len(omega)]


@st.composite
def _instances(draw):
    n, d1, d2 = (draw(st.integers(1, 6)) for _ in range(3))
    seed = draw(st.integers(0, 10_000))
    try:
        specs = synthetic_quadratic_specs(n, d1, d2, seed=seed)
    except RuntimeError:  # no PD max-function Hessian within the generator's 64 seeds
        assume(False)
    omegas = draw(arrays(np.float64, (draw(st.integers(1, 64)), d1), elements=_ENTRIES))
    return specs, omegas


@PROPERTY
@given(instance=_instances())
def test_batched_gradients_equal_one_omega_calls(instance):
    specs, omegas = instance
    for name, view in _views(specs).items():
        out = phi_grads(view, omegas, 1e-12)
        assert out.grads.shape == omegas.shape and out.errors == (None,) * len(omegas), name
        for k, omega in enumerate(omegas):
            _, grad = phi_value_and_grad(view, vector(omega), 1e-12)
            assert np.array_equal(out.grads[k], grad), (name, k)
            assert np.array_equal(out.grads[k], _one_omega_closed_form(view, vector(omega)))
            assert np.array_equal(out.psi[k], inner_maximizers(view, omegas[k : k + 1], 1e-12)[0][0])


def test_the_views_are_the_ones_named():
    views = _views(synthetic_quadratic_specs(3))
    assert type(views["batched"]) is _StackedQuadratic
    central = prepare(ExperimentConfig(OptimizerKind.CENTRAL_GDA, ProblemKind.QUADRATIC)).view
    for pooled in (central, views["pooled"]):
        assert type(pooled) is PooledView and type(pooled.clients) is _StackedQuadratic


def _dann_view():
    train, _, layout = domain_shift_toy(seeded_rng(5), n_per_domain=12, holdout_n=4)
    shards = partition_label_shift(train, PartitionSpec(p=1.0), seeded_rng(6))
    view = stacked([DomainAdaptObjective(s, 0.5, layout) for s in shards])
    return view, layout


def test_a_failed_dann_ascent_fails_only_its_own_omega():
    view, layout = _dann_view()
    omegas = seeded_rng(7).standard_normal((4, layout.d1))
    omegas[3] = 0.0  # zero features: the ascent stops before its first step
    # at 200 steps the first omega's ascent is still short of tol, the others are not
    out = phi_grads(view, omegas, 1e-8, max_iters=200)
    assert [e is not None for e in out.errors] == [True, False, False, False]
    assert isinstance(out.errors[0], ConvergenceError) and out.errors[0].iterations == 200
    assert np.isnan(out.grads[0]).all() and np.isnan(out.psi[0]).all()
    with pytest.raises(ConvergenceError):
        phi_value_and_grad(view, vector(omegas[0]), 1e-8, max_iters=200)
    for k in (1, 2, 3):
        _, grad = phi_value_and_grad(view, vector(omegas[k]), 1e-8, max_iters=200)
        assert np.array_equal(out.grads[k], grad)
        psi, _ = inner_maximizers(view, omegas[k : k + 1], 1e-8, max_iters=200)
        assert np.array_equal(out.psi[k], psi[0])


def _quadratic_block(rounds: int, every: int):
    """A MetricsBlock holding `rounds` FedMM rounds of a 3-client quadratic, every `every`-th sampled."""
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
    start = PrimalDualPair(vector(np.zeros(4)), vector(np.zeros(3)))
    server, fed = ServerState(start), Federation.initial(objs, start)
    block = MetricsBlock(fed.view, rounds, 1e-12)
    hp = HyperParams(eta1=0.1, eta2=0.1, local_steps=(3,))
    for t in range(rounds):
        fed = run_round(LocalRound(OptimizerKind.FEDMM, fed.view, hp), fed, server)
        block.add(t, fed, server, t % every == 0)
    return block


def _flushed(block: MetricsBlock):
    """The block's rows, flushed into a fresh RunLog."""
    log = RunLog()
    block.flush(log)
    return log.rounds


def test_a_flush_makes_one_batched_solve_and_never_evaluates_phi(monkeypatch):
    block = _quadratic_block(rounds=20, every=3)
    calls = {"solve": [], "pooled_values": 0, "values": 0}
    solve, values, pooled_values = np.linalg.solve, _StackedQuadratic.values, PooledView.values

    def counted_solve(a, b):
        calls["solve"].append(b.shape)
        return solve(a, b)

    def counted_pooled_values(self, Z):
        calls["pooled_values"] += 1
        return pooled_values(self, Z)

    def counted_values(self, Z):
        calls["values"] += 1
        return values(self, Z)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(PooledView, "values", counted_pooled_values)
    monkeypatch.setattr(_StackedQuadratic, "values", counted_values)
    rows = _flushed(block)
    sampled = [r.round for r in rows if r.phi_grad_norm is not None]
    assert sampled == list(range(0, 20, 3))
    assert calls["solve"] == [(len(sampled), 3, 1)]  # one solve for all 7 sampled rounds
    # the global loss at the rounds' pairs, not Phi at psi*
    assert calls["pooled_values"] == calls["values"] == 1


def test_flush_phi_norms_equal_one_round_calls():
    block = _quadratic_block(rounds=12, every=1)
    omegas = block.P[:12, :4].copy()
    for row, omega in zip(_flushed(block), omegas):
        _, grad = phi_value_and_grad(block.view, vector(omega), 1e-12)
        assert row.phi_grad_norm == float(np.linalg.norm(grad))



def test_a_failed_inner_max_empties_only_its_own_round(monkeypatch):
    """Rounds 0, 2 and 4 are sampled and round 2's inner max fails: its field is None, not NaN."""
    block = _quadratic_block(rounds=6, every=2)
    real = federation.phi_grads

    def second_fails(view, omegas, tol, max_iters):
        out = real(view, omegas, tol, max_iters=max_iters)
        grads, errors = out.grads.copy(), list(out.errors)
        grads[1], errors[1] = np.nan, ConvergenceError("inner_max gradient ascent", np.inf, 0)
        return out._replace(grads=grads, errors=errors)

    monkeypatch.setattr(federation, "phi_grads", second_fails)
    log = RunLog()
    block.flush(log)
    phi = [row.phi_grad_norm for row in log.rounds]
    assert [v is None for v in phi] == [False, True, True, True, False, True]
    assert log.missing("phi_grad_norm").tolist() == [False, True, True, True, False, True]
    assert all(isinstance(phi[b], float) and phi[b] > 0 for b in (0, 4))
