"""One LocalRound kept across a run against one rebuilt every round, bit for bit.

A run builds its `LocalRound` once and calls it every round; a one-off
round builds one per call. Both must give the same federation records and
upload rows: for all five optimizers, unequal M_i, a decaying upload weight
(eta3 < 1, where U changes every round), minibatch DANN (where the view
changes every round) and run-to-tolerance rounds. A record that a round
returns shares no memory with what the round keeps, so no later round can
write into it.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmm.cli import parse_config
from fedmm.core import HyperParams, PrimalDualPair, vector
from fedmm.federation import prepare
from fedmm.objectives import DomainAdaptObjective, PooledView, QuadraticSaddle, QuadraticSaddleSpec, stacked
from fedmm.optim import Federation, LocalRound, OptimizerKind, fedmm_aggregate
from fedmm.problems import synthetic_quadratic_specs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
K = OptimizerKind


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def record(fed: Federation, up: np.ndarray) -> tuple[bytes, ...]:
    return bits(fed.Z), bits(fed.D), bits(up)


def kept_arrays(local: LocalRound) -> list[np.ndarray]:
    return [a for a in vars(local).values() if isinstance(a, np.ndarray)]


def run_both(kind, views, pair, hp):
    """Each round's (Z, D, upload) bytes from one kept round and from a round rebuilt every round.

    views gives each round's view; each side keeps its own federation and global pair.
    """
    views = list(views)
    local = LocalRound(kind, views[0], hp)
    kept, rebuilt = [], []
    fed_a = fed_b = Federation.initial(views[0], pair)
    pair_a = pair_b = pair
    for t, view in enumerate(views):
        fed_a, up_a = local(Federation(view, fed_a.Z, fed_a.D), pair_a, t)
        fed_b, up_b = LocalRound(kind, view, hp)(Federation(view, fed_b.Z, fed_b.D), pair_b, t)
        for a in (fed_a.Z, fed_a.D, up_a):
            assert not any(np.shares_memory(a, b) for b in kept_arrays(local))
        kept.append(record(fed_a, up_a))
        rebuilt.append(record(fed_b, up_b))
        pair_a, pair_b = fedmm_aggregate(up_a, view.dims[0]), fedmm_aggregate(up_b, view.dims[0])
    return kept, rebuilt


@st.composite
def quadratic_runs(draw):
    kind = draw(st.sampled_from(list(K)))
    n = 1 if kind is K.CENTRAL_GDA else draw(st.integers(1, 5))
    d1, d2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    hp = HyperParams(
        eta1=draw(st.sampled_from([0.05, 0.1, 0.2])),
        eta2=draw(st.sampled_from([0.05, 0.1, 0.2])),
        eta3=draw(st.sampled_from([1.0, 0.7])),
        prox_mu=draw(st.sampled_from([0.0, 0.5])),
        local_steps=tuple(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))),
        local_tol=draw(st.sampled_from([0.0, 1e-6])),
    )
    seed = draw(st.integers(0, 2**16))
    return kind, synthetic_quadratic_specs(n, d1, d2, seed=seed), hp, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(quadratic_runs())
def test_a_kept_round_equals_a_rebuilt_round(case):
    kind, specs, hp, rounds = case
    view = stacked([QuadraticSaddle(s) for s in specs])
    d1, d2 = view.dims
    pair = PrimalDualPair(vector(np.full(d1, 0.1)), vector(np.full(d2, -0.1)))
    if kind is K.CENTRAL_GDA:
        view = PooledView(view)
    kept, rebuilt = run_both(kind, [view] * rounds, pair, hp)
    assert kept == rebuilt


def test_minibatch_dann_rounds_on_a_new_view_each_round():
    # the label-shift toy at 16 points per client a round: every round samples a new view
    config = parse_config(CONFIGS / "label_shift_fedmm.cfg", ["batch_size=16", "hyper.local_steps=5"])
    problem = prepare(config)
    rng = np.random.Generator(np.random.PCG64(problem.batch_seq))
    objs = problem.view.objectives
    views = [
        stacked([DomainAdaptObjective(o.dataset.sample(rng, 16), config.hyper.nu, o.layout) for o in objs])
        for _ in range(4)
    ]
    assert len({id(v) for v in views}) == 4
    for kind in (K.FEDMM, K.FEDAVG_GDA, K.FEDSGDA):
        kept, rebuilt = run_both(kind, views, problem.init_pair, config.hyper.expanded(len(objs)))
        assert kept == rebuilt


def test_a_round_converged_at_pass_zero_returns_fresh_arrays():
    # A = 0, B = I, C = I, a = c = 0: the origin is every client's saddle, so the
    # run-to-tolerance loop ends at pass 0, before its first step
    d = 3
    spec = QuadraticSaddleSpec(
        A=np.zeros((d, d)), B=np.eye(d), C=np.eye(d), a=vector(np.zeros(d)), c=vector(np.zeros(d))
    )
    view = stacked([QuadraticSaddle(spec)] * 2)
    pair = PrimalDualPair(vector(np.zeros(d)), vector(np.zeros(d)))
    local = LocalRound(K.FEDMM, view, HyperParams(local_tol=1e-10))
    fed = Federation.initial(view, pair)
    first, up = local(fed, pair)
    second, up_2 = local(first, pair, 1)
    one_off = LocalRound(K.FEDMM, view, local.hp)(fed, pair)
    assert record(first, up) == record(second, up_2) == record(*one_off)
    returned = (first.Z, first.D, up, second.Z, second.D, up_2)
    for i, a in enumerate(returned):
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in kept_arrays(local))
        assert not any(np.shares_memory(a, b) for b in returned[i + 1 :])
        assert not any(np.shares_memory(a, b) for b in (fed.Z, fed.D, pair.row))
