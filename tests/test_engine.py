"""The client-stacked local solve against a plain per-client numpy reference.

The reference is `reference_math.per_block_round` on the plain-numpy client
formulas of `fedmm.checks`, which call no objective method and no view: on
quadratic and DANN clients, and on the pooled client (`MeanOfClients`) that
central GDA trains. Every comparison is exact (np.array_equal): stacking the
clients must not change a single bit of any client's iterates, duals,
uploads or the average.
"""

import gc
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedmm.checks import check_row_independence, quad_grad_omega, quad_grad_psi
from fedmm.cli import parse_config
from fedmm.core import (
    ConvergenceError,
    DivergenceError,
    HyperParams,
    PrimalDualPair,
    ServerState,
    seeded_rng,
    vector,
)
from fedmm.federation import PartitionMode, PartitionSpec, partition_label_shift, prepare, run_experiment
from fedmm.objectives import (
    SOURCE,
    TARGET,
    UNLABELED,
    DomainAdaptDataset,
    DomainAdaptObjective,
    PooledView,
    QuadraticSaddle,
    QuadraticSaddleSpec,
    StackedObjectives,
    _SizeGroups,
    _StackedDomainAdapt,
    phi_grads,
    save_dataset,
    stacked,
)
from fedmm.optim import Federation, LocalRound, OptimizerKind, run_round
from fedmm.problems import domain_shift_toy, synthetic_quadratic_specs
from reference_math import MULTI_STEP, MeanOfClients, per_block_round

K = OptimizerKind
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FEDERATED = (K.FEDMM, K.FEDSGDA, K.FEDAVG_GDA, K.FEDPROX_GDA)


def assert_rounds_match(kind, objectives, hp, rounds=3, local_tol=None, start=None, view=None):
    """Run `rounds` stacked rounds, checking each one against `per_block_round`.

    The engine steps `view` when one is given, else the objectives' own view.
    """
    d1, d2 = objectives[0].dims
    if start is None:
        rng = seeded_rng(5)
        start = PrimalDualPair(vector(0.1 * rng.standard_normal(d1)), vector(0.1 * rng.standard_normal(d2)))
    server = ServerState(start)
    fed = Federation.initial(objectives if view is None else view, start)
    hp = hp.expanded(fed.n)
    for t in range(rounds):
        (om, ps, lam, beta, _, _), want_bar = per_block_round(
            kind, objectives, fed.lam, fed.beta, server.global_pair, hp, t, local_tol
        )
        fed = run_round(LocalRound(kind, fed.view, replace(hp, local_tol=local_tol or 0.0)), fed, server)
        assert np.array_equal(server.global_pair.omega, want_bar[0])
        assert np.array_equal(server.global_pair.psi, want_bar[1])
        assert np.array_equal(fed.omega, om) and np.array_equal(fed.psi, ps)
        assert np.array_equal(fed.lam, lam) and np.array_equal(fed.beta, beta)
    return fed


def quadratics(n, d1=4, d2=3):
    return [QuadraticSaddle(s) for s in synthetic_quadratic_specs(n, d1, d2)]


def dann_shards():
    """Three DANN clients on shards of 40, 20 and 20 points."""
    train, _, layout = domain_shift_toy(seeded_rng(8), n_per_domain=40, holdout_n=4)
    spec = PartitionSpec(mode=PartitionMode.ONE_SOURCE_TWO_TARGET)
    shards = partition_label_shift(train, spec, seeded_rng(9))
    assert sorted(len(s) for s in shards) == [20, 20, 40]
    return [DomainAdaptObjective(s, nu=0.5, layout=layout) for s in shards]


def equal_dann_shards(p):
    """Two DANN clients on the toy's 40-point shards at p (1.0: all labeled points on client 0)."""
    train, _, layout = domain_shift_toy(seeded_rng(8), n_per_domain=40, holdout_n=4)
    shards = partition_label_shift(train, PartitionSpec(p=p), seeded_rng(9))
    objs = [DomainAdaptObjective(s, nu=0.5, layout=layout) for s in shards]
    assert type(stacked(objs)) is _StackedDomainAdapt
    return objs


class TestStackedEqualsReference:
    @pytest.mark.parametrize("kind", FEDERATED)
    @pytest.mark.parametrize("n", [1, 3, 32])
    def test_quadratic_fixed_steps(self, kind, n):
        objs = quadratics(n, 6, 4) if n == 32 else quadratics(n)
        hp = HyperParams(eta1=0.05, eta2=0.05, mu1=0.8, mu2=1.3, eta3=0.9, prox_mu=0.4, local_steps=(7,))
        assert_rounds_match(kind, objs, hp)

    @pytest.mark.parametrize("kind", FEDERATED)
    def test_heterogeneous_local_steps(self, kind):
        hp = HyperParams(eta1=0.1, eta2=0.1, local_steps=(20, 20, 25))
        assert_rounds_match(kind, quadratics(3), hp)

    @pytest.mark.parametrize("kind", FEDERATED)
    def test_dann_shards_of_unequal_size(self, kind):
        hp = HyperParams(eta1=0.1, eta2=0.25, nu=0.5, local_steps=(5, 8, 5))
        assert_rounds_match(kind, dann_shards(), hp, rounds=2)

    @pytest.mark.parametrize("kind", FEDERATED)
    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_dann_shards_of_equal_size(self, kind, p):
        hp = HyperParams(eta1=0.1, eta2=0.25, nu=0.5, local_steps=(5, 8))
        assert_rounds_match(kind, equal_dann_shards(p), hp, rounds=2)

    @pytest.mark.parametrize("n", [1, 32])
    def test_central_gda(self, n):
        # central GDA trains one row: one client alone, or the pooled view of n clients
        objs, hp = quadratics(n), HyperParams(eta1=0.05, eta2=0.05)
        if n == 1:
            assert_rounds_match(K.CENTRAL_GDA, objs, hp, rounds=5)
        else:
            pooled = PooledView(stacked(objs))
            assert_rounds_match(K.CENTRAL_GDA, [MeanOfClients(objs)], hp, rounds=5, view=pooled)

    def test_central_gda_dann(self):
        # the pooled view of unequal DANN shards, which sit on the size-grouped view
        objs = dann_shards()
        pooled = PooledView(stacked(objs))
        assert type(pooled.clients) is _SizeGroups
        hp = HyperParams(eta1=0.1, eta2=0.25)
        assert_rounds_match(K.CENTRAL_GDA, [MeanOfClients(objs)], hp, rounds=3, view=pooled)

    def test_prox_zero_takes_no_penalty(self):
        hp = HyperParams(eta1=0.05, eta2=0.05, prox_mu=0.0, local_steps=(9,))
        objs = quadratics(3)
        a = assert_rounds_match(K.FEDPROX_GDA, objs, hp)
        b = assert_rounds_match(K.FEDAVG_GDA, objs, hp)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.psi, b.psi)


class TestRunToTolerance:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_matches_reference(self, n):
        objs = quadratics(n, 10, 6) if n == 8 else quadratics(n)
        hp = HyperParams(eta1=0.2, eta2=0.2)
        assert_rounds_match(K.FEDMM, objs, hp, rounds=4, local_tol=1e-10)

    def test_dann_matches_reference(self):
        hp = HyperParams(eta1=0.1, eta2=0.25, nu=0.5, local_max_iters=2000)
        assert_rounds_match(K.FEDMM, dann_shards(), hp, rounds=2, local_tol=1e-5)

    def test_dann_equal_shards_match_reference(self):
        hp = HyperParams(eta1=0.1, eta2=0.25, nu=0.5, local_max_iters=2000)
        assert_rounds_match(K.FEDMM, equal_dann_shards(0.5), hp, rounds=2, local_tol=1e-5)

    def test_convergence_error_names_the_failing_client(self):
        # client 0 starts at its own saddle and converges at once; 1 and 2 hit the cap
        d = 2
        still = QuadraticSaddle(
            QuadraticSaddleSpec(A=np.zeros((d, d)), B=np.eye(d), C=np.eye(d), a=np.zeros(d), c=np.zeros(d))
        )
        objs = [still] + quadratics(2, d, d)
        hp = HyperParams(eta1=0.2, eta2=0.2, local_max_iters=5).expanded(3)
        start = PrimalDualPair(vector(np.zeros(d)), vector(np.zeros(d)))
        fed = Federation.initial(objs, start)
        with pytest.raises(ConvergenceError) as want:
            per_block_round(K.FEDMM, objs, fed.lam, fed.beta, start, hp, 0, local_tol=1e-10)
        with pytest.raises(ConvergenceError) as got:
            run_round(LocalRound(K.FEDMM, fed.view, replace(hp, local_tol=1e-10)), fed, ServerState(start))
        assert "(client 1)" in str(got.value) and "client 1" in str(want.value)
        assert got.value.grad_norm == want.value.grad_norm
        assert got.value.iterations == want.value.iterations == 5


class TestRoundErrors:
    def test_divergence_names_the_diverging_client_and_step(self):
        calm = QuadraticSaddleSpec(
            A=np.zeros((1, 1)), B=np.zeros((1, 1)), C=np.eye(1), a=np.zeros(1), c=np.zeros(1)
        )
        wild = QuadraticSaddleSpec(
            A=np.array([[-100.0]]), B=np.zeros((1, 1)), C=np.eye(1), a=np.ones(1), c=np.zeros(1)
        )
        objs = [QuadraticSaddle(calm), QuadraticSaddle(calm), QuadraticSaddle(wild)]
        start = PrimalDualPair(vector([1.0]), vector([0.0]))
        hp = HyperParams(eta1=10.0, eta2=0.1, local_steps=(500,))
        # the step at which client 2 alone first passes the divergence cap
        om, want_step = 1.0, None
        for m in range(500):
            om = om - hp.eta1 * (-100.0 * om + 1.0)
            if not abs(om) <= 1e100:
                want_step = m
                break
        assert want_step is not None
        for kind in MULTI_STEP:
            with pytest.raises(DivergenceError) as exc:
                fed = Federation.initial(objs, start)
                run_round(LocalRound(kind, fed.view, hp), fed, ServerState(start))
            assert "(client 2)" in exc.value.where
            assert exc.value.step == want_step

    def test_lowest_failing_client_is_named(self):
        wild = QuadraticSaddle(
            QuadraticSaddleSpec(
                A=np.array([[-100.0]]), B=np.zeros((1, 1)), C=np.eye(1), a=np.ones(1), c=np.zeros(1)
            )
        )
        start = PrimalDualPair(vector([1.0]), vector([0.0]))
        fed = Federation.initial([wild] * 3, start)
        with pytest.raises(DivergenceError) as exc:
            run_round(LocalRound(K.FEDAVG_GDA, fed.view, HyperParams(eta1=10.0, local_steps=(500,))), fed, ServerState(start))
        assert "(client 0)" in exc.value.where

    @pytest.mark.parametrize("local_steps", [(5, 8), (5, 8, 9, 9)])
    def test_local_steps_of_another_length_rejected(self, local_steps):
        start = PrimalDualPair(vector(np.zeros(4)), vector(np.zeros(3)))
        fed = Federation.initial(quadratics(3), start)
        with pytest.raises(ValueError, match="local_steps has"):
            run_round(LocalRound(K.FEDMM, fed.view, HyperParams(local_steps=local_steps)), fed, ServerState(start))

    def test_disagreeing_dims_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            stacked(quadratics(1) + quadratics(1, 5, 3))


class TestStackedView:
    def test_quadratic_rows_match_single_client_gradients(self):
        objs = quadratics(6)
        rng = seeded_rng(3)
        OM, PS = rng.standard_normal((6, 4)), rng.standard_normal((6, 3))
        G = stacked(objs).joint_grads(np.hstack((OM, PS)))
        for r, o in enumerate(objs):
            assert np.array_equal(G[r, :4], quad_grad_omega(o, OM[r], PS[r]))
            assert np.array_equal(G[r, 4:], quad_grad_psi(o, OM[r], PS[r]))

    def test_subclasses_are_rejected(self):
        class Scaled(QuadraticSaddle):
            def grad_omega(self, omega, psi):
                return 2.0 * super().grad_omega(omega, psi)

        spec = synthetic_quadratic_specs(1)[0]
        with pytest.raises(ValueError, match="objective 0 is a Scaled"):
            stacked([Scaled(spec), QuadraticSaddle(spec)])
        with pytest.raises(ValueError, match="objective 1 is a Scaled"):
            stacked([QuadraticSaddle(spec), Scaled(spec)])

    def test_built_once_per_set_of_objectives(self):
        # stacked() caches nothing; a run's record builds its view once and keeps it
        objs = quadratics(3)
        assert stacked(objs) is not stacked(objs)
        start = PrimalDualPair(vector(np.zeros(4)), vector(np.zeros(3)))
        fed = Federation.initial(objs, start)
        server = ServerState(start)
        hp = HyperParams(eta1=0.1, eta2=0.1)
        local = LocalRound(K.FEDMM, fed.view, hp)
        after = run_round(local, run_round(local, fed, server), server)
        assert after.view is fed.view

    def test_finished_run_keeps_no_objectives_alive(self):
        config = parse_config(CONFIGS / "quadratic_fedmm.cfg", ["hyper.rounds=3"])

        def live():
            gc.collect()
            return sum(isinstance(o, (QuadraticSaddle, StackedObjectives)) for o in gc.get_objects())

        before = live()
        assert len(run_experiment(config).rounds) == 3
        assert live() == before

    @pytest.mark.parametrize(
        "override", [[], ["partition.mode=one_source_two_target"], ["batch_size=32"], ["optimizer=central_gda"]]
    )
    def test_finished_dann_run_leaves_no_cycles(self, override):
        # with the collector off, anything a finished run left in a reference cycle still counts as live
        config = parse_config(CONFIGS / "label_shift_fedmm.cfg", ["hyper.rounds=60", *override])

        def live():
            return sum(isinstance(o, (DomainAdaptObjective, StackedObjectives)) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live()
            log = run_experiment(config)
            assert len(log.rounds) == 60
            del log
            assert live() == before
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "scale, tol, max_iters", [(1.0, 1e-12, 3), (1e200, 1e-6, 100_000)], ids=["at_the_cap", "non_finite"]
    )
    def test_a_failed_inner_solve_keeps_no_view_alive(self, scale, tol, max_iters):
        # a kept ConvergenceError must hold no frame: its traceback, or a handled error in its context
        objs = prepare(parse_config(CONFIGS / "label_shift_fedmm.cfg", [])).view.objectives
        omegas = scale * seeded_rng(13).standard_normal((2, objs[0].dims[0]))

        def live():
            return sum(isinstance(o, StackedObjectives) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before, view = live(), stacked(objs)
            with np.errstate(all="ignore"):
                got = phi_grads(view, omegas, tol, max_iters)
            assert [type(e) for e in got.errors] == [ConvergenceError] * 2
            if scale == 1e200:
                assert all(e.grad_norm == np.inf and e.iterations == 0 for e in got.errors)
            del got, view
            assert live() == before
        finally:
            gc.enable()

    def test_finished_run_keeps_no_copy_of_the_shards(self, tmp_path):
        # two 2000-point domains of 10 features: a one-row view kept per shard would hold 0.44 MB
        rng = seeded_rng(12)
        domain = np.repeat([SOURCE, TARGET], 2000)
        y = np.where(domain == SOURCE, rng.integers(0, 2, 4000), UNLABELED)
        path = tmp_path / "two_domains.txt"
        save_dataset(path, DomainAdaptDataset(rng.standard_normal((4000, 10)) + 0.5 * domain[:, None], y, domain), 2)
        overrides = [f"problem.file={path}", "hyper.rounds=3", "hyper.local_steps=1", "metrics_every=1"]
        config = parse_config(CONFIGS / "label_shift_fedmm.cfg", overrides)
        problem = prepare(config)
        tracemalloc.start()
        try:
            log = run_experiment(config, problem)
            assert log.missing("phi_grad_norm").tolist() == [False] * 3
            del log
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 100_000


def test_row_independence_check():
    assert "bit-exact" in check_row_independence()
