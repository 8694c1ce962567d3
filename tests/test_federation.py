import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedmm import federation
from fedmm.core import HyperParams, seeded_rng, vector
from fedmm.federation import (
    CSV_HEADER,
    ExperimentConfig,
    PartitionMode,
    PartitionSpec,
    ProblemKind,
    RoundMetrics,
    RunLog,
    evaluate_target_accuracy,
    partition_counts,
    partition_label_shift,
    prepare,
    run_experiment,
    write_atomic,
)
from fedmm.objectives import (
    SOURCE,
    TARGET,
    DomainAdaptDataset,
    DomainAdaptObjective,
)
from fedmm.optim import OptimizerKind
from fedmm.problems import domain_shift_toy


def toy(seed=31, n=40):
    return domain_shift_toy(seeded_rng(seed), n_per_domain=n, holdout_n=20)


class TestPartitionSpec:
    def test_mode_client_count_coupling(self):
        with pytest.raises(ValueError):
            PartitionSpec(n_clients=3, mode=PartitionMode.TWO_CLIENT_P)
        with pytest.raises(ValueError):
            PartitionSpec(n_clients=2, mode=PartitionMode.ONE_SOURCE_TWO_TARGET)

    def test_p_range(self):
        with pytest.raises(ValueError):
            PartitionSpec(p=1.5)


class TestPartitionLabelShift:
    def test_p_half_balanced_counts(self):
        train, _, _ = toy()
        spec = PartitionSpec(n_clients=2, p=0.5, mode=PartitionMode.TWO_CLIENT_P)
        shards = partition_label_shift(train, spec, seeded_rng(1))
        n_src = int(np.sum(train.domain == SOURCE))
        n_tgt = int(np.sum(train.domain == TARGET))
        for shard in shards:
            assert abs(int(np.sum(shard.domain == SOURCE)) - n_src / 2) <= 1
            assert abs(int(np.sum(shard.domain == TARGET)) - n_tgt / 2) <= 1

    def test_p_one_fully_separated(self):
        train, _, _ = toy()
        spec = PartitionSpec(n_clients=2, p=1.0, mode=PartitionMode.TWO_CLIENT_P)
        one, two = partition_label_shift(train, spec, seeded_rng(1))
        assert (one.domain == SOURCE).all()
        assert (two.domain == TARGET).all()

    def test_union_is_exact_multiset(self):
        train, _, _ = toy()
        spec = PartitionSpec(n_clients=2, p=0.3, mode=PartitionMode.TWO_CLIENT_P)
        shards = partition_label_shift(train, spec, seeded_rng(2))
        merged = np.concatenate([s.X for s in shards])
        assert merged.shape == train.X.shape
        order_a = np.lexsort(merged.T)
        order_b = np.lexsort(train.X.T)
        assert np.array_equal(merged[order_a], train.X[order_b])

    def test_deterministic_given_seed(self):
        train, _, _ = toy()
        spec = PartitionSpec(n_clients=2, p=0.7, mode=PartitionMode.TWO_CLIENT_P)
        a = partition_label_shift(train, spec, seeded_rng(5))
        b = partition_label_shift(train, spec, seeded_rng(5))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.X, sb.X)

    def test_multi_client_modes(self):
        train, _, _ = toy()
        for mode, n in (
            (PartitionMode.ONE_SOURCE_ONE_TARGET, 2),
            (PartitionMode.ONE_SOURCE_TWO_TARGET, 3),
            (PartitionMode.TWO_SOURCE_ONE_TARGET, 3),
        ):
            spec = PartitionSpec(n_clients=n, mode=mode)
            shards = partition_label_shift(train, spec, seeded_rng(3))
            assert len(shards) == n
            assert sum(len(s) for s in shards) == len(train)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n_src=st.integers(0, 7),
        n_tgt=st.integers(0, 7),
        p=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]),
        mode=st.sampled_from(list(PartitionMode)),
        seed=st.integers(0, 2**16),
    )
    def test_counts_predict_every_shard(self, n_src, n_tgt, p, mode, seed):
        # partition_counts alone decides the shard sizes (and the empty-client
        # error) before the RNG draws anything
        assume(n_src + n_tgt > 0)
        spec = PartitionSpec(n_clients=federation._MODE_CLIENTS[mode], p=p, mode=mode)
        domain = np.array([SOURCE] * n_src + [TARGET] * n_tgt, dtype=np.int64)
        y = np.where(domain == SOURCE, 0, -1)
        X = np.arange(2.0 * len(domain)).reshape(-1, 2)
        ds = DomainAdaptDataset(X=X, y=y, domain=domain)
        try:
            counts = partition_counts(n_src, n_tgt, spec)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                partition_label_shift(ds, spec, seeded_rng(seed))
            return
        shards = partition_label_shift(ds, spec, seeded_rng(seed))
        assert [(int((s.domain == SOURCE).sum()), int((s.domain == TARGET).sum())) for s in shards] == counts
        merged = np.sort(np.concatenate([s.X[:, 0] for s in shards]))
        assert np.array_equal(merged, X[:, 0])  # disjoint cover

    def test_empty_client_rejected(self):
        # a single source point and p=0 sends no source data to client 1 and
        # the whole (empty) target pool leaves client 2 without points
        ds = DomainAdaptDataset(
            X=np.array([[1.0, 0.0]]), y=np.array([0]), domain=np.array([SOURCE])
        )
        spec = PartitionSpec(n_clients=2, p=1.0, mode=PartitionMode.TWO_CLIENT_P)
        with pytest.raises(ValueError, match="zero points"):
            partition_label_shift(ds, spec, seeded_rng(4))


class TestEvaluateTargetAccuracy:
    def test_constant_predictor_all_class0(self):
        train, holdout, layout = toy()
        obj = DomainAdaptObjective(train, 0.5, layout)
        # zero weights: uniform logits, tie resolves to class 0
        omega = vector(np.zeros(layout.d1))
        got = evaluate_target_accuracy(obj, omega, holdout)
        assert got == pytest.approx(float(np.mean(holdout.y == 0)))

    def test_random_predictor_near_chance(self):
        train, holdout, layout = toy(n=200)
        obj = DomainAdaptObjective(train, 0.5, layout)
        rng = seeded_rng(32)
        accs = [
            evaluate_target_accuracy(obj, vector(rng.standard_normal(layout.d1)), holdout)
            for _ in range(20)
        ]
        n = len(holdout)
        sigma = np.sqrt(0.5 * 0.5 / n)
        # binomial 3-sigma band around chance for the average of random draws
        assert abs(float(np.mean(accs)) - 0.5) <= 3 * sigma + 0.25

    def test_stack_of_omegas_gives_each_omegas_accuracy(self):
        train, holdout, layout = toy(n=200)
        obj = DomainAdaptObjective(train, 0.5, layout)
        omegas = seeded_rng(33).standard_normal((9, layout.d1))
        got = evaluate_target_accuracy(obj, omegas, holdout)
        assert got.shape == (9,)
        assert got.tolist() == [evaluate_target_accuracy(obj, vector(om), holdout) for om in omegas]

    def test_empty_holdout_rejected(self):
        train, _, layout = toy()
        obj = DomainAdaptObjective(train, 0.5, layout)
        empty = DomainAdaptDataset(
            X=np.zeros((0, 2)), y=np.zeros(0, dtype=int),
            domain=np.zeros(0, dtype=int), holdout=True,
        )
        with pytest.raises(ValueError, match="empty"):
            evaluate_target_accuracy(obj, vector(np.zeros(layout.d1)), empty)


def quad_config(**kw):
    defaults = dict(
        optimizer=OptimizerKind.FEDMM,
        problem=ProblemKind.QUADRATIC,
        hyper=HyperParams(eta1=0.1, eta2=0.1, local_steps=(20,), rounds=10),
        seed=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_zero_rounds(self):
        log = run_experiment(quad_config(hyper=HyperParams(rounds=0)))
        assert log.rounds == []
        assert log.csv_text() == CSV_HEADER + "\n"
        assert log.config_echo["optimizer"] == "fedmm"

    def test_communication_ledger_exact(self):
        for kind, n in (
            (OptimizerKind.FEDMM, 3),
            (OptimizerKind.FEDSGDA, 3),
            (OptimizerKind.CENTRAL_GDA, 1),
        ):
            log = run_experiment(quad_config(optimizer=kind))
            d1, d2 = 4, 3
            t = len(log.rounds)
            assert log.rounds[-1].floats_communicated == t * n * 2 * (d1 + d2)
            increments = np.diff([0] + [m.floats_communicated for m in log.rounds])
            assert (increments == n * 2 * (d1 + d2)).all()

    def test_identical_config_identical_csv(self):
        a = run_experiment(quad_config()).csv_text()
        b = run_experiment(quad_config()).csv_text()
        assert a == b

    def test_quadratic_trajectory_independent_of_seed(self):
        a = run_experiment(quad_config(seed=1)).csv_text()
        b = run_experiment(quad_config(seed=99)).csv_text()
        assert a == b

    def test_domain_adapt_seed_changes_run(self):
        cfg_a = ExperimentConfig(
            optimizer=OptimizerKind.FEDAVG_GDA, problem=ProblemKind.DOMAIN_ADAPT,
            hyper=HyperParams(rounds=3, local_steps=(5,)),
            partition=PartitionSpec(), seed=1, toy_n_per_domain=20, toy_holdout_n=10,
        )
        cfg_b = ExperimentConfig(
            optimizer=OptimizerKind.FEDAVG_GDA, problem=ProblemKind.DOMAIN_ADAPT,
            hyper=HyperParams(rounds=3, local_steps=(5,)),
            partition=PartitionSpec(), seed=2, toy_n_per_domain=20, toy_holdout_n=10,
        )
        assert run_experiment(cfg_a).csv_text() != run_experiment(cfg_b).csv_text()

    def test_round_metrics_fields(self):
        log = run_experiment(quad_config(metrics_every=4))
        assert [m.round for m in log.rounds] == list(range(10))
        # phi sampled on rounds 0, 4, 8 and the final round
        have_phi = [m.round for m in log.rounds if m.phi_grad_norm is not None]
        assert have_phi == [0, 4, 8, 9]
        assert all(m.target_accuracy is None for m in log.rounds)

    def test_two_client_fedmm_default_steps_converges(self):
        # package-default step sizes, 200 rounds: stationarity below 1e-4
        cfg = quad_config(hyper=HyperParams(rounds=200), quad_n_clients=2, metrics_every=200)
        log = run_experiment(cfg)
        assert log.final().phi_grad_norm <= 1e-4

    def test_domain_adapt_accuracy_present(self):
        cfg = ExperimentConfig(
            optimizer=OptimizerKind.FEDMM, problem=ProblemKind.DOMAIN_ADAPT,
            hyper=HyperParams(rounds=2, local_steps=(3,)),
            partition=PartitionSpec(), seed=3, toy_n_per_domain=16, toy_holdout_n=8,
        )
        log = run_experiment(cfg)
        assert all(m.target_accuracy is not None for m in log.rounds)

    def test_fedprox_mu0_equals_fedavg_end_to_end(self):
        base = dict(
            problem=ProblemKind.DOMAIN_ADAPT,
            hyper=HyperParams(rounds=4, local_steps=(6,), prox_mu=0.0),
            partition=PartitionSpec(p=1.0),
            seed=9, toy_n_per_domain=20, toy_holdout_n=10,
        )
        prox = run_experiment(ExperimentConfig(optimizer=OptimizerKind.FEDPROX_GDA, **base))
        avg = run_experiment(ExperimentConfig(optimizer=OptimizerKind.FEDAVG_GDA, **base))
        assert prox.csv_text() == avg.csv_text()

    def test_minibatch_mode_deterministic(self):
        cfg = dict(
            optimizer=OptimizerKind.FEDAVG_GDA, problem=ProblemKind.DOMAIN_ADAPT,
            hyper=HyperParams(rounds=3, local_steps=(2,)),
            partition=PartitionSpec(), seed=5, toy_n_per_domain=24,
            toy_holdout_n=8, batch_size=6,
        )
        a = run_experiment(ExperimentConfig(**cfg)).csv_text()
        b = run_experiment(ExperimentConfig(**cfg)).csv_text()
        full = run_experiment(ExperimentConfig(**{**cfg, "batch_size": 0})).csv_text()
        assert a == b
        assert a != full


# small runs of both problems; the DANN toy's holdout gives the accuracy column
_REUSE_PROBLEMS = {
    "quadratic": dict(problem=ProblemKind.QUADRATIC, hyper=HyperParams(rounds=3, local_steps=(4,))),
    "dann_toy": dict(
        problem=ProblemKind.DOMAIN_ADAPT, hyper=HyperParams(rounds=3, local_steps=(4,)),
        seed=5, toy_n_per_domain=40, toy_holdout_n=10,
    ),
}
_REUSE_CASES = [(name, kind, 0) for name in _REUSE_PROBLEMS for kind in OptimizerKind] + [
    ("dann_toy", OptimizerKind.FEDMM, 32), ("dann_toy", OptimizerKind.FEDAVG_GDA, 32)
]


class TestPreparedProblem:
    @pytest.mark.parametrize(
        "name, kind, batch_size", _REUSE_CASES,
        ids=[f"{n}-{k.value}-batch{b}" for n, k, b in _REUSE_CASES],
    )
    def test_a_problem_reruns_to_the_same_bytes(self, name, kind, batch_size):
        config = ExperimentConfig(optimizer=kind, batch_size=batch_size, **_REUSE_PROBLEMS[name])
        want = run_experiment(config).csv_text().encode()
        problem = prepare(config)
        assert run_experiment(config, problem).csv_text().encode() == want
        assert run_experiment(config, problem).csv_text().encode() == want

    def test_clients_and_config(self):
        config = quad_config(hyper=HyperParams(local_steps=(7,)))
        problem = prepare(config)
        assert problem.config is config and len(problem.clients) == 3
        central = prepare(quad_config(optimizer=OptimizerKind.CENTRAL_GDA))
        assert len(central.clients) == 1 and central.oracle.n == 3

    @pytest.mark.parametrize(
        "changes",
        [
            {"hyper": HyperParams(rounds=3, eta1=0.5)},
            {"optimizer": OptimizerKind.CENTRAL_GDA},
            {"output_path": "elsewhere.csv"},
        ],
        ids=["step_size", "optimizer", "output_path"],
    )
    def test_a_problem_runs_only_under_its_own_config(self, changes):
        # a config that differs from the prepared one would run the old
        # hyperparameters or clients while its echo records the new ones
        config = quad_config(hyper=HyperParams(rounds=3))
        problem = prepare(config)
        with pytest.raises(ValueError, match="prepared from another config"):
            run_experiment(replace(config, **changes), problem)


class TestRunLogCsv:
    def test_header_and_missing_fields(self):
        log = RunLog(config_echo={}, seed=0)
        log.rounds.append(
            RoundMetrics(
                round=0, phi_grad_norm=None, consensus_omega=0.5, consensus_psi=0.25,
                global_loss=-1.5, target_accuracy=None, floats_communicated=12,
            )
        )
        text = log.csv_text()
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,,0.5,0.25,-1.5,,12"
        assert text.endswith("\n")


class TestWriteCsv:
    def test_writes_the_csv_text(self, tmp_path):
        log = run_experiment(quad_config(hyper=HyperParams(rounds=2)))
        out = tmp_path / "run.csv"
        log.write_csv(out)
        assert out.read_text() == log.csv_text()
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    def test_failed_rename_keeps_target_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        out = tmp_path / "run.csv"
        out.write_text("previous run\n")
        log = run_experiment(quad_config(hyper=HyperParams(rounds=2)))

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(federation.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            log.write_csv(out)
        assert out.read_text() == "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    def test_failed_write_keeps_target_and_leaves_no_temp_file(self, tmp_path):
        out = tmp_path / "run.csv"
        out.write_text("previous run\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(out, "round\n\ud800 is not encodable\n")
        assert out.read_text() == "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]
