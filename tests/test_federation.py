import dataclasses
import gc
import re
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedmm import federation
from fedmm.checks import check_partition_cover
from fedmm.core import HyperParams, seeded_rng, vector
from fedmm.federation import (
    CSV_HEADER,
    METRIC_FIELDS,
    RECORD,
    ExperimentConfig,
    PartitionMode,
    PartitionSpec,
    ProblemKind,
    ProblemSpec,
    RoundMetrics,
    RunLog,
    evaluate_target_accuracy,
    partition_counts,
    partition_label_shift,
    prepare,
    run_experiment,
    write_atomic,
)
from fedmm.cli import parse_config
from fedmm.objectives import (
    SOURCE,
    TARGET,
    DomainAdaptDataset,
    DomainAdaptObjective,
    PooledView,
)
from fedmm.optim import OptimizerKind
from fedmm.problems import domain_shift_toy


def toy(seed=31, n=40):
    return domain_shift_toy(seeded_rng(seed), n_per_domain=n, holdout_n=20)


class TestPartitionSpec:
    @pytest.mark.parametrize("mode", list(PartitionMode), ids=lambda m: m.value)
    def test_the_mode_alone_gives_the_client_count(self, mode):
        config = ExperimentConfig(
            optimizer=OptimizerKind.FEDMM, partition=PartitionSpec(mode=mode),
            problem=ProblemSpec(ProblemKind.DOMAIN_ADAPT, n_per_domain=6, holdout_n=4),
        )
        assert PartitionSpec(mode=mode).n_clients == prepare(config).view.n

    def test_shipped_label_shift_config_reads_its_client_count(self):
        # the value the benchmark's DANN workload reads off the parsed config
        cfg = Path(__file__).resolve().parent.parent / "configs" / "label_shift_fedmm.cfg"
        assert parse_config(cfg).partition.n_clients == 2

    def test_p_range(self):
        with pytest.raises(ValueError):
            PartitionSpec(p=1.5)


class TestProblemSpec:
    @pytest.mark.parametrize(
        "kind, sizes",
        [
            # n (d1^2 + d1 d2 + d2^2 + d1 + d2) floats: 16 769 026, and 16 777 217 at d1 = 4095
            (ProblemKind.QUADRATIC, dict(n_clients=1, d2=1, d1=4094)),
            # 2 (2 n_per_domain + holdout_n) floats: exactly 2**24
            (ProblemKind.DOMAIN_ADAPT, dict(n_per_domain=2**21, holdout_n=2**22)),
        ],
        ids=["quadratic", "domain_adapt"],
    )
    def test_a_synthetic_instance_holds_at_most_2_to_the_24_floats(self, kind, sizes):
        ProblemSpec(kind, **sizes)
        key, value = list(sizes.items())[-1]
        with pytest.raises(ValueError, match=r"floats, past the bound of 2\*\*24"):
            ProblemSpec(kind, **{**sizes, key: value + 1})

    def test_the_bound_reads_only_the_sizes_a_build_reads(self):
        # a file fixes its own sizes, and each kind's synthetic build reads only its own
        ProblemSpec(ProblemKind.QUADRATIC, file="instance.txt", d1=10**7)
        ProblemSpec(ProblemKind.QUADRATIC, n_per_domain=10**13)
        ProblemSpec(ProblemKind.DOMAIN_ADAPT, d1=10**7)


class TestPartitionLabelShift:
    def test_p_half_balanced_counts(self):
        train, _, _ = toy()
        spec = PartitionSpec(p=0.5, mode=PartitionMode.TWO_CLIENT_P)
        shards = partition_label_shift(train, spec, seeded_rng(1))
        n_src = int(np.sum(train.domain == SOURCE))
        n_tgt = int(np.sum(train.domain == TARGET))
        for shard in shards:
            assert abs(int(np.sum(shard.domain == SOURCE)) - n_src / 2) <= 1
            assert abs(int(np.sum(shard.domain == TARGET)) - n_tgt / 2) <= 1

    def test_p_one_fully_separated(self):
        train, _, _ = toy()
        spec = PartitionSpec(p=1.0, mode=PartitionMode.TWO_CLIENT_P)
        one, two = partition_label_shift(train, spec, seeded_rng(1))
        assert (one.domain == SOURCE).all()
        assert (two.domain == TARGET).all()

    # toy()'s training set, seed 31 and 40 points per domain: the holdout is drawn after it
    def test_union_is_exact_multiset(self):
        check_partition_cover(p=0.3, seed=2, data_seed=31)

    def test_deterministic_given_seed(self):
        check_partition_cover(p=0.7, seed=5, data_seed=31)

    def test_multi_client_modes(self):
        train, _, _ = toy()
        for mode, n in (
            (PartitionMode.ONE_SOURCE_ONE_TARGET, 2),
            (PartitionMode.ONE_SOURCE_TWO_TARGET, 3),
            (PartitionMode.TWO_SOURCE_ONE_TARGET, 3),
        ):
            spec = PartitionSpec(mode=mode)
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
        spec = PartitionSpec(p=p, mode=mode)
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
        spec = PartitionSpec(p=1.0, mode=PartitionMode.TWO_CLIENT_P)
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
        problem=ProblemSpec(ProblemKind.QUADRATIC),
        hyper=HyperParams(eta1=0.1, eta2=0.1, local_steps=(20,), rounds=10),
        seed=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_zero_rounds(self):
        log = run_experiment(quad_config(hyper=HyperParams(rounds=0)))
        assert len(log.rounds) == 0 and list(log.rounds) == [] and log.final() is None
        assert log.csv_text() == CSV_HEADER + "\n"

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
            optimizer=OptimizerKind.FEDAVG_GDA,
            problem=ProblemSpec(ProblemKind.DOMAIN_ADAPT, n_per_domain=20, holdout_n=10),
            hyper=HyperParams(rounds=3, local_steps=(5,)), partition=PartitionSpec(), seed=1,
        )
        cfg_b = ExperimentConfig(
            optimizer=OptimizerKind.FEDAVG_GDA,
            problem=ProblemSpec(ProblemKind.DOMAIN_ADAPT, n_per_domain=20, holdout_n=10),
            hyper=HyperParams(rounds=3, local_steps=(5,)), partition=PartitionSpec(), seed=2,
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
        cfg = quad_config(
            hyper=HyperParams(rounds=200), problem=ProblemSpec(ProblemKind.QUADRATIC, n_clients=2),
            metrics_every=200,
        )
        log = run_experiment(cfg)
        assert log.final().phi_grad_norm <= 1e-4

    def test_domain_adapt_accuracy_present(self):
        cfg = ExperimentConfig(
            optimizer=OptimizerKind.FEDMM,
            problem=ProblemSpec(ProblemKind.DOMAIN_ADAPT, n_per_domain=16, holdout_n=8),
            hyper=HyperParams(rounds=2, local_steps=(3,)), partition=PartitionSpec(), seed=3,
        )
        log = run_experiment(cfg)
        assert all(m.target_accuracy is not None for m in log.rounds)

    def test_fedprox_mu0_equals_fedavg_end_to_end(self):
        base = dict(
            problem=ProblemSpec(ProblemKind.DOMAIN_ADAPT, n_per_domain=20, holdout_n=10),
            hyper=HyperParams(rounds=4, local_steps=(6,), prox_mu=0.0),
            partition=PartitionSpec(p=1.0),
            seed=9,
        )
        prox = run_experiment(ExperimentConfig(optimizer=OptimizerKind.FEDPROX_GDA, **base))
        avg = run_experiment(ExperimentConfig(optimizer=OptimizerKind.FEDAVG_GDA, **base))
        assert prox.csv_text() == avg.csv_text()

    def test_minibatch_mode_deterministic(self):
        cfg = dict(
            optimizer=OptimizerKind.FEDAVG_GDA,
            problem=ProblemSpec(ProblemKind.DOMAIN_ADAPT, n_per_domain=24, holdout_n=8),
            hyper=HyperParams(rounds=3, local_steps=(2,)),
            partition=PartitionSpec(), seed=5, batch_size=6,
        )
        a = run_experiment(ExperimentConfig(**cfg)).csv_text()
        b = run_experiment(ExperimentConfig(**cfg)).csv_text()
        full = run_experiment(ExperimentConfig(**{**cfg, "batch_size": 0})).csv_text()
        assert a == b
        assert a != full


# small runs of both problems; the DANN toy's holdout gives the accuracy column
_REUSE_PROBLEMS = {
    "quadratic": dict(
        problem=ProblemSpec(ProblemKind.QUADRATIC), hyper=HyperParams(rounds=3, local_steps=(4,))
    ),
    "dann_toy": dict(
        problem=ProblemSpec(ProblemKind.DOMAIN_ADAPT, n_per_domain=40, holdout_n=10),
        hyper=HyperParams(rounds=3, local_steps=(4,)), seed=5,
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
        assert problem.config is config and problem.view.n == 3
        central = prepare(quad_config(optimizer=OptimizerKind.CENTRAL_GDA))
        assert type(central.view) is PooledView
        assert central.view.n == 1 and central.view.clients.n == 3

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
        log = RunLog()
        log.append(
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


def _python_values(row: RoundMetrics) -> bool:
    """Every field a plain Python int, float or None, as json and asdict want them."""
    return all(type(getattr(row, f.name)) in (int, float, type(None)) for f in fields(RoundMetrics))


class TestLoggedRounds:
    ROWS = [
        RoundMetrics(0, None, 0.5, 0.25, -1.5, None, 12),
        # NaN is a value, not a missing cell
        RoundMetrics(1, float("nan"), float("inf"), -0.0, float("nan"), 0.75, 24),
        RoundMetrics(2, 1e-300, 1.0, 2.0, 3.0, float("nan"), 2**40),
    ]

    def log(self, rows) -> RunLog:
        log = RunLog()
        for row in rows:
            log.append(row)
        return log

    def test_appended_rows_read_back_field_for_field(self):
        log = self.log(self.ROWS)
        want = [repr(row) for row in self.ROWS]  # repr: NaN != NaN
        assert len(log.rounds) == 3
        assert [repr(row) for row in log.rounds] == want
        assert [repr(log.rounds[i]) for i in range(3)] == want
        assert [repr(log.rounds[i]) for i in (-3, -2, -1)] == want
        assert repr(log.final()) == want[-1]
        assert all(map(_python_values, log.rounds))
        for i in (3, -4):
            with pytest.raises(IndexError):
                log.rounds[i]

    def test_a_row_that_does_not_convert_logs_nothing(self):
        log = self.log(self.ROWS)
        with pytest.raises(ValueError):
            log.append(RoundMetrics(3, None, "wide", 0.0, 0.0, None, 36))
        assert len(log.rounds) == 3 and repr(log.final()) == repr(self.ROWS[-1])

    def test_the_log_is_read_only_through_rounds(self):
        log = self.log(self.ROWS)
        with pytest.raises(TypeError):
            log.rounds[0] = self.ROWS[1]
        with pytest.raises(AttributeError):
            log.rounds.append(self.ROWS[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            log.rounds[0].global_loss = 0.0

    def test_columns_and_the_missing_mask(self):
        log = self.log(self.ROWS)
        assert log.column("round").dtype == np.int64
        assert log.column("floats_communicated").tolist() == [12, 24, 2**40]
        assert log.missing("phi_grad_norm").tolist() == [True, False, False]
        assert log.missing("target_accuracy").tolist() == [True, False, False]
        phi = log.column("phi_grad_norm")
        assert np.isnan(phi[:2]).all() and phi[2] == 1e-300
        empty = RunLog()
        assert empty.column("global_loss").shape == (0,) and empty.missing("phi_grad_norm").dtype == bool

    def test_the_record_is_the_fields_then_one_mask_per_optional_field(self):
        # a field added to RoundMetrics is a field of the record, so it cannot go unlogged
        optional = [f.name for f in fields(RoundMetrics) if "None" in str(f.type)]
        assert optional == ["phi_grad_norm", "target_accuracy"]
        assert RECORD.names == METRIC_FIELDS + tuple(f"{name}_missing" for name in optional)
        ints = ("round", "floats_communicated")
        assert all(RECORD[name] == (np.int64 if name in ints else np.float64) for name in METRIC_FIELDS)
        assert RECORD.itemsize == 58

    def test_reads_leave_the_log_free_to_grow(self):
        # the log outgrows its buffer (room for 256 rounds at first) while a partly consumed
        # iteration, and then each read's result, is alive; the iteration goes on over the
        # rounds logged when it started
        rows = [RoundMetrics(t, None if t % 3 else t / 7, 0.5, 0.25, -1.5, None, 12 * t) for t in range(1200)]
        log = self.log(rows[:255])
        it = iter(log.rounds)
        assert next(it) == rows[0]
        for row in rows[255:600]:
            log.append(row)
        assert list(it) == rows[1:255]
        kept = [log.column("global_loss"), log.missing("phi_grad_norm"), log.rounds[3], log.csv_text()]
        for row in rows[600:]:
            log.append(row)
        assert list(log.rounds) == rows and kept[2] == rows[3]

    def test_writing_into_a_returned_column_leaves_the_log_unchanged(self):
        log = self.log(self.ROWS)
        text = log.csv_text()
        log.column("round")[:] = 7
        log.column("phi_grad_norm")[:] = 0.0
        log.missing("phi_grad_norm")[:] = False
        log.missing("target_accuracy")[:] = False
        assert log.csv_text() == text

    def test_a_dropped_log_is_freed_at_once(self):
        # no reference cycle: a finished log is freed without waiting for the cycle collector
        log = run_experiment(quad_config(hyper=HyperParams(rounds=3)))
        assert len(log.rounds) == 3 and log.final() == list(log.rounds)[-1]
        freed = weakref.ref(log)
        gc.disable()
        try:
            del log
            assert freed() is None
        finally:
            gc.enable()

    def test_rows_of_a_run_are_python_values(self):
        quad = run_experiment(quad_config(hyper=HyperParams(rounds=70), metrics_every=3))
        toy_log = run_experiment(
            ExperimentConfig(
                optimizer=OptimizerKind.FEDMM,
                problem=ProblemSpec(ProblemKind.DOMAIN_ADAPT, n_per_domain=12, holdout_n=16),
                hyper=HyperParams(eta1=0.1, eta2=0.1, local_steps=(2,), rounds=3, tol=1e-3),
            )
        )
        for log in (quad, toy_log):
            assert all(map(_python_values, log.rounds)) and _python_values(log.final())
        assert quad.rounds[69].phi_grad_norm is not None and quad.rounds[68].phi_grad_norm is None
        assert all(m.target_accuracy is not None for m in toy_log.rounds)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LONG_ROUNDS = 20_000


@pytest.fixture(scope="module")
def long_fedsgda_memory(tmp_path_factory) -> tuple[int, int]:
    """The shipped FedSGDA config at 20 000 rounds under tracemalloc: (bytes the log holds, write_csv's peak above it)."""
    config = parse_config(CONFIGS / "quadratic_fedsgda.cfg", [f"hyper.rounds={LONG_ROUNDS}"])
    problem = prepare(config)
    out = tmp_path_factory.mktemp("long") / "run.csv"
    tracemalloc.start()
    try:
        log = run_experiment(config, problem)
        with_log = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        log.write_csv(out)
        write_peak = tracemalloc.get_traced_memory()[1] - with_log
        assert len(log.rounds) == LONG_ROUNDS
        del log
        gc.collect()
        held = with_log - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held, write_peak


class TestRunLogMemory:
    def test_a_finished_log_holds_at_most_64_bytes_a_round(self, long_fedsgda_memory):
        held, _ = long_fedsgda_memory
        assert held <= 64 * LONG_ROUNDS, f"{held / LONG_ROUNDS:.1f} B a round"

    def test_write_csv_streams_within_half_a_megabyte(self, long_fedsgda_memory):
        _, write_peak = long_fedsgda_memory
        assert write_peak <= 500_000, f"write_csv peaked {write_peak / 1e6:.2f} MB above the log"


class TestRunLogUnderHooks:
    """A log grows past its first buffer under a profile or trace hook, and logs the same bytes."""

    @pytest.mark.parametrize("hook", ["profile", "trace"])
    def test_csv_bytes_equal_an_unhooked_run(self, hook):
        # 600 logged rounds outgrow the buffer's first 256 twice
        config = parse_config(CONFIGS / "quadratic_fedsgda.cfg", ["hyper.rounds=600"])
        want = run_experiment(config).csv_text()
        install, previous = getattr(sys, f"set{hook}"), getattr(sys, f"get{hook}")()
        install(lambda *args: None)
        try:
            log = run_experiment(config)
        finally:
            install(previous)
        assert len(log.rounds) == 600
        assert log.csv_text() == want


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

    def test_a_stream_that_fails_midway_keeps_target_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # 600 rounds are three pieces of the streamed CSV, of 256, 256 and 88 rows: the first
        # is written to the temp file when the second fails
        out = tmp_path / "run.csv"
        out.write_text("previous run\n")
        log = run_experiment(quad_config(hyper=HyperParams(rounds=600)))
        fmt, cells = federation._fmt, 0

        def fails_at_row_500(x):
            nonlocal cells
            cells += 1
            if cells > 500 * 7:
                raise OSError("disk full")
            return fmt(x)

        monkeypatch.setattr(federation, "_fmt", fails_at_row_500)
        with pytest.raises(OSError, match="disk full"):
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
