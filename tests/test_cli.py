
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedmm import federation, objectives
from fedmm.cli import _AXES, ConfigError, _write_atomic, main, parse_config
from fedmm.core import HyperParams, seeded_rng
from fedmm.federation import (
    CONFIG_KEYS,
    ExperimentConfig,
    PartitionMode,
    PartitionSpec,
    ProblemKind,
    ProblemSpec,
    prepare,
    run_experiment,
)
from fedmm.objectives import save_dataset, save_quadratic_specs
from fedmm.optim import OptimizerKind
from fedmm.problems import domain_shift_toy, synthetic_quadratic_specs

MINIMAL = """\
# minimal quadratic run
optimizer = fedmm
problem = quadratic
"""

QUAD_RUN = """\
optimizer = fedmm
problem = quadratic
hyper.eta1 = 0.1
hyper.eta2 = 0.1
hyper.rounds = 5
hyper.local_steps = 10
seed = 3
output_path = {out}
"""


SHIPPED = Path(__file__).resolve().parent.parent / "configs"

# a non-finite gradient or upload at a finite iterate: (config, --set overrides, where it diverges)
_FINITE_ITERATE = [
    # the batched DANN view rejects its overflowed gradient at a finite iterate
    (
        "label_shift_fedmm.cfg",
        ["hyper.nu=1e308", "hyper.rounds=5"],
        "round 0: fedmm local round (client 0) gradient at step 0",
    ),
    # so does the size-grouped view of the unequal one-source-two-target shards
    (
        "label_shift_fedmm.cfg",
        ["hyper.nu=1e308", "hyper.rounds=5", "partition.mode=one_source_two_target"],
        "round 0: fedmm local round (client 0) gradient at step 0",
    ),
    # mu = 1e300 overflows the dual step, and so FedMM's dual-shifted upload
    (
        "quadratic_fedsgda.cfg",
        [
            "optimizer=fedmm", "hyper.mu1=1e300", "hyper.mu2=1e300", "hyper.eta1=1e9",
            "hyper.eta2=1e9", "hyper.local_steps=1", "hyper.rounds=3",
        ],
        "round 0: fedmm upload (client 0) at step 0",
    ),
]
_FINITE_ITERATE_IDS = ["dann_gradient", "dann_gradient_per_row", "fedmm_upload"]


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.hyper.mu1 == 1.0
        assert cfg.hyper.mu2 == 1.0
        assert cfg.hyper.eta3 == 1.0
        assert cfg.optimizer is OptimizerKind.FEDMM

    def test_worst_case_label_shift_config(self, tmp_path):
        text = "optimizer = fedmm\nproblem = domain_adapt\npartition.p = 1.0\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.partition.p == 1.0

    def test_unknown_key_reports_line(self, tmp_path):
        text = "optimizer = fedmm\nproblem = quadratic\netaa1 = 0.1\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("where", ["line", "set"])
    def test_partition_n_clients_is_no_key(self, tmp_path, capsys, where):
        # partition.mode alone fixes the client count (PartitionSpec.n_clients)
        text, argv = MINIMAL, []
        if where == "line":
            text += "partition.n_clients = 2\n"
        else:
            argv = ["--set", "partition.n_clients=2"]
        assert main(["run", "--config", str(write(tmp_path, text)), *argv]) == 2
        line = "line 4: " if where == "line" else ""
        assert capsys.readouterr().err == f"config error: {line}unknown key 'partition.n_clients'\n"

    def test_bad_value_reports_line(self, tmp_path):
        text = "optimizer = fedmm\nproblem = quadratic\nhyper.eta1 = fast\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(write(tmp_path, text))

    def test_missing_required(self, tmp_path):
        with pytest.raises(ConfigError, match="optimizer"):
            parse_config(write(tmp_path, "problem = quadratic\n"))

    def test_invalid_hyper_rejected(self, tmp_path):
        text = "optimizer = fedmm\nproblem = quadratic\nhyper.eta3 = 2.0\n"
        with pytest.raises(ConfigError, match="eta3"):
            parse_config(write(tmp_path, text))

    def test_missing_problem_file(self, tmp_path, capsys):
        # parse_config reads no problem file; the run's prepare reports it
        text = "optimizer = fedmm\nproblem = quadratic\nproblem.file = nowhere.txt\n"
        assert parse_config(write(tmp_path, text)).problem.file == "nowhere.txt"
        assert main(["run", "--config", str(write(tmp_path, text))]) == 2
        assert capsys.readouterr().err == "config error: problem.file does not exist: nowhere.txt\n"

    def test_set_overrides(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL), overrides=["hyper.rounds=7", "seed=11"])
        assert cfg.hyper.rounds == 7
        assert cfg.seed == 11

    def test_env_seed_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDMM_SEED", "1234")
        cfg = parse_config(write(tmp_path, MINIMAL), overrides=["seed=5"])
        assert cfg.seed == 1234

    def test_local_steps_list(self, tmp_path):
        text = "optimizer = fedmm\nproblem = quadratic\nhyper.local_steps = 20,20,25\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.hyper.local_steps == (20, 20, 25)


# one out-of-range value of each config key but problem.file, and the error naming that key
_OUT_OF_RANGE = [
    ("hyper.mu1=-1", "hyper.mu1 must be positive, got -1.0"),
    ("hyper.mu2=0", "hyper.mu2 must be positive, got 0.0"),
    ("hyper.eta1=0", "hyper.eta1 must be positive, got 0.0"),
    ("hyper.eta2=-0.5", "hyper.eta2 must be positive, got -0.5"),
    ("hyper.eta3=2", "hyper.eta3 must be in (0, 1], got 2.0"),
    ("hyper.nu=-1", "hyper.nu must be nonnegative, got -1.0"),
    ("hyper.local_steps=0", "hyper.local_steps must all be >= 1, got (0,)"),
    ("hyper.rounds=-1", "hyper.rounds must be >= 0, got -1"),
    ("hyper.prox_mu=-1", "hyper.prox_mu must be nonnegative, got -1.0"),
    ("hyper.tol=0", "hyper.tol must be positive, got 0.0"),
    ("hyper.local_tol=-1", "hyper.local_tol must be nonnegative, got -1.0"),
    ("hyper.local_max_iters=0", "hyper.local_max_iters must be >= 1, got 0"),
    ("partition.p=2", "partition.p must lie in [0, 1], got 2.0"),
    (
        "partition.mode=three_clients",
        "partition.mode: expected one of two_client_p, one_source_one_target, "
        "one_source_two_target, two_source_one_target, got 'three_clients'",
    ),
    ("problem.n_clients=0", "problem.n_clients must be >= 1, got 0"),
    ("problem.d1=0", "problem.d1 must be >= 1, got 0"),
    ("problem.d2=0", "problem.d2 must be >= 1, got 0"),
    ("problem.n_per_domain=0", "problem.n_per_domain must be >= 1, got 0"),
    ("problem.holdout_n=0", "problem.holdout_n must be >= 1, got 0"),
    ("seed=-1", "seed must be non-negative, got -1"),
    ("metrics_every=0", "metrics_every must be >= 1, got 0"),
    ("batch_size=-1", "batch_size must be >= 0, got -1"),
    ("output_path=.", "output_path must name a file, got '.'"),
    (
        "optimizer=warp",
        "optimizer: expected one of fedmm, fedsgda, fedavg_gda, fedprox_gda, central_gda, got 'warp'",
    ),
    ("problem=cube", "problem: expected one of quadratic, domain_adapt, got 'cube'"),
]


class TestCmdRun:
    def test_zero_rounds_header_only(self, tmp_path, capsys):
        out = tmp_path / "t0.csv"
        cfg_path = write(tmp_path, MINIMAL + f"hyper.rounds = 0\noutput_path = {out}\n")
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 0
        assert out.read_text() == (
            "round,phi_grad_norm,consensus_omega,consensus_psi,"
            "global_loss,target_accuracy,floats_communicated\n"
        )
        assert "status=ok" in capsys.readouterr().out

    def test_cli_equals_library(self, tmp_path, capsys):
        out = tmp_path / "quad.csv"
        cfg_path = write(tmp_path, QUAD_RUN.format(out=out))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 0
        via_cli = out.read_bytes()
        cfg = parse_config(cfg_path)
        via_lib = run_experiment(cfg).csv_text().encode()
        assert via_cli == via_lib

    def test_unwritable_output_no_partial_file(self, tmp_path, capsys):
        # missing parent directory: the temp-file write fails before rename
        out = tmp_path / "nodir" / "run.csv"
        cfg_path = write(tmp_path, QUAD_RUN.format(out=out))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 4
        assert not out.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = write(tmp_path, "optimizer = warp\nproblem = quadratic\n")
        assert main(["run", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "override, key",
        [
            ("problem.n_clients=0", "problem.n_clients"),
            ("hyper.local_steps=5,6", "hyper.local_steps"),
            ("hyper.local_tol=-1", "local_tol"),
            ("hyper.local_max_iters=0", "local_max_iters"),
            ("problem.n_per_domain=0", "problem.n_per_domain"),
            ("problem.holdout_n=-1", "problem.holdout_n"),
        ],
    )
    def test_invalid_value_is_config_error(self, tmp_path, capsys, override, key):
        cfg_path = write(tmp_path, MINIMAL + f"output_path = {tmp_path / 'x.csv'}\n")
        assert main(["run", "--config", str(cfg_path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

    def test_bad_problem_file_header_is_config_error(self, tmp_path, capsys):
        problem = tmp_path / "neg.txt"
        problem.write_text("-1 2 0\n")
        cfg_path = write(tmp_path, MINIMAL + f"problem.file = {problem}\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: problem.file") and "neg.txt" in err

    def test_dataset_label_outside_class_range_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "bad_label.txt"
        data.write_text("2 2 1\n0 5 1.0 2.0\n")
        out = tmp_path / "never.csv"
        text = (
            "optimizer = fedmm\nproblem = domain_adapt\n"
            f"problem.file = {data}\noutput_path = {out}\n"
        )
        assert main(["run", "--config", str(write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: problem.file: ")
        assert "bad_label.txt" in err and "label 5" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "partition",
        [
            "partition.p = 1.0\n",
            "partition.mode = one_source_one_target\n",
            "partition.mode = one_source_two_target\n",
        ],
        ids=["p_1", "one_source_one_target", "one_source_two_target"],
    )
    def test_partition_leaving_a_client_empty_is_config_error(self, tmp_path, capsys, partition):
        # a valid dataset with no target points: client 1 would get no data at all
        data = tmp_path / "no_target.txt"
        data.write_text("2 2 2\n0 1 1.0 2.0\n0 0 0.5 0.1\n")
        out = tmp_path / "never.csv"
        text = (
            "optimizer = fedmm\nproblem = domain_adapt\n"
            f"problem.file = {data}\noutput_path = {out}\n" + partition
        )
        assert main(["run", "--config", str(write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: partition: client 1 receives zero points")
        assert "no_target.txt" in err and "0 target points" in err
        assert not out.exists()

    def test_central_gda_pools_a_single_domain_file(self, tmp_path):
        # central GDA trains the pooled dataset, so the partition that empties
        # a fedmm client above is never drawn
        data = tmp_path / "no_target.txt"
        data.write_text("2 2 2\n0 1 1.0 2.0\n0 0 0.5 0.1\n")
        out = tmp_path / "central.csv"
        text = (
            "optimizer = central_gda\nproblem = domain_adapt\n"
            f"problem.file = {data}\npartition.p = 1.0\n"
            f"output_path = {out}\nhyper.rounds = 2\n"
        )
        cfg_path = write(tmp_path, text)
        problem = prepare(parse_config(cfg_path))
        assert problem.view.n == 1 and len(problem.view.objectives[0].dataset) == 2
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "key", ["mu1", "mu2", "eta1", "eta2", "nu", "prox_mu", "tol", "local_tol"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_hyperparameter_is_config_error(self, tmp_path, capsys, key, value):
        out = tmp_path / "x.csv"
        cfg_path = write(tmp_path, MINIMAL + f"output_path = {out}\n")
        assert main(["run", "--config", str(cfg_path), "--set", f"hyper.{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"hyper.{key}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, message", _OUT_OF_RANGE, ids=[o.partition("=")[0] for o, _ in _OUT_OF_RANGE]
    )
    def test_out_of_range_value_is_config_error_naming_its_key(
        self, tmp_path, capsys, override, message
    ):
        out = tmp_path / "x.csv"
        cfg_path = write(tmp_path, MINIMAL + f"output_path = {out}\n")
        assert main(["run", "--config", str(cfg_path), "--set", override]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_every_key_but_problem_file_has_an_out_of_range_case(self):
        keys = set(CONFIG_KEYS) - {"problem.file"}
        assert {o.partition("=")[0] for o, _ in _OUT_OF_RANGE} == keys

    def test_a_bad_hyper_key_is_reported_before_partition_problem_and_top_level_keys(
        self, tmp_path, capsys
    ):
        cfg_path = write(tmp_path, MINIMAL + f"output_path = {tmp_path / 'x.csv'}\n")
        message = dict(_OUT_OF_RANGE)
        order = ["hyper.rounds=-1", "partition.p=2", "problem.d1=0", "seed=-1"]
        for i, first in enumerate(order):
            argv = ["run", "--config", str(cfg_path)]
            for item in reversed(order[i:]):  # set last-group first: the report order is not the set order
                argv += ["--set", item]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"config error: {message[first]}\n"

    def test_huge_finite_step_may_diverge(self, tmp_path, capsys):
        cfg_path = write(tmp_path, MINIMAL + f"output_path = {tmp_path / 'x.csv'}\n")
        assert main(["run", "--config", str(cfg_path), "--set", "hyper.eta1=1e308"]) == 3

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        cfg_path = write(tmp_path, MINIMAL + f"output_path = {tmp_path / 'x.csv'}\n")
        assert main(["run", "--config", str(cfg_path), "--set", "seed=-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "seed must be non-negative" in err

    def test_negative_env_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDMM_SEED", "-3")
        cfg_path = write(tmp_path, MINIMAL + f"output_path = {tmp_path / 'x.csv'}\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: FEDMM_SEED must be non-negative, got -3")

    def test_divergent_run_exit_code(self, tmp_path, capsys):
        out = tmp_path / "div.csv"
        text = (
            "optimizer = fedmm\nproblem = quadratic\n"
            "hyper.eta1 = 50.0\nhyper.eta2 = 50.0\nhyper.rounds = 50\n"
            f"output_path = {out}\n"
        )
        rc = main(["run", "--config", str(write(tmp_path, text))])
        assert rc == 3
        assert not out.exists()

    def test_non_finite_phi_oracle_ascent_empties_the_field(self, tmp_path, capsys):
        # features at 1e100 overflow the oracle's ascent gradient: a failed solve, never a traceback
        train, _, _ = domain_shift_toy(seeded_rng(0), 60, 4)
        train.X = train.X * 1e100
        data, out = tmp_path / "huge.txt", tmp_path / "huge.csv"
        save_dataset(data, train, 2)
        cfg = Path(__file__).resolve().parent.parent / "configs" / "label_shift_fedmm.cfg"
        rc = main([
            "run", "--config", str(cfg), "--set", f"problem.file={data}",
            "--set", "optimizer=central_gda", "--set", "hyper.rounds=3",
            "--set", f"output_path={out}",
        ])
        assert rc == 3
        assert "status=diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {path}: ")

    def test_quadratic_shape_without_an_instance_is_config_error(self, tmp_path, capsys):
        # no generator seed gives 20 one-dimensional clients a PD max-function Hessian
        rc = main([
            "run", "--config", str(SHIPPED / "quadratic_fedsgda.cfg"),
            "--set", "problem.n_clients=20", "--set", "problem.d1=1", "--set", "problem.d2=1",
            "--set", "hyper.rounds=2", "--set", f"output_path={tmp_path / 'x.csv'}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: problem.n_clients=20 problem.d1=1 problem.d2=1: ")

    @pytest.mark.parametrize(
        "cfg, override, message",
        [
            (
                "quadratic_fedmm.cfg", "problem.d1=10000000",
                "problem.n_clients=3 problem.d1=10000000 problem.d2=3: a synthetic instance of "
                "300000120000036 floats, past the bound of 2**24",
            ),
            (
                "label_shift_fedmm.cfg", "problem.n_per_domain=10000000000000",
                "problem.n_per_domain=10000000000000 problem.holdout_n=240: a synthetic instance of "
                "40000000000480 floats, past the bound of 2**24",
            ),
        ],
        ids=["quadratic", "domain_adapt"],
    )
    def test_synthetic_instance_past_the_float_bound_is_config_error(
        self, tmp_path, capsys, cfg, override, message
    ):
        out = tmp_path / "x.csv"
        argv = ["run", "--config", str(SHIPPED / cfg), "--set", override, "--set", f"output_path={out}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cfg, overrides, where", _FINITE_ITERATE, ids=_FINITE_ITERATE_IDS)
    def test_non_finite_gradient_or_upload_at_a_finite_iterate_is_divergence(
        self, tmp_path, capsys, cfg, overrides, where
    ):
        out = tmp_path / "x.csv"
        argv = ["run", "--config", str(SHIPPED / cfg), "--set", f"output_path={out}"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"status=diverged error=non-finite iterate in {where}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cfg, overrides, where", _FINITE_ITERATE, ids=_FINITE_ITERATE_IDS)
    def test_a_diverged_run_prints_its_status_line_alone(
        self, tmp_path, capfd, monkeypatch, cfg, overrides, where
    ):
        # a fresh `fedmm run`, where numpy would print its overflow warnings to stderr
        monkeypatch.delenv("FEDMM_SEED", raising=False)
        monkeypatch.setenv("PYTHONPATH", str(SHIPPED.parent / "src"))
        argv = [sys.executable, "-m", "fedmm.cli", "run", "--config", str(SHIPPED / cfg)]
        for item in [*overrides, f"output_path={tmp_path / 'x.csv'}"]:
            argv += ["--set", item]
        assert subprocess.run(argv, timeout=120).returncode == 3
        assert capfd.readouterr().err == f"status=diverged error=non-finite iterate in {where}\n"

    @pytest.mark.parametrize("value", ["", ".", "a\x00b"], ids=["empty", "dot", "nul"])
    def test_output_path_naming_no_file_is_config_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        cfg_path = write(tmp_path, MINIMAL + "hyper.rounds = 1\n")
        assert main(["run", "--config", str(cfg_path), "--set", f"output_path={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "output_path" in err


def _corrupt(block: str, at: tuple, value: float):
    """A spec with one entry of one block replaced."""

    def apply(spec):
        m = getattr(spec, block).copy()
        m[at] = value
        return replace(spec, **{block: m})

    return apply


# each corrupts client 1 of a 3-client instance: (how, the error it must name)
_BAD_CLIENT = {
    "asymmetric_A": (_corrupt("A", (0, 1), 0.75), "A must be symmetric"),
    "non_pd_C": (lambda s: replace(s, C=-s.C), "C is not positive definite: smallest eigenvalue"),
    "nan_in_C": (_corrupt("C", (1, 1), float("nan")), "C has a non-finite entry"),
    "nan_in_B": (_corrupt("B", (2, 0), float("nan")), "B has a non-finite entry"),
    "inf_on_A_diagonal": (_corrupt("A", (1, 1), float("inf")), "A has a non-finite entry"),
}


def _bad_instance(tmp_path, name):
    specs = synthetic_quadratic_specs(3)
    specs[1] = _BAD_CLIENT[name][0](specs[1])
    path = tmp_path / f"{name}.problem"
    save_quadratic_specs(path, specs)
    return path


def _run_quietly(argv):
    """main(argv), failing on any warning it raises (numpy's RuntimeWarnings included)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


class TestBadQuadraticFile:
    """A malformed matrix in a problem.file is a config error naming the file and the client."""

    def assert_config_error(self, capsys, path, name):
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: problem.file: {path}: client 1: ")
        assert _BAD_CLIENT[name][1] in captured.err
        assert "Traceback" not in captured.err
        return captured

    @pytest.mark.parametrize("optimizer", ["fedmm", "central_gda"])
    @pytest.mark.parametrize("name", sorted(_BAD_CLIENT))
    def test_run_exits_2(self, tmp_path, capsys, name, optimizer):
        path = _bad_instance(tmp_path, name)
        out = tmp_path / "never.csv"
        text = MINIMAL.replace("fedmm", optimizer) + f"problem.file = {path}\noutput_path = {out}\n"
        assert _run_quietly(["run", "--config", str(write(tmp_path, text))]) == 2
        self.assert_config_error(capsys, path, name)
        assert not out.exists()

    @pytest.mark.parametrize("optimizer", ["fedmm", "central_gda"])
    @pytest.mark.parametrize("name", sorted(_BAD_CLIENT))
    def test_sweep_exits_2_before_any_subrun(self, tmp_path, capsys, name, optimizer):
        path = _bad_instance(tmp_path, name)
        text = (
            MINIMAL.replace("fedmm", optimizer)
            + f"problem.file = {path}\noutput_path = {tmp_path / 'base.csv'}\n"
        )
        argv = ["sweep", "--config", str(write(tmp_path, text)), "--axis", "optimizer"]
        assert _run_quietly(argv + ["--values", "fedmm,fedsgda,central_gda"]) == 2
        captured = self.assert_config_error(capsys, path, name)
        assert "sweep " not in captured.out + captured.err
        assert not list(tmp_path.glob("sweep_*"))


def _dataset_text(n_per_domain=8, seed=0) -> str:
    """A valid dataset file of the DANN toy: `2 2 N` and one `domain label x0 x1` line per point."""
    train, _, _ = domain_shift_toy(seeded_rng(seed), n_per_domain, 4)
    lines = [f"2 2 {len(train)}"]
    for dom, y, (x0, x1) in zip(train.domain, train.y, train.X.tolist()):
        lines.append(f"{dom} {y} {x0!r} {x1!r}")
    return "\n".join(lines) + "\n"


def _dataset_run(tmp_path, data, optimizer="fedmm"):
    """A 2-round run config on the dataset file, and its output path."""
    out = tmp_path / "out.csv"
    text = (
        f"optimizer = {optimizer}\nproblem = domain_adapt\nhyper.rounds = 2\n"
        f"hyper.local_steps = 2\nproblem.file = {data}\noutput_path = {out}\n"
    )
    return write(tmp_path, text), out


class TestBadDatasetFile:
    """A bad record in a dataset problem.file is a config error naming the file and the record."""

    @pytest.mark.parametrize("optimizer", ["fedmm", "central_gda"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_finite_feature_exits_2_before_any_run(
        self, tmp_path, capsys, command, value, optimizer
    ):
        data = tmp_path / "non_finite.txt"
        lines = _dataset_text().splitlines()
        lines[3] = lines[3].rsplit(" ", 1)[0] + f" {value}"  # record 2's second feature
        data.write_text("\n".join(lines) + "\n")
        cfg_path, out = _dataset_run(tmp_path, data, optimizer)
        argv = ["run", "--config", str(cfg_path)]
        if command == "sweep":
            argv = ["sweep", "--config", str(cfg_path), "--axis", "optimizer", "--values"]
            argv.append("fedmm,central_gda")
        assert _run_quietly(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: problem.file: {data}: record 2: a feature is not finite\n"
        )
        assert "sweep " not in captured.out
        assert not out.exists() and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "record, message",
        [
            ("0 1 0.5 x", "could not convert string to float: 'x'"),
            ("0 -1.5 0.5 0.25", "record 1: domain and label must be integers, got 0 -1.5"),
            ("0 1.0 0.5 0.25", "record 1: domain and label must be integers, got 0 1.0"),
            ("1.5 -1 0.5 0.25", "record 1: domain and label must be integers, got 1.5 -1"),
            ("0 99999999999999999999 0.5 0.25", "record 1: label 99999999999999999999 outside"),
            ("99999999999999999999 1 0.5 0.25", "domain flags must be SOURCE (0) or TARGET (1)"),
            ("0 5 0.5 0.25", "record 1: label 5 outside class range 0..1 (or -1 unlabeled)"),
            ("0 1 0.5", "expected 12 values, found 11"),
        ],
        ids=[
            "token", "label_-1.5", "label_1.0", "domain_1.5", "label_overflow",
            "domain_overflow", "label_5", "short",
        ],
    )
    def test_parse_error_names_the_file(self, tmp_path, capsys, record, message):
        data = tmp_path / "garbled.txt"
        data.write_text(f"2 2 3\n0 1 1.0 2.0\n{record}\n1 -1 0.0 0.5\n")
        cfg_path, out = _dataset_run(tmp_path, data)
        assert _run_quietly(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: problem.file: {data}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "first, later",
        [("0 1 nan 0.5", "0 1.5 0.5 0.25"), ("0 1.5 0.5 0.25", "0 1 nan 0.5")],
        ids=["feature_first", "label_first"],
    )
    def test_the_first_failing_record_is_named(self, tmp_path, capsys, first, later):
        data = tmp_path / "garbled.txt"
        data.write_text(f"2 2 4\n{first}\n0 1 1.0 2.0\n1 -1 0.0 0.5\n{later}\n")
        cfg_path, _ = _dataset_run(tmp_path, data)
        assert _run_quietly(["run", "--config", str(cfg_path)]) == 2
        assert f"{data}: record 0: " in capsys.readouterr().err

    @pytest.mark.parametrize("n_classes", [100_000, 1_000_000_000])
    def test_class_count_above_the_record_count_exits_2_at_once(
        self, tmp_path, capsys, n_classes
    ):
        # the model holds n_classes * d predictor weights: 5 records may not ask for 10**9 classes
        data = tmp_path / "classes.txt"
        lines = _dataset_text(n_per_domain=2).splitlines()
        assert lines[0] == "2 2 5"
        data.write_text("\n".join([f"2 {n_classes} 5"] + lines[1:]) + "\n")
        cfg_path, out = _dataset_run(tmp_path, data)
        tracemalloc.start()
        try:
            code = _run_quietly(["run", "--config", str(cfg_path)])
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: problem.file: {data}: "
            f"header class count {n_classes} exceeds the 5 records\n"
        )
        assert peak < 2**20  # no model is built
        assert not out.exists()


# tokens a mutated dataset file may hold: features, domains and labels of every
# kind, and junk; the header draws only small values, so a drawn layout stays small
_RECORD_TOKENS = st.sampled_from([
    "nan", "inf", "-inf", "1e999", "1e308", "-1e308", "5e-324", "-0.0", "0.5", "1.5", "1.0",
    "-1.5", "-1", "0", "1", "2", "3", "99999999999999999999", "x", "0x1", "1_0", "١", "½", "∞",
])
_HEADER_TOKENS = st.sampled_from(["-1", "0", "1", "2", "3", "4", "1.5", "2.0", "nan", "x", "١"])


@st.composite
def _mutated_datasets(draw):
    """A valid dataset's lines of tokens with up to three edits: replaced, dropped or cut tokens."""
    lines = [line.split() for line in _dataset_text(4, draw(st.integers(0, 3))).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
        # mostly same-length edits, so that most drawn files parse and reach a run
        edit = draw(st.sampled_from(["replace"] * 6 + ["drop_token", "drop_line", "cut_file"]))
        if edit == "replace" and lines[i]:
            lines[i][j] = draw(_HEADER_TOKENS if i == 0 else _RECORD_TOKENS)
        elif edit == "drop_token" and lines[i]:
            del lines[i][j]
        elif edit == "drop_line":
            del lines[i]
        elif edit == "cut_file":
            lines = lines[:i]
        if not lines:
            break
    return "\n".join(" ".join(line) for line in lines) + "\n"


class TestDatasetFileFuzz:
    # features near 1e308 overflow the run's arithmetic: exit 0 or 3, with no numpy warning
    @settings(
        max_examples=100, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        optimizer=st.sampled_from(["fedmm", "fedavg_gda", "central_gda"]),
        text=_mutated_datasets(),
    )
    # the escape it found: a non-finite feature ended in a traceback mid-run
    @example(optimizer="fedmm", text="2 2 2\n0 1 0.5 nan\n1 -1 0.0 0.5\n")
    @example(optimizer="central_gda", text="2 2 2\n0 1 0.5 inf\n1 -1 0.0 0.5\n")
    def test_run_ends_in_a_known_exit_code(self, tmp_path, monkeypatch, optimizer, text):
        """Any dataset file ends in exit 0, 2 or 3; no exception escapes main()."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FEDMM_SEED", raising=False)
        data = tmp_path / "fuzz.txt"
        data.write_text(text, encoding="utf-8")
        cfg_path, _ = _dataset_run(tmp_path, data, optimizer)
        assert main(["run", "--config", str(cfg_path)]) in (0, 2, 3)


@pytest.fixture
def loads(monkeypatch):
    """Paths of the problem files read since the test started, one entry per read."""
    paths = []
    for module, name in ((objectives, "_read_quadratic"), (federation, "load_dataset")):
        def counted(path, read=getattr(module, name)):
            paths.append(path)
            return read(path)

        monkeypatch.setattr(module, name, counted)
    return paths


_LOAD_SWEEPS = {
    "optimizer": "fedmm,fedsgda,central_gda",
    "local_steps": "1,2,3",
    "partition_p": "0.25,0.5,0.75",
}


class TestProblemLoads:
    """A problem file is read once per run: once by `run`, and by `sweep` once per value plus the base."""

    def config(self, tmp_path, problem, optimizer="fedmm"):
        data = tmp_path / "problem.txt"
        if problem == "quadratic":
            save_quadratic_specs(data, synthetic_quadratic_specs(4))
        else:
            data.write_text(_dataset_text())
        text = (
            f"optimizer = {optimizer}\nproblem = {problem}\nhyper.rounds = 1\n"
            f"hyper.local_steps = 2\nproblem.file = {data}\n"
            f"output_path = {tmp_path / 'out.csv'}\n"
        )
        return str(write(tmp_path, text)), str(data)

    @pytest.mark.parametrize("optimizer", ["fedmm", "central_gda"])
    @pytest.mark.parametrize("problem", ["quadratic", "domain_adapt"])
    def test_run_reads_the_file_once(self, tmp_path, capsys, loads, problem, optimizer):
        cfg_path, data = self.config(tmp_path, problem, optimizer)
        assert main(["run", "--config", cfg_path]) == 0
        assert loads == [data]

    @pytest.mark.parametrize("axis", sorted(_LOAD_SWEEPS))
    @pytest.mark.parametrize("problem", ["quadratic", "domain_adapt"])
    def test_sweep_reads_the_file_once_per_value_and_for_the_base(
        self, tmp_path, capsys, loads, problem, axis
    ):
        cfg_path, data = self.config(tmp_path, problem)
        values = _LOAD_SWEEPS[axis]
        assert main(["sweep", "--config", cfg_path, "--axis", axis, "--values", values]) == 0
        assert loads == [data] * (len(values.split(",")) + 1)


_TOY_RUN = """\
optimizer = fedmm
problem = domain_adapt
problem.n_per_domain = 12
problem.holdout_n = 6
hyper.rounds = 3
hyper.local_steps = 3
output_path = {out}
"""


def test_env_seed_prepares_the_same_problem_as_the_seed_key(tmp_path, capsys, monkeypatch):
    # the DANN toy's data is drawn from the seed, so the override must come before prepare
    monkeypatch.delenv("FEDMM_SEED", raising=False)
    outs = {name: tmp_path / f"{name}.csv" for name in ("default", "key", "env")}
    cfgs = {name: write(tmp_path, _TOY_RUN.format(out=out), f"{name}.cfg") for name, out in outs.items()}
    assert main(["run", "--config", str(cfgs["default"])]) == 0
    assert main(["run", "--config", str(cfgs["key"]), "--set", "seed=7"]) == 0
    monkeypatch.setenv("FEDMM_SEED", "7")
    assert main(["run", "--config", str(cfgs["env"])]) == 0
    assert outs["env"].read_bytes() == outs["key"].read_bytes() != outs["default"].read_bytes()


# runs with no shards to subsample (quadratic clients, central GDA's pooled
# client), and the key each one's error names
_NO_SHARDS = [
    ("quadratic", "fedmm", "problem = quadratic"),
    ("domain_adapt", "central_gda", "optimizer = central_gda"),
]


class TestBatchSizeScope:
    """batch_size > 0 where no minibatch is drawn is a config error, never silently full batch."""

    @pytest.mark.parametrize("problem, optimizer, named", _NO_SHARDS)
    def test_run_exits_2(self, tmp_path, capsys, problem, optimizer, named):
        out = tmp_path / "never.csv"
        text = f"optimizer = {optimizer}\nproblem = {problem}\noutput_path = {out}\n"
        argv = ["run", "--config", str(write(tmp_path, text)), "--set", "batch_size=5"]
        assert _run_quietly(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: batch_size must be 0 for {named}, got 5")
        assert "Traceback" not in err
        assert not out.exists()

    def test_sweep_of_a_quadratic_exits_2_before_any_subrun(self, tmp_path, capsys):
        cfg_path = write(tmp_path, QUAD_RUN.format(out=tmp_path / "base.csv"))
        argv = ["sweep", "--config", str(cfg_path), "--set", "batch_size=5", "--axis", "optimizer"]
        assert _run_quietly(argv + ["--values", "fedmm,fedsgda"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: batch_size must be 0 for problem = quadratic")
        assert "sweep " not in captured.out + captured.err
        assert not list(tmp_path.glob("sweep_*"))

    def test_sweep_to_central_gda_exits_2_before_any_subrun(self, tmp_path, capsys):
        text = "optimizer = fedmm\nproblem = domain_adapt\nbatch_size = 5\n"
        cfg_path = write(tmp_path, text + f"output_path = {tmp_path / 'base.csv'}\n")
        argv = ["sweep", "--config", str(cfg_path), "--axis", "optimizer"]
        assert _run_quietly(argv + ["--values", "fedmm,central_gda"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "config error: --values: 'central_gda': batch_size must be 0 for optimizer = central_gda"
        )
        assert "sweep " not in captured.out + captured.err
        assert not list(tmp_path.glob("sweep_*"))


# Small runs whatever the drawn lines add: the drawn integers stay in -3..4 and
# later lines override these, so no drawn config runs long or allocates much.
_FUZZ_BASE = """\
optimizer = {optimizer}
problem = {problem}
hyper.rounds = 2
hyper.local_steps = 2
hyper.local_max_iters = 50
hyper.tol = 1e-4
problem.n_per_domain = 6
problem.holdout_n = 4
metrics_every = 1000
output_path = out.csv
"""
# mostly known keys and plausible values, so that most drawn configs get past
# the parser and into a run
_FUZZ_KEYS = st.sampled_from(
    sorted(CONFIG_KEYS)
    + ["", "etaa1", "hyper", "hyper.", "hyper.mu3", "Seed", "problem.file.x", "ünï"]
)
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 4).map(str),
    st.integers(1, 3).map(str),
    st.sampled_from(["0.1", "0.5", "1.0", "1e-3"]),
    st.sampled_from([
        "nan", "inf", "-inf", "1e308", "-1e308", "1e999", "5e-324", "-0.0", "0.5", "",
        "1,2", "2,1,3", "1,,2", "[1, 2]", "(1,)", "fedmm", "central_gda", "quadratic",
        "domain_adapt", "one_source_two_target", "two_client_p", "x.csv", ".", "a\x00b",
        "ünïcødé", "١٢", "∞",
    ]),
    # no path separators: a drawn output_path stays inside the test's directory
    st.text(st.characters(exclude_characters="/\\", exclude_categories=("Cs",)), max_size=8),
)


class TestConfigFuzz:
    @settings(
        max_examples=100, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        optimizer=st.sampled_from([k.value for k in OptimizerKind]),
        problem=st.sampled_from(["quadratic", "domain_adapt"]),
        lines=st.lists(st.tuples(_FUZZ_KEYS, _FUZZ_VALUES), max_size=3),
    )
    # escapes it found: an output_path that names no file ended in a ValueError traceback
    @example(optimizer="fedmm", problem="quadratic", lines=[("output_path", "")])
    @example(optimizer="fedmm", problem="quadratic", lines=[("output_path", "\x00")])
    # a synthetic instance too large to allocate ended in a MemoryError traceback
    @example(optimizer="fedmm", problem="quadratic", lines=[("problem.d1", "10000000")])
    @example(
        optimizer="fedmm", problem="domain_adapt", lines=[("problem.n_per_domain", "10000000000000")]
    )
    def test_run_ends_in_a_known_exit_code(self, tmp_path, monkeypatch, optimizer, problem, lines):
        """Any config text ends in exit 0, 2, 3 or 4; no exception escapes main()."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FEDMM_SEED", raising=False)
        text = _FUZZ_BASE.format(optimizer=optimizer, problem=problem)
        text += "".join(f"{key} = {value}\n" for key, value in lines)
        cfg_path = tmp_path / "fuzz.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) in (0, 2, 3, 4)


# --set items: a drawn key and value, or a bare drawn value (no '=' or a leading '-')
_SET_VALUES = st.one_of(
    _FUZZ_VALUES,
    st.sampled_from(
        ["", "ünïcødé", "nan", "inf", "-inf", "-1", "-", "--", "--set", "-x=1", "=", "a=b"]
    ),
)
_SET_ITEMS = st.one_of(st.tuples(_FUZZ_KEYS, _SET_VALUES).map("=".join), _SET_VALUES)


class TestSetFuzz:
    @settings(
        max_examples=60, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(items=st.lists(_SET_ITEMS, max_size=3))
    def test_set_ends_in_a_known_exit_code(self, tmp_path, monkeypatch, items):
        """Any --set items end in exit 0, 2, 3 or 4; argparse's own rejection exits 2."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FEDMM_SEED", raising=False)
        text = _FUZZ_BASE.format(optimizer="fedmm", problem="quadratic")
        argv = ["run", "--config", str(write(tmp_path, text, "fuzz.cfg"))]
        for item in items:
            argv += ["--set", item]
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        assert code in (0, 2, 3, 4)


# values each axis accepts, some in non-canonical spellings
_AXIS_VALUES = {
    "optimizer": ["fedmm", "FedSGDA", "central_gda", "fedprox_gda", " fedavg_gda "],
    "partition_p": ["0", "0.5", "1.0", "1", "-0.0", "1e-300"],
    "local_steps": ["1", "2", "010", "١٢"],
}
_SWEEP_JUNK = st.one_of(
    st.integers(-2, 30).map(str),
    st.sampled_from([
        "0.0", "1.5", "nan", "inf", "-inf", "1e999", "fedmm", "ünï", "١٢", "∞", "½", "-",
        "--set", "a\x00b",
    ]),
    st.text(st.characters(exclude_characters=",", exclude_categories=("Cs",)), max_size=6),
)


@st.composite
def _sweeps(draw):
    """(axis, values): half the time only values the axis accepts, else any mix with junk."""
    axis = draw(st.sampled_from(list(_AXES)))
    valid = st.sampled_from(_AXIS_VALUES[axis])
    values = draw(st.one_of(
        st.lists(valid, min_size=1, max_size=3), st.lists(st.one_of(valid, _SWEEP_JUNK), max_size=3)
    ))
    return axis, values


class TestSweepFuzz:
    @settings(
        max_examples=40, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        problem=st.sampled_from(["quadratic", "domain_adapt"]),
        sweep=_sweeps(),
        local_steps=st.sampled_from(["2", "2,3"]),
    )
    def test_sweep_ends_in_a_known_exit_code(self, tmp_path, monkeypatch, problem, sweep, local_steps):
        """Any axis values end in exit 0 to 4; no exception escapes main()."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FEDMM_SEED", raising=False)
        text = (
            f"optimizer = fedmm\nproblem = {problem}\nproblem.n_clients = 2\n"
            "problem.n_per_domain = 6\nproblem.holdout_n = 4\n"
            f"hyper.rounds = 1\nhyper.local_steps = {local_steps}\n"
            f"output_path = {tmp_path / 'out.csv'}\n"
        )
        axis, values = sweep
        argv = ["sweep", "--config", str(write(tmp_path, text, "fuzz.cfg")), "--axis", axis]
        assert main(argv + ["--values=" + ",".join(values)]) in range(5)


_POSITIVE = st.floats(min_value=1e-8, max_value=1e8)
_NONNEGATIVE = st.one_of(st.just(0.0), _POSITIVE)


@st.composite
def _configs(draw):
    """(a valid config with one local_steps entry, whether to give it a problem file)."""
    mode = draw(st.sampled_from(PartitionMode))
    hyper = HyperParams(
        mu1=draw(_POSITIVE), mu2=draw(_POSITIVE), eta1=draw(_POSITIVE), eta2=draw(_POSITIVE),
        eta3=draw(st.floats(min_value=1e-3, max_value=1.0)), nu=draw(_NONNEGATIVE),
        local_steps=(draw(st.integers(1, 50)),), rounds=draw(st.integers(0, 10**6)),
        prox_mu=draw(_NONNEGATIVE), tol=draw(_POSITIVE), local_tol=draw(_NONNEGATIVE),
        local_max_iters=draw(st.integers(1, 10**6)),
    )
    optimizer = draw(st.sampled_from(OptimizerKind))
    kind = draw(st.sampled_from(ProblemKind))
    # minibatches exist only for federated domain-adaptation runs
    minibatch = kind is ProblemKind.DOMAIN_ADAPT and optimizer is not OptimizerKind.CENTRAL_GDA
    problem = ProblemSpec(
        kind,
        n_clients=draw(st.integers(1, 64)),
        d1=draw(st.integers(1, 64)),
        d2=draw(st.integers(1, 64)),
        n_per_domain=draw(st.integers(1, 500)),
        holdout_n=draw(st.integers(1, 500)),
    )
    return ExperimentConfig(
        optimizer=optimizer,
        problem=problem,
        hyper=hyper,
        partition=PartitionSpec(draw(st.floats(0.0, 1.0)), mode),
        seed=draw(st.integers(0, 2**63)),
        metrics_every=draw(st.integers(1, 1000)),
        output_path=draw(st.sampled_from(["run.csv", "out/a b.csv", "ünï.csv"])),
        batch_size=draw(st.integers(0, 500)) if minibatch else 0,
    ), draw(st.booleans())


def _as_text(echo: dict) -> str:
    """An echo written back as `key = value` lines; an unset problem.file has no line."""
    lines = []
    for key, value in echo.items():
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestConfigEcho:
    def test_echo_names_every_config_key(self):
        config = ExperimentConfig(optimizer=OptimizerKind.FEDMM, problem=ProblemSpec(ProblemKind.QUADRATIC))
        assert set(config.echo()) == set(CONFIG_KEYS)

    def test_every_config_field_is_set_by_exactly_one_key(self):
        # a group is a dataclass-typed field; each of its fields is set instead of it
        hints = get_type_hints(ExperimentConfig)
        groups = {name: hint for name, hint in hints.items() if is_dataclass(hint)}
        want = [name for name in hints if name not in groups]
        want += [f"{group}.{f.name}" for group, cls in groups.items() for f in fields(cls)]
        assert sorted(path for path, *_ in CONFIG_KEYS.values()) == sorted(want)
        assert "problem" in groups and CONFIG_KEYS["problem"][0] == "problem.kind"

    def test_readme_config_table_names_exactly_the_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        named = [key for cell in rows for key in re.findall(r"`([^`]+)`", cell)]
        assert sorted(named) == sorted(CONFIG_KEYS)

    @settings(
        max_examples=30, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=_configs())
    def test_echo_parses_back_to_the_same_config(self, tmp_path, monkeypatch, drawn):
        monkeypatch.delenv("FEDMM_SEED", raising=False)
        config, with_file = drawn
        if with_file:
            path = tmp_path / f"{config.problem.kind.value}.txt"
            if config.problem.kind is ProblemKind.QUADRATIC:
                save_quadratic_specs(path, synthetic_quadratic_specs(2))
            else:
                train, _, layout = domain_shift_toy(seeded_rng(5), n_per_domain=12, holdout_n=4)
                save_dataset(path, train, layout.n_classes)
            config = replace(config, problem=replace(config.problem, file=str(path)))
        assert parse_config(write(tmp_path, _as_text(config.echo()))) == config


class TestWriteAtomic:
    def test_other_writers_temp_file_untouched(self, tmp_path):
        out = tmp_path / "run.csv"
        other = tmp_path / "run.csv.tmp"
        other.write_text("another writer's partial output")
        _write_atomic(str(out), "a,b\n")
        assert out.read_text() == "a,b\n"
        assert other.read_text() == "another writer's partial output"

    def test_concurrent_writers_to_one_path(self, tmp_path):
        out = tmp_path / "run.csv"
        texts = [f"writer {i}\n" * 200 for i in range(8)]
        errors = []

        def write_many(text):
            try:
                for _ in range(25):
                    _write_atomic(str(out), text)
            except OSError as e:
                errors.append(e)

        threads = [threading.Thread(target=write_many, args=(t,)) for t in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert out.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


class TestCmdSweep:
    def test_single_value_matches_run(self, tmp_path, capsys):
        out = tmp_path / "base.csv"
        cfg_path = write(tmp_path, QUAD_RUN.format(out=out))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 0
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "local_steps", "--values", "10"])
        assert rc == 0
        swept = (tmp_path / "sweep_local_steps_10.csv").read_bytes()
        assert swept == out.read_bytes()
        index = (tmp_path / "sweep_local_steps_index.csv").read_text()
        assert index.splitlines()[0].startswith("value,status,rounds")
        assert index.splitlines()[1].startswith("10,ok,5")

    def test_failed_subrun_recorded_and_continues(self, tmp_path, capsys):
        out = tmp_path / "base.csv"
        text = QUAD_RUN.format(out=out).replace("hyper.eta1 = 0.1", "hyper.eta1 = 50.0")
        cfg_path = write(tmp_path, text)
        rc = main([
            "sweep", "--config", str(cfg_path), "--axis", "optimizer",
            "--values", "fedmm,fedsgda",
        ])
        assert rc == 1
        index = (tmp_path / "sweep_optimizer_index.csv").read_text()
        rows = {line.split(",")[0]: line for line in index.splitlines()[1:]}
        assert rows["fedmm"].split(",")[1] == "error"
        # fedsgda with one implicit step per round survives eta=50 on this instance
        assert "fedsgda" in rows

    def test_p_axis_files_named_by_value(self, tmp_path):
        out = tmp_path / "base.csv"
        text = (
            "optimizer = fedavg_gda\nproblem = domain_adapt\n"
            "hyper.rounds = 2\nhyper.local_steps = 2\n"
            "problem.n_per_domain = 16\nproblem.holdout_n = 8\n"
            f"output_path = {out}\n"
        )
        cfg_path = write(tmp_path, text)
        rc = main([
            "sweep", "--config", str(cfg_path), "--axis", "partition_p",
            "--values", "0.5,1.0",
        ])
        assert rc == 0
        assert (tmp_path / "sweep_partition_p_0.5.csv").exists()
        assert (tmp_path / "sweep_partition_p_1.0.csv").exists()

    def test_files_and_index_rows_named_by_canonical_value(self, tmp_path):
        cfg_path = write(tmp_path, QUAD_RUN.format(out=tmp_path / "base.csv"))
        rc = main([
            "sweep", "--config", str(cfg_path), "--axis", "optimizer",
            "--values", " FedSGDA,fedavg_gda ",
        ])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.glob("sweep_*")) == [
            "sweep_optimizer_fedavg_gda.csv",
            "sweep_optimizer_fedsgda.csv",
            "sweep_optimizer_index.csv",
        ]
        index = (tmp_path / "sweep_optimizer_index.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in index[1:]] == ["fedsgda", "fedavg_gda"]

    @pytest.mark.parametrize(
        "axis, values, first, second",
        [
            ("optimizer", "fedmm, FedMM", "fedmm", " FedMM"),
            ("partition_p", "0.5,1,1.0", "1", "1.0"),
            ("local_steps", "10,010", "10", "010"),
        ],
    )
    def test_values_that_parse_to_one_run_are_a_config_error(
        self, tmp_path, capsys, axis, values, first, second
    ):
        text = QUAD_RUN if axis != "partition_p" else TOY_SWEEP.replace("hyper.rounds = 200", "hyper.rounds = 2")
        cfg_path = write(tmp_path, text.format(out=tmp_path / "base.csv"))
        rc = main(["sweep", "--config", str(cfg_path), "--axis", axis, "--values", values])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --values:")
        assert f"{first!r} and {second!r}" in err
        assert not list(tmp_path.glob("sweep_*"))  # nothing ran

    def test_value_whose_config_fails_the_checks_is_a_config_error(self, tmp_path, capsys):
        # central_gda runs one pooled client, which two local_steps entries do not fit
        cfg_path = write(tmp_path, QUAD_RUN.format(out=tmp_path / "base.csv"))
        rc = main([
            "sweep", "--config", str(cfg_path),
            "--set", "problem.n_clients=2", "--set", "hyper.local_steps=20,30",
            "--axis", "optimizer", "--values", "fedmm,central_gda",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --values: 'central_gda': hyper.local_steps:")
        assert not list(tmp_path.glob("sweep_*"))  # nothing ran

    @pytest.mark.parametrize(
        "axis, key, value, message",
        [
            ("partition_p", "partition.p", "x", "partition.p: expected a number, got 'x'"),
            (
                "local_steps", "hyper.local_steps", "ten",
                "hyper.local_steps: expected an integer or comma list, got 'ten'",
            ),
            (
                "optimizer", "optimizer", "warp",
                "optimizer: expected one of fedmm, fedsgda, fedavg_gda, fedprox_gda, central_gda, "
                "got 'warp'",
            ),
            ("partition_p", "partition.p", "2", "partition.p must lie in [0, 1], got 2.0"),
            ("local_steps", "hyper.local_steps", "0", "hyper.local_steps must all be >= 1, got (0,)"),
        ],
    )
    def test_value_fails_as_its_key_fails_in_set(self, tmp_path, capsys, axis, key, value, message):
        cfg_path = write(tmp_path, QUAD_RUN.format(out=tmp_path / "base.csv"))
        assert main(["run", "--config", str(cfg_path), "--set", f"{key}={value}"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        argv = ["sweep", "--config", str(cfg_path), "--axis", axis, "--values", value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: --values: {value!r}: {message}\n"
        assert not list(tmp_path.glob("sweep_*"))

    def test_unparseable_value_is_a_config_error(self, tmp_path, capsys):
        cfg_path = write(tmp_path, QUAD_RUN.format(out=tmp_path / "base.csv"))
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "local_steps", "--values", "10,ten"])
        assert rc == 2
        assert "'ten'" in capsys.readouterr().err
        assert not list(tmp_path.glob("sweep_*"))


TOY_SWEEP = """\
optimizer = fedavg_gda
problem = domain_adapt
hyper.eta1 = 0.1
hyper.eta2 = 0.25
hyper.nu = 0.5
hyper.local_steps = 50
hyper.rounds = 200
hyper.tol = 1e-4
seed = 7
metrics_every = 1000000000
partition.p = 0.5
output_path = {out}
"""


def read_index(path, column):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index(column)
    return {row.split(",")[0]: row.split(",")[idx] for row in lines[1:]}


class TestSweepQualitative:
    def test_p_sweep_accuracy_nonincreasing(self, tmp_path, capsys):
        out = tmp_path / "base.csv"
        cfg_path = write(tmp_path, TOY_SWEEP.format(out=out))
        rc = main([
            "sweep", "--config", str(cfg_path), "--axis", "partition_p",
            "--values", "0.5,0.75,1.0",
        ])
        assert rc == 0
        accs = {
            k: float(v)
            for k, v in read_index(
                tmp_path / "sweep_partition_p_index.csv", "final_target_accuracy"
            ).items()
        }
        band = 0.02
        assert accs["0.75"] <= accs["0.5"] + band
        assert accs["1.0"] <= accs["0.75"] + band
        assert accs["0.5"] - accs["1.0"] >= 0.05

    def test_optimizer_sweep_fedmm_beats_fedavg_at_p1(self, tmp_path, capsys):
        out = tmp_path / "base.csv"
        text = TOY_SWEEP.format(out=out).replace("partition.p = 0.5", "partition.p = 1.0")
        cfg_path = write(tmp_path, text)
        rc = main([
            "sweep", "--config", str(cfg_path), "--axis", "optimizer",
            "--values", "fedmm,fedavg_gda",
        ])
        assert rc == 0
        accs = {
            k: float(v)
            for k, v in read_index(
                tmp_path / "sweep_optimizer_index.csv", "final_target_accuracy"
            ).items()
        }
        assert accs["fedmm"] >= accs["fedavg_gda"]


CHECK_ROWS = [
    "quadratic_gradients",
    "domain_adapt_gradients",
    "inner_max_paths_agree",
    "danskin_stationarity",
    "identity_suite",
    "dual_recovery",
    "equiv_fedsgda_central",
    "equiv_fedprox_fedavg",
    "equiv_fedavg_fedsgda",
    "row_independence",
    "stacked_oracles",
    "stationary_saddle_fixed",
    "kappa_bound",
    "partition_cover",
    "non_pd_rejected",
]


class TestCmdCheck:
    def test_pristine_build_passes(self, capsys):
        rc = main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "status=ok" in out
        # every row, in order: a renamed or dropped check shows here
        assert [line.split()[1] for line in out.splitlines()[:-1]] == CHECK_ROWS
        assert out.splitlines()[-1] == "status=ok"
