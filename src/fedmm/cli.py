"""Command-line entry point: run / sweep / check.

Config files are plain `key = value` text: one assignment per line, `#`
comments, dotted keys for nesting. Unknown keys are hard errors. The
FEDMM_SEED environment variable overrides the config seed with the highest
precedence. Exit codes: 0 success, 1 failed checks or failed sweep sub-runs,
2 config errors, 3 optimizer divergence, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from fedmm.checks import run_builtin_checks
from fedmm.core import ConvergenceError, DivergenceError, HyperParams
from fedmm.federation import (
    METRIC_FIELDS,
    ExperimentConfig,
    PartitionMode,
    PartitionSpec,
    Problem,
    ProblemKind,
    RunLog,
    prepare,
    run_experiment,
    _fmt,
)
from fedmm.federation import write_atomic as _write_atomic
from fedmm.optim import OptimizerKind

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _parse_steps(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise ValueError(f"expected an integer or comma list, got {raw!r}") from None


# key -> (group, field, parser); groups: top / hyper / partition
_SCHEMA = {
    "optimizer": ("top", "optimizer", OptimizerKind.parse),
    "problem": ("top", "problem", ProblemKind.parse),
    "problem.file": ("top", "problem_file", str),
    "problem.n_clients": ("top", "quad_n_clients", _parse_int),
    "problem.d1": ("top", "quad_d1", _parse_int),
    "problem.d2": ("top", "quad_d2", _parse_int),
    "problem.n_per_domain": ("top", "toy_n_per_domain", _parse_int),
    "problem.holdout_n": ("top", "toy_holdout_n", _parse_int),
    "seed": ("top", "seed", _parse_int),
    "metrics_every": ("top", "metrics_every", _parse_int),
    "output_path": ("top", "output_path", str),
    "batch_size": ("top", "batch_size", _parse_int),
    "hyper.mu1": ("hyper", "mu1", _parse_float),
    "hyper.mu2": ("hyper", "mu2", _parse_float),
    "hyper.eta1": ("hyper", "eta1", _parse_float),
    "hyper.eta2": ("hyper", "eta2", _parse_float),
    "hyper.eta3": ("hyper", "eta3", _parse_float),
    "hyper.nu": ("hyper", "nu", _parse_float),
    "hyper.local_steps": ("hyper", "local_steps", _parse_steps),
    "hyper.rounds": ("hyper", "rounds", _parse_int),
    "hyper.prox_mu": ("hyper", "prox_mu", _parse_float),
    "hyper.tol": ("hyper", "tol", _parse_float),
    "hyper.local_tol": ("hyper", "local_tol", _parse_float),
    "hyper.local_max_iters": ("hyper", "local_max_iters", _parse_int),
    "partition.mode": ("partition", "mode", PartitionMode.parse),
    "partition.n_clients": ("partition", "n_clients", _parse_int),
    "partition.p": ("partition", "p", _parse_float),
}


def _read_assignments(path: str | Path) -> list[tuple[int, str, str]]:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'key = value', got {body!r}", lineno)
        key, _, raw = body.partition("=")
        out.append((lineno, key.strip(), raw.strip()))
    return out


def parse_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse and validate a config file plus `key=value` overrides, then apply FEDMM_SEED.

    Reads no problem file: `prepare` reads it, once, when the run's problem is built.
    """
    entries = _read_assignments(path)
    for i, item in enumerate(overrides or []):
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        entries.append((None, key.strip(), raw.strip()))

    groups: dict[str, dict] = {"top": {}, "hyper": {}, "partition": {}}
    for lineno, key, raw in entries:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        group, field, parser = _SCHEMA[key]
        try:
            groups[group][field] = parser(raw)
        except ValueError as e:
            raise ConfigError(f"{key}: {e}", lineno) from None

    top = groups["top"]
    if "optimizer" not in top:
        raise ConfigError("missing required key 'optimizer'")
    if "problem" not in top:
        raise ConfigError("missing required key 'problem'")

    try:
        hyper = HyperParams(**groups["hyper"])
        partition = PartitionSpec(**groups["partition"])
        config = ExperimentConfig(hyper=hyper, partition=partition, **top)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    env_seed = os.environ.get("FEDMM_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"FEDMM_SEED must be an integer, got {env_seed!r}") from None
        if seed < 0:
            raise ConfigError(f"FEDMM_SEED must be non-negative, got {seed}")
        config = replace(config, seed=seed)
    return config


def _summary_line(log: RunLog, output: str) -> str:
    parts = ["status=ok", f"rounds={len(log.rounds)}"]
    final = log.final()
    if final is not None:
        parts += [f"{name}={_fmt(getattr(final, name))}" for name in METRIC_FIELDS]
    parts.append(f"output={output}")
    return " ".join(parts)


def _prepared(config: ExperimentConfig, prefix: str = "") -> Problem:
    """prepare(config), its errors as config errors."""
    try:
        return prepare(config)
    except ValueError as e:
        raise ConfigError(f"{prefix}{e}") from None


def cmd_run(config: ExperimentConfig, problem: Problem) -> int:
    try:
        log = run_experiment(config, problem)
    except DivergenceError as e:
        print(f"status=diverged error={e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ConvergenceError as e:
        print(f"status=failed error={e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    try:
        log.write_csv(config.output_path)
    except OSError as e:
        print(f"status=io_error error={e}", file=sys.stderr)
        return EXIT_IO
    print(_summary_line(log, config.output_path))
    return EXIT_OK


_AXES = ("partition_p", "optimizer", "local_steps")
# the final-round metrics of the sweep index, in its column order
_INDEX_METRICS = (
    "phi_grad_norm", "consensus_omega", "global_loss", "target_accuracy", "floats_communicated"
)


def _apply_axis(config: ExperimentConfig, axis: str, raw: str) -> tuple[str, ExperimentConfig]:
    """The config for one axis value, and that value's canonical form (its name in file and index)."""
    if axis == "partition_p":
        p = float(raw)
        return repr(p), replace(config, partition=replace(config.partition, p=p))
    if axis == "optimizer":
        kind = OptimizerKind.parse(raw)
        return kind.value, replace(config, optimizer=kind)
    if axis == "local_steps":
        m = int(raw)
        return str(m), replace(config, hyper=replace(config.hyper, local_steps=(m,)))
    raise ConfigError(f"unknown sweep axis {axis!r} (expected one of: {', '.join(_AXES)})")


def _sweep_runs(
    config: ExperimentConfig, axis: str, values: list[str]
) -> dict[str, tuple[ExperimentConfig, Problem]]:
    """Each value's (config with its CSV path, problem) by name; a bad or repeated value is a config error."""
    out_dir = Path(config.output_path).parent
    runs: dict[str, tuple[ExperimentConfig, Problem]] = {}
    raw_of: dict[str, str] = {}
    for raw in values:
        prefix = f"--values: {raw!r}: "
        try:
            name, sub = _apply_axis(config, axis, raw)
        except ValueError as e:
            raise ConfigError(f"{prefix}{e}") from None
        if name in runs:
            raise ConfigError(
                f"--values: {raw_of[name]!r} and {raw!r} are the same {axis} value {name!r}"
            )
        raw_of[name] = raw
        sub = replace(sub, output_path=str(out_dir / f"sweep_{axis}_{name}.csv"))
        runs[name] = sub, _prepared(sub, prefix)
    return runs


def cmd_sweep(config: ExperimentConfig, axis: str, values: list[str]) -> int:
    """One run per value, one CSV per run, plus an index CSV of final metrics."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    out_dir = Path(config.output_path).parent
    index_rows = []
    any_failed = False
    for name, (sub, problem) in _sweep_runs(config, axis, values).items():
        try:
            log = run_experiment(sub, problem)
            log.write_csv(sub.output_path)
            final = log.final()
            index_rows.append(
                [name, "ok", str(len(log.rounds))]
                + [_fmt(None if final is None else getattr(final, c)) for c in _INDEX_METRICS]
                + [""]
            )
            print(f"sweep {axis}={name} status=ok output={sub.output_path}")
        except Exception as e:
            any_failed = True
            index_rows.append([name, "error", "", "", "", "", "", "", str(e).replace(",", ";")])
            print(f"sweep {axis}={name} status=error error={e}", file=sys.stderr)

    header = (
        "value,status,rounds,final_phi_grad_norm,final_consensus_omega,"
        "final_global_loss,final_target_accuracy,floats_communicated,error"
    )
    index_text = "\n".join([header] + [",".join(r) for r in index_rows]) + "\n"
    try:
        _write_atomic(str(out_dir / f"sweep_{axis}_index.csv"), index_text)
    except OSError as e:
        print(f"status=io_error error={e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_FAILED_CHECKS if any_failed else EXIT_OK


def cmd_check() -> int:
    ok = run_builtin_checks()
    print(f"status={'ok' if ok else 'failed'}")
    return EXIT_OK if ok else EXIT_FAILED_CHECKS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmm",
        description="Federated minimax optimization experiments.",
        epilog=(
            "exit codes: 0 success, 1 failed checks/sub-runs, 2 config error, "
            "3 divergence, 4 I/O error. FEDMM_SEED overrides the config seed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write its CSV")
    run_p.add_argument("--config", required=True, help="path to key=value config file")
    run_p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )

    sweep_p = sub.add_parser("sweep", help="run one experiment per axis value")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--axis", required=True, choices=_AXES)
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    sub.add_parser("check", help="run the built-in verification suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(args.config, args.set)
            return cmd_run(config, _prepared(config))
        if args.command == "sweep":
            config = parse_config(args.config, args.set)
            _prepared(config)  # a bad base config fails unprefixed, as its run would
            values = [v for v in args.values.split(",") if v != ""]
            return cmd_sweep(config, args.axis, values)
        if args.command == "check":
            return cmd_check()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
