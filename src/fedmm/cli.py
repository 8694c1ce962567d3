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
    CONFIG_KEYS,
    METRIC_FIELDS,
    ExperimentConfig,
    PartitionSpec,
    Problem,
    RunLog,
    prepare,
    run_experiment,
    to_csv,
    _fmt,
)
from fedmm.federation import write_atomic as _write_atomic

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


def _read_assignments(path: str | Path) -> list[tuple[int, str, str]]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
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

    groups: dict[str, dict] = {"": {}, "hyper": {}, "partition": {}}
    for lineno, key, raw in entries:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        attr, parser = CONFIG_KEYS[key]
        group, _, field = attr.rpartition(".")
        try:
            groups[group][field] = parser(raw)
        except ValueError as e:
            raise ConfigError(f"{key}: {e}", lineno) from None

    top = groups[""]
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


# sweep axis -> the config key its values set
_AXES = {"partition_p": "partition.p", "optimizer": "optimizer", "local_steps": "hyper.local_steps"}
# the final-round metrics of the sweep index, in its column order
_INDEX_METRICS = (
    "phi_grad_norm", "consensus_omega", "global_loss", "target_accuracy", "floats_communicated"
)
_INDEX_HEADER = (
    "value,status,rounds,final_phi_grad_norm,final_consensus_omega,"
    "final_global_loss,final_target_accuracy,floats_communicated,error"
)


def _sweep_runs(
    path: str, overrides: list[str], axis: str, values: list[str]
) -> dict[str, tuple[ExperimentConfig, Problem]]:
    """Each value's (config with its CSV path, problem) by name; a bad or repeated value is a config error.

    A value is one more `--set` of its axis's key, and its name is that key's parsed value.
    """
    key = _AXES[axis]
    runs: dict[str, tuple[ExperimentConfig, Problem]] = {}
    raw_of: dict[str, str] = {}
    for raw in values:
        prefix = f"--values: {raw!r}: "
        try:
            sub = parse_config(path, [*overrides, f"{key}={raw}"])
        except ConfigError as e:
            raise ConfigError(f"{prefix}{e}") from None
        name = _fmt(sub.echo()[key])
        if name in runs:
            raise ConfigError(
                f"--values: {raw_of[name]!r} and {raw!r} are the same {axis} value {name!r}"
            )
        raw_of[name] = raw
        out = Path(sub.output_path).parent / f"sweep_{axis}_{name}.csv"
        sub = replace(sub, output_path=str(out))
        runs[name] = sub, _prepared(sub, prefix)
    return runs


def cmd_sweep(path: str, overrides: list[str], axis: str, values: list[str]) -> int:
    """One run per value, one CSV per run, plus an index CSV of final metrics."""
    base = parse_config(path, overrides)
    _prepared(base)  # a bad base config fails unprefixed, as its run would
    if not values:
        raise ConfigError("sweep needs at least one value")
    index_rows = []
    any_failed = False
    for name, (sub, problem) in _sweep_runs(path, overrides, axis, values).items():
        try:
            log = run_experiment(sub, problem)
            log.write_csv(sub.output_path)
            final = log.final()
            metrics = (None if final is None else getattr(final, c) for c in _INDEX_METRICS)
            index_rows.append([name, "ok", len(log.rounds), *metrics, None])
            print(f"sweep {axis}={name} status=ok output={sub.output_path}")
        except Exception as e:
            any_failed = True
            index_rows.append([name, "error", *[None] * 6, str(e).replace(",", ";")])
            print(f"sweep {axis}={name} status=error error={e}", file=sys.stderr)

    index = Path(base.output_path).parent / f"sweep_{axis}_index.csv"
    try:
        _write_atomic(str(index), to_csv(_INDEX_HEADER, index_rows))
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
            values = [v for v in args.values.split(",") if v != ""]
            return cmd_sweep(args.config, args.set, args.axis, values)
        if args.command == "check":
            return cmd_check()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
