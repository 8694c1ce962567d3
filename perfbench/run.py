"""fedmm benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload quad_fedsgda_rounds --seed 0 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``. Each workload runs in a fresh child
process (``perfbench/worker.py``) with BLAS pinned to one thread. With
``--trace 0`` the last line carries the end-to-end metrics of an untraced
run; with ``--trace 1`` it carries the per-layer metrics of a traced run,
measured against an untraced run of the same length. The line before it
records the environment and the run's deterministic outputs. Exits 2,
without a result line, when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = (
    "dann_labelshift_fedmm",
    "quad_wide_fedmm",
    "quad_fedsgda_rounds",
    "quad_tol_identities",
)
REQUIRED = (
    "BENCHMARK.json",
    "src/fedmm/__init__.py",
    "configs/label_shift_fedmm.cfg",
    "configs/quadratic_fedmm.cfg",
    "configs/quadratic_fedsgda.cfg",
)
# the whole run, both children included, must end well inside 180 s
TOTAL_BUDGET_S = 170.0
# calibration-loop iterations per second that times are rescaled to: about
# the loop's median rate on the 2-vCPU x86-64 host the baseline was taken on
REFERENCE_CALIBRATION_RATE = 130_000.0


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "FEDMM_SEED"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, "-s", str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the child
        raise ChildFailed(f"{mode} child exceeded the time budget") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"n": len(xs), "q1": q[0], "median": q[1], "q3": q[2], "values": xs}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fedmm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(plain: dict) -> tuple[dict, dict]:
    """rounds_per_s, setup_s and peak_rss_mb from one untraced child.

    Times are rescaled to a CPU that runs the calibration loop at
    REFERENCE_CALIBRATION_RATE: an experiment measured while the loop ran
    20% fast has its time scaled up by 20%. Each experiment is rescaled by
    the loop's rate just before and after it; set-up, timed in one block,
    by the block's pooled rate. rounds_per_s pools the run: every round its
    experiments completed over the rescaled time they spent in their round
    loops (wall time minus the median set-up). Raw figures go to the info line.
    """
    raw_setup = statistics.median(plain["setup_s"])
    ok = [r for r in plain["runs"] if r[1]] or plain["runs"]
    loops = [(wall - raw_setup, rate / REFERENCE_CALIBRATION_RATE) for wall, _, rate in ok]
    rounds = plain["rounds"] * len(loops)
    raw_rate = rounds / sum(t for t, _ in loops)
    rate = rounds / sum(t * speed for t, speed in loops)
    cal = plain["setup_calibration"]
    setup_speed = cal["steps"] / cal["seconds"] / REFERENCE_CALIBRATION_RATE
    values = {
        "rounds_per_s": rate,
        "setup_s": raw_setup * setup_speed,
        "peak_rss_mb": plain["maxrss_kb"] / 1024.0,
    }
    samples = {
        "raw_rounds_per_s": raw_rate,
        "raw_setup_s": raw_setup,
        "speed": raw_rate / rate,
        "setup_speed": setup_speed,
        "experiment_rounds_per_s": _quartiles([plain["rounds"] / t for t, _ in loops]),
        "setup_s": _quartiles(plain["setup_s"]),
    }
    return values, samples


def per_layer(plain: dict, traced: dict) -> dict:
    """Lower median over the traced experiments of each layer metric, plus the tracing overhead.

    The overhead compares the two children's mean experiment times, each
    rescaled to the reference speed; the layer times are as measured.
    """
    layers = traced["layers"]
    values = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]} if layers else {}
    traced_s, plain_s = (
        sum(wall * rate for wall, _, rate in c["runs"]) / len(c["runs"]) for c in (traced, plain)
    )
    values["trace.overhead_ratio"] = traced_s / plain_s
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"no fedmm checkout at {ROOT}: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + TOTAL_BUDGET_S
    try:
        if args.trace:
            children = [
                _child(args.workload, args.seed, args.seconds / 2, mode, deadline)
                for mode in ("plain", "traced")
            ]
            values, samples = per_layer(*children), {}
        else:
            children = [_child(args.workload, args.seed, args.seconds, "plain", deadline)]
            values, samples = end_to_end(children[0])
    except ChildFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    problems = sorted({p for c in children for p in c["problems"]})
    if any(c["digests"] != children[0]["digests"] for c in children):
        problems.append("traced and untraced runs produced different outputs")
    attempted = sum(len(c["runs"]) for c in children)
    failed = sum(not r[1] for c in children for r in c["runs"])

    first = children[0]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "commit": _commit(),
                "src_sha256": _src_digest(),
                "environment": first["environment"],
                "rounds": first["rounds"],
                "rounds_to_target": first["rounds_to_target"],
                "target_accuracy": (first["final"] or {}).get("target_accuracy"),
                "floats_per_round": first["floats_per_round"],
                "final": first["final"],
                "output_sha256": first["digests"],
                "samples": samples,
                "problems": problems,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
