"""One benchmark child process: run one workload closed-loop and report samples.

Started by ``perfbench/run.py`` with BLAS pinned to one thread. It imports
``fedmm`` from the checkout's ``src/`` (and refuses any other copy), builds
the workload's inputs from the seed, runs one warm-up experiment per
instance, measures set-up time, then runs experiments back to back until the
time budget is spent, interleaved with a speed calibration loop. Every
experiment's output is checked. The last line of standard
output is one JSON object with the samples; ``run.py`` turns them into
metrics.

    python3 perfbench/worker.py --workload quad_fedsgda_rounds --seed 0 --seconds 10 --mode plain
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fedmm  # noqa: E402
from fedmm import diagnostics, federation, problems  # noqa: E402
from fedmm.cli import parse_config  # noqa: E402
from fedmm.core import HyperParams  # noqa: E402
from fedmm.objectives import QuadraticSaddle, load_quadratic_specs, save_quadratic_specs  # noqa: E402

from spans import Recorder  # noqa: E402

# synthetic_quadratic_specs tries seed, seed+1, ... seed+63 until the averaged
# max-function Hessian is positive definite; spacing run seeds 64 apart keeps
# the instances of different run seeds disjoint.
QUAD_SEED_STRIDE = 64
STATIONARITY_TARGET = 1e-3
SETUP_REPEATS = 51
MIN_EXPERIMENTS = 3
# final RoundMetrics floats must match the recorded reference this closely;
# integer fields and the accuracy (a count ratio) must match exactly
REFERENCE_REL_TOL = 1e-9
REFERENCE_ABS_TOL = 1e-12
# calibration runs for about this share of the time spent in experiments
CALIBRATION_SHARE = 0.25


class Calibration:
    """Timing of a fixed small-numpy loop, run between experiments.

    The loop mimics the program's hot path (a small matvec, an update and a
    finiteness check per iteration) but uses no fedmm code, so a change to
    the program never changes it. A shared host's CPU speed drifts by tens of
    percent within seconds; the loop's rate just before and just after an
    experiment tells how fast the CPU was while the experiment ran.
    """

    def __init__(self):
        self.steps = 0
        self.seconds = 0.0
        self._a = np.eye(8) * 0.5 + 0.01
        self._b = np.ones(8)

    def run(self, steps: int) -> float:
        """Run `steps` iterations; return their rate in iterations per second."""
        a, b = self._a, self._b
        x = np.zeros(8)
        t0 = time.perf_counter()
        for _ in range(steps):
            x = x - 0.1 * (a @ x + b)
            if not np.isfinite(x).all():
                raise FloatingPointError("calibration loop diverged")
        dt = time.perf_counter() - t0
        self.seconds += dt
        self.steps += steps
        return steps / dt

    def pooled(self) -> dict:
        return {"steps": self.steps, "seconds": self.seconds}


@dataclass
class Outcome:
    """What one experiment produced, reduced to what the checks need."""

    digest: str  # SHA-256 of the run's CSV (identity suite: its report CSV)
    final: dict | None
    rounds_to_target: int | None
    floats_per_round: float | None
    problems: list[str]


@dataclass
class Workload:
    rounds: int
    # experiment i runs instance i % instances; setup(i) times its set-up alone,
    # run(i) its set-up plus round loop, and outcome checks run's result untimed
    setup: Callable[[int], object]
    run: Callable[[int], object]
    outcome: Callable[[object], Outcome]
    floats_per_round: int  # the exact ledger: N * 2 * (d1 + d2)
    instances: int = 1


def _quad_problem_file(name: str, seed: int, n: int, d1: int, d2: int) -> str:
    """Generate the seed's quadratic instance and hand it over as a problem.file.

    Without a problem.file the program keys quadratic instances by the fixed
    problems._QUAD_SEED, so the run seed alone never changes them; seed 0
    reproduces that shipped instance.
    """
    specs = problems.synthetic_quadratic_specs(
        n, d1, d2, seed=problems._QUAD_SEED + QUAD_SEED_STRIDE * seed
    )
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}-seed{seed}.problem"
    save_quadratic_specs(path, specs)
    return str(path)


def _config_workload(config, n_clients: int, d1: int, d2: int) -> Workload:
    """A run_experiment workload; the ledger is checked against N * 2 * (d1 + d2) a round."""
    zero = replace(config, hyper=replace(config.hyper, rounds=0))
    per_round = n_clients * 2 * (d1 + d2)

    def outcome(log) -> Outcome:
        final = log.final()
        found = []
        if len(log.rounds) != config.hyper.rounds:
            found.append(f"{len(log.rounds)} rounds logged, {config.hyper.rounds} run")
        if final is None or final.floats_communicated != len(log.rounds) * per_round:
            found.append(f"ledger {final and final.floats_communicated} != {len(log.rounds)} * {per_round}")
        return Outcome(
            digest=hashlib.sha256(log.csv_text().encode()).hexdigest(),
            final=asdict(final) if final else None,
            rounds_to_target=diagnostics.stationarity_series(log, STATIONARITY_TARGET).first_round_below,
            floats_per_round=final.floats_communicated / len(log.rounds) if final else None,
            problems=found,
        )

    return Workload(
        config.hyper.rounds,
        lambda i: federation.run_experiment(zero),
        lambda i: federation.run_experiment(config),
        outcome,
        per_round,
    )


def _shipped(cfg: str, seed: int, overrides: list[str] = ()):
    config = parse_config(ROOT / "configs" / cfg, list(overrides))
    return replace(config, seed=config.seed + seed)


def dann_labelshift_fedmm(seed: int) -> Workload:
    config = _shipped("label_shift_fedmm.cfg", seed)
    # the toy's model layout fixes (d1, d2) whatever the data
    _, _, layout = problems.domain_shift_toy(np.random.default_rng(0), 2, 2)
    return _config_workload(config, config.partition.n_clients, layout.d1, layout.d2)


def quad_wide_fedmm(seed: int) -> Workload:
    n, d1, d2 = 32, 20, 10
    path = _quad_problem_file("quad_wide_fedmm", seed, n, d1, d2)
    overrides = [
        f"problem.file={path}",
        f"problem.n_clients={n}",
        f"problem.d1={d1}",
        f"problem.d2={d2}",
        "hyper.rounds=100",
    ]
    config = _shipped("quadratic_fedmm.cfg", seed, overrides)
    return _config_workload(config, n, d1, d2)


def quad_fedsgda_rounds(seed: int) -> Workload:
    n, d1, d2 = 3, 4, 3
    path = _quad_problem_file("quad_fedsgda_rounds", seed, n, d1, d2)
    config = _shipped("quadratic_fedsgda.cfg", seed, [f"problem.file={path}"])
    return _config_workload(config, n, d1, d2)


IDENTITY_ROUNDS = 60
# one identity suite's cost depends on how fast its instance converges (local
# steps vary by about 9% between instances), so a run cycles through several
# instances generated from the run seed and always completes whole cycles
IDENTITY_INSTANCES = 4


def quad_tol_identities(seed: int) -> Workload:
    n, d1, d2 = 8, 10, 6
    paths = [
        _quad_problem_file(f"quad_tol_identities-{k}", IDENTITY_INSTANCES * seed + k, n, d1, d2)
        for k in range(IDENTITY_INSTANCES)
    ]
    hp = HyperParams(eta1=0.2, eta2=0.2, eta3=1.0, rounds=IDENTITY_ROUNDS)

    def setup(i: int):
        return [QuadraticSaddle(s) for s in load_quadratic_specs(paths[i % IDENTITY_INSTANCES])]

    def run(i: int):
        return diagnostics.run_identity_suite(setup(i), hp, rounds=IDENTITY_ROUNDS, local_tol=1e-10)

    def outcome(reports) -> Outcome:
        # round 0 checks only the two summed identities
        want = 4 * IDENTITY_ROUNDS - 2
        found = [f"{len(reports)} identity reports, expected {want}"] if len(reports) != want else []
        found += [
            f"identity {r.name} failed at round {r.round}: {r.residual_norm:.3e} > {r.tolerance:.3e}"
            for r in reports
            if not r.passed
        ]
        return Outcome(
            digest=hashlib.sha256(diagnostics.reports_to_csv(reports).encode()).hexdigest(),
            final=None,
            rounds_to_target=None,
            floats_per_round=None,
            problems=found,
        )

    return Workload(IDENTITY_ROUNDS, setup, run, outcome, n * 2 * (d1 + d2), IDENTITY_INSTANCES)


WORKLOADS = {
    f.__name__: f
    for f in (dann_labelshift_fedmm, quad_wide_fedmm, quad_fedsgda_rounds, quad_tol_identities)
}


def _reference_problems(ref: dict | None, out: Outcome) -> list[str]:
    """Compare the final RoundMetrics with the one recorded at the seed commit."""
    if ref is None:
        return []
    found = []
    if out.rounds_to_target != ref["rounds_to_target"]:
        found.append(f"rounds_to_target {out.rounds_to_target} != {ref['rounds_to_target']}")
    for key, want in (ref["final"] or {}).items():
        got = out.final[key]
        exact = isinstance(want, int) or key == "target_accuracy" or want is None or got is None
        same = got == want if exact else math.isclose(
            got, want, rel_tol=REFERENCE_REL_TOL, abs_tol=REFERENCE_ABS_TOL
        )
        if not same:
            found.append(f"final {key} {got!r} != reference {want!r}")
    return found


def _foreign_import() -> str | None:
    src = (ROOT / "src" / "fedmm").resolve()
    here = Path(fedmm.__file__).resolve().parent
    return None if here == src else f"fedmm imported from {here}, not {src}"


def _environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "fedmm": str(Path(fedmm.__file__).resolve().parent.relative_to(ROOT)),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    args = ap.parse_args(argv)

    foreign = _foreign_import()
    if foreign:
        print(foreign, file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    now = time.perf_counter

    n = workload.instances
    t0 = now()
    warm = [workload.outcome(workload.run(i)) for i in range(n)]
    cal = Calibration()
    cal.run(1000)
    # steps per experiment so that calibration takes its share of the run
    cal_steps = max(1000, round(CALIBRATION_SHARE * (now() - t0) / n * cal.steps / cal.seconds))
    cal = Calibration()
    ref = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(str(args.seed))
    problems_found = [p for w in warm for p in w.problems + _reference_problems(ref, w)]

    setup_s, setup_cal = [], Calibration()
    if args.mode == "plain":
        for i in range(SETUP_REPEATS):
            t0 = now()
            workload.setup(i)
            setup_s.append(now() - t0)
            setup_cal.run(1000)

    recorder = Recorder() if args.mode == "traced" else None
    if recorder:
        recorder.install()

    # runs: [wall seconds, output passed every check, calibration rate around it]
    runs, layers = [], []
    rate_before = cal.run(cal_steps)
    deadline = now() + args.seconds
    min_runs = MIN_EXPERIMENTS if args.mode == "plain" else 1
    while len(runs) < min_runs or now() < deadline or len(runs) % n:
        i = len(runs)
        mark = recorder.mark() if recorder else None
        found = []
        t0 = now()
        t1 = None
        try:
            result = workload.run(i)
            t1 = now()
            out = workload.outcome(result)
        except Exception as e:  # a raising run counts as failed, the loop goes on
            found.append(f"experiment raised {type(e).__name__}: {e}")
        else:
            found += out.problems + _reference_problems(ref, out)
            if out.digest != warm[i % n].digest:
                found.append(f"{args.mode} run's output bytes differ from the warm-up run's")
            if recorder:
                metrics, trace_problems = recorder.layer_metrics(mark, t0, t1)
                layers.append(metrics)
                found += trace_problems
                if metrics["federation.floats_per_round"] != workload.floats_per_round:
                    found.append(
                        f"ledger charged {metrics['federation.floats_per_round']} floats a round, "
                        f"not {workload.floats_per_round}"
                    )
        wall = (t1 or now()) - t0
        rate_after = cal.run(cal_steps)
        runs.append([wall, not found, (rate_before + rate_after) / 2])
        rate_before = rate_after
        problems_found += found

    if recorder:
        recorder.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz", mark, args.workload, len(runs) - 1
        )

    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "mode": args.mode,
                "rounds": workload.rounds,
                "runs": runs,
                "setup_s": setup_s,
                "setup_calibration": setup_cal.pooled(),
                "layers": layers,
                "digests": [w.digest for w in warm],
                "final": warm[0].final,
                "rounds_to_target": warm[0].rounds_to_target,
                "floats_per_round": warm[0].floats_per_round,
                "problems": sorted(set(problems_found)),
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "environment": _environment(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
