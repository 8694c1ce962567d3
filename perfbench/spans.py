"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of the fedmm modules at every place they
are bound (``from fedmm.core import vector`` gives each importing module its
own binding, so patching one module would miss the others) and records one
span per call: (name, start, end, parent span). Spans stay in memory; the
per-layer metrics are computed from them once the experiment ends, and the
raw spans are written out only after timing is over.

Nothing under ``src/`` knows about the recorder, and the untraced runs
never install it.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path

import numpy as np

# span name -> layer (a fedmm module)
LAYER = {
    "grad": "objectives",
    "value": "objectives",
    "phi": "objectives",
    "vector": "core",
    "run_round": "optim",
    "aggregate": "optim",
    "run_experiment": "federation",
    "accuracy": "federation",
    "identity": "diagnostics",
    "identity_suite": "diagnostics",
}
LAYERS = ("core", "objectives", "optim", "federation", "diagnostics")
NAMES = tuple(LAYER)
_CODE = {n: i for i, n in enumerate(NAMES)}


class Recorder:
    """In-memory span store plus the two counters that need no span."""

    def __init__(self):
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.failed: list[bool] = []
        self._stack = [-1]
        self.local_steps = 0
        self.ledger_deltas: list[int] = []

    # ------------------------------------------------------------ wrappers

    def span(self, name: str, fn):
        code = _CODE[name]
        names, starts, ends, parents, failed, stack = (
            self.name, self.start, self.end, self.parent, self.failed, self._stack
        )
        now = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(code)
            parents.append(stack[-1])
            failed.append(False)
            ends.append(0.0)
            stack.append(i)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[i] = True
                raise
            finally:
                ends[i] = now()
                stack.pop()

        return traced

    def _count_steps(self, fn):
        def counted(*args, **kwargs):
            self.local_steps += 1
            return fn(*args, **kwargs)

        return counted

    def _ledger(self, fn):
        deltas = self.ledger_deltas

        def record_round(server, n_clients):
            before = server.floats_sent
            fn(server, n_clients)
            deltas.append(server.floats_sent - before)

        return record_round

    # ------------------------------------------------------------ patching

    @staticmethod
    def _fedmm_modules():
        return [m for name, m in list(sys.modules.items()) if m and name.split(".")[0] == "fedmm"]

    def _rebind(self, original, new) -> None:
        """Replace every module-level binding of `original` in the fedmm package."""
        for mod in self._fedmm_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, new)

    def install(self) -> None:
        """Wrap every import site of each timed function."""
        from fedmm import core, diagnostics, federation, objectives, optim

        for cls in (objectives.QuadraticSaddle, objectives.DomainAdaptObjective):
            for attr, name in (("grad_omega", "grad"), ("grad_psi", "grad"), ("value", "value")):
                setattr(cls, attr, self.span(name, vars(cls)[attr]))
        core.ServerState.record_round = self._ledger(core.ServerState.record_round)

        functions = {
            "vector": core.vector,
            "phi": objectives.phi_value_and_grad,
            "run_round": optim.run_round,
            "aggregate": optim.fedmm_aggregate,
            "run_experiment": federation.run_experiment,
            "accuracy": federation.evaluate_target_accuracy,
            "identity": diagnostics.check_identities,
            "identity_suite": diagnostics.run_identity_suite,
        }
        for name, fn in functions.items():
            self._rebind(fn, self.span(name, fn))
        self._rebind(optim._check_finite, self._count_steps(optim._check_finite))

        missed = [
            f"{mod.__name__}.{attr}"
            for mod in self._fedmm_modules()
            for attr, value in vars(mod).items()
            if any(value is fn for fn in functions.values())
        ]
        if missed:
            raise RuntimeError(f"unwrapped import sites: {missed}")

    # ------------------------------------------------------------ analysis

    def mark(self) -> tuple[int, int, int]:
        """Position to pass to `layer_metrics` for the spans recorded after it."""
        return len(self.start), self.local_steps, len(self.ledger_deltas)

    def layer_metrics(self, since: tuple[int, int, int], wall_start: float, wall_end: float):
        """Per-layer metrics of the spans recorded since `since`, plus accounting checks.

        Returns (metrics, problems): problems lists every failed accounting
        check (nesting, non-negative self time, spans inside the wall time).
        """
        lo, steps0, ledger0 = since
        name = np.array(self.name[lo:], dtype=np.int64)
        start = np.array(self.start[lo:])
        end = np.array(self.end[lo:])
        raw_parent = np.array(self.parent[lo:], dtype=np.int64)
        parent = np.where(raw_parent >= 0, raw_parent - lo, -1)
        failed = np.array(self.failed[lo:], dtype=bool)
        dur = end - start
        wall = wall_end - wall_start
        problems = []

        has_parent = parent >= 0
        if ((raw_parent >= 0) & (raw_parent < lo)).any():
            problems.append("a span's parent was recorded before the experiment started")
        child_sum = np.zeros(len(dur))
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        self_t = dur - child_sum
        if (self_t < -1e-9).any():
            problems.append(f"negative self time: {self_t.min():.3e} s")
        p = parent[has_parent]
        if ((start[has_parent] < start[p]) | (end[has_parent] > end[p])).any():
            problems.append("a child span lies outside its parent")
        roots = ~has_parent
        if len(dur) and (start[roots].min() < wall_start or end[roots].max() > wall_end):
            problems.append("a root span lies outside the experiment's wall time")
        remainder = wall - float(dur[roots].sum())
        layer_self = {
            layer: float(sum(self_t[name == _CODE[n]].sum() for n in NAMES if LAYER[n] == layer))
            for layer in LAYERS
        }
        accounted = sum(layer_self.values()) + remainder
        if abs(accounted - wall) > 1e-6 * max(wall, 1e-9) or remainder < -1e-9:
            problems.append(f"layer self times + remainder = {accounted!r} s, wall = {wall!r} s")

        parent_code = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def sel(n: str, parent_name: str | None = None, exclude_parent: str | None = None):
            mask = name == _CODE[n]
            if parent_name is not None:
                mask &= parent_code == _CODE[parent_name]
            if exclude_parent is not None:
                mask &= parent_code != _CODE[exclude_parent]
            return mask

        def pct(mask, q) -> float:
            return float(np.percentile(dur[mask], q) * 1e6) if mask.any() else 0.0

        local_grad = sel("grad", parent_name="run_round")
        loss_value = sel("value", exclude_parent="phi")
        phi = sel("phi")
        rounds = sel("run_round")
        aggregate = sel("aggregate")
        vec = sel("vector")
        accuracy = sel("accuracy")
        identity = sel("identity")
        experiment = sel("run_experiment")

        steps = self.local_steps - steps0
        loop_self = 0.0
        build = 0.0
        if rounds.any():
            first_round = float(start[rounds].min())
            build = first_round - wall_start
            for i in np.flatnonzero(experiment):
                kids = parent == i
                late = kids & (start >= first_round)
                loop_self += float(end[i] - first_round - dur[late].sum())
        deltas = self.ledger_deltas[ledger0:]
        metrics_s = float(dur[loss_value].sum() + dur[phi].sum() + dur[accuracy].sum()) + loop_self

        m = {
            "objectives.grad_calls": int(local_grad.sum()),
            "objectives.grad_s": float(self_t[local_grad].sum()),
            "objectives.grad_us_p50": pct(local_grad, 50),
            "objectives.grad_us_p99": pct(local_grad, 99),
            "objectives.grad_calls_per_step": float(local_grad.sum() / steps) if steps else 0.0,
            "objectives.value_calls": int(loss_value.sum()),
            "objectives.value_s": float(dur[loss_value].sum()),
            "objectives.phi_calls": int(phi.sum()),
            "objectives.phi_s": float(dur[phi].sum()),
            "objectives.phi_failed": int((phi & failed).sum()),
            "optim.round_calls": int(rounds.sum()),
            "optim.round_us_p50": pct(rounds, 50),
            "optim.round_us_p99": pct(rounds, 99),
            "optim.local_steps": steps,
            "optim.local_self_s": float(self_t[rounds].sum()),
            "optim.local_self_share": float(self_t[rounds].sum() / wall),
            "optim.aggregate_calls": int(aggregate.sum()),
            "optim.aggregate_s": float(dur[aggregate].sum()),
            "core.vector_calls": int(vec.sum()),
            "core.vector_s": float(dur[vec].sum()),
            "federation.build_s": build,
            "federation.loop_self_s": loop_self,
            "federation.accuracy_calls": int(accuracy.sum()),
            "federation.accuracy_s": float(dur[accuracy].sum()),
            "federation.metrics_share": metrics_s / wall,
            "federation.floats_per_round": float(np.mean(deltas)) if deltas else 0.0,
            "diagnostics.identity_calls": int(identity.sum()),
            "diagnostics.identity_s": float(dur[identity].sum()),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["trace.remainder_s"] = remainder
        if len(set(deltas)) > 1:
            problems.append(f"ledger charged unequal rounds: {sorted(set(deltas))}")
        return m, problems

    def write(self, path: Path, since: tuple[int, int, int], workload: str, run_id: int) -> None:
        """Write the spans recorded since `since` as gzipped JSON lines."""
        lo = since[0]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for i in range(lo, len(self.start)):
                parent = self.parent[i] - lo if self.parent[i] >= lo else None
                f.write(
                    json.dumps(
                        {
                            "id": i - lo,
                            "name": NAMES[self.name[i]],
                            "layer": LAYER[NAMES[self.name[i]]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": parent,
                            "failed": self.failed[i],
                            "workload": workload,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )
