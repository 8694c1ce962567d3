"""Planted defects: which check or test kills each one-line mutant of the program.

    python tests/mutants.py [NAME ...]

Each mutant is a (file, old text, new text) patch. For each one the script
copies the repository, without its .git, into a temporary directory,
patches the copy (the old text must occur exactly once), runs `fedmm check`
and then tier-1 with -x on the copy, and prints one Markdown table row: the
mutant, the first `fedmm check` row that failed and the first tier-1 test
that failed. "survives" in both columns is a mutant neither catches. Named
mutants run alone; by default all of them run, one after another, each in
about as long as tier-1 takes to reach its first failure.

Every file the runs write, pytest's and tempfile's temporary files
included, stays inside the mutant's copy, which is deleted afterwards.
Tier-1 does not collect this file: pytest collects only test_*.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OPTIM, FEDERATION = "src/fedmm/optim.py", "src/fedmm/federation.py"
# a child that runs longer than this is reported as a timeout, not a kill
TIMEOUT_S = 1200


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str


MUTANTS = (
    Mutant(
        "dual-shift decay eta3**(t + 1)", OPTIM,
        "decay = self.hp.eta3**t", "decay = self.hp.eta3**(t + 1)",
    ),
    Mutant(
        "tolerance on the omega block's norm alone", OPTIM,
        "gn = np.sqrt(np.maximum(row_dot(GO, GO), row_dot(GP, GP)))", "gn = np.sqrt(row_dot(GO, GO))",
    ),
    Mutant(
        "aggregate without its + 0.0", OPTIM,
        "(row_sum(uploads) + 0.0) / len(uploads)", "row_sum(uploads) / len(uploads)",
    ),
    Mutant(
        "unequal-M_i mask steps >= m", OPTIM,
        "rows = None if m < fewest else steps > m", "rows = None if m < fewest else steps >= m",
    ),
    Mutant(
        "dual step at half weight", OPTIM,
        "D = _frozen(D + W * (Z - Z0))", "D = _frozen(D + 0.5 * W * (Z - Z0))",
    ),
    Mutant(
        "metric blocks capped at 64 rounds", FEDERATION,
        "return max(1, _BLOCK_FLOATS // (points * d))",
        "return min(64, max(1, _BLOCK_FLOATS // (points * d)))",
    ),
)

# what the copy leaves out: version control, caches and the benchmark's outputs
_SKIP = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".claude", "perfbench/out"}


def _skipped(directory: str, names: list[str]) -> set[str]:
    here = Path(directory).relative_to(ROOT)
    return {name for name in names if name in _SKIP or (here / name).as_posix() in _SKIP}


def _copy(tmp: Path, mutant: Mutant) -> Path:
    """A copy of the repository in tmp with the mutant applied."""
    tree = tmp / "tree"
    shutil.copytree(ROOT, tree, ignore=_skipped)
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.file} holds its old text {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))
    return tree


def _run(tree: Path, args: list[str]) -> subprocess.CompletedProcess | None:
    """args run by this Python in the copy, with the copy's src/ first and every temporary file inside it."""
    scratch = tree / ".tmp"
    scratch.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(scratch))
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None


def first_check_failure(tree: Path) -> str:
    """The first `fedmm check` row that failed, "crash" if it stopped, or "survives"."""
    done = _run(tree, ["-m", "fedmm.cli", "check"])
    if done is None:
        return "timeout"
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAIL")]
    if failed:
        return f"`{failed[0]}` FAIL"
    return "survives" if done.returncode == 0 else f"crash (exit {done.returncode})"


def first_test_failure(tree: Path) -> str:
    """The first tier-1 test that failed or errored under -x, or "survives"."""
    basetemp = tree / ".tmp" / "pytest"
    done = _run(tree, [
        "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
        f"--basetemp={basetemp}",
    ])
    if done is None:
        return "timeout"
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return f"`{line.split()[1]}`"
    return "survives" if done.returncode == 0 else f"pytest exit {done.returncode}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}; known: {[m.name for m in MUTANTS]}", file=sys.stderr)
        return 2
    print("| mutant | `fedmm check` | tier-1's first failing test |")
    print("| --- | --- | --- |")
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        with tempfile.TemporaryDirectory(prefix="fedmm-mutant-") as tmp:
            tree = _copy(Path(tmp), mutant)
            print(f"| {mutant.name} | {first_check_failure(tree)} | {first_test_failure(tree)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
