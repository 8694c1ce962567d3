"""The traced benchmark wraps fedmm functions by name; a deletion must fail here first.

`perfbench/spans.py` rebinds every import site of the functions it times
and refuses to run if one is missing. Installing it in a fresh interpreter
(so no other test's imports or patches interfere) checks that every name it
binds still exists.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import fedmm.cli
import spans
spans.Recorder().install()
"""


def test_span_recorder_installs():
    code = INSTALL.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
