"""Every float of the first training steps is unchanged: step_hashes.py prints step_hashes.txt.

The golden file's first line is the environment the hashes were taken in.
In another environment the last bits may differ, so the test skips there
and names the fields that differ. A change that moves floats on purpose
regenerates the file (see scripts/step_hashes.py).
"""

import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("step_hashes.txt")


def test_step_hashes_match_the_golden_file():
    # a subprocess, so that the script pins the BLAS threads before numpy starts
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "step_hashes.py")],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines, golden = proc.stdout.splitlines(), GOLDEN.read_text().splitlines()
    differ = [f"{here!r} (golden: {there!r})"
              for here, there in zip_longest(lines[0].split(", "), golden[0].split(", "))
              if here != there]
    if differ:
        pytest.skip(f"another environment: {'; '.join(differ)}")
    assert len(lines) == len(golden)
    changed = [f"{here}\n  golden: {there}" for here, there in zip(lines, golden) if here != there]
    assert not changed, "changed floats:\n" + "\n".join(changed)
