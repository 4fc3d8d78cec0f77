"""Every float of the first training steps is unchanged: step_hashes.py prints step_hashes.txt.

The golden file's first line is the environment the hashes were taken in.
In another environment the last bits may differ, so the test skips there
and names the fields that differ. A change that moves floats on purpose
regenerates the file (see scripts/step_hashes.py).

The script runs twice: as it is, and after a prelude that fills every
scratch buffer with NaN when a pass resets it, and the optimizer state's
step arrays before each step. A pass or a step that reads an entry it did
not write then prints other hashes, or a divergence, even where the entry
left by the last same-shaped pass would have given the golden floats.
"""

import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("step_hashes.txt")

POISONED = """
import sys
sys.path.insert(0, "scripts")
import step_hashes
step_hashes._pin_threads()  # before numpy starts, as the script's own main does
import numpy as np
from qdgrad import network, optim

reset = network.Scratch.reset
def poisoned_reset(scratch, floats):
    reset(scratch, floats).buf.fill(np.nan)
    return scratch
network.Scratch.reset = poisoned_reset

step = optim.optimizer_step
def poisoned_step(net, model, inputs, targets, state, cfg, rng=None):
    spare = () if state.spare is None else (state.spare.diag, state.spare.row)
    for a in (state.grad, state.direction, state.chunks, *spare):
        if a is not None:
            a.fill(np.nan)
    return step(net, model, inputs, targets, state, cfg, rng)
optim.optimizer_step = poisoned_step  # the script calls it through the module

sys.exit(step_hashes.main())
"""


@pytest.mark.parametrize("run", [[str(ROOT / "scripts" / "step_hashes.py")], ["-c", POISONED]],
                         ids=["plain", "poisoned-scratch"])
def test_step_hashes_match_the_golden_file(run):
    # a subprocess, so that the script pins the BLAS threads before numpy starts
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *run],
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
