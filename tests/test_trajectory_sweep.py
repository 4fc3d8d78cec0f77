"""scripts/trajectory_sweep.py's report lines."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trajectory_sweep.py"
WORKLOAD = SimpleNamespace(name="w", nll_ceiling=0.5)


def load_sweep():
    spec = importlib.util.spec_from_file_location("trajectory_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("nll, peak, high", [
    ([1.0] * 5 + [0.1, math.nan, 0.2], "nan at epoch 7", "7 (nan)"),
    ([1.0] * 5 + [math.nan, 0.1, math.nan], "nan at epoch 6", "6 (nan), 8 (nan)"),
    ([1.0] * 5 + [0.1, 0.7, 0.2], "0.700 at epoch 7", "7 (0.700)"),
    ([1.0] * 5 + [0.1, 0.2, 0.2], "0.200 at epoch 7", "none"),
    ([math.nan] * 5, "-", "none"),  # nothing after the fifth epoch
])
def test_report_ranks_a_nan_epoch_highest(nll, peak, high):
    lines = load_sweep().report(WORKLOAD, 3, 240, nll, [4]).split("\n")
    assert lines[0].startswith("w seed 3, 240 steps: held-out NLL by epoch ")
    assert lines[1] == (f"  after epoch 5: peak {peak}; epochs with NLL >= 0.5: {high}; "
                        "failed steps: 4")
