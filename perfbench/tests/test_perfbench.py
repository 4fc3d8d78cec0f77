"""Tests of the benchmark itself: tracing arithmetic, wrapper hygiene and
smoke runs of every workload through the real command.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import loop  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "2"
BACKPROP_CALLS = {"mnist800-qdop": 1, "sparse-tanh-qdmcnat": 2}
TINY = workloads.Workload("tiny", (784, 12, 10), "sigmoid", "categorical", "qdnat",
                          eta=3e-4, batch=50, n_train=200, n_valid=50,
                          nll_ceiling=10.0)


def test_self_time_of_hand_built_tree():
    #  root [0, 10]
    #    a [1, 4]       child c [2, 3]
    #    b [5, 9]       children d [5, 6] and e [5.5, 7], overlapping
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 5.5]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 7.0]
    parent = [-1, 0, 1, 0, 3, 3]
    got = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_recorder_nests_spans_and_keeps_step_ids():
    rec = tracing.SpanRecorder()
    rec.step = 7
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    rec.step = tracing.NO_STEP
    with rec.span("loose"):
        pass
    a = rec.arrays()
    assert [rec.names[i] for i in a["name"]] == ["outer", "inner", "loose"]
    assert a["parent"].tolist() == [-1, 0, -1]
    assert a["step"].tolist() == [7, 7, tracing.NO_STEP]
    assert (a["end"] >= a["start"]).all()


def _originals():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.targets()]


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _originals()
    rec = tracing.SpanRecorder()
    res = loop.run(TINY, 0, 0.2, tmp_path, rec)
    assert res.correct, res.checks()
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    names = set(rec.names)
    assert {"optim.optimizer_step", "network.forward", "network.qd_batch_terms",
            "outputs.enumerate_fisher_terms", "harness.eval_metrics"} <= names
    # spans inside a step hang below that step's optimizer_step span
    a = rec.arrays()
    fwd = a["name"] == rec.names.index("network.forward")
    in_step = fwd & (a["step"] != tracing.NO_STEP)
    parents = a["name"][a["parent"][in_step]]
    assert set(parents.tolist()) == {rec.names.index("optim.optimizer_step")}


def test_wrappers_are_removed_when_the_run_raises():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer(tracing.SpanRecorder()):
            assert any(vars(o)[a] is not f for o, a, f in before)
            1 / 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_checks_and_prints_the_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        calls = result["metrics"]["network.backprop_deltas.calls"]["value"]
        assert calls == BACKPROP_CALLS[workload]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("mnist800-qdop", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
