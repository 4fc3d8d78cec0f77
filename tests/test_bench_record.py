"""scripts/bench_record.py's parser and entries, on captured benchmark outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"

# perfbench/run.py --workload sparse-tanh-qdmcnat --seed 5 --seconds 4 --trace 0
CAPTURED = """\
workload sparse-tanh-qdmcnat seed 5 seconds 4 trace 0 threads 2
env {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2", "blas": "scipy-openblas 0.3.31.188.0", \
"machine": "x86_64", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "scipy": "1.17.1", \
"thread_cpus": [0, 1]}
timed steps 39, 4 beyond p90 (too few: p90 unreliable)
check PASS: every step loss finite
check PASS: held-out NLL 0.091722 < 0.5
check PASS: replay of 11 steps bit-identical
verdict: PASS (0 of 39 steps failed)
  train_samples_per_s  2208.76 samples/s
  step_ms_p50          88.2508 ms
  step_ms_p90          109.129 ms
  eval_samples_per_s   21346.9 samples/s
  setup_s              0.195957 s
  peak_rss_mb          196.02 MiB
{"correct": true, "attempted": 39, "failed": 0, "metrics": {\
"train_samples_per_s": {"value": 2208.7614948071073, "unit": "samples/s"}, \
"step_ms_p50": {"value": 88.25081100076204, "unit": "ms"}, \
"step_ms_p90": {"value": 109.12884239514825, "unit": "ms"}, \
"eval_samples_per_s": {"value": 21346.92569125165, "unit": "samples/s"}, \
"setup_s": {"value": 0.1959572220002883, "unit": "s"}, \
"peak_rss_mb": {"value": 196.01953125, "unit": "MiB"}}}
"""


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def failing(text, seed, setup_s):
    """The captured output as a run of another seed whose NLL check failed."""
    text = text.replace("seed 5 ", f"seed {seed} ")
    text = text.replace("check PASS: held-out NLL 0.091722", "check FAIL: held-out NLL 2.60354")
    text = text.replace('"correct": true', '"correct": false')
    return text.replace("0.1959572220002883", repr(setup_s))


def test_parse_run_reads_the_seed_env_steps_checks_and_result():
    run = load_recorder().parse_run(CAPTURED)
    assert (run["workload"], run["seed"], run["timed_steps"]) == ("sparse-tanh-qdmcnat", 5, 39)
    assert run["env"]["blas"] == "scipy-openblas 0.3.31.188.0"
    assert run["env"]["thread_cpus"] == [0, 1]
    assert run["checks"] == ["PASS: every step loss finite", "PASS: held-out NLL 0.091722 < 0.5",
                             "PASS: replay of 11 steps bit-identical"]
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 39, 0)
    assert run["metrics"]["setup_s"] == (0.1959572220002883, "s")
    assert len(run["metrics"]) == 6


def test_parse_run_rejects_other_output():
    with pytest.raises(ValueError):
        load_recorder().parse_run("verdict: PASS\n{}\n")


def test_an_entry_holds_quartiles_over_runs_and_every_check_line(tmp_path):
    rec = load_recorder()
    runs = [rec.parse_run(CAPTURED), rec.parse_run(failing(CAPTURED, 6, 0.3)),
            rec.parse_run(failing(CAPTURED, 7, 0.4))]
    entry = rec.make_entry(runs, "abc123", True, "a label")
    assert set(entry["metrics"]) == set(rec.end_to_end_metrics())
    setup = entry["metrics"]["setup_s"]
    assert setup["median"] == 0.3 and setup["unit"] == "s"
    assert setup["iqr"] == pytest.approx(setup["q3"] - setup["q1"])
    assert setup["q1"] == pytest.approx((0.1959572220002883 + 0.3) / 2)
    assert [run["seed"] for run in entry["runs"]] == [5, 6, 7]
    assert entry["runs"][1]["checks"][1] == "FAIL: held-out NLL 2.60354 < 0.5"
    assert [run["correct"] for run in entry["runs"]] == [True, False, False]
    assert entry["runs"][0]["timed_steps"] == 39
    path = tmp_path / "BENCH_w.json"
    rec.append_entry(path, entry)
    rec.append_entry(path, entry)
    assert json.loads(path.read_text()) == [entry, entry]


def test_a_run_of_another_environment_keeps_its_own():
    rec = load_recorder()
    other = rec.parse_run(CAPTURED.replace('"thread_cpus": [0, 1]', '"thread_cpus": [0, 0]'))
    entry = rec.make_entry([rec.parse_run(CAPTURED), other], "abc", False)
    assert entry["env"]["thread_cpus"] == [0, 1]
    assert "env" not in entry["runs"][0]
    assert entry["runs"][1]["env"]["thread_cpus"] == [0, 0]


def test_a_failed_run_is_kept_out_of_the_medians_and_the_set_is_still_recorded(
        tmp_path, monkeypatch, capsys):
    # seed 6 exits 1 in the second tree and seed 7 times out in the first;
    # every other run is the captured output under its own seed
    rec = load_recorder()
    first, last = tmp_path / "first", tmp_path / "last"

    def run_once(tree, workload, seed):
        if (tree.name, seed) == ("last", 6):
            raise rec.RunFailed(workload, seed, "exit 1",
                                "\n".join(f"line {i}" for i in range(30)))
        if (tree.name, seed) == ("first", 7):
            raise rec.RunFailed(workload, seed, "timed out", None)
        setup_s = 0.1 * seed if tree.name == "first" else 0.05 * seed
        return CAPTURED.replace("seed 5 ", f"seed {seed} ").replace(
            "0.1959572220002883", repr(setup_s))

    monkeypatch.setattr(rec, "run_once", run_once)
    monkeypatch.setattr(rec, "tree_commit", lambda tree: (tree.name, False))
    monkeypatch.setattr(rec, "ROOT", tmp_path)  # where the entries go
    (tmp_path / "BENCHMARK.json").write_text((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    assert rec.main(["--workload", "sparse-tanh-qdmcnat", "--seeds", "5", "6", "7", "8",
                     "--tree", str(first), "--tree", str(last)]) == 0
    out = capsys.readouterr().out
    entries = json.loads((tmp_path / "BENCH_sparse-tanh-qdmcnat.json").read_text())
    assert [e["commit"] for e in entries] == ["first", "last"]
    a, b = entries
    assert [run["seed"] for run in a["runs"]] == [5, 6, 8]
    assert [run["seed"] for run in b["runs"]] == [5, 7, 8]
    assert a["failed_runs"] == [{"seed": 7, "status": "timed out", "stderr_tail": []}]
    assert b["failed_runs"] == [{"seed": 6, "status": "exit 1",
                                 "stderr_tail": [f"line {i}" for i in range(20, 30)]}]
    assert a["metrics"]["setup_s"]["median"] == pytest.approx(0.6)  # seeds 5, 6, 8
    assert b["metrics"]["setup_s"]["median"] == pytest.approx(0.35)  # seeds 5, 7, 8
    assert "tree 1 seed 6: exit 1, left out" in out
    assert "tree 0 seed 7: timed out, left out" in out
    assert "setup_s: median 0.6 -> 0.35, first tree's IQR 0.15, last tree better on 2 of 2" in out
    assert "first tree, seed 7: timed out, left out" in out
    assert "last tree, seed 6: exit 1, left out" in out


def test_a_run_that_times_out_raises_run_failed_with_its_stderr_tail(tmp_path, monkeypatch):
    rec = load_recorder()

    def timeout(cmd, **kw):
        raise rec.subprocess.TimeoutExpired(cmd, kw["timeout"], stderr=b"a\nb\n")

    monkeypatch.setattr(rec.subprocess, "run", timeout)
    with pytest.raises(rec.RunFailed) as e:
        rec.run_once(tmp_path, "w", 3)
    assert e.value.record == {"workload": "w", "seed": 3, "status": "timed out",
                              "stderr_tail": ["a", "b"]}


def test_an_entry_of_failed_runs_only_has_no_metrics():
    rec = load_recorder()
    failed = [rec.RunFailed("w", 4, "exit 2", "boom").record]
    entry = rec.make_entry([], "abc", False, failed=failed)
    assert entry["workload"] == "w" and entry["metrics"] == {} and entry["runs"] == []
    assert entry["failed_runs"] == [{"seed": 4, "status": "exit 2", "stderr_tail": ["boom"]}]
    assert rec.compare([], [rec.parse_run(CAPTURED)], (failed, ())) == [
        "no metric to compare: a tree has no run", "first tree, seed 4: exit 2, left out"]
