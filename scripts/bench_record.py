#!/usr/bin/env python3
"""Run the benchmark for a list of seeds and append the set to BENCH_<workload>.json.

For each seed, runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0``, T being BENCHMARK.json's ``run_seconds``, in each
source tree given (default: this one) and parses its output: the ``env`` line, the ``timed steps`` line, every
``check PASS/FAIL`` line and the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Then it appends one entry per
tree to the JSON list in BENCH_<workload>.json at the root of this
repository. An entry holds the tree's commit, whether the tree had
uncommitted changes, the environment, the median, quartiles and IQR of each
end-to-end metric of BENCHMARK.json over the runs, and each run's seed,
step count, check lines and verdict. A run that exits non-zero or times
out does not end the set: the entry keeps its seed, its exit status or
``timed out`` and the last lines of its stderr under ``failed_runs``, and
leaves it out of the medians. Run from the repository root:

    python3 scripts/bench_record.py --workload sparse-tanh-qdmcnat \\
        --seeds 3301 3302 3303 --tree ../parent --tree .

With several trees, seed i runs in every tree before seed i + 1 does, and
the order of the trees rotates by one each seed, so that each tree runs
first equally often; the script then prints, for each metric, the medians
and how many of the seeds that ran in both the last tree beat the first
on, and each tree's failed runs.
"""

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_EXTRA_S = 300  # set-up, the replay check and the untimed evaluation
STDERR_TAIL_LINES = 10  # of a failed run, kept in its entry


class RunFailed(RuntimeError):
    """A benchmark run that exited non-zero or timed out."""

    def __init__(self, workload, seed, status, stderr):
        super().__init__(f"{workload} seed {seed}: {status}")
        if isinstance(stderr, bytes):  # what a timeout captured
            stderr = stderr.decode(errors="replace")
        self.record = {"workload": workload, "seed": seed, "status": status,
                       "stderr_tail": (stderr or "").splitlines()[-STDERR_TAIL_LINES:]}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics():
    """{name: "higher" | "lower"} for the end-to-end metrics of BENCHMARK.json."""
    return {m["name"]: m["better"] for m in benchmark_spec()["end_to_end"]}


def parse_run(text):
    """The parts of one perfbench/run.py --trace 0 output that an entry keeps."""
    lines = text.strip().splitlines()
    head = lines[0].split()
    if head[0] != "workload" or head[2] != "seed":
        raise ValueError(f"not a benchmark output: {lines[0]!r}")
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    steps = [int(line.split()[2].rstrip(",")) for line in lines if line.startswith("timed steps ")]
    if len(env) != 1 or len(steps) != 1:
        raise ValueError("expected one env line and one timed steps line")
    result = json.loads(lines[-1])
    return {
        "workload": head[1],
        "seed": int(head[3]),
        "env": env[0],
        "timed_steps": steps[0],
        "checks": [line[len("check "):] for line in lines if line.startswith("check ")],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()},
    }


def tree_commit(tree):
    """(HEAD commit of the tree, whether tracked files differ from it)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                              check=True).stdout.strip()
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))


def make_entry(runs, commit, uncommitted, label=None, failed=()):
    """One BENCH entry: medians and quartiles of the end-to-end metrics over runs.

    The entry's environment is the first run's; a run whose environment
    differs from it keeps its own. failed lists the RunFailed records of
    the runs that gave no output, which no median includes.
    """
    metrics = {}
    for name in end_to_end_metrics() if runs else ():
        values = [run["metrics"][name][0] for run in runs]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        metrics[name] = {"unit": runs[0]["metrics"][name][1], "median": median,
                         "q1": q1, "q3": q3, "iqr": q3 - q1}
    env = runs[0]["env"] if runs else None
    return {
        "commit": commit,
        "uncommitted_changes": uncommitted,
        "label": label,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": (runs or failed)[0]["workload"],
        "env": env,
        "metrics": metrics,
        "runs": [_run_record(run, env) for run in runs],
        "failed_runs": [{k: v for k, v in f.items() if k != "workload"} for f in failed],
    }


def _run_record(run, env):
    record = {key: run[key] for key in
              ("seed", "timed_steps", "attempted", "failed", "correct", "checks")}
    if run["env"] != env:
        record["env"] = run["env"]
    return record


def append_entry(path, entry):
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")


def compare(first, last, failed=((), ())):
    """Lines: per metric, the two medians and the seeds on which last beat first.

    Each tree's median is over its own runs; the seeds compared are those
    that ran in both. failed holds the two trees' failed-run records, each
    reported on a line of its own.
    """
    if not (first and last):
        lines = ["no metric to compare: a tree has no run"]
    else:
        lines = []
        paired = {run["seed"]: run for run in first}
        pairs = [(paired[run["seed"]], run) for run in last if run["seed"] in paired]
        for name, better in end_to_end_metrics().items():
            a = [run["metrics"][name][0] for run in first]
            b = [run["metrics"][name][0] for run in last]
            wins = sum((y > x) if better == "higher" else (y < x)
                       for x, y in ((p["metrics"][name][0], q["metrics"][name][0])
                                    for p, q in pairs))
            q1, q3 = np.percentile(a, [25, 75])
            lines.append(f"{name}: median {np.median(a):.6g} -> {np.median(b):.6g}, "
                         f"first tree's IQR {q3 - q1:.6g}, "
                         f"last tree better on {wins} of {len(pairs)}")
    for tree, records in zip(("first", "last"), failed):
        lines += [f"{tree} tree, seed {f['seed']}: {f['status']}, left out" for f in records]
    return lines


def run_once(tree, workload, seed):
    """The output of one benchmark run in tree; RunFailed if it exits non-zero or times out."""
    seconds = benchmark_spec()["run_seconds"]
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=seconds + RUN_TIMEOUT_EXTRA_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise RunFailed(workload, seed, "timed out", e.stderr) from None
    if proc.returncode != 0:
        raise RunFailed(workload, seed, f"exit {proc.returncode}", proc.stderr)
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--tree", action="append", type=Path,
                        help="a source tree to run; repeat to alternate several "
                             "(default: this one)")
    parser.add_argument("--label", action="append",
                        help="a note stored with each tree's entry, in the order of --tree")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.tree or [ROOT])]
    labels = args.label or [None] * len(trees)
    if len(labels) != len(trees):
        parser.error("give one --label per --tree")

    runs = [[] for _ in trees]
    failed = [[] for _ in trees]
    for i, seed in enumerate(args.seeds):
        for t in [(i + k) % len(trees) for k in range(len(trees))]:
            try:
                run = parse_run(run_once(trees[t], args.workload, seed))
            except RunFailed as e:
                failed[t].append(e.record)
                print(f"tree {t} seed {seed}: {e.record['status']}, left out", flush=True)
                continue
            runs[t].append(run)
            print(f"tree {t} seed {seed}: {run['timed_steps']} steps, "
                  f"{'PASS' if run['correct'] else 'FAIL'}", flush=True)
            for check in run["checks"]:
                if check.startswith("FAIL"):
                    print(f"  check {check}", flush=True)

    path = ROOT / f"BENCH_{args.workload}.json"
    for tree, label, tree_runs, tree_failed in zip(trees, labels, runs, failed):
        commit, uncommitted = tree_commit(tree)
        append_entry(path, make_entry(tree_runs, commit, uncommitted, label, tree_failed))
    if len(trees) > 1:
        print("\n".join(compare(runs[0], runs[-1], (failed[0], failed[-1]))))
    print(f"appended {len(trees)} entr{'y' if len(trees) == 1 else 'ies'} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
