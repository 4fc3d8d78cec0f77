#!/usr/bin/env python3
"""Print fingerprints of the first training steps of the benchmark workloads.

For each workload of perfbench/workloads.py, builds it at seed 7, takes 6
optimizer steps on its shuffled minibatches, and prints the first 16 hex
digits of the sha256 of theta, of the metric's diagonal and of its row,
then eval_metrics on the held-out rows. Two trees that print the same
lines computed the same floats in those steps. Run from the repository
root:

    PYTHONPATH=src python3 scripts/step_hashes.py

The last bits depend on the BLAS build and thread count, so the thread
count is pinned to the usable CPUs before numpy starts, as the benchmark
does, and the first line records the environment.
"""

import hashlib
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
STEPS = 6


def _pin_threads():
    threads = str(len(os.sched_getaffinity(0)))
    os.environ["OPENBLAS_NUM_THREADS"] = threads
    os.environ["OMP_NUM_THREADS"] = threads


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(a):
    return "-" if a is None else hashlib.sha256(a.tobytes()).hexdigest()[:16]


def main() -> int:
    _pin_threads()
    from learning_speed import environment_line  # this directory's report script

    from qdgrad import data, harness, optim

    workloads = _workloads()
    print(environment_line())
    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads.WORKLOADS.values():
            s = workloads.build(w, SEED, tmp)
            batches = data.minibatches(s.ds, w.batch, s.rng)
            for _ in range(STEPS):
                batch = next(batches)
                optim.optimizer_step(s.net, s.model, s.ds.features[batch],
                                     s.ds.target_batch(batch), s.state, s.cfg, s.rng)
            metric = s.state.metric
            hashes = " / ".join(_digest(a) for a in (s.net.theta, metric.diag, metric.row))
            evaluation = harness.eval_metrics(s.net, s.model, s.ds, s.ds.valid_idx)
            print(f"{w.name}: theta / diag / row {hashes}; eval_metrics {evaluation}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
