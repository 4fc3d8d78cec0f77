#!/usr/bin/env python3
"""Print the held-out NLL trajectory of benchmark workloads over a fixed step count.

A benchmark run checks the held-out NLL after the last step that its time
budget allowed, so its verdict depends on where along the trajectory the
clock stops it. This script shows the whole trajectory instead. For each
workload of perfbench/workloads.py and each seed, it builds the workload
as the benchmark does and runs the benchmark's own closed loop
(perfbench/loop.py) for a fixed number of steps, with eval_metrics on the
held-out rows after every epoch. It prints one line per seed with the NLL
after each epoch, then the largest NLL after the fifth epoch, every epoch
after the fifth whose NLL reaches the workload's ceiling, and the steps
that failed. Run from the repository root:

    PYTHONPATH=src python3 scripts/trajectory_sweep.py \\
        --workload sparse-tanh-qdmcnat --steps 600 --seeds 2411 2412 2413

Without --workload, every workload runs. The program comes from
PYTHONPATH, so the same script sweeps another tree's src/. As in the
benchmark, the BLAS thread count is pinned to the usable CPUs before numpy
starts; the last bits of every step depend on it.
"""

import argparse
import itertools
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETTLED_EPOCHS = 5  # early qdop epochs overshoot; excursions after these count


def _pin_threads():
    threads = str(len(os.sched_getaffinity(0)))
    os.environ["OPENBLAS_NUM_THREADS"] = threads
    os.environ["OMP_NUM_THREADS"] = threads


def sweep(w, seed, steps, scratch_dir):
    """(held-out NLL after each epoch, failed step numbers) of one run."""
    import loop
    import workloads
    from qdgrad import harness

    s = workloads.build(w, seed, scratch_dir)
    epoch_steps = w.n_train // w.batch
    nll, failed = [], []
    for step, (_, _, loss) in enumerate(itertools.islice(loop._steps(s, w), steps), 1):
        if math.isnan(loss):
            failed.append(step)
        if step % epoch_steps == 0:
            nll.append(harness.eval_metrics(s.net, s.model, s.ds, s.ds.valid_idx)[0])
    return nll, failed


def report(w, seed, steps, nll, failed):
    """The two lines printed for one run."""
    late = list(enumerate(nll, 1))[SETTLED_EPOCHS:]
    # a NaN ranks highest, as in the ceiling list; the first of equals wins
    peak = max(late, key=lambda e: (math.isnan(e[1]), e[1]), default=None)
    high = [f"{epoch} ({value:.3f})" for epoch, value in late if not value < w.nll_ceiling]
    return (f"{w.name} seed {seed}, {steps} steps: held-out NLL by epoch "
            + " ".join(f"{value:.3f}" for value in nll)
            + f"\n  after epoch {SETTLED_EPOCHS}: peak "
            + ("-" if peak is None else f"{peak[1]:.3f} at epoch {peak[0]}")
            + f"; epochs with NLL >= {w.nll_ceiling:g}: {', '.join(high) or 'none'}"
            + f"; failed steps: {', '.join(map(str, failed)) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="a workload name; repeat for several (default: every workload)")
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    _pin_threads()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            w = workloads.WORKLOADS[name]
            for seed in args.seeds:
                nll, failed = sweep(w, seed, args.steps, tmp)
                print(report(w, seed, args.steps, nll, failed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
