#!/usr/bin/env python3
"""Print fingerprints of the first training steps of the benchmark workloads.

For each workload of perfbench/workloads.py, builds it at seed 7, takes 6
optimizer steps on its shuffled minibatches, and prints the first 16 hex
digits of the sha256 of theta, of the metric's diagonal and of its row,
then eval_metrics on the held-out rows, and last the size in floats of
net.scratch after the steps and after the evaluation. Then, on four small
[8, 9, 7, 4] nets (dense relu; masked relu with dropout and learned
output variances; masked tanh with dropout; dense sigmoid with dropout and
a Bernoulli head), it takes 4 steps of every algorithm, the Monte Carlo
ones at n_mc 1 and 3, and prints the same three hashes and how many of the
steps diverged. Last come dop and qdop at epsilon = 0, on a dense tanh net
at gamma 0.01 and 1 and on the dense relu net, where a zero divisor in the
solve makes a step diverge. Two trees that print the same hash lines
computed the same floats in those steps. Run from the repository root:

    PYTHONPATH=src python3 scripts/step_hashes.py

The last bits depend on the BLAS build, thread count and CPU core, so the
thread count is pinned to the usable CPUs before numpy starts, as the
benchmark does, and the first line records the environment.
tests/step_hashes.txt holds the expected output, which
tests/test_step_hashes.py compares line by line. A change that moves
floats on purpose regenerates it:

    PYTHONPATH=src python3 scripts/step_hashes.py > tests/step_hashes.txt
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
SMALL_SIZES = [8, 9, 7, 4]
SMALL_NETS = (  # name, activation, fan-in of the masked layers (None: dense), dropout, output
    ("dense-relu", "relu", None, 0.0, "categorical"),
    ("masked-relu", "relu", 3, 0.3, "gaussian-learned"),
    ("masked-tanh", "tanh", 3, 0.3, "categorical"),
    ("dense-sigmoid", "sigmoid", None, 0.2, "bernoulli"),
)
SMALL_STEPS = 4
# runs at epsilon = 0, where a zero divisor makes the direction non-finite:
# a dense tanh net at gamma 0.01, and at gamma = 1, where every step's
# moving average is the first step's; and the relu net, whose dead units
# make every step diverge
DENSE_TANH = ("dense-tanh", "tanh", None, 0.0, "categorical")
EPSILON_ZERO_RUNS = (  # net, algo, gamma
    (DENSE_TANH, "dop", 0.01),
    (DENSE_TANH, "qdop", 0.01),
    (DENSE_TANH, "dop", 1.0),
    (DENSE_TANH, "qdop", 1.0),
    (SMALL_NETS[0], "qdop", 0.01),
)
SMALL_BATCH = 10


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


def _small_run(spec, algo, n_mc=1, **cfg):
    """Hashes of theta, diag and row after SMALL_STEPS steps on one small net."""
    import numpy as np

    from qdgrad import network, optim, outputs

    name, activation, fan_in, dropout, output = spec
    rng = np.random.default_rng(SEED)
    masks = None
    if fan_in is not None:
        masks = network.make_sparse_layout(SMALL_SIZES, fan_in, rng)
    net = network.Network(SMALL_SIZES, activation, masks=masks, dropout=dropout)
    net.init_params(rng)
    model = outputs.make_output_model(output, SMALL_SIZES[-1])
    cfg = optim.OptimizerConfig(algo, 0.1, n_mc=n_mc, **cfg)
    state = optim.OptimizerState(net, cfg)
    diverged = 0
    for _ in range(SMALL_STEPS):
        x = rng.standard_normal((SMALL_BATCH, SMALL_SIZES[0]))
        if output == "categorical":
            t = rng.integers(0, SMALL_SIZES[-1], SMALL_BATCH)
        elif output == "bernoulli":
            t = (rng.random((SMALL_BATCH, SMALL_SIZES[-1])) < 0.5).astype(float)
        else:
            t = rng.standard_normal((SMALL_BATCH, SMALL_SIZES[-1]))
        try:
            optim.optimizer_step(net, model, x, t, state, cfg, rng)
        except optim.DivergenceError:
            diverged += 1
    metric = state.metric  # None for sgd
    arrays = (net.theta, *((None, None) if metric is None else (metric.diag, metric.row)))
    hashes = " / ".join(_digest(a) for a in arrays)
    return f"theta / diag / row {hashes}; diverged {diverged}"


def _small_runs():
    """One line per small net and run: hashes after SMALL_STEPS steps."""
    from qdgrad import optim

    runs = [(algo, 1) for algo in optim.ALGOS] + [("dmcnat", 3), ("qdmcnat", 3)]
    for spec in SMALL_NETS:
        for algo, n_mc in runs:
            print(f"{spec[0]}-{algo}-nmc{n_mc}: {_small_run(spec, algo, n_mc)}")
    for spec, algo, gamma in EPSILON_ZERO_RUNS:
        print(f"{spec[0]}-{algo}-epsilon0-gamma{gamma}: "
              f"{_small_run(spec, algo, gamma=gamma, epsilon=0.0)}")


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
            step_floats = s.net.scratch.buf.size
            evaluation = harness.eval_metrics(s.net, s.model, s.ds, s.ds.valid_idx)
            print(f"{w.name}: theta / diag / row {hashes}; eval_metrics {evaluation}")
            print(f"{w.name}: scratch floats {step_floats} after the steps, "
                  f"{s.net.scratch.buf.size} after the evaluation")
    _small_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
