"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mnist800-qdop --seed 1 --seconds 55 --trace 0

Run from the root of a qdgrad source tree; the program is imported from
its ``src/`` directory. With ``--trace 0`` the run prints the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it first runs the same
workload untraced in a child process for half the time, then traced in
this process for the other half, and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The BLAS thread count is pinned to the number of usable CPUs before numpy
is imported, because results, including the last bits of the losses,
depend on it. Once numpy has started the BLAS worker threads, each thread
of the process is bound to its own CPU: left to the scheduler, the main
thread and a worker sometimes share one CPU for the life of the process,
and every multi-threaded BLAS call then waits milliseconds for the worker.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".bench_build" / "perfbench"
CHILD_TIMEOUT_S = 170


def _pin_threads() -> str:
    threads = str(len(os.sched_getaffinity(0)))
    os.environ["OPENBLAS_NUM_THREADS"] = threads
    os.environ["OMP_NUM_THREADS"] = threads
    return threads


def _bind_threads() -> dict:
    """Bind the main thread and each BLAS worker to distinct CPUs; {tid: cpu}."""
    cpus = sorted(os.sched_getaffinity(0))
    main = os.getpid()
    tids = [main] + sorted(int(t) for t in os.listdir("/proc/self/task") if int(t) != main)
    binding = {tid: cpus[i % len(cpus)] for i, tid in enumerate(tids)}
    for tid, cpu in binding.items():
        os.sched_setaffinity(tid, {cpu})
    return binding


def fingerprint(nproc, binding) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": nproc,
        "thread_cpus": sorted(binding.values()),
        "machine": platform.machine(),
    }


def _untraced_child(args, seconds):
    """Run the workload untraced in a child process; (result, env line, exit code)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, None, proc.returncode
    lines = proc.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env, 0


def _print_metrics(metrics: dict) -> None:
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    threads = _pin_threads()
    src = ROOT / "src"
    if not (src / "qdgrad" / "__init__.py").is_file():
        print(f"error: no qdgrad sources under {src}", file=sys.stderr)
        return 2
    if args.trace:
        # the child starts before this process binds its threads, or it
        # would inherit the main thread's single-CPU affinity
        child, child_env, code = _untraced_child(args, args.seconds / 2)
        if code != 0:
            return code
    import numpy  # noqa: F401  (starts the BLAS worker threads)

    binding = _bind_threads()
    sys.path.insert(0, str(src))
    import loop
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    SCRATCH.mkdir(parents=True, exist_ok=True)

    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} threads {threads}")
    print("env " + json.dumps(fingerprint(int(threads), binding), sort_keys=True))
    correct = True
    if args.trace:
        correct = child["correct"]
        rec = tracing.SpanRecorder()
        res = loop.run(w, args.seed, args.seconds / 2, SCRATCH, rec)
        rec.save(SCRATCH / f"spans-{w.name}-seed{args.seed}.npz")
        metrics = loop.per_layer(res, rec, child["metrics"]["step_ms_p50"]["value"])
        print(f"untraced child: correct {child['correct']}, "
              f"step_ms_p50 {child['metrics']['step_ms_p50']['value']:.6g} ms, {child_env}")
    else:
        res = loop.run(w, args.seed, args.seconds, SCRATCH)
        metrics = loop.end_to_end(res)
        p90, beyond = loop.step_p90(res)
        print(f"timed steps {res.attempted}, {beyond} beyond p90"
              + ("" if beyond >= loop.P90_MIN_BEYOND else " (too few: p90 unreliable)"))

    correct = correct and res.correct
    for label, ok in res.checks().items():
        print(f"check {'PASS' if ok else 'FAIL'}: {label}")
    print(f"verdict: {'PASS' if correct else 'FAIL'} "
          f"({res.failed} of {res.attempted} steps failed)")
    _print_metrics(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
