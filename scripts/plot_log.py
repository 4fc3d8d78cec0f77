#!/usr/bin/env python3
"""Plot training-log CSVs produced by `qdgrad train`.

Each positional argument is one log file, read with TrainLog.read, which
rejects a file without the log's header; curves are labeled by file stem.
Requires matplotlib (not a package dependency):

    PYTHONPATH=src python3 scripts/plot_log.py run_a.csv run_b.csv --metric valid_nll -o cmp.png
"""

import argparse
import sys
from pathlib import Path

from qdgrad.harness import TrainLog

METRICS = ("train_nll", "train_err", "valid_nll", "valid_err")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("logs", nargs="+", help="CSV files written by qdgrad train")
    ap.add_argument("--metric", choices=METRICS, default="valid_nll")
    ap.add_argument("--logy", action="store_true", help="log-scale y axis")
    ap.add_argument("-o", "--out", help="write PNG here instead of showing")
    args = ap.parse_args(argv)
    try:
        logs = [(path, TrainLog.read(path).rows) for path in args.logs]
    except (OSError, ValueError) as e:
        ap.error(str(e))

    try:
        import matplotlib
        if args.out:
            matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is required: pip install matplotlib", file=sys.stderr)
        return 1

    fig, ax = plt.subplots(figsize=(7, 4.5))
    for path, rows in logs:
        ax.plot([r.epoch for r in rows], [getattr(r, args.metric) for r in rows], marker=".",
                label=Path(path).stem)
        diverged = [r.epoch for r in rows if r.diverged]
        if diverged:
            ax.axvline(diverged[0], linestyle=":", color="gray")
    ax.set_xlabel("epoch")
    ax.set_ylabel(args.metric)
    if args.logy:
        ax.set_yscale("log")
    ax.legend()
    fig.tight_layout()
    if args.out:
        fig.savefig(args.out, dpi=150)
        print(f"wrote {args.out}")
    else:
        plt.show()
    return 0


if __name__ == "__main__":
    sys.exit(main())
