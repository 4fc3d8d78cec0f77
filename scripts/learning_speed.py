#!/usr/bin/env python3
"""Regenerate reports/learning_speed.txt: how fast qdop learns next to sgd.

Both algorithms run a 3-epoch step-size grid on a 784-100-10 sigmoid net
over the first 5000 rows of the test suite's MNIST-shaped corpus (1000
more for validation). The report then counts how many sgd epochs, at its
best step-size, reach qdop's epoch-3 training NLL. Acceptance test c8
builds the same report into a temporary file; this script rewrites the
tracked one, so run it on purpose, from the repository root:

    PYTHONPATH=src python3 scripts/learning_speed.py

The last digits depend on the BLAS build, thread count and CPU core,
which the report's second line records.
"""

import ctypes
import importlib.util
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from qdgrad.data import load_idx
from qdgrad.harness import RunConfig, grid_search, run_training

ROOT = Path(__file__).resolve().parents[1]
REPORT = ROOT / "reports" / "learning_speed.txt"
BASE = RunConfig(arch=[784, 100, 10], activation="sigmoid", output="categorical",
                 epochs=3, batch_size=100, seed=0)
ETAS = [1e-4, 1e-3, 1e-2, 1e-1, 1e0]
SGD_EPOCHS_CAP = 24


def _blas_core():
    """The CPU core whose kernels numpy's bundled OpenBLAS picked at runtime, or "unknown".

    A DYNAMIC_ARCH build chooses its kernels, and so the last bits, by CPU.
    """
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def environment_line():
    """numpy and its SIMD dispatch, BLAS, the BLAS thread count and core.

    A report's last digits depend on each: the sigmoid's exp runs the
    SIMD kernel that numpy dispatches to on this CPU, and the GEMMs run
    the kernels that OpenBLAS picked.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        config = {}
    try:
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except KeyError:
        blas = "unknown"
    simd = config.get("SIMD Extensions", {})
    simd = " ".join(["baseline", *simd.get("baseline", []), "found", *simd.get("found", [])])
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or str(len(os.sched_getaffinity(0)))
    return (f"environment: numpy {np.__version__}, SIMD {simd}, BLAS {blas}, "
            f"BLAS threads {threads}, BLAS core {_blas_core()}")


@dataclass
class LearningSpeed:
    grids: dict  # algo -> GridResult
    target: float = math.nan  # qdop's training NLL at epoch 3
    epochs_needed: int | None = None  # sgd epochs to reach it, None past the cap
    margin: float = math.nan  # epochs_needed / 3, inf past the cap

    def text(self) -> str:
        lines = ["learning-speed comparison (5000-sample subset, 784-100-10)",
                 environment_line(), ""]
        for algo, g in self.grids.items():
            lines.append(f"[{algo} grid, 3 epochs, best by final valid nll]")
            lines.extend(g.summary_lines())
            lines.append("")
        lines += [
            f"qdop best eta: {self.grids['qdop'].best.eta:g}",
            f"sgd best eta: {self.grids['sgd'].best.eta:g}",
            f"qdop train nll at epoch 3: {self.target!r}",
            f"sgd epochs to reach it (cap {SGD_EPOCHS_CAP}): {self.epochs_needed}",
            f"epoch ratio sgd/qdop: {self.margin:g}",
            f"margin >= 2x: {self.margin >= 2.0}",
        ]
        return "\n".join(lines) + "\n"


def learning_speed(ds) -> LearningSpeed:
    """Both grids, then sgd's epochs to qdop's epoch-3 NLL; only the grids if one has no best."""
    result = LearningSpeed({algo: grid_search(ds, replace(BASE, algo=algo), ETAS)
                            for algo in ("sgd", "qdop")})
    if result.grids["qdop"].best is None or result.grids["sgd"].best is None:
        return result

    def train_nll_at(log, epoch):
        return next(r.train_nll for r in log.rows if r.epoch == epoch)

    result.target = train_nll_at(result.grids["qdop"].best.log, 3)
    long_sgd = run_training(ds, replace(BASE, algo="sgd", lr=result.grids["sgd"].best.eta,
                                        epochs=SGD_EPOCHS_CAP))
    reached = [r.epoch for r in long_sgd.rows if r.epoch >= 1 and r.train_nll <= result.target]
    result.epochs_needed = reached[0] if reached else None
    result.margin = result.epochs_needed / 3.0 if result.epochs_needed else math.inf
    return result


def suite_corpus(n_train, n_valid):
    """The test suite's corpus (tests/conftest.py), as a prefix subset."""
    spec = importlib.util.spec_from_file_location("qdgrad_tests_conftest",
                                                  ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    with tempfile.TemporaryDirectory() as d:
        ds = load_idx(*conftest.write_mnist_like(d), n_valid=conftest.N_VALID)
    return conftest.subset(ds, n_train, n_valid)


def main() -> int:
    result = learning_speed(suite_corpus(5000, 1000))
    if result.grids["qdop"].best is None or result.grids["sgd"].best is None:
        print("every step-size of one algorithm diverged; report not written", file=sys.stderr)
        return 1
    REPORT.parent.mkdir(exist_ok=True)
    REPORT.write_text(result.text())
    print(f"wrote {REPORT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
