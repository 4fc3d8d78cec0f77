"""Acceptance gate: nine end-to-end checks, one test (and one line) each.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion verdict
lines; each test also prints a detail line with the measured numbers.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from qdgrad.harness import RunConfig, TrainLog, benchmark, run_training
from qdgrad.verify import (
    suite_fisher_consistency,
    suite_gradcheck,
    suite_invariance,
    suite_op_quadratic,
    suite_qdsolve_oracle,
)

LEARNING_SPEED = Path(__file__).resolve().parents[1] / "scripts" / "learning_speed.py"


def load_learning_speed():
    spec = importlib.util.spec_from_file_location("learning_speed", LEARNING_SPEED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def announce(num, name, ok, details):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{details}]")


@pytest.fixture(scope="module")
def invariance_result():
    return suite_invariance()


def test_c1_qd_inversion_oracle():
    t0 = time.perf_counter()
    r = suite_qdsolve_oracle(n_matrices=1000, tol_pair=1e-8, tol_dense=1e-10)
    elapsed = time.perf_counter() - t0
    ok = r.passed and elapsed < 10.0
    announce(1, "qd inversion oracle", ok,
             f"pair={r.details['max_rel_pair']:.3g}, "
             f"dense2={r.details['max_rel_dense2']:.3g}, {elapsed:.2f}s")
    assert r.details["n_matrices"] == 1000
    assert r.details["max_rel_pair"] <= 1e-8
    assert r.details["max_rel_dense2"] <= 1e-10
    assert elapsed < 10.0


def test_c2_gradient_correctness():
    t0 = time.perf_counter()
    r = suite_gradcheck(n_coords=100, tol=1e-5)
    elapsed = time.perf_counter() - t0
    ok = r.passed and elapsed < 30.0
    announce(2, "gradient correctness", ok,
             f"max_rel={r.details['max_rel_err']:.3g}, {elapsed:.2f}s")
    assert r.details["max_rel_err"] <= 1e-5
    assert elapsed < 30.0


def test_c3_exact_vs_mc_fisher():
    t0 = time.perf_counter()
    r = suite_fisher_consistency(n_draws=100_000)
    elapsed = time.perf_counter() - t0
    ok = r.passed and elapsed < 60.0
    announce(3, "exact vs sampled metric", ok,
             f"categorical_gap={r.details['categorical_gap']:.3g}, "
             f"gaussian_gap={r.details['gaussian_gap']:.3g}, {elapsed:.2f}s")
    # gap = max over entries of |mc - exact| - 3 SE; <= 0 means within band
    assert r.details["categorical_gap"] <= 1e-12
    assert r.details["gaussian_gap"] <= 1e-12
    assert elapsed < 60.0


def test_c4_affine_invariance(invariance_result):
    d = invariance_result.details
    ok = (d["tanh_qdop_gap"] <= 1e-6 and d["invert_qdop_gap"] <= 1e-6
          and d["invert_sgd_gap"] >= 1e-3)
    announce(4, "affine invariance", ok,
             f"tanh={d['tanh_qdop_gap']:.3g}, invert={d['invert_qdop_gap']:.3g}, "
             f"sgd_witness={d['invert_sgd_gap']:.3g}")
    assert d["tanh_qdop_gap"] <= 1e-6
    assert d["invert_qdop_gap"] <= 1e-6
    assert d["invert_sgd_gap"] >= 1e-3


def test_c5_rescaling_invariance(invariance_result):
    d = invariance_result.details
    ok = d["rescale_dop_rel"] <= 1e-6 and d["rescale_adagrad_rel"] > 1e-3
    announce(5, "rescaling invariance", ok,
             f"dop={d['rescale_dop_rel']:.3g}, "
             f"adagrad={d['rescale_adagrad_rel']:.3g}")
    assert d["rescale_dop_rel"] <= 1e-6
    assert d["rescale_adagrad_rel"] > 1e-3


def test_c6_quadratic_pathology():
    r = suite_op_quadratic(theta0=1e-3, eta=0.1)
    d = r.details
    ok = (d["op_first_step"] < 0 and d["op_overshoot_factor"] >= 10.0
          and d["natural_contraction_rel_err"] <= 1e-15)
    announce(6, "quadratic pathology", ok,
             f"first_step={d['op_first_step']:.6g}, "
             f"overshoot={d['op_overshoot_factor']:.3g}, "
             f"contraction_err={d['natural_contraction_rel_err']:.3g}")
    assert d["op_first_step"] < 0
    assert d["op_overshoot_factor"] >= 10.0
    assert d["natural_contraction_rel_err"] <= 1e-15


def test_c7_overhead_ratio(subset_of):
    ds = subset_of(5000)
    config = RunConfig(arch=[784, 800, 800, 10], activation="sigmoid",
                       output="categorical", lr=0.01, epochs=3, batch_size=500, seed=0)
    t0 = time.perf_counter()
    res = benchmark(ds, config, algos=["sgd", "qdop", "qdnat"])
    elapsed = time.perf_counter() - t0
    qdop, qdnat = res.ratios["qdop"], res.ratios["qdnat"]
    ok = 1.3 <= qdop <= 3.0 and qdnat > qdop and elapsed < 600.0
    announce(7, "overhead ratio", ok,
             f"qdop/sgd={qdop:.2f}, qdnat/sgd={qdnat:.2f}, "
             f"sgd_epoch={res.medians['sgd']:.2f}s, total={elapsed:.1f}s")
    assert 1.3 <= qdop <= 3.0
    assert qdnat > qdop
    assert elapsed < 600.0


def test_c8_learning_speed_report(subset_of, tmp_path):
    # the report code lives in scripts/learning_speed.py, which rewrites the
    # tracked report when run on purpose; this test writes under tmp_path
    ls = load_learning_speed()
    r = ls.learning_speed(subset_of(5000, 1000))
    assert r.grids["qdop"].best is not None, "every qdop step-size diverged"
    assert r.grids["sgd"].best is not None, "every sgd step-size diverged"
    target, epochs_needed, margin = r.target, r.epochs_needed, r.margin

    report = tmp_path / "learning_speed.txt"
    report.write_text(r.text())

    # soft criterion: the report itself is the deliverable; the margin is
    # recorded but task-dependent, so it does not gate the suite
    ok = report.exists() and margin >= 2.0
    announce(8, "learning speed report", report.exists(),
             f"qdop_nll@3={target:.4f}, sgd_epochs={epochs_needed}, "
             f"ratio={margin:g}, margin_met={margin >= 2.0}, "
             f"report={report}")
    text = report.read_text()
    assert "epoch ratio sgd/qdop" in text
    assert "qdop train nll at epoch 3" in text


def test_c9_determinism(subset_of, tmp_path):
    ds = subset_of(600, 200)
    logs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        cfg = RunConfig(arch=[784, 16, 10], algo="qdmcnat", lr=0.05,
                        epochs=2, batch_size=50, dropout=0.2, seed=11,
                        log=str(path))
        run_training(ds, cfg)
        logs.append(path.read_text().splitlines())

    def strip_wall(lines):
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            del cells[5]
            out.append(",".join(cells))
        return out

    a, b = strip_wall(logs[0]), strip_wall(logs[1])
    ok = a == b and len(a) == 4  # header, epoch-0 row, two epochs
    announce(9, "determinism", ok, f"rows={len(a) - 1}, identical={a == b}")
    assert a == b
    assert len(a) == 4
