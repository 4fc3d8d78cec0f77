import numpy as np
import pytest
from scipy.sparse import csr_array

from qdgrad.metric import BlockLayout, QDMetric
from qdgrad.network import Network, make_sparse_layout
from qdgrad.outputs import CategoricalOutput
from qdgrad.verify import (
    SUITES,
    CheckResult,
    one_step_gaps,
    pairwise_solve_oracle,
    rescaling_trajectory_gaps,
    run_suite,
)


@pytest.fixture(scope="module")
def results():
    # run each suite once; individual tests below assert on the details
    return {name: run_suite(name) for name in SUITES}


def test_registry_names():
    assert sorted(SUITES) == [
        "fisher-consistency",
        "gradcheck",
        "invariance",
        "op-quadratic",
        "qdsolve-oracle",
    ]


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_all_suites_pass(results):
    failed = [name for name, r in results.items() if not r.passed]
    assert failed == []


def test_gradcheck_details(results):
    r = results["gradcheck"]
    assert r.name == "gradcheck"
    assert r.details["max_rel_err"] <= r.details["tolerance"] == 1e-5


def test_qdsolve_details(results):
    r = results["qdsolve-oracle"]
    assert r.details["n_matrices"] == 1000
    assert r.details["max_rel_pair"] <= 1e-8
    assert r.details["max_rel_dense2"] <= 1e-10


def test_fisher_details(results):
    r = results["fisher-consistency"]
    assert r.details["n_draws"] == 100_000
    # gap is (|mc - exact| - 3 SE) maximized; <= 0 means inside the band
    assert r.details["categorical_gap"] <= 1e-12
    assert r.details["gaussian_gap"] <= 1e-12


def test_invariance_details(results):
    d = results["invariance"].details
    assert d["tanh_qdop_gap"] <= 1e-6
    assert d["invert_qdop_gap"] <= 1e-6
    assert d["invert_sgd_gap"] >= 1e-3
    assert d["rescale_dop_rel"] <= 1e-6
    assert d["rescale_adagrad_rel"] > 1e-3


def test_op_quadratic_details(results):
    d = results["op-quadratic"].details
    assert d["op_first_step"] < 0  # the step jumps past the optimum at 0
    assert d["op_overshoot_factor"] >= 10.0
    assert d["natural_contraction_rel_err"] <= 1e-15


def test_summary_formats_pass_and_fail():
    ok = CheckResult("demo", True, {"x": 1.23456e-9, "n": 7})
    assert ok.summary() == "demo: PASS (x=1.23e-09, n=7)"
    bad = CheckResult("demo", False, {})
    assert bad.summary().startswith("demo: FAIL")


def test_pairwise_oracle_matches_dense_on_handmade_metric():
    layout = BlockLayout([3, 2])
    m = QDMetric(layout, quasi=True)
    rng = np.random.default_rng(5)
    for _ in range(4):
        m.rank_one_update(rng.standard_normal(layout.dim), 1.0)
    v = rng.standard_normal(layout.dim)
    ref = pairwise_solve_oracle(m, v)
    # block of length 2 admits a full dense solve; compare that slice
    blk = layout.block_slice(1)
    dense = np.array([[m.diag[blk][0], m.row[blk][1]],
                      [m.row[blk][1], m.diag[blk][1]]])
    np.testing.assert_allclose(ref[blk], np.linalg.solve(dense, v[blk]),
                               rtol=1e-12)


def test_rescaling_gaps_are_seeded():
    a = rescaling_trajectory_gaps(seed=9, steps=3)
    b = rescaling_trajectory_gaps(seed=9, steps=3)
    assert a == b
    assert set(a) == {"dop", "adagrad"}


def test_one_step_invariances_hold_on_a_masked_net():
    # checks (a) and (b) of the invariance suite, on fan-in 3 hidden layers
    rng = np.random.default_rng(0)
    sizes = [6, 5, 4, 3]
    base = Network(sizes, "sigmoid", masks=make_sparse_layout(sizes, 3, rng))
    assert [isinstance(P, csr_array) for P in base.layers] == [True, True, False]
    base.init_params(rng)
    base.set_params(0.8 * rng.standard_normal(base.layout.dim))
    X = rng.uniform(0.0, 1.0, size=(40, 6))
    T = rng.integers(0, 3, size=40)
    probes = rng.uniform(0.0, 1.0, size=(100, 6))
    gaps = one_step_gaps(base, CategoricalOutput(3), X, T, probes)
    assert gaps["tanh_qdop_gap"] <= 1e-6
    assert gaps["invert_qdop_gap"] <= 1e-6
    assert gaps["invert_sgd_gap"] >= 1e-3  # the pairing is not trivially equal
