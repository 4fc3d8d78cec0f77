"""Output-model tests: frozen losses, finite-difference grads, sampling stats.

The models take batches; a single sample is passed as a one-row batch.
"""

import numpy as np
import pytest

from qdgrad.outputs import (
    BERNOULLI_CLAMP,
    SIGMA_FLOOR,
    BernoulliOutput,
    CategoricalOutput,
    GaussianOutput,
    make_output_model,
)


def fd_grad(f, y, h=1e-6):
    """Central finite differences of a scalar function of the output vector."""
    g = np.zeros_like(y)
    for i in range(y.size):
        up = y.copy()
        dn = y.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-6):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def test_categorical_uniform_loss_is_log_k():
    m = CategoricalOutput(10)
    for t in (0, 4, 9):
        assert m.loss(np.zeros((1, 10)), [t])[0] == pytest.approx(np.log(10.0), rel=1e-12)


def test_categorical_rejects_bad_class():
    m = CategoricalOutput(3)
    with pytest.raises(ValueError):
        m.loss(np.zeros((1, 3)), [3])


def test_gaussian_zero_residual_loss_is_constant():
    m = GaussianOutput(5, sigma=1.0)
    y = np.linspace(-1, 1, 5)[None]
    assert m.loss(y, y)[0] == pytest.approx(2.5 * np.log(2.0 * np.pi), rel=1e-12)


def test_gaussian_loss_counts_sigma():
    m = GaussianOutput(1, sigma=2.0)
    want = 0.5 * (3.0 / 2.0) ** 2 + np.log(2.0) + 0.5 * np.log(2.0 * np.pi)
    assert m.loss(np.array([[3.0]]), np.array([[0.0]]))[0] == pytest.approx(want, rel=1e-12)


def test_bernoulli_perfect_fit_loss_is_clamp_sized():
    m = BernoulliOutput(4)
    y = np.array([[60.0, -60.0, 60.0, -60.0]])  # the sigmoid lies past the clamp at both ends
    t = np.array([[1.0, 0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(m.probs(y), [[1.0 - BERNOULLI_CLAMP, BERNOULLI_CLAMP] * 2])
    assert m.loss(y, t)[0] == pytest.approx(-4.0 * np.log1p(-BERNOULLI_CLAMP), rel=1e-9)
    assert m.loss(y, t)[0] == pytest.approx(4.0 * BERNOULLI_CLAMP, rel=1e-4)


def test_batched_loss_matches_per_sample():
    rng = np.random.default_rng(0)
    m = CategoricalOutput(5)
    y = rng.standard_normal((7, 5))
    t = rng.integers(0, 5, size=7)
    batch = m.loss(y, t)
    each = np.array([m.loss(y[i][None], [int(t[i])])[0] for i in range(7)])
    np.testing.assert_allclose(batch, each, rtol=1e-12)


# ---------------------------------------------------------------------------
# Gradients vs finite differences
# ---------------------------------------------------------------------------


def test_categorical_grad_is_probs_minus_onehot():
    rng = np.random.default_rng(1)
    m = CategoricalOutput(6)
    y = rng.standard_normal(6)[None]
    g = m.loss_output_grad(y, [2])[0]
    p = m.probs(y)[0]
    onehot = np.eye(6)[2]
    np.testing.assert_allclose(g, p - onehot, rtol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["categorical", "gaussian", "bernoulli"])
def test_grad_matches_finite_differences(kind):
    rng = np.random.default_rng(2)
    k = 5
    m = make_output_model(kind, k)
    for _ in range(5):
        y = rng.standard_normal(k)
        if kind == "categorical":
            t = int(rng.integers(0, k))
        elif kind == "gaussian":
            t = rng.standard_normal(k)
        else:
            t = rng.integers(0, 2, size=k).astype(float)
        tb = np.array([t])
        g = m.loss_output_grad(y[None], tb)[0]
        ref = fd_grad(lambda z: m.loss(z[None], tb)[0], y)
        assert rel_err(g, ref) <= 1e-6


def test_gaussian_grad_scales_with_inverse_variance():
    m = GaussianOutput(3, sigma=2.0)
    y = np.array([1.0, 2.0, 3.0])
    t = np.zeros(3)
    np.testing.assert_allclose(m.loss_output_grad(y[None], t[None])[0], y / 4.0, rtol=1e-12)


def test_learned_variance_grad_matches_fd():
    m = GaussianOutput(3, sigma=1.5, learn_variance=True)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(3)
    t = rng.standard_normal(3)
    g = m.variance_grad(y[None], t[None])[0]
    base = m.log_sigma.copy()
    h = 1e-6
    ref = np.zeros(3)
    for i in range(3):
        m.log_sigma = base.copy()
        m.log_sigma[i] += h
        up = m.loss(y[None], t[None])[0]
        m.log_sigma = base.copy()
        m.log_sigma[i] -= h
        dn = m.loss(y[None], t[None])[0]
        ref[i] = (up - dn) / (2.0 * h)
    m.log_sigma = base
    assert rel_err(g, ref) <= 1e-6


def test_learned_variance_floor_projection():
    m = GaussianOutput(2, sigma=1.0 / 128.0, learn_variance=True)
    m.variance_step(np.array([50.0, -1.0]), eta=1.0)
    assert m.sigma[0] == pytest.approx(SIGMA_FLOOR)
    assert m.sigma[1] > SIGMA_FLOOR


def test_fixed_variance_ignores_step():
    m = GaussianOutput(2, sigma=1.0)
    m.variance_step(np.array([1.0, 1.0]), eta=1.0)
    np.testing.assert_array_equal(m.sigma, [1.0, 1.0])


# ---------------------------------------------------------------------------
# Pseudo-target sampling
# ---------------------------------------------------------------------------


def test_categorical_degenerate_sampling():
    m = CategoricalOutput(4)
    y = np.array([50.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(4)
    draws = m.sample_pseudo_target(np.tile(y, (100, 1)), rng)
    assert np.all(draws == 0)


def test_categorical_sampling_frequencies():
    m = CategoricalOutput(3)
    rng = np.random.default_rng(5)
    y = np.array([0.3, -0.2, 0.9])
    p = m.probs(y[None])[0]
    n = 100_000
    draws = m.sample_pseudo_target(np.tile(y, (n, 1)), rng)
    freq = np.bincount(draws, minlength=3) / n
    se = np.sqrt(p * (1.0 - p) / n)
    assert np.all(np.abs(freq - p) <= 3.0 * se)


def test_gaussian_sampling_moments():
    m = GaussianOutput(2, sigma=np.array([0.5, 2.0]))
    rng = np.random.default_rng(6)
    y = np.array([1.0, -1.0])
    n = 50_000
    draws = m.sample_pseudo_target(np.tile(y, (n, 1)), rng)
    np.testing.assert_allclose(draws.mean(axis=0), y, atol=4.0 * 2.0 / np.sqrt(n))
    np.testing.assert_allclose(draws.std(axis=0), [0.5, 2.0], rtol=0.05)


def test_bernoulli_sampling_is_binary_with_right_rate():
    m = BernoulliOutput(2)
    rng = np.random.default_rng(7)
    y = np.array([0.7, -1.2])
    p = m.probs(y[None])[0]
    n = 50_000
    draws = m.sample_pseudo_target(np.tile(y, (n, 1)), rng)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    se = np.sqrt(p * (1.0 - p) / n)
    assert np.all(np.abs(draws.mean(axis=0) - p) <= 3.0 * se)


# ---------------------------------------------------------------------------
# Fisher terms
# ---------------------------------------------------------------------------


def test_categorical_fisher_weights_sum_to_one():
    m = CategoricalOutput(2)
    y = np.zeros((1, 2))
    terms = m.enumerate_fisher_terms(y)
    assert len(terms) == 2
    weights = [t.weight[0] for t in terms]
    np.testing.assert_allclose(weights, [0.5, 0.5], rtol=1e-12)
    for c, term in enumerate(terms):
        np.testing.assert_allclose(term.seed[0], m.loss_output_grad(y, [c])[0], rtol=1e-12)
    rng = np.random.default_rng(8)
    y = rng.standard_normal(7)[None]
    m7 = CategoricalOutput(7)
    total = sum(t.weight[0] for t in m7.enumerate_fisher_terms(y))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_gaussian_unit_sigma_fisher_terms():
    m = GaussianOutput(3, sigma=1.0)
    terms = m.enumerate_fisher_terms(np.zeros((1, 3)))
    assert len(terms) == 3
    for c, term in enumerate(terms):
        assert term.weight == pytest.approx(1.0)
        np.testing.assert_array_equal(term.seed[0], np.eye(3)[c])


def test_fisher_terms_match_mc_expectation_in_output_space():
    # With the identity Jacobian (network output = parameters), the exact
    # decomposition must match E over pseudo-targets of grad grad^T.
    rng = np.random.default_rng(9)
    for kind in ("categorical", "gaussian", "bernoulli"):
        k = 3
        m = make_output_model(kind, k)
        y = rng.standard_normal(k) * 0.8
        exact = np.zeros((k, k))
        for term in m.enumerate_fisher_terms(y[None]):
            exact += term.weight * np.outer(term.seed[0], term.seed[0])
        n = 200_000
        yb = np.tile(y, (n, 1))
        t = m.sample_pseudo_target(yb, rng)
        g = m.loss_output_grad(yb, t)
        outer = g[:, :, None] * g[:, None, :]
        mc = outer.mean(axis=0)
        se = outer.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(exact - mc) <= 3.0 * se + 1e-12), kind


def test_bernoulli_fisher_weights_finite_under_saturation():
    m = BernoulliOutput(2)
    y = np.array([[80.0, -80.0]])
    for term in m.enumerate_fisher_terms(y):
        assert np.isfinite(term.weight)
        w = np.max(np.abs(term.weight))
        assert w <= 1.0 / (BERNOULLI_CLAMP * (1.0 - BERNOULLI_CLAMP)) + 1.0
