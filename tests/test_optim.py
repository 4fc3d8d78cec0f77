"""Optimizer tests: frozen recursions, dense-metric oracles, invariances."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdgrad.data import Dataset
from qdgrad.harness import eval_metrics
from qdgrad.metric import CHUNK_FLOATS, QDMetric
from qdgrad.network import Network, make_sparse_layout
from qdgrad.optim import (
    ALGOS,
    DivergenceError,
    OptimizerConfig,
    OptimizerState,
    _metric_batch,
    optimizer_step,
)
from qdgrad.outputs import BernoulliOutput, CategoricalOutput, GaussianOutput
from qdgrad.verify import qd_reduce


def bias_only_net(theta0):
    """0-input 1-output net: the model reduces to a single scalar parameter."""
    net = Network([0, 1], "sigmoid")
    net.set_params(np.array([theta0]))
    return net


def bias_only_step(net, state, cfg, grad):
    """optimizer_step on a bias-only net, with targets that make its gradient grad.

    Under a unit-variance Gaussian output the loss gradient of one sample
    is theta - t, so t = theta - grad.
    """
    theta = net.get_params()
    model = GaussianOutput(theta.size)
    optimizer_step(net, model, np.zeros((1, 0)), (theta - grad)[None, :], state, cfg)


def random_problem(rng, sizes, k, activation="sigmoid", batch=6):
    net = Network(sizes, activation)
    net.init_params(rng)
    model = CategoricalOutput(k)
    X = rng.uniform(0.0, 1.0, size=(batch, sizes[0]))
    T = rng.integers(0, k, size=batch)
    return net, model, X, T


# ---------------------------------------------------------------------------
# Plain steps
# ---------------------------------------------------------------------------


def test_sgd_frozen_values():
    net = Network([0, 2], "sigmoid")
    net.set_params(np.array([1.0, 5.0]))
    cfg = OptimizerConfig("sgd", eta=0.1)
    bias_only_step(net, OptimizerState(net, cfg), cfg, np.array([2.0, 0.0]))
    np.testing.assert_array_equal(net.get_params(), [0.8, 5.0])


def test_sgd_quadratic_contracts_by_one_minus_eta():
    # f = theta^2 / 2 so grad = theta and the recursion is exact
    net = bias_only_net(0.7)
    cfg = OptimizerConfig("sgd", eta=0.2)
    state = OptimizerState(net, cfg)
    for _ in range(10):
        bias_only_step(net, state, cfg, net.get_params())
    np.testing.assert_allclose(net.get_params(), [0.7 * 0.8**10], rtol=1e-15)


def test_adagrad_first_step_is_sign_like():
    net = Network([0, 2], "sigmoid")
    net.set_params(np.array([1.0, 1.0]))
    cfg = OptimizerConfig("adagrad", eta=0.1, epsilon=1e-8)
    state = OptimizerState(net, cfg)
    bias_only_step(net, state, cfg, np.array([3.0, -0.5]))
    np.testing.assert_allclose(net.get_params(), [1.0 - 0.1, 1.0 + 0.1], atol=1e-8)


def test_adagrad_constant_gradient_step_approaches_eta():
    net = bias_only_net(100.0)
    cfg = OptimizerConfig("adagrad", eta=0.05, gamma=0.01, epsilon=1e-8)
    state = OptimizerState(net, cfg)
    g = np.array([2.0])
    for _ in range(3000):
        prev = net.get_params()
        bias_only_step(net, state, cfg, g)
    assert abs((prev - net.get_params())[0] - 0.05) < 1e-4 * 0.05


def test_adagrad_accumulator_bitwise_identical_to_dop():
    rng = np.random.default_rng(2)
    net, model, X, T = random_problem(rng, [3, 4, 2], 2)
    twin = net.copy()
    cfg_a = OptimizerConfig("adagrad", eta=0.1)
    cfg_d = OptimizerConfig("dop", eta=0.1)
    st_a = OptimizerState(net, cfg_a)
    st_d = OptimizerState(twin, cfg_d)
    optimizer_step(net, model, X, T, st_a, cfg_a)
    optimizer_step(twin, model, X, T, st_d, cfg_d)
    np.testing.assert_array_equal(st_a.metric.diag, st_d.metric.diag)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig("newton", 0.1)
    with pytest.raises(ValueError):
        OptimizerConfig("sgd", -0.1)
    with pytest.raises(ValueError):
        OptimizerConfig("sgd", 0.1, gamma=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig("sgd", 0.1, epsilon=-1e-9)
    with pytest.raises(ValueError):
        OptimizerConfig("sgd", 0.1, epsilon=float("nan"))
    with pytest.raises(ValueError):
        OptimizerConfig("dmcnat", 0.1, n_mc=0)
    assert OptimizerConfig("qdnat", 0.1).quasi
    assert not OptimizerConfig("dnat", 0.1).quasi
    assert not OptimizerConfig("sgd", 0.1).needs_metric


def test_state_metric_modes():
    net = Network([2, 2], "sigmoid")
    assert OptimizerState(net, OptimizerConfig("sgd", 0.1)).metric is None
    assert OptimizerState(net, OptimizerConfig("adagrad", 0.1)).metric.quasi is False
    assert OptimizerState(net, OptimizerConfig("dop", 0.1)).metric.quasi is False
    assert OptimizerState(net, OptimizerConfig("qdmcnat", 0.1)).metric.quasi is True


# ---------------------------------------------------------------------------
# Noiseless 1-D quadratic: the op pathology and the natural fix
# ---------------------------------------------------------------------------


def test_op_quadratic_overshoots_through_zero():
    # loss = theta^2/2: op preconditioning gives theta <- theta - eta/theta
    net = bias_only_net(1e-3)
    model = GaussianOutput(1)
    cfg = OptimizerConfig("dop", eta=0.1, gamma=1.0, epsilon=0.0)
    state = OptimizerState(net, cfg)
    X = np.zeros((1, 0))
    T = np.array([[0.0]])
    optimizer_step(net, model, X, T, state, cfg)
    theta = net.get_params()[0]
    np.testing.assert_allclose(theta, 1e-3 - 0.1 / 1e-3, rtol=1e-12)
    assert theta < 0 and abs(theta) > 10 * 1e-3  # blasted far past the optimum


def test_natural_quadratic_contracts_exactly():
    net = bias_only_net(0.5)
    model = GaussianOutput(1)
    cfg = OptimizerConfig("dnat", eta=0.1, gamma=1.0, epsilon=0.0)
    state = OptimizerState(net, cfg)
    X = np.zeros((1, 0))
    T = np.array([[0.0]])
    for _ in range(10):
        optimizer_step(net, model, X, T, state, cfg)
    np.testing.assert_allclose(net.get_params()[0], 0.5 * 0.9**10, rtol=1e-13)


def test_identity_metric_reduces_to_sgd():
    rng = np.random.default_rng(3)
    net, model, X, T = random_problem(rng, [3, 3, 2], 2)
    tr = net.forward(X, mode="eval")
    g = net.backprop(tr, model.loss_output_grad(tr.output, T)) / len(X)
    m = QDMetric(net.layout, quasi=True)
    m.diag[:] = 1.0
    np.testing.assert_allclose(m.solve(g, 0.0), g, rtol=1e-15)


# ---------------------------------------------------------------------------
# Metric construction against dense oracles
# ---------------------------------------------------------------------------


def output_fisher(model, y):
    """The output model's Fisher matrix in output space at one sample's output y.

    y is that sample's output as a one-row batch.
    """
    if model.kind == "categorical":
        p = model.probs(y)[0]
        return np.diag(p) - np.outer(p, p)
    if model.kind == "bernoulli":
        p = model.probs(y)[0]
        return np.diag(p * (1.0 - p))
    return np.diag(1.0 / model.sigma**2)


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
@pytest.mark.parametrize("kind", ["categorical", "bernoulli", "gaussian"])
@pytest.mark.parametrize("algo", ["qdnat", "qdmcnat"])
def test_qdnat_first_step_matches_dense_fisher_reduction(algo, kind, masked):
    """The first step's metric against dense sums of per-sample outer products.

    qdnat: J^T F J over samples, F the output-space Fisher, whose terms
    weigh each sample (categorical, bernoulli) or each output (gaussian).
    qdmcnat with 3 draws: v v^T over samples and draws, v the gradient for
    the same seeded pseudo-targets the step draws.
    """
    rng = np.random.default_rng(4)
    sizes, batch = [3, 4, 3], 3
    k = sizes[-1]
    masks = make_sparse_layout(sizes, fan_in=2, rng=rng) if masked else None
    net = Network(sizes, "sigmoid", masks=masks)
    net.init_params(rng)
    X = rng.uniform(0.0, 1.0, size=(batch, sizes[0]))
    if kind == "categorical":
        model, T = CategoricalOutput(k), rng.integers(0, k, size=batch)
    elif kind == "bernoulli":
        model, T = BernoulliOutput(k), rng.integers(0, 2, size=(batch, k)).astype(float)
    else:
        model, T = GaussianOutput(k, sigma=[0.5, 1.0, 2.0]), rng.standard_normal((batch, k))
    cfg = OptimizerConfig(algo, eta=0.01, n_mc=3)
    state = OptimizerState(net, cfg)
    theta = net.get_params()

    dense = np.zeros((net.layout.dim, net.layout.dim))
    if algo == "qdnat":
        for s in range(batch):
            tr = net.forward(X[s][None], mode="eval")
            J = np.array([net.backprop(tr, e[None]) for e in np.eye(k)])
            dense += J.T @ output_fisher(model, tr.output) @ J / batch
    else:
        Y = net.forward(X, mode="eval").output
        draws = np.random.default_rng(11)
        for _ in range(cfg.n_mc):
            pseudo = model.sample_pseudo_target(Y, draws)
            for s in range(batch):
                tr = net.forward(X[s][None], mode="eval")
                v = net.backprop(tr, model.loss_output_grad(tr.output, pseudo[s][None]))
                dense += np.outer(v, v) / (batch * cfg.n_mc)
    ref = qd_reduce(dense, net.layout, quasi=True)

    # first minibatch: gamma = 1
    optimizer_step(net, model, X, T, state, cfg, rng=np.random.default_rng(11))
    np.testing.assert_allclose(state.metric.diag, ref.diag, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(state.metric.row, ref.row, rtol=1e-10, atol=1e-14)
    assert not np.array_equal(net.get_params(), theta)


def test_moving_average_second_step_uses_gamma():
    rng = np.random.default_rng(5)
    net, model, X, T = random_problem(rng, [2, 2, 2], 2, batch=4)
    cfg = OptimizerConfig("dop", eta=1e-9, gamma=0.25)
    state = OptimizerState(net, cfg)
    optimizer_step(net, model, X, T, state, cfg)
    m1 = state.metric.diag.copy()
    # eta ~ 0 so the parameters (and hence the fresh batch metric) are frozen
    optimizer_step(net, model, X, T, state, cfg)
    np.testing.assert_allclose(state.metric.diag, 0.75 * m1 + 0.25 * m1, rtol=1e-6)


def metric_arrays(metric):
    """Copies of a metric's diag and row; row None in diagonal mode."""
    return metric.diag.copy(), None if metric.row is None else metric.row.copy()


def bits(a):
    return None if a is None else a.view(np.int64)


def first_step_metric(net, model, X, T, cfg):
    """The metric after one step from a fresh state; net is left as it was."""
    state = OptimizerState(net, cfg)
    optimizer_step(net.copy(), model, X, T, state, cfg)
    assert state.t == 1
    return state.metric


def test_first_step_metric_is_the_batch_metric_and_is_linear():
    # gamma = 1 on the first step (state.t == 0): its metric is the
    # minibatch terms themselves, so it is linear in the batch
    rng = np.random.default_rng(6)
    net, model, X, T = random_problem(rng, [3, 4, 2], 2, batch=8)
    cfg = OptimizerConfig("qdop", eta=0.1)

    whole = first_step_metric(net, model, X, T, cfg)  # asserts the step completed
    tr = net.forward(X, mode="train")
    deltas = net.backprop_deltas(tr, model.loss_output_grad(tr.output, T))
    spare = OptimizerState(net, cfg).spare
    diag, row = _metric_batch(net, model, tr, deltas, cfg, None, (spare.diag, spare.row),
                              np.empty(net.layout.dim))
    np.testing.assert_array_equal(whole.diag, diag)
    np.testing.assert_array_equal(whole.row, row)

    a = first_step_metric(net, model, X[:3], T[:3], cfg)
    b = first_step_metric(net, model, X[3:], T[3:], cfg)
    np.testing.assert_allclose(whole.diag, (3 * a.diag + 5 * b.diag) / 8, rtol=1e-12)
    np.testing.assert_allclose(whole.row, (3 * a.row + 5 * b.row) / 8, rtol=1e-12)


@pytest.mark.filterwarnings("error")  # no "Mean of empty slice" either
@pytest.mark.parametrize("algo", ["sgd", "qdop"])
def test_a_step_on_an_empty_batch_raises_before_any_work(algo):
    rng = np.random.default_rng(6)
    net, model, X, T = random_problem(rng, [3, 4, 2], 2)
    cfg = OptimizerConfig(algo, eta=0.1)
    state = OptimizerState(net, cfg)
    theta = net.get_params()
    with pytest.raises(ValueError, match="at least one sample"):
        optimizer_step(net, model, X[:0], T[:0], state, cfg)
    np.testing.assert_array_equal(net.theta, theta)
    assert state.t == 0 and net.scratch.passes == 0


def test_warmed_metric_solves_with_zero_epsilon():
    rng = np.random.default_rng(7)
    net, model, X, T = random_problem(rng, [4, 5, 3], 3, batch=16)
    metric = first_step_metric(net, model, X, T, OptimizerConfig("qdop", eta=0.1, epsilon=0.0))
    tr = net.forward(X, mode="eval")
    g = net.backprop(tr, model.loss_output_grad(tr.output, T)) / len(X)
    assert np.isfinite(metric.solve(g, 0.0)).all()


def test_mcnat_metric_expectation_matches_nat():
    # E over pseudo-targets of the mc metric is the exact Fisher metric
    rng = np.random.default_rng(8)
    net, model, X, T = random_problem(rng, [2, 3, 2], 2, batch=2)

    tr = net.forward(X, mode="eval")
    # the gradient's deltas, which each call overwrites with its weighted squares
    deltas = net.backprop_deltas(tr, model.loss_output_grad(tr.output, T))
    cfg_mc = OptimizerConfig("qdmcnat", eta=0.1)
    cfg_nat = OptimizerConfig("qdnat", eta=0.1)
    spare = OptimizerState(net, cfg_nat).spare
    grad = np.empty(net.layout.dim)
    nat_diag, nat_row = _metric_batch(net, model, tr, deltas, cfg_nat, None,
                                      (spare.diag, spare.row), grad)
    spare = OptimizerState(net, cfg_mc).spare
    out = (spare.diag, spare.row)

    n = 10_000
    s1_d = np.zeros(net.layout.dim)
    s2_d = np.zeros(net.layout.dim)
    s1_r = np.zeros(net.layout.dim)
    s2_r = np.zeros(net.layout.dim)
    for _ in range(n):
        d, r = _metric_batch(net, model, tr, deltas, cfg_mc, rng, out, grad)
        s1_d += d
        s2_d += d * d
        s1_r += r
        s2_r += r * r
    for s1, s2, ref in ((s1_d, s2_d, nat_diag), (s1_r, s2_r, nat_row)):
        mean = s1 / n
        se = np.sqrt(np.maximum(s2 / n - mean**2, 0.0) / n)
        assert np.all(np.abs(mean - ref) <= 3.0 * se + 1e-12)


def test_mcnat_multiple_draws_average():
    rng = np.random.default_rng(9)
    net, model, X, T = random_problem(rng, [2, 3, 2], 2, batch=4)
    cfg = OptimizerConfig("qdmcnat", eta=0.1, n_mc=3)
    state = OptimizerState(net, cfg)
    optimizer_step(net, model, X, T, state, cfg, rng=np.random.default_rng(0))
    assert state.t == 1
    assert np.all(state.metric.diag >= 0.0)


# ---------------------------------------------------------------------------
# Reports, divergence, variance learning
# ---------------------------------------------------------------------------


def test_step_report_fields():
    rng = np.random.default_rng(10)
    net, model, X, T = random_problem(rng, [3, 3, 2], 2)
    cfg = OptimizerConfig("sgd", eta=0.5)
    state = OptimizerState(net, cfg)
    rep = optimizer_step(net, model, X, T, state, cfg)
    assert rep.loss > 0.0 and np.isfinite(rep.loss)
    assert rep.grad_norm > 0.0
    np.testing.assert_allclose(rep.step_norm, 0.5 * rep.grad_norm, rtol=1e-12)
    assert state.t == 1


def test_divergence_raises_and_leaves_params_untouched():
    # a step that raises leaves theta, the metric, t and learned variances as they were
    X, T = np.array([[1.0]]), np.array([[0.0]])
    for algo in ALGOS:
        net = Network([1, 1], "sigmoid")
        net.set_params(np.array([0.1, 0.2]))
        model = GaussianOutput(1, sigma=0.5, learn_variance=True)
        cfg = OptimizerConfig(algo, eta=0.1)
        state = OptimizerState(net, cfg)
        rng = np.random.default_rng(0)
        optimizer_step(net, model, X, T, state, cfg, rng)  # warms the metric
        net.set_params(np.array([1e200, 0.0]))  # the next loss overflows
        theta, log_sigma, t = net.get_params(), model.log_sigma.copy(), state.t
        metric = state.metric
        if metric is not None:
            diag, row = metric_arrays(metric)
        with pytest.raises(DivergenceError):
            optimizer_step(net, model, X, T, state, cfg, rng)
        np.testing.assert_array_equal(net.get_params(), theta, err_msg=algo)
        np.testing.assert_array_equal(model.log_sigma, log_sigma, err_msg=algo)
        assert state.t == t == 1, algo
        if metric is None:
            assert state.metric is None, algo
            continue
        assert state.metric is metric, algo  # not swapped for the spare
        np.testing.assert_array_equal(state.metric.diag, diag, err_msg=algo)
        np.testing.assert_array_equal(state.metric.row, row, err_msg=algo)


@st.composite
def small_problems(draw):
    """A small dense or masked net with a learned-variance Gaussian head."""
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    masked = draw(st.booleans()) and len(sizes) > 2
    dropout = draw(st.sampled_from([0.0, 0.3]))
    activation = draw(st.sampled_from(["sigmoid", "tanh", "relu"]))
    rng = np.random.default_rng(seed)
    masks = None
    if masked:
        fan_in = draw(st.integers(1, min(sizes[:-2])))
        masks = make_sparse_layout(sizes, fan_in, rng)
    net = Network(sizes, activation, masks=masks, dropout=dropout)
    net.init_params(rng)
    batch = draw(st.integers(1, 4))
    X = rng.uniform(-1.0, 1.0, size=(batch, sizes[0]))
    T = rng.standard_normal((batch, sizes[-1]))
    return seed, net, X, T


@settings(max_examples=25, deadline=None)
@given(small_problems(), st.sampled_from(ALGOS))
def test_failed_step_leaves_no_trace_in_later_steps(problem, algo):
    # good step, overflowing step, good step == the same two good steps
    seed, net, X, T = problem
    cfg = OptimizerConfig(algo, eta=0.05, gamma=0.3)
    runs = []
    for fail in (True, False):
        twin = net.copy()
        model = GaussianOutput(T.shape[1], sigma=0.5, learn_variance=True)
        state = OptimizerState(twin, cfg)
        optimizer_step(twin, model, X, T, state, cfg, np.random.default_rng([seed, 1]))
        if fail:
            with pytest.raises(DivergenceError):  # the loss overflows
                optimizer_step(twin, model, X, T * 1e300, state, cfg,
                               np.random.default_rng([seed, 2]))
        optimizer_step(twin, model, X, T, state, cfg, np.random.default_rng([seed, 3]))
        runs.append((twin, model, state))
    (a, model_a, sa), (b, model_b, sb) = runs
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(model_a.log_sigma, model_b.log_sigma)
    assert sa.t == sb.t == 2
    if sa.metric is None:
        assert sb.metric is None
        return
    np.testing.assert_array_equal(sa.metric.diag, sb.metric.diag)
    np.testing.assert_array_equal(sa.metric.row, sb.metric.row)


@pytest.mark.parametrize("algo", ALGOS)
def test_warm_step_allocates_less_than_two_thetas(algo):
    # theta-sized work runs in the state's own arrays and in chunks; the
    # batch arrays of this net are small next to theta
    rng = np.random.default_rng(13)
    net, model, X, T = random_problem(rng, [784, 300, 10], 10, batch=8)
    cfg = OptimizerConfig(algo, eta=0.01)
    state = OptimizerState(net, cfg)
    for _ in range(2):
        optimizer_step(net, model, X, T, state, cfg, rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        optimizer_step(net, model, X, T, state, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 2 * net.theta.nbytes


@pytest.mark.parametrize("algo", ALGOS)
def test_a_warm_step_allocates_less_than_a_fifth_of_theta(algo):
    # the step updates theta in place and builds the metric inside the
    # solve's chunks, so its peak is a few chunk-sized buffers
    rng = np.random.default_rng(13)
    net, model, X, T = random_problem(rng, [784, 300, 10], 10, batch=8)
    cfg = OptimizerConfig(algo, eta=0.01)
    state = OptimizerState(net, cfg)
    for _ in range(2):
        optimizer_step(net, model, X, T, state, cfg, rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        optimizer_step(net, model, X, T, state, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 0.2 * net.theta.nbytes


@pytest.mark.parametrize("algo, n_mc", [*((algo, 1) for algo in ALGOS), ("qdmcnat", 3)],
                         ids=[*ALGOS, "qdmcnat-n_mc3"])
@pytest.mark.parametrize("masked", [False, True])
def test_warm_passes_allocate_nothing_batch_sized(algo, n_mc, masked):
    # After one step and one evaluation, a step and an evaluation carve
    # their batch-sized arrays from net.scratch without reallocating it. A
    # step allocates only chunk-sized buffers: the masked layers' one
    # activation gather buffer of at most CHUNK_FLOATS floats (sampled
    # products, which read the deltas in place), or the update's one chunk
    # (axpy), whichever is larger; and the output head's (B, K) arrays,
    # 16 KiB each here, of which it holds less than three (measured above
    # the chunks: at most 21 KB dense, 39 KB masked). So a theta-sized
    # copy, even the masked net's 50 KB one, does not fit, nor does a
    # second gather buffer. An evaluation allocates its feature gather and
    # a few small objects.
    rng = np.random.default_rng(17)
    sizes, b, k = [32, 320, 256, 4], 512, 4
    masks = make_sparse_layout(sizes, 8, rng) if masked else None
    net = Network(sizes, "tanh", masks=masks, dropout=0.2 if masked else 0.0)
    net.init_params(rng)
    model = CategoricalOutput(k)
    n = 2 * b
    ds = Dataset(rng.uniform(0.0, 1.0, size=(n, sizes[0])), rng.integers(0, k, size=n),
                 "class", k, np.arange(b), np.arange(b, n))
    X, T = ds.features[ds.train_idx], ds.target_batch(ds.train_idx)
    cfg = OptimizerConfig(algo, eta=0.01, n_mc=n_mc)
    state = OptimizerState(net, cfg)
    optimizer_step(net, model, X, T, state, cfg, rng)
    eval_metrics(net, model, ds, ds.valid_idx)
    buf = net.scratch.buf
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        optimizer_step(net, model, X, T, state, cfg, rng)
        step = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        eval_metrics(net, model, ds, ds.valid_idx)
        evaluation = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert net.scratch.buf is buf
    chunks = max(CHUNK_FLOATS if masked else 0, min(CHUNK_FLOATS, net.theta.size)) * 8
    assert step - chunks < 3 * b * k * 8
    assert evaluation <= ds.features[ds.valid_idx].nbytes + 2**14


def test_a_qdnat_step_needs_no_more_scratch_than_a_qdop_step():
    # a step holds at most two sets of deltas, the gradient's and one metric
    # term's, however many terms its metric sums
    floats = {}
    for algo in ("qdop", "qdnat"):
        rng = np.random.default_rng(19)
        net, model, X, T = random_problem(rng, [6, 9, 7, 4], 4, batch=10)
        cfg = OptimizerConfig(algo, eta=0.1)
        optimizer_step(net, model, X, T, OptimizerState(net, cfg), cfg)
        floats[algo] = net.scratch.buf.size
    assert floats["qdnat"] <= floats["qdop"]


# the first non-finite quantity in the check order: loss, update direction,
# output variance gradient, metric diagonal, metric row. An infinite
# diagonal entry gives a zero, finite, diagonal-mode direction
NON_FINITE = {"adagrad": "metric diagonal", "dop": "metric diagonal", "qdop": "update direction"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algo", ["adagrad", "dop", "qdop"])
def test_step_with_a_non_finite_metric_raises_and_keeps_the_state(algo):
    # the loss stays finite, but the squared deltas of the metric overflow
    rng = np.random.default_rng(18)
    net = Network([3, 4, 2], "sigmoid")
    net.init_params(rng)
    model = GaussianOutput(2, sigma=1 / 256)
    X = rng.uniform(0.0, 1.0, size=(5, 3))
    T = rng.standard_normal((5, 2))
    cfg = OptimizerConfig(algo, eta=1e-6)
    state = OptimizerState(net, cfg)
    optimizer_step(net, model, X, T, state, cfg)
    theta, metric, t = net.get_params(), state.metric, state.t
    diag, row = metric_arrays(metric)
    with pytest.raises(DivergenceError, match=f"^non-finite {NON_FINITE[algo]}$"):
        optimizer_step(net, model, X, T * 1e151, state, cfg)
    np.testing.assert_array_equal(net.theta, theta)
    assert state.metric is metric  # not swapped for the spare
    np.testing.assert_array_equal(state.metric.diag, diag)
    np.testing.assert_array_equal(state.metric.row, row)
    assert state.t == t == 1
    optimizer_step(net, model, X, T, state, cfg)
    assert np.all(net.theta != theta)  # the next good step moves every coordinate


@pytest.mark.filterwarnings("error")  # no divide-by-zero warning either
@pytest.mark.parametrize("algo, zero", [("qdop", "bias entry"), ("qdop", "pair determinant"),
                                        ("dop", "bias entry")])
def test_a_zero_divisor_at_epsilon_zero_is_a_non_finite_direction(algo, zero):
    # a relu unit that no sample reaches has a zero bias entry (and zero
    # pair determinants); in a tanh net, whose bias entries are all
    # nonzero, an input column of zeros gives its weights zero pair
    # determinants. A warm metric keeps the zeros, as both minibatches
    # have them
    rng = np.random.default_rng(20)
    activation = "relu" if zero == "bias entry" else "tanh"
    net, model, X, T = random_problem(rng, [3, 4, 2], 2, activation)
    if zero == "bias entry":
        net.layers[0][0, 0] = -1e3  # unit 0 of the hidden layer is dead
        net.version += 1
    else:
        X[:, 1] = 0.0
    warm = OptimizerConfig(algo, eta=0.1, epsilon=1e-8)
    cfg = OptimizerConfig(algo, eta=0.1, epsilon=0.0)
    state = OptimizerState(net, warm)
    optimizer_step(net, model, X, T, state, warm)
    metric = state.metric
    theta, (diag, row) = net.get_params(), metric_arrays(metric)
    with pytest.raises(DivergenceError, match="^non-finite update direction$"):
        optimizer_step(net, model, X, T, state, cfg)
    np.testing.assert_array_equal(bits(net.theta), bits(theta))
    assert state.metric is metric  # not swapped for the spare
    np.testing.assert_array_equal(bits(state.metric.diag), bits(diag))
    np.testing.assert_array_equal(bits(state.metric.row), bits(row))
    assert state.t == 1


def test_learned_variance_takes_sgd_step():
    rng = np.random.default_rng(11)
    net = Network([2, 2], "sigmoid")
    net.init_params(rng)
    model = GaussianOutput(2, sigma=1.0, learn_variance=True)
    X = rng.uniform(size=(5, 2))
    T = rng.standard_normal((5, 2))
    cfg = OptimizerConfig("sgd", eta=0.2)
    state = OptimizerState(net, cfg)
    tr = net.forward(X, mode="eval")
    expected = model.log_sigma - 0.2 * model.variance_grad(tr.output, T).mean(axis=0)
    expected = np.maximum(expected, np.log(1.0 / 256.0))
    optimizer_step(net, model, X, T, state, cfg)
    np.testing.assert_allclose(model.log_sigma, expected, rtol=1e-12)


@pytest.mark.parametrize("algo", [a for a in ALGOS if "mc" not in a])
def test_all_non_mc_algos_step_without_rng(algo):
    rng = np.random.default_rng(12)
    net, model, X, T = random_problem(rng, [3, 4, 3], 3)
    cfg = OptimizerConfig(algo, eta=0.01)
    state = OptimizerState(net, cfg)
    before = net.get_params()
    rep = optimizer_step(net, model, X, T, state, cfg, rng=None)
    assert np.isfinite(rep.loss)
    assert not np.array_equal(net.get_params(), before)


# ---------------------------------------------------------------------------
# Rescaling invariance of the diagonal family
# ---------------------------------------------------------------------------


def rescaled_problem(rng, c, j):
    sizes = [4, 5, 3]
    net, model, X, T = random_problem(rng, sizes, 3, batch=8)
    net_s = net.copy()
    net_s.layers[0][:, 1 + j] /= c  # column 0 is the bias
    net_s.version += 1
    X_s = X.copy()
    X_s[:, j] *= c
    return net, net_s, model, X, X_s, T


def map_back(net_s, c, j):
    theta = net_s.copy()
    theta.layers[0][:, 1 + j] *= c
    theta.version += 1
    return theta.get_params()


@pytest.mark.parametrize("algo", ["dop", "dnat"])
def test_diagonal_family_invariant_to_input_rescaling(algo):
    rng = np.random.default_rng(13)
    c, j = 10.0, 1
    net, net_s, model, X, X_s, T = rescaled_problem(rng, c, j)
    cfg = OptimizerConfig(algo, eta=0.05, epsilon=0.0)
    st = OptimizerState(net, cfg)
    st_s = OptimizerState(net_s, cfg)
    for _ in range(10):
        optimizer_step(net, model, X, T, st, cfg)
        optimizer_step(net_s, model, X_s, T, st_s, cfg)
        a = net.get_params()
        b = map_back(net_s, c, j)
        rel = np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12))
        assert rel <= 1e-6


def test_dmcnat_invariant_to_input_rescaling_with_matched_rng():
    rng = np.random.default_rng(14)
    c, j = 10.0, 1
    net, net_s, model, X, X_s, T = rescaled_problem(rng, c, j)
    cfg = OptimizerConfig("dmcnat", eta=0.05, epsilon=0.0)
    st = OptimizerState(net, cfg)
    st_s = OptimizerState(net_s, cfg)
    for step in range(10):
        optimizer_step(net, model, X, T, st, cfg, rng=np.random.default_rng(100 + step))
        optimizer_step(net_s, model, X_s, T, st_s, cfg, rng=np.random.default_rng(100 + step))
        a = net.get_params()
        b = map_back(net_s, c, j)
        rel = np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12))
        assert rel <= 1e-6


def test_adagrad_breaks_rescaling_invariance():
    rng = np.random.default_rng(15)
    c, j = 10.0, 1
    net, net_s, model, X, X_s, T = rescaled_problem(rng, c, j)
    cfg = OptimizerConfig("adagrad", eta=0.05, epsilon=0.0)
    st = OptimizerState(net, cfg)
    st_s = OptimizerState(net_s, cfg)
    for _ in range(10):
        optimizer_step(net, model, X, T, st, cfg)
        optimizer_step(net_s, model, X_s, T, st_s, cfg)
    a = net.get_params()
    b = map_back(net_s, c, j)
    rel = np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12))
    assert rel > 1e-3
