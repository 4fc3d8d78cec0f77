"""Network tests against independent loop-based and finite-difference oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import csr_array

from qdgrad import network
from qdgrad.metric import QDMetric
from qdgrad.network import (
    Network,
    Scratch,
    StaleTraceError,
    _matmul,
    load_checkpoint,
    make_sparse_layout,
    save_checkpoint,
    to_inverted_inputs,
    to_tanh_equivalent,
)
from qdgrad.optim import OptimizerConfig, OptimizerState, _metric_batch, optimizer_step
from qdgrad.outputs import CategoricalOutput, GaussianOutput
from qdgrad.verify import rank_one_update


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def loop_forward(sizes, activation, weights, biases, x):
    """Scalar-loop reimplementation of the forward pass (single sample)."""
    a = [float(v) for v in x]
    for layer in range(len(sizes) - 1):
        z = []
        for u in range(sizes[layer + 1]):
            s = float(biases[layer][u])
            for i in range(sizes[layer]):
                s += float(weights[layer][u, i]) * a[i]
            z.append(s)
        if layer == len(sizes) - 2:
            return np.array(z)
        if activation == "sigmoid":
            a = [1.0 / (1.0 + math.exp(-v)) for v in z]
        elif activation == "tanh":
            a = [math.tanh(v) for v in z]
        else:
            a = [v if v > 0.0 else 0.0 for v in z]
    raise AssertionError("unreachable")


def fd_grad(net, x, c, h=1e-6):
    """Central-difference gradient of theta -> c . y(theta; x)."""
    theta0 = net.get_params()
    g = np.empty_like(theta0)
    for i in range(theta0.size):
        for sign in (+1.0, -1.0):
            theta = theta0.copy()
            theta[i] += sign * h
            net.set_params(theta)
            y = net.forward(x, mode="eval").output
            val = float(np.sum(c * y))
            if sign > 0:
                plus = val
            else:
                minus = val
        g[i] = (plus - minus) / (2.0 * h)
    net.set_params(theta0)
    return g


def terms_out(net, quasi=True):
    """A (diag, row) pair for qd_batch_terms to write to; no row in diagonal mode."""
    return np.empty(net.layout.dim), np.empty(net.layout.dim) if quasi else None


def random_net(rng, sizes, activation="sigmoid", masks=None, dropout=0.0, scale=0.8):
    net = Network(sizes, activation, masks=masks, dropout=dropout)
    net.init_params(rng)
    theta = net.get_params()
    net.set_params(scale * rng.standard_normal(theta.size))
    return net


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def test_zero_params_sigmoid_outputs_zero():
    net = Network([4, 3, 2], "sigmoid")
    y = net.forward(np.ones((1, 4)), mode="eval").output
    # hidden activities are sigmoid(0) = 0.5 but output weights are zero
    assert np.all(y == 0.0)
    tr = net.forward(np.ones((1, 4)), mode="eval")
    assert np.all(tr.hidden[0] == 0.5)


def test_forward_frozen_scalar_chain():
    net = Network([1, 1, 1], "tanh")
    net.set_params(np.array([-1.0, 2.0, 0.5, 3.0]))  # b1, w1, b2, w2
    y = net.forward(np.array([[0.8]]), mode="eval").output[0]
    expected = 0.5 + 3.0 * math.tanh(2.0 * 0.8 - 1.0)
    assert abs(float(y[0]) - expected) < 1e-14


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
def test_forward_matches_loop_oracle(activation):
    rng = np.random.default_rng(7)
    sizes = [5, 4, 3, 2]
    net = random_net(rng, sizes, activation)
    for _ in range(5):
        x = rng.standard_normal(5)
        y = net.forward(x[None], mode="eval").output[0]
        ref = loop_forward(sizes, activation, [P[:, 1:] for P in net.layers],
                           [P[:, 0] for P in net.layers], x)
        np.testing.assert_allclose(y, ref, atol=1e-12)


def test_forward_batch_rows_match_single():
    rng = np.random.default_rng(8)
    net = random_net(rng, [6, 5, 3], "tanh")
    X = rng.standard_normal((7, 6))
    Y = net.forward(X, mode="eval").output
    assert Y.shape == (7, 3)
    for s in range(7):
        np.testing.assert_allclose(Y[s], net.forward(X[s][None], mode="eval").output[0], atol=0)


def test_forward_input_width_checked():
    net = Network([3, 2], "relu")
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 4)))


@pytest.mark.parametrize("sizes", [[3, 0, 2], [3, 2, 0]])
def test_layers_after_the_input_need_a_unit(sizes):
    with pytest.raises(ValueError, match="at least 1 unit"):
        Network(sizes)
    Network([0, 1])  # an input of width 0 is allowed


def test_forward_and_backprop_deltas_reject_1d_arrays():
    net = Network([3, 2], "relu")
    with pytest.raises(ValueError, match="batch"):
        net.forward(np.zeros(3))
    tr = net.forward(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="\\(B, K\\)"):
        net.backprop_deltas(tr, np.zeros(2))


def test_linear_output_layer_has_no_activation():
    net = Network([2, 2], "sigmoid")
    net.set_params(np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0]))
    y = net.forward(np.array([[3.0, -9.0]]), mode="eval").output[0]
    np.testing.assert_allclose(y, [-6.0, -6.0])  # raw affine values, unsquashed


# ---------------------------------------------------------------------------
# Parameter packing
# ---------------------------------------------------------------------------


def test_block_layout_dense():
    net = Network([2, 3, 2], "sigmoid")
    assert net.layout.dim == 3 * 3 + 2 * 4
    assert list(net.layout.lengths) == [3, 3, 3, 4, 4]


def test_pack_unpack_round_trip_dense():
    rng = np.random.default_rng(9)
    net = Network([3, 4, 2], "tanh")
    theta = rng.standard_normal(net.layout.dim)
    net.set_params(theta)
    np.testing.assert_array_equal(net.get_params(), theta)


def test_block_order_is_bias_then_weights():
    net = Network([2, 2], "sigmoid")
    net.layers[0][:, 0] = [10.0, 20.0]
    net.layers[0][:, 1:] = [[1.0, 2.0], [3.0, 4.0]]
    np.testing.assert_array_equal(net.get_params(), [10, 1, 2, 20, 3, 4])


def test_pack_unpack_round_trip_masked():
    rng = np.random.default_rng(10)
    masks = make_sparse_layout([6, 5, 3], fan_in=2, rng=rng)
    net = Network([6, 5, 3], "relu", masks=masks)
    assert net.layout.dim == 5 * (1 + 2) + 3 * (1 + 5)
    theta = rng.standard_normal(net.layout.dim)
    net.set_params(theta)
    np.testing.assert_array_equal(net.get_params(), theta)
    # masked-out entries of the layer's [b|W] matrix stay exactly zero
    assert np.all(net.layers[0].toarray()[:, 1:][~masks[0]] == 0.0)


def test_sparse_layout_counts_and_output_dense():
    rng = np.random.default_rng(11)
    sizes = [20, 8, 4]
    masks = make_sparse_layout(sizes, fan_in=3, rng=rng)
    assert masks[0].shape == (8, 20)
    np.testing.assert_array_equal(masks[0].sum(axis=1), np.full(8, 3))
    assert masks[1].all()  # output layer fully connected


def test_sparse_layout_deterministic_and_bounded():
    sizes = [10, 6, 2]
    a = make_sparse_layout(sizes, 4, np.random.default_rng(3))
    b = make_sparse_layout(sizes, 4, np.random.default_rng(3))
    for ma, mb in zip(a, b):
        np.testing.assert_array_equal(ma, mb)
    with pytest.raises(ValueError):
        make_sparse_layout([3, 5, 2], fan_in=4, rng=np.random.default_rng(0))


@pytest.mark.parametrize("seed", [0, 1, 101])
def test_sparse_layout_matches_full_sort_selection(seed):
    # each unit's sources are the fan_in smallest of its uniform draws
    sizes = [30, 25, 12, 4]
    masks = make_sparse_layout(sizes, 7, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for layer in range(len(sizes) - 2):
        n, m = sizes[layer + 1], sizes[layer]
        cols = np.argsort(rng.random((n, m)), axis=1)[:, :7]
        ref = np.zeros((n, m), dtype=bool)
        np.put_along_axis(ref, cols, True, axis=1)
        np.testing.assert_array_equal(masks[layer], ref)


@pytest.mark.parametrize("fan_in", [-1, 0])
def test_sparse_layout_rejects_nonpositive_fan_in(fan_in):
    with pytest.raises(ValueError, match="fan_in"):
        make_sparse_layout([5, 4, 2], fan_in, np.random.default_rng(0))


def test_sparse_reference_architecture_parameter_count():
    sizes = [784, 2560, 1280, 640, 320, 160, 80, 40, 20, 10]
    rng = np.random.default_rng(0)
    masks = make_sparse_layout(sizes, fan_in=10, rng=rng)
    net = Network(sizes, "sigmoid", masks=masks)
    hidden_units = sum(sizes[1:-1])
    assert net.layout.dim == hidden_units * 11 + 10 * 21
    assert net.layout.dim == 56310


def test_full_fan_in_equals_dense_layout():
    rng = np.random.default_rng(5)
    masks = make_sparse_layout([4, 3, 2], fan_in=4, rng=rng)
    net = Network([4, 3, 2], "sigmoid", masks=masks)
    dense = Network([4, 3, 2], "sigmoid")
    np.testing.assert_array_equal(net.layout.lengths, dense.layout.lengths)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_zero_biases_and_uniform_scale():
    rng = np.random.default_rng(12)
    net = Network([100, 100], "sigmoid")
    net.init_params(rng)
    assert np.all(net.layers[0][:, 0] == 0.0)
    w = net.layers[0][:, 1:].ravel()
    a = math.sqrt(6.0 / (100 + 100))
    assert np.abs(w).max() <= a
    assert abs(w.var() - a * a / 3.0) < 0.1 * a * a / 3.0  # 1e4 draws, 10% slack
    assert abs(w.mean()) < 3.0 * a / math.sqrt(3.0) / 100.0


def test_init_sparse_uses_effective_fans():
    rng = np.random.default_rng(13)
    masks = make_sparse_layout([50, 40, 10], fan_in=5, rng=rng)
    net = Network([50, 40, 10], "sigmoid", masks=masks)
    net.init_params(rng)
    nnz = 40 * 5
    a = math.sqrt(6.0 / (nnz / 40 + nnz / 50))
    bw = net.layers[0].toarray()
    assert np.all(bw[:, 0] == 0.0)
    vals = bw[:, 1:][masks[0]]
    assert np.abs(vals).max() <= a
    assert np.abs(vals).max() > 0.8 * a  # 200 draws should come close to the bound
    assert np.all(bw[:, 1:][~masks[0]] == 0.0)


# ---------------------------------------------------------------------------
# Backprop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
def test_backprop_matches_finite_differences(activation):
    rng = np.random.default_rng(21)
    net = random_net(rng, [4, 3, 3, 2], activation)
    x = rng.standard_normal(4)[None]
    c = rng.standard_normal(2)[None]
    tr = net.forward(x, mode="eval")
    g = net.backprop(tr, c)
    ref = fd_grad(net, x, c)
    np.testing.assert_allclose(g, ref, rtol=1e-5, atol=1e-7)


def test_backprop_masked_matches_finite_differences():
    rng = np.random.default_rng(22)
    masks = make_sparse_layout([5, 4, 2], fan_in=2, rng=rng)
    net = random_net(rng, [5, 4, 2], "tanh", masks=masks)
    x = rng.standard_normal(5)[None]
    c = np.array([[1.0, -2.0]])
    tr = net.forward(x, mode="eval")
    np.testing.assert_allclose(net.backprop(tr, c), fd_grad(net, x, c), rtol=1e-5, atol=1e-7)


def test_backprop_batch_is_sum_of_samples():
    rng = np.random.default_rng(23)
    net = random_net(rng, [3, 4, 2], "sigmoid")
    X = rng.standard_normal((6, 3))
    C = rng.standard_normal((6, 2))
    tr = net.forward(X, mode="eval")
    g = net.backprop(tr, C)
    ref = np.zeros_like(g)
    for s in range(6):
        ts = net.forward(X[s][None], mode="eval")
        ref += net.backprop(ts, C[s][None])
    np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12)


def test_relu_derivative_is_zero_at_kink():
    net = Network([1, 1, 1], "relu")
    net.set_params(np.array([0.0, 1.0, 2.0, 5.0]))  # z1 = x, y = 2 + 5 relu(x)
    tr = net.forward(np.array([[0.0]]), mode="eval")
    g = net.backprop(tr, np.array([[1.0]]))
    np.testing.assert_array_equal(g, [0.0, 0.0, 1.0, 0.0])  # only b2 responds


def test_stale_trace_rejected():
    rng = np.random.default_rng(24)
    net = random_net(rng, [2, 2, 1], "tanh")
    tr = net.forward(np.zeros((1, 2)), mode="eval")
    net.set_params(net.get_params() * 1.001)
    with pytest.raises(StaleTraceError):
        net.backprop(tr, np.array([[1.0]]))


# ---------------------------------------------------------------------------
# Batched quasi-diagonal terms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("quasi", [True, False])
def test_qd_batch_terms_match_per_sample_rank_one(quasi):
    rng = np.random.default_rng(31)
    masks = make_sparse_layout([5, 4, 3], fan_in=3, rng=rng)
    net = random_net(rng, [5, 4, 3], "sigmoid", masks=masks)
    X = rng.standard_normal((8, 5))
    C = rng.standard_normal((8, 3))
    w = rng.uniform(0.1, 2.0, size=8)

    tr = net.forward(X, mode="eval")
    deltas = net.backprop_deltas(tr, C)
    diag, row = net.qd_batch_terms(tr, [w[:, None] * d**2 for d in deltas], terms_out(net, quasi))

    ref = QDMetric(net.layout, quasi=quasi)
    for s in range(8):
        ts = net.forward(X[s][None], mode="eval")
        v = net.backprop(ts, C[s][None])
        rank_one_update(ref, v, w[s])
    np.testing.assert_allclose(diag, ref.diag, rtol=1e-11, atol=1e-13)
    if quasi:
        np.testing.assert_allclose(row, ref.row, rtol=1e-11, atol=1e-13)
        assert np.all(row[net.layout.starts] == 0.0)
    else:
        assert row is None


# ---------------------------------------------------------------------------
# Masked layers against a dense reference
# ---------------------------------------------------------------------------


def dense_reference(net, x, drop_masks, output_grad, sample_weights):
    """Activations and output, deltas, gradient and QD terms from zero-filled dense weights.

    Flat vectors are assembled unit by unit from the dense per-layer
    products, keeping only each unit's connected sources.
    """
    bw = [P.toarray() if isinstance(P, csr_array) else P for P in net.layers]
    weights, biases = [P[:, 1:] for P in bw], [P[:, 0] for P in bw]
    conn = [np.ones(w.shape, dtype=bool) if m is None else m
            for w, m in zip(weights, net.masks)]
    act = {"sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)), "tanh": np.tanh,
           "relu": lambda z: np.maximum(z, 0.0)}[net.activation]
    acts, pre = [x], []
    for layer, w in enumerate(weights):
        pre.append(acts[-1] @ w.T + biases[layer])
        if layer < net.n_layers - 1:
            h = act(pre[-1])
            acts.append(h if drop_masks[layer] is None else h * drop_masks[layer])
    deltas = [output_grad]
    for layer in range(net.n_layers - 1, 0, -1):
        z = pre[layer - 1]
        h = act(z)
        deriv = {"sigmoid": h * (1.0 - h), "tanh": 1.0 - h * h,
                 "relu": (z > 0.0).astype(float)}[net.activation]
        d = deltas[0] @ weights[layer]
        if drop_masks[layer - 1] is not None:
            d = d * drop_masks[layer - 1]
        deltas.insert(0, d * deriv)

    def flat(per_layer):
        parts = []
        for (bias, matrix), c in zip(per_layer, conn):
            for u in range(len(bias)):
                parts.append([bias[u]])
                parts.append(matrix[u][c[u]])
        return np.concatenate(parts)

    d2w = [sample_weights[:, None] * d**2 for d in deltas]
    grad = flat([(d.sum(axis=0), d.T @ a) for d, a in zip(deltas, acts)])
    diag = flat([(q.sum(axis=0), q.T @ (a * a)) for q, a in zip(d2w, acts)])
    row = flat([(np.zeros(q.shape[1]), q.T @ a) for q, a in zip(d2w, acts)])
    outs = [act(z) for z in pre[:-1]] + [pre[-1]]  # pre-dropout activations, then the output
    return outs, deltas, grad, diag, row


def assert_close(got, ref):
    """1e-12 relative to the largest reference entry."""
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(initial=1.0))


@st.composite
def masked_nets(draw):
    """Random layer sizes and boolean masks: ragged, empty and full rows alike."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    masks = [draw(hnp.arrays(bool, (sizes[i + 1], sizes[i]))) for i in range(len(sizes) - 1)]
    activation = draw(st.sampled_from(["sigmoid", "tanh", "relu"]))
    return sizes, masks, activation


@settings(max_examples=60, deadline=None)
@given(masked_nets(), st.integers(1, 5), st.sampled_from([0.0, 0.3]), st.integers(0, 2**32 - 1))
@example(  # a ragged layer with an empty row, then a full one
    ([4, 3, 3, 2],
     [np.array([[1, 0, 1, 1], [0, 0, 0, 0], [0, 1, 0, 0]], dtype=bool),
      np.ones((3, 3), dtype=bool),
      np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)],
     "tanh"),
    4, 0.3, 7,
)
def test_masked_layers_match_dense_reference(net_spec, batch, dropout, seed):
    sizes, masks, activation = net_spec
    rng = np.random.default_rng(seed)
    net = random_net(rng, sizes, activation, masks=masks, dropout=dropout)
    X = rng.standard_normal((batch, sizes[0]))
    C = rng.standard_normal((batch, sizes[-1]))
    w = rng.uniform(0.1, 2.0, size=batch)

    tr = net.forward(X, mode="train", rng=np.random.default_rng(seed + 1))
    deltas = net.backprop_deltas(tr, C)
    outs, ref_deltas, grad, diag, row = dense_reference(net, X, tr.masks, C, w)
    for got, ref in zip(tr.hidden + [tr.output], outs, strict=True):
        assert_close(got, ref)
    for got, ref in zip(deltas, ref_deltas):
        assert_close(got, ref)
    assert_close(net.grad_from_deltas(tr, deltas), grad)
    sq_deltas = [w[:, None] * d**2 for d in deltas]
    qd_diag, qd_row = net.qd_batch_terms(tr, sq_deltas, terms_out(net))
    assert_close(qd_diag, diag)
    assert_close(qd_row, row)
    d_only, none = net.qd_batch_terms(tr, sq_deltas, terms_out(net, quasi=False))
    assert_close(d_only, diag)
    assert none is None


@st.composite
def mixed_fan_in_masks(draw):
    """An (n, m) mask of several fan-ins, with at least one bias-only unit (fan-in 0)."""
    n, m = draw(st.integers(2, 7)), draw(st.integers(1, 6))
    fan_in = draw(st.lists(st.integers(0, m), min_size=n, max_size=n))
    empty, full = draw(st.permutations(range(n)))[:2]
    fan_in[empty], fan_in[full] = 0, max(1, fan_in[full])
    sources = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros((n, m), dtype=bool)
    for unit, f in enumerate(fan_in):
        mask[unit, sources.permutation(m)[:f]] = True
    return mask


def dot_error_bound(x, y, k):
    """gamma_k * sum_s |x_s y_s|, in rationals.

    A float dot product of length B, summed in any order, is within
    gamma_B = B u / (1 - B u) times sum_s |x_s y_s| of the exact one, where
    u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., eq. 3.5). Rounding each y_s first, as squaring a does, makes
    it gamma_(B+1).
    """
    u = Fraction(1, 2**53)
    gamma = k * u / (1 - k * u)
    return gamma * sum(abs(Fraction(xs) * ys) for xs, ys in zip(x, y))


@settings(max_examples=40, deadline=None)
@given(mixed_fan_in_masks(), st.sampled_from([1, 2, 7, 200]),
       st.sampled_from([1, 5, 40, network.CHUNK_FLOATS]), st.integers(0, 2**32 - 1))
@example(  # fan-ins 2, 0, 2, 3, 0: both groups of two units are split by another group
    np.array([[1, 1, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [1, 1, 1, 0], [0, 0, 0, 0]], dtype=bool),
    7, 5, 3,
)
def test_masked_products_are_within_the_dot_product_error_bound(mask, b, chunk, seed):
    # every sampled product against the exact sum over the batch, in
    # rationals; the chunk budget splits the fan-in groups into chunks
    n, m = mask.shape
    rng = np.random.default_rng(seed)
    idx = network._LayerIndex(mask, n, m, 0)
    d = rng.standard_normal((b, n))
    a = rng.standard_normal((1 + m, b)).T  # [1|a] in its scratch layout, as forward carves it
    a[:, 0] = 1.0
    out, out_sq = np.full(idx.size, np.nan), np.full(idx.size, np.nan)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "CHUNK_FLOATS", chunk)
        idx.sampled_products(a, [(d, out)], (d, out_sq))
    rows = np.repeat(np.arange(n), idx.degrees)
    for j, (r, c) in enumerate(zip(rows, idx.indices, strict=True)):
        x = d[:, r]
        y = [Fraction(v) for v in a[:, c]]
        y_sq = [v * v for v in y]
        for got, ys, k in ((out[j], y, b), (out_sq[j], y_sq, b + 1)):
            exact = sum(Fraction(xs) * v for xs, v in zip(x, ys))
            assert abs(Fraction(got) - exact) <= dot_error_bound(x, ys, k), (j, r, c)


# ---------------------------------------------------------------------------
# Scratch
# ---------------------------------------------------------------------------


@st.composite
def dense_or_masked_nets(draw):
    """A dense net, or one with random boolean masks, of any activation."""
    sizes, masks, activation = draw(masked_nets())
    return sizes, masks if draw(st.booleans()) else None, activation


@settings(max_examples=60, deadline=None)
@given(dense_or_masked_nets(), st.lists(st.integers(1, 5), min_size=2, max_size=2),
       st.sampled_from([0.0, 0.3]), st.integers(0, 2**32 - 1))
def test_scratch_passes_compute_the_same_floats(net_spec, batches, dropout, seed):
    # two batch sizes one after the other on net.scratch, each compared
    # bit for bit with a kept trace once the whole pass is done
    sizes, masks, activation = net_spec
    rng = np.random.default_rng(seed)
    net = random_net(rng, sizes, activation, masks=masks, dropout=dropout)
    for b in batches:
        X = rng.standard_normal((b, sizes[0]))
        C = rng.standard_normal((b, sizes[-1]))
        w = rng.uniform(0.1, 2.0, size=(b, 1))
        passes = []
        for scratch in (None, net.scratch):
            tr = net.forward(X, mode="train", rng=np.random.default_rng(seed), scratch=scratch)
            deltas = net.backprop_deltas(tr, C)
            sq = [w * d**2 for d in deltas]
            terms = [net.qd_batch_terms(tr, sq, terms_out(net, quasi)) for quasi in (True, False)]
            passes.append((tr, deltas, terms))
        (tr, deltas, terms), (tr_s, deltas_s, terms_s) = passes
        draws = np.random.default_rng(seed)  # each layer's dropout draws, (n, B) row-major
        for mask, n in zip(tr.masks, sizes[1:-1]):
            if dropout:
                keep = draws.random((n, b)).T >= dropout
                np.testing.assert_array_equal(mask, keep / (1 - dropout))
        for name in ("inputs", "hidden", "masks"):
            for got, ref in zip(getattr(tr_s, name), getattr(tr, name)):
                np.testing.assert_array_equal(got, ref, err_msg=name)
        np.testing.assert_array_equal(tr_s.output, tr.output)
        for got, ref in zip(deltas_s, deltas):
            np.testing.assert_array_equal(got, ref)
        for got, ref in zip(terms_s, terms):
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
        tr_e = net.forward(X, mode="eval", scratch=net.scratch)
        np.testing.assert_array_equal(tr_e.output, net.forward(X, mode="eval").output)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("transposed", [False, True])
def test_sparse_matmul_matches_scipy_bitwise(transpose, k, transposed):
    # _matmul calls scipy's private kernels into a given array; this pins
    # them to what S @ x (the CSR kernel) and S.T @ x (the CSC one) compute
    rng = np.random.default_rng(15)
    dense = rng.standard_normal((40, 300)) * (rng.random((40, 300)) < 0.3)
    S = csr_array(dense)
    ref = S.T if transpose else S
    assert ref.format == ("csc" if transpose else "csr")
    (M, N) = ref.shape
    x = rng.standard_normal((k, N)).T if transposed else rng.standard_normal((N, k))
    out = np.full((M, k), np.nan)
    assert _matmul(S, x, out, transpose=transpose) is out
    np.testing.assert_array_equal(out, ref @ x)


def test_masks_reads_back_the_given_masks():
    # a fully connected layer, whether given as None or as an all-True
    # mask, reads back as None
    rng = np.random.default_rng(17)
    sizes = [6, 5, 4, 3]
    given = make_sparse_layout(sizes, fan_in=2, rng=rng)  # the output mask is all True
    given[0][1] = False  # an empty row
    given[0][2] = True  # a full one
    np.testing.assert_array_equal(given[0].sum(axis=1), [2, 0, 6, 2, 2])
    masks = Network(sizes, "tanh", masks=[given[0], None, given[2]]).masks
    assert len(masks) == 3 and masks[1] is None and masks[2] is None
    assert masks[0].dtype == bool
    np.testing.assert_array_equal(masks[0], given[0])
    assert Network(sizes).masks == [None, None, None]


def test_a_kept_trace_owns_its_scratch():
    # a forward without scratch= carves from a new Scratch of its own
    rng = np.random.default_rng(16)
    net = random_net(rng, [4, 5, 3], dropout=0.3)
    X = rng.standard_normal((3, 4))
    a = net.forward(X, rng=np.random.default_rng(0))
    b = net.forward(X, rng=np.random.default_rng(0))
    assert isinstance(a.scratch, Scratch) and a.scratch is not b.scratch
    assert a.scratch is not net.scratch and b.scratch is not net.scratch
    for name in ("inputs", "hidden", "masks"):
        for x, y in zip(getattr(a, name), getattr(b, name)):
            assert not np.shares_memory(x, y), name
    assert not np.shares_memory(a.output, b.output)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("masked", [False, True])
def test_a_kept_trace_takes_more_backprops_than_it_holds_deltas(mode, masked):
    # 5 gradients on one kept trace, which holds two sets of deltas at
    # once; each equals the one on a fresh trace bit for bit
    rng = np.random.default_rng(21)
    sizes, b = [4, 6, 5, 3], 7
    masks = make_sparse_layout(sizes, 2, rng) if masked else None
    net = random_net(rng, sizes, "tanh", masks=masks, dropout=0.3)
    X = rng.standard_normal((b, sizes[0]))

    def trace():
        return net.forward(X, mode=mode, rng=np.random.default_rng(0))

    kept = trace()
    for C in rng.standard_normal((5, b, sizes[-1])):
        np.testing.assert_array_equal(net.backprop(kept, C), net.backprop(trace(), C))


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_a_third_live_set_of_deltas_overflows_a_kept_trace(mode):
    rng = np.random.default_rng(22)
    sizes, b = [4, 6, 5, 3], 7
    net = random_net(rng, sizes, "tanh")
    X, C = rng.standard_normal((b, sizes[0])), rng.standard_normal((b, sizes[-1]))
    tr = net.forward(X, mode=mode)
    live = [net.backprop_deltas(tr, C) for _ in range(2)]
    with pytest.raises(RuntimeError, match="floats reset"):
        net.backprop_deltas(tr, C)
    for deltas in live:  # the two live sets are intact
        for got, ref in zip(deltas, net.backprop_deltas(net.forward(X, mode=mode), C)):
            np.testing.assert_array_equal(got, ref)


def test_an_eval_pass_holds_only_layer_inputs_and_the_output():
    # no hidden pre-activation is stored, so the scratch holds [1|a] per
    # weight layer and the output
    rng = np.random.default_rng(19)
    sizes, b = [5, 7, 6, 3], 9
    net = random_net(rng, sizes, "relu", dropout=0.3)
    net.forward(rng.standard_normal((b, sizes[0])), mode="eval", scratch=net.scratch)
    assert net.scratch.buf.size == b * (sum(1 + m for m in sizes[:-1]) + sizes[-1])


@pytest.mark.parametrize("chunk", [1, 8, 12])
def test_masked_products_do_not_depend_on_the_chunking(monkeypatch, chunk):
    # a chunk holds whole units, here of 4 entries each: budgets of 1, 8
    # and 12 entries run 1, 2 and 3 units per chunk, against one chunk per
    # layer by default, and split the 9 and 7 units of the masked layers
    # unevenly
    rng = np.random.default_rng(20)
    sizes, b = [8, 9, 7, 4], 7
    net = random_net(rng, sizes, "tanh", masks=make_sparse_layout(sizes, 3, rng))
    tr = net.forward(rng.standard_normal((b, sizes[0])))
    deltas = net.backprop_deltas(tr, rng.standard_normal((b, sizes[-1])))
    sq = [d * d for d in deltas]

    def products():
        return net.grad_from_deltas(tr, deltas), *net.qd_batch_terms(tr, sq, terms_out(net))

    default = products()
    monkeypatch.setattr(network, "CHUNK_FLOATS", chunk * b)
    for got, ref in zip(products(), default, strict=True):
        np.testing.assert_array_equal(got, ref)


@settings(max_examples=40, deadline=None)
@given(mixed_fan_in_masks(), st.sampled_from([1, 7, 200]), st.sampled_from(["qdmcnat", "dmcnat"]),
       st.sampled_from([1, 5, 40, network.CHUNK_FLOATS]), st.sampled_from([0.0, 0.3]),
       st.integers(0, 2**32 - 1))
@example(  # fan-ins 2, 0, 2, 3, 0: both groups of two units are split by another group
    np.array([[1, 1, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [1, 1, 1, 0], [0, 0, 0, 0]], dtype=bool),
    7, "qdmcnat", 5, 0.3, 3,
)
def test_a_single_seed_metric_writes_the_floats_of_separate_passes(mask, b, algo, chunk, dropout,
                                                                   seed):
    # the gradient written with the metric terms, from one gather per
    # chunk, against grad_from_deltas and qd_batch_terms called one after
    # the other on the same trace, on a masked layer and two dense ones;
    # the chunk budget runs from one unit per chunk to the default
    n, m = mask.shape
    rng = np.random.default_rng(seed)
    net = random_net(rng, [m, n, 4, 3], "tanh", masks=[mask, None, None], dropout=dropout)
    model = CategoricalOutput(3)
    X, T = rng.standard_normal((b, m)), rng.integers(0, 3, size=b)
    quasi = algo == "qdmcnat"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "CHUNK_FLOATS", chunk)
        tr = net.forward(X, rng=np.random.default_rng(seed))  # kept: backprop runs three times
        deltas = net.backprop_deltas(tr, model.loss_output_grad(tr.output, T))
        grad = np.full(net.layout.dim, np.nan)
        terms = tuple(t if t is None else np.full_like(t, np.nan) for t in terms_out(net, quasi))
        _metric_batch(net, model, tr, deltas, OptimizerConfig(algo, eta=0.1),
                      np.random.default_rng(seed + 1), terms, grad)

        ref_grad = net.grad_from_deltas(tr, deltas)  # the deltas are still the gradient's
        y = tr.output
        pseudo = model.sample_pseudo_target(y, np.random.default_rng(seed + 1))
        q = [np.multiply(1.0 / b, np.square(d))
             for d in net.backprop_deltas(tr, model.loss_output_grad(y, pseudo))]
        ref_terms = net.qd_batch_terms(tr, q, terms_out(net, quasi))
    np.testing.assert_array_equal(grad, ref_grad)
    for got, ref in zip(terms, ref_terms, strict=True):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("algo, n_mc, gathers", [("qdmcnat", 1, 1), ("dmcnat", 1, 1),
                                                  ("qdop", 1, 2), ("qdmcnat", 3, 2)])
def test_a_single_seed_step_gathers_each_chunk_once(monkeypatch, algo, n_mc, gathers):
    # a metric of one seed of its own takes the gradient in its metric-term
    # pass, so each chunk's activation rows are gathered once per step;
    # the op variants and several seeds take the gradient first and gather
    # each chunk twice
    rng = np.random.default_rng(21)
    sizes, b = [8, 9, 7, 4], 7
    net = random_net(rng, sizes, "tanh", masks=make_sparse_layout(sizes, 3, rng))
    monkeypatch.setattr(network, "CHUNK_FLOATS", 2 * 4 * b)  # two 4-entry units per chunk
    chunks = [-(-len(units) // 2) for idx in net._index if not idx.dense
              for units, _, _ in idx.groups]
    assert chunks == [5, 4]
    calls = []
    gather = network._gather

    def counted(*args):
        calls.append(len(args[1]))
        return gather(*args)

    monkeypatch.setattr(network, "_gather", counted)
    cfg = OptimizerConfig(algo, eta=0.1, n_mc=n_mc)
    optimizer_step(net, CategoricalOutput(4), rng.standard_normal((b, sizes[0])),
                   rng.integers(0, 4, size=b), OptimizerState(net, cfg), cfg, rng)
    assert len(calls) == gathers * sum(chunks)
    assert sum(calls) == gathers * (9 + 7)  # every unit's rows, in whole units


def test_a_trace_of_an_earlier_scratch_pass_is_stale():
    # an evaluation resets the scratch the step's trace was carved from;
    # its readers must refuse the overwritten trace, not read it
    rng = np.random.default_rng(17)
    net = random_net(rng, [4, 6, 3], "tanh")
    X, C = rng.standard_normal((8, 4)), rng.standard_normal((8, 3))
    tr = net.forward(X, scratch=net.scratch)
    deltas = net.backprop_deltas(tr, C)
    kept = net.forward(X)  # its own scratch, which no later pass resets
    net.forward(rng.standard_normal((8, 4)), mode="eval", scratch=net.scratch)
    with pytest.raises(StaleTraceError, match="scratch"):
        net.backprop_deltas(tr, C)
    with pytest.raises(StaleTraceError, match="scratch"):
        net.grad_from_deltas(tr, deltas)
    with pytest.raises(StaleTraceError, match="scratch"):
        net.qd_batch_terms(tr, deltas, terms_out(net))
    net.grad_from_deltas(kept, net.backprop_deltas(kept, C))


def test_scratch_never_grows_within_a_pass():
    scratch = Scratch().reset(10)
    buf = scratch.buf
    scratch.take(2, 4)
    with pytest.raises(RuntimeError, match="10 floats"):
        scratch.take(1, 3)
    assert scratch.reset(10).buf is buf  # a pass that fits keeps the buffer
    assert scratch.reset(11).buf.size == 11


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


def test_dropout_eval_is_identity_and_train_needs_rng():
    rng = np.random.default_rng(41)
    net = random_net(rng, [4, 8, 2], "sigmoid", dropout=0.5)
    x = rng.standard_normal(4)[None]
    clean = Network([4, 8, 2], "sigmoid")
    clean.set_params(net.get_params())
    np.testing.assert_array_equal(
        net.forward(x, mode="eval").output, clean.forward(x, mode="eval").output
    )
    with pytest.raises(ValueError):
        net.forward(x, mode="train")


def test_dropout_mask_values_and_scaling():
    rng = np.random.default_rng(42)
    net = random_net(rng, [3, 200, 1], "sigmoid", dropout=0.25)
    tr = net.forward(rng.standard_normal(3)[None], mode="train", rng=np.random.default_rng(7))
    mask = tr.masks[0]
    vals = np.unique(mask)
    assert set(np.round(vals, 12)) <= {0.0, round(1.0 / 0.75, 12)}
    kept = (mask > 0).mean()
    assert abs(kept - 0.75) < 0.1
    np.testing.assert_allclose(tr.inputs[1][:, 1:], tr.hidden[0] * mask)  # [1|a]


def test_dropout_gradients_use_the_sampled_mask():
    rng = np.random.default_rng(43)
    net = random_net(rng, [3, 6, 2], "tanh", dropout=0.5)
    x = rng.standard_normal(3)[None]
    tr = net.forward(x, mode="train", rng=np.random.default_rng(11))
    c = np.array([[1.0, 1.0]])
    g = net.backprop(tr, c)
    # dropped units contribute no gradient to their incoming block
    dropped = np.where(tr.masks[0][0] == 0.0)[0]
    for u in dropped:
        blk = net.layout.block_slice(u)
        assert np.all(g[blk] == 0.0)


# ---------------------------------------------------------------------------
# Parameter correspondences
# ---------------------------------------------------------------------------


def test_tanh_equivalent_computes_same_function():
    rng = np.random.default_rng(51)
    net = random_net(rng, [4, 5, 3, 2], "sigmoid")
    twin = to_tanh_equivalent(net)
    assert twin.activation == "tanh"
    for _ in range(20):
        x = rng.standard_normal(4)[None]
        y1 = net.forward(x, mode="eval").output
        y2 = twin.forward(x, mode="eval").output
        np.testing.assert_allclose(y1, y2, rtol=0, atol=1e-12)


def test_tanh_equivalent_requires_sigmoid():
    with pytest.raises(ValueError):
        to_tanh_equivalent(Network([2, 2, 1], "relu"))


def test_inverted_inputs_computes_same_function():
    rng = np.random.default_rng(52)
    masks = make_sparse_layout([6, 4, 2], fan_in=3, rng=rng)
    net = random_net(rng, [6, 4, 2], "sigmoid", masks=masks)
    twin = to_inverted_inputs(net)
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, size=6)[None]
        y1 = net.forward(x, mode="eval").output
        y2 = twin.forward(1.0 - x, mode="eval").output
        np.testing.assert_allclose(y1, y2, rtol=0, atol=1e-12)


def test_copy_is_independent():
    rng = np.random.default_rng(53)
    net = random_net(rng, [3, 3, 2], "tanh")
    dup = net.copy()
    np.testing.assert_array_equal(dup.get_params(), net.get_params())
    dup.set_params(dup.get_params() + 1.0)
    assert not np.array_equal(dup.get_params(), net.get_params())


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    masks = make_sparse_layout([5, 4, 3], fan_in=2, rng=rng)
    net = random_net(rng, [5, 4, 3], "relu", masks=masks, dropout=0.1)
    model = GaussianOutput(3, sigma=np.array([1.0, 0.5, 2.0]), learn_variance=True)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net, model)
    net2, model2 = load_checkpoint(path)
    np.testing.assert_array_equal(net2.get_params(), net.get_params())
    assert net2.sizes == net.sizes
    assert net2.activation == "relu"
    assert net2.dropout == pytest.approx(0.1)
    for m1, m2 in zip(net.masks, net2.masks):
        if m1 is None:
            assert m2 is None
        else:
            np.testing.assert_array_equal(m1, m2)
    assert isinstance(model2, GaussianOutput)
    np.testing.assert_allclose(model2.sigma, [1.0, 0.5, 2.0], rtol=1e-15)
    assert model2.learn_variance is True
    x = rng.standard_normal(5)[None]
    np.testing.assert_array_equal(
        net.forward(x, mode="eval").output, net2.forward(x, mode="eval").output
    )


def test_checkpoint_without_model(tmp_path):
    net = Network([2, 2], "sigmoid")
    path = tmp_path / "bare.npz"
    save_checkpoint(path, net)
    net2, model2 = load_checkpoint(path)
    assert model2 is None
    assert net2.sizes == [2, 2]
