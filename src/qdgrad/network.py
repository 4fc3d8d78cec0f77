"""Feedforward MLP with per-unit parameter blocks.

Parameters live in a flat vector ordered layer by layer, unit by unit:
each unit's block is [bias, incoming weights in ascending source index].
Masked-out weights are excluded from the flat vector entirely, so the block
of a sparse unit has length 1 + fan_in. A fully connected layer stores its
weights as a dense (n, m) matrix; a masked layer stores only its nonzeros,
as a scipy.sparse.csr_array whose data is in block order, and every pass
over it (forward, backprop, gradient, metric terms) costs in proportion to
its nonzeros, not to n * m.

The output layer is linear; output models apply their own link function.

Besides the plain gradient, backprop exposes the per-layer delta matrices
so the optimizer can accumulate quasi-diagonal metric terms for a whole
minibatch with matrix products: for units of one layer, with per-sample
deltas d (B, n), presynaptic activities a (B, m) and sample weights w,

    diag entries of sum_s w_s v_s v_s^T are (w d^2) summed over samples
    for the bias and (w d^2)^T a^2 for the weights; the bias-row entries
    are (w d^2)^T a,

so no per-sample gradient is ever materialized. For a masked layer the
weight entries are these products sampled at the mask's nonzeros only:
sum_s d[s, r] a[s, c] for each connection r <- c.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.special import expit

from .metric import BlockLayout

__all__ = [
    "Network",
    "ForwardTrace",
    "StaleTraceError",
    "make_sparse_layout",
    "to_tanh_equivalent",
    "to_inverted_inputs",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("sigmoid", "tanh", "relu")

# ParamVector: flat float64 array of length net.layout.dim.
ParamVector = np.ndarray


class StaleTraceError(RuntimeError):
    """Trace was produced under different parameters than the ones in use."""


def _act(kind, z):
    if kind == "sigmoid":
        return expit(z)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {kind!r}")


def _act_deriv(kind, z, h):
    """Derivative from pre-activation z and pre-dropout activation h."""
    if kind == "sigmoid":
        return h * (1.0 - h)
    if kind == "tanh":
        return 1.0 - h * h
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)  # derivative at 0 is 0
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class ForwardTrace:
    """Cached quantities of one forward pass (batch-shaped)."""

    activations: list  # a_0 = input, a_l = post-dropout hidden activity
    pre_activations: list  # z_1 .. z_L
    hidden: list  # pre-dropout activations h_1 .. h_(L-1)
    masks: list  # dropout masks with entries in {0, 1/(1-p)}, or None
    version: int
    single: bool

    @property
    def output(self):
        y = self.pre_activations[-1]
        return y[0] if self.single else y


def make_sparse_layout(sizes, fan_in, rng):
    """Boolean connectivity masks: fan_in presynaptic units per hidden unit.

    Sources are drawn uniformly without replacement: each unit takes the
    fan_in sources with the smallest of m uniform draws. The output layer
    is fully connected. Returns one (n_l, n_(l-1)) mask per weight layer.
    """
    if fan_in < 1:
        raise ValueError(f"fan_in must be at least 1, got {fan_in}")
    masks = []
    for layer in range(1, len(sizes)):
        n, m = sizes[layer], sizes[layer - 1]
        if layer == len(sizes) - 1:
            masks.append(np.ones((n, m), dtype=bool))
            continue
        if fan_in > m:
            raise ValueError(f"fan_in {fan_in} exceeds layer size {m}")
        cols = np.argpartition(rng.random((n, m)), fan_in - 1, axis=1)[:, :fan_in]
        mask = np.zeros((n, m), dtype=bool)
        np.put_along_axis(mask, cols, True, axis=1)
        masks.append(mask)
    return masks


def _values(weights):
    """A layer's stored weight values: the dense matrix, or the CSR nonzeros."""
    return weights.data if isinstance(weights, csr_array) else weights


# Floats per operand in one chunk of the sampled products of a masked
# layer: 256 KiB, so the gathered operands stay in a core's 2 MiB L2
# cache. Gathering a whole layer at once allocates nnz * batch floats per
# operand, 41 MB at the first layer of the paper's sparse net at batch
# 200. On that net (2-vCPU Xeon, batch 200) one gradient plus one QD-term
# call took a median 72 ms with these chunks, 95 ms with 2^18 floats
# (about 128 units) and 178 ms with whole layers.
_CHUNK_FLOATS = 1 << 15


class _LayerIndex:
    """Flat-vector addressing for one weight layer.

    A dense layer maps to a contiguous (n, 1+m) segment and uses reshape
    views; its weights are an (n, m) matrix. A masked layer keeps its
    connectivity as CSR structure (indptr, indices; unit-major, ascending
    source), and its weights are the nnz values in that order, which is the
    block order: the flat segment is the CSR data with each unit's bias
    inserted before its row.
    """

    def __init__(self, mask, n, m, offset):
        self.n, self.m = n, m
        self.offset = offset
        if mask is None:
            self.dense = True
            self.degrees = np.full(n, m, dtype=np.int64)
            self.size = n * (1 + m)
        else:
            self.dense = False
            rows, self.indices = np.nonzero(mask)
            self.degrees = np.bincount(rows, minlength=n)
            self.indptr = np.concatenate(([0], np.cumsum(self.degrees)))
            nnz = int(self.indptr[-1])
            self.size = n + nnz
            self.bias_at = np.zeros(self.size, dtype=bool)
            self.bias_at[self.indptr[:-1] + np.arange(n)] = True

    @property
    def mask(self):
        if self.dense:
            return None
        ones = np.ones(self.indices.size, dtype=bool)
        return csr_array((ones, self.indices, self.indptr), shape=(self.n, self.m)).toarray()

    def new_weights(self):
        """Zero weight store: (n, m) matrix, or a CSR array over the mask."""
        if self.dense:
            return np.zeros((self.n, self.m))
        return csr_array(
            (np.zeros(self.indices.size), self.indices, self.indptr), shape=(self.n, self.m)
        )

    def _seg(self, flat):
        return flat[self.offset : self.offset + self.size].reshape(self.n, 1 + self.m)

    def pack_into(self, flat, bias_part, weight_part):
        """Write per-unit [bias, weights] values into the flat array.

        weight_part is the (n, m) matrix of a dense layer, or the nnz
        weight values of a masked layer in CSR order (see _values).
        """
        if self.dense:
            seg = self._seg(flat)
            seg[:, 0] = bias_part
            seg[:, 1:] = weight_part
        else:
            seg = flat[self.offset : self.offset + self.size]
            seg[self.bias_at] = bias_part
            seg[~self.bias_at] = weight_part

    def unpack_from(self, flat, bias_out, weight_out):
        if self.dense:
            seg = self._seg(flat)
            bias_out[:] = seg[:, 0]
            weight_out[:] = seg[:, 1:]
        else:
            seg = flat[self.offset : self.offset + self.size]
            bias_out[:] = seg[self.bias_at]
            weight_out[:] = seg[~self.bias_at]

    def sampled_chunks(self, d, a):
        """Operands of the sampled products of a masked layer, chunk by chunk.

        For per-sample unit values d (B, n) and source values a (B, m),
        yields (span, D, A) where span slices the layer's nonzeros and row j
        of D and A is d[:, r_j] and a[:, c_j] for the nonzero j: r_j <- c_j.
        Then sum_s d[s, r_j] a[s, c_j] is the row-wise dot of D and A.
        """
        dT = np.ascontiguousarray(d.T)
        aT = np.ascontiguousarray(a.T)
        step = max(1, _CHUNK_FLOATS // max(1, d.shape[0]))  # nonzeros per chunk
        cuts = np.searchsorted(self.indptr, np.arange(step, self.indptr[-1], step))
        bounds = np.unique(np.concatenate(([0], cuts, [self.n])))
        for u0, u1 in zip(bounds[:-1], bounds[1:]):
            p0, p1 = self.indptr[u0], self.indptr[u1]
            D = np.repeat(dT[u0:u1], self.degrees[u0:u1], axis=0)
            yield slice(p0, p1), D, aT[self.indices[p0:p1]]


class Network:
    """MLP over a flat parameter vector with per-unit blocks."""

    def __init__(self, sizes, activation="sigmoid", masks=None, dropout=0.0):
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2:
            raise ValueError("need at least input and output layers")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if not (0.0 <= dropout < 1.0):
            raise ValueError("dropout rate must be in [0, 1)")
        if masks is not None and len(masks) != len(sizes) - 1:
            raise ValueError("one mask per weight layer expected")
        self.sizes = sizes
        self.activation = activation
        self.dropout = float(dropout)
        self.n_layers = len(sizes) - 1
        self._index = []
        lengths = []
        offset = 0
        for layer in range(self.n_layers):
            mask = None
            if masks is not None and masks[layer] is not None:
                mask = np.asarray(masks[layer], dtype=bool)
                if mask.shape != (sizes[layer + 1], sizes[layer]):
                    raise ValueError("mask shape does not match layer")
                if mask.all():
                    mask = None  # fully connected, use the dense fast path
            idx = _LayerIndex(mask, sizes[layer + 1], sizes[layer], offset)
            self._index.append(idx)
            lengths.append(1 + idx.degrees)
            offset += idx.size
        self.layout = BlockLayout(np.concatenate(lengths))
        self.weights = [idx.new_weights() for idx in self._index]
        self.biases = [np.zeros(sizes[i + 1]) for i in range(self.n_layers)]
        self.version = 0

    # -- parameters ----------------------------------------------------------

    def get_params(self) -> ParamVector:
        theta = np.empty(self.layout.dim)
        for layer, idx in enumerate(self._index):
            idx.pack_into(theta, self.biases[layer], _values(self.weights[layer]))
        return theta

    def set_params(self, theta: ParamVector) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.layout.dim,):
            raise ValueError("parameter vector does not match layout")
        for layer, idx in enumerate(self._index):
            idx.unpack_from(theta, self.biases[layer], _values(self.weights[layer]))
        self.version += 1

    def init_params(self, rng) -> None:
        """Scaled-uniform weights over unmasked connections, zero biases."""
        for layer, idx in enumerate(self._index):
            n, m = self.weights[layer].shape
            self.biases[layer][:] = 0.0
            nnz = int(idx.degrees.sum())
            if nnz == 0:
                continue
            fan_in = nnz / n
            fan_out = nnz / m
            a = np.sqrt(6.0 / (fan_in + fan_out))
            values = _values(self.weights[layer])
            values[:] = rng.uniform(-a, a, size=values.shape)
        self.version += 1

    # -- forward / backward ----------------------------------------------------

    def forward(self, x, mode="train", rng=None) -> ForwardTrace:
        if mode not in ("train", "eval"):
            raise ValueError("mode must be train or eval")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[1]} != {self.sizes[0]}")
        drop = self.dropout if mode == "train" else 0.0
        if drop > 0.0 and rng is None:
            raise ValueError("dropout in train mode needs an rng")
        a = x
        activations = [x]
        pre, hidden, masks = [], [], []
        for layer in range(self.n_layers):
            z = a @ self.weights[layer].T + self.biases[layer]
            pre.append(z)
            if layer == self.n_layers - 1:
                break  # linear output layer
            h = _act(self.activation, z)
            hidden.append(h)
            if drop > 0.0:
                keep = rng.random(h.shape) >= drop
                # In h's memory order: the CSR product of a masked layer
                # leaves z and h column-major, and keeping the mask, the
                # activities and the deltas in that order spares a transpose
                # copy in each later sparse product and elementwise step.
                mask = np.empty_like(h)
                np.divide(keep, 1.0 - drop, out=mask)  # inverted dropout
                a = h * mask
                masks.append(mask)
            else:
                a = h
                masks.append(None)
            activations.append(a)
        return ForwardTrace(activations, pre, hidden, masks, self.version, single)

    def backprop_deltas(self, trace: ForwardTrace, output_grad) -> list:
        """Per-layer pre-activation sensitivities for an output seed.

        deltas[l] is d<output_grad, y> / d z_(l+1), shape (B, sizes[l+1]).
        """
        if trace.version != self.version:
            raise StaleTraceError("trace predates the current parameters")
        g = np.asarray(output_grad, dtype=float)
        if trace.single and g.ndim == 1:
            g = g[None, :]
        if g.shape != trace.pre_activations[-1].shape:
            raise ValueError("output_grad does not match the trace")
        deltas = [None] * self.n_layers
        deltas[-1] = g
        d = g
        for layer in range(self.n_layers - 1, 0, -1):
            d = d @ self.weights[layer]
            if trace.masks[layer - 1] is not None:
                d = d * trace.masks[layer - 1]
            d = d * _act_deriv(
                self.activation, trace.pre_activations[layer - 1], trace.hidden[layer - 1]
            )
            deltas[layer - 1] = d
        return deltas

    def grad_from_deltas(self, trace: ForwardTrace, deltas) -> ParamVector:
        """Flat gradient, summed over the batch."""
        grad = np.empty(self.layout.dim)
        for layer, idx in enumerate(self._index):
            d = deltas[layer]
            a = trace.activations[layer]
            if idx.dense:
                idx.pack_into(grad, d.sum(axis=0), d.T @ a)
                continue
            grad_w = np.empty(idx.indices.size)
            for span, D, A in idx.sampled_chunks(d, a):
                np.einsum("ij,ij->i", D, A, out=grad_w[span])
            idx.pack_into(grad, d.sum(axis=0), grad_w)
        return grad

    def backprop(self, trace: ForwardTrace, output_grad) -> ParamVector:
        """Gradient of <output_grad, y> w.r.t. the flat parameters.

        For a batched trace the result is summed over samples; divide by the
        batch size for a mean.
        """
        return self.grad_from_deltas(trace, self.backprop_deltas(trace, output_grad))

    def qd_batch_terms(self, trace: ForwardTrace, deltas, sample_weights, quasi=True):
        """Weighted sums of per-sample squared gradients and bias-row products.

        Returns flat (diag, row) with
            diag = sum_s w_s v_s**2,  row_i = sum_s w_s v_s0 v_si,
        where v_s is the per-sample gradient implied by (trace, deltas).
        row is None in diagonal mode.
        """
        b = trace.activations[0].shape[0]
        w = np.asarray(sample_weights, dtype=float)
        if w.ndim == 0:
            w = np.full(b, float(w))
        diag = np.empty(self.layout.dim)
        row = np.empty(self.layout.dim) if quasi else None
        for layer, idx in enumerate(self._index):
            d2w = w[:, None] * deltas[layer] ** 2  # (B, n)
            a = trace.activations[layer]
            if idx.dense:
                idx.pack_into(diag, d2w.sum(axis=0), d2w.T @ (a * a))
                if quasi:
                    idx.pack_into(row, 0.0, d2w.T @ a)
                continue
            diag_w = np.empty(idx.indices.size)
            row_w = np.empty(idx.indices.size) if quasi else None
            for span, D, A in idx.sampled_chunks(d2w, a):
                if quasi:
                    np.einsum("ij,ij->i", D, A, out=row_w[span])
                A *= A
                np.einsum("ij,ij->i", D, A, out=diag_w[span])
            idx.pack_into(diag, d2w.sum(axis=0), diag_w)
            if quasi:
                idx.pack_into(row, 0.0, row_w)
        return diag, row

    # -- misc --------------------------------------------------------------------

    def copy(self) -> "Network":
        dup = Network(self.sizes, self.activation, masks=self.masks, dropout=self.dropout)
        dup.set_params(self.get_params())
        return dup

    @property
    def masks(self):
        return [idx.mask for idx in self._index]


# ---------------------------------------------------------------------------
# Parameter correspondences used by the invariance tests
# ---------------------------------------------------------------------------


def to_tanh_equivalent(net: Network) -> Network:
    """Map a sigmoid net to the tanh net computing the same function.

    Uses tanh(a/2) = 2 sigmoid(a) - 1: every hidden activity s becomes
    t = 2s - 1, pre-activations halve, and each consumer's bias absorbs the
    +1 offset of its inputs. Outputs are identical up to rounding.
    """
    if net.activation != "sigmoid":
        raise ValueError("source network must use sigmoid activations")
    out = Network(net.sizes, "tanh", masks=net.masks, dropout=net.dropout)
    for layer in range(net.n_layers):
        w = net.weights[layer]
        b = net.biases[layer]
        rho = 1.0 if layer == net.n_layers - 1 else 0.5  # own pre-activation scale
        if layer == 0:
            scale_in, offset_in = 1.0, 0.0  # raw inputs are not reparameterized
        else:
            scale_in, offset_in = 0.5, 0.5  # s = (t + 1) / 2
        out.weights[layer] = rho * scale_in * w  # keeps a masked layer's CSR structure
        out.biases[layer][:] = rho * (b + offset_in * w.sum(axis=1))
    out.version += 1
    return out


def to_inverted_inputs(net: Network) -> Network:
    """Map parameters for the input change x -> 1 - x.

    First-layer weights flip sign and the bias absorbs their sum, so that
    b' + sum_i w'_i (1 - x_i) = b + sum_i w_i x_i.
    """
    out = net.copy()
    out.biases[0][:] = net.biases[0] + net.weights[0].sum(axis=1)
    out.weights[0] = -net.weights[0]
    out.version += 1
    return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = 1


def save_checkpoint(path, net: Network, model=None) -> None:
    """Architecture header plus flat parameters in a single npz file."""
    payload = {
        "format": np.int64(CHECKPOINT_FORMAT),
        "sizes": np.asarray(net.sizes, dtype=np.int64),
        "activation": np.str_(net.activation),
        "dropout": np.float64(net.dropout),
        "params": net.get_params(),
    }
    for layer, idx in enumerate(net._index):
        if idx.mask is not None:
            payload[f"mask_{layer}"] = idx.mask
    if model is not None:
        payload["output_kind"] = np.str_(model.kind)
        payload["output_k"] = np.int64(model.k)
        if model.kind == "gaussian":
            payload["log_sigma"] = model.log_sigma
            payload["learn_variance"] = np.bool_(model.learn_variance)
    np.savez(path, **payload)


def load_checkpoint(path):
    """Returns (net, model-or-None)."""
    from .outputs import GaussianOutput, make_output_model

    with np.load(path, allow_pickle=False) as z:
        if int(z["format"]) != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {int(z['format'])}")
        sizes = z["sizes"].tolist()
        masks = None
        if any(k.startswith("mask_") for k in z.files):
            masks = [
                z[f"mask_{layer}"] if f"mask_{layer}" in z.files else None
                for layer in range(len(sizes) - 1)
            ]
        net = Network(
            sizes,
            activation=str(z["activation"]),
            masks=masks,
            dropout=float(z["dropout"]),
        )
        net.set_params(z["params"])
        model = None
        if "output_kind" in z.files:
            kind = str(z["output_kind"])
            k = int(z["output_k"])
            if kind == "gaussian":
                model = GaussianOutput(
                    k,
                    sigma=np.exp(z["log_sigma"]),
                    learn_variance=bool(z["learn_variance"]),
                )
            else:
                model = make_output_model(kind, k)
    return net, model
