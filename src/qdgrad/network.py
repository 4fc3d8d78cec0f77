"""Feedforward MLP with per-unit parameter blocks.

Parameters live in one flat vector, theta, ordered layer by layer, unit by
unit: each unit's block is [bias, incoming weights in ascending source
index]. Masked-out weights are excluded entirely, so the block of a sparse
unit has length 1 + fan_in. theta is the network's only parameter store.
Each weight layer reads its segment of theta as one (n, 1+m) matrix
P = [b|W] that aliases the segment: a reshape view for a fully connected
layer, and for a masked layer a scipy.sparse.csr_array whose data is the
segment, with the bias stored as column 0 of every row. Every pass over a
masked layer (forward, backprop, gradient, metric terms) costs in
proportion to its stored entries, not to n * m.

Activations are carried with a leading column of ones, [1|a], so the bias
is just the weight of a constant input. The output layer is linear; output
models apply their own link function.

Besides the plain gradient, backprop exposes the per-layer delta matrices
so the optimizer can accumulate quasi-diagonal metric terms for a whole
minibatch with matrix products: for units of one layer, with per-sample
deltas d (B, n) and layer inputs [1|a] (B, 1+m),

    gradient = d^T [1|a],  diag = q^T [1|a^2],  row = q^T [1|a]

with each unit's bias entry of row set to zero. q (B, n) is the sum of
w_c d_c^2 over the metric's output seeds c with sample weights w_c, so
any number of seeds costs one pair of products. All three have the shape
of P and are written straight into the layer's segment of a theta-shaped
vector, so no per-sample gradient is ever materialized. For a masked layer
they are these products sampled at the stored entries only:
sum_s d[s, r] [1|a][s, c] for each entry (r, c) of P.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csr_array
from scipy.special import expit

from .metric import CHUNK_FLOATS, BlockLayout

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


def _act(kind, z, out=None):
    if kind == "sigmoid":
        return expit(z, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
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

    inputs: list  # [1|a_l] per weight layer: a_0 = input, then post-dropout hidden activity
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


def _with_ones(b, m):
    """Uninitialized (b, 1+m) layer input [1|.], ones in column 0.

    Stored transposed, as (1+m, b) rows: the products P @ a.T of the
    forward pass and the row gathers of sampled_chunks read a.T, which is
    then contiguous without a copy.
    """
    a = np.empty((1 + m, b)).T
    a[:, 0] = 1.0
    return a


def _aliased(kind, data, indices, indptr, shape):
    """A compressed sparse array whose data is the given view itself.

    Its constructor copies a view of less than half of its base array, and
    so does every scipy product that transposes a sparse operand first.
    """
    M = kind((data, indices, indptr), shape=shape)
    M.data = data
    return M


class _LayerIndex:
    """Where one weight layer's [b|W] matrix sits in a theta-shaped vector.

    The layer owns the segment flat[offset : offset + size]; row u of
    [b|W] is the block of unit u and starts at indptr[u] in the segment. A
    dense layer reads the segment as an (n, 1+m) matrix. A masked layer
    keeps CSR structure over [b|W] (indptr, indices; column 0, the bias,
    first in every row, then the sources shifted by one in ascending
    order), whose data is the segment itself.
    """

    def __init__(self, mask, n, m, offset):
        self.n, self.m = n, m
        self.offset = offset
        self.dense = mask is None
        if self.dense:
            degrees = np.full(n, 1 + m, dtype=np.int64)
        else:
            rows, cols = np.nonzero(mask)
            degrees = 1 + np.bincount(rows, minlength=n)
        self.degrees = degrees  # entries per row of [b|W]
        self.indptr = np.concatenate(([0], np.cumsum(degrees)))
        self.size = int(self.indptr[-1])
        if not self.dense:
            # each row: the bias column 0, then its sources shifted by one
            sources_before = self.indptr[:-1] - np.arange(n)
            self.indices = np.insert(cols + 1, sources_before, 0)

    @property
    def mask(self):
        if self.dense:
            return None
        ones = np.ones(self.size, dtype=bool)
        full = csr_array((ones, self.indices, self.indptr), shape=(self.n, 1 + self.m))
        return full.toarray()[:, 1:]

    def seg(self, flat):
        return flat[self.offset : self.offset + self.size]

    def matrix(self, flat):
        """The layer's segment of flat as the (n, 1+m) matrix [b|W], aliasing it."""
        seg = self.seg(flat)
        if self.dense:
            return seg.reshape(self.n, 1 + self.m)
        return _aliased(csr_array, seg, self.indices, self.indptr, (self.n, 1 + self.m))

    def matrix_t(self, flat):
        """The transpose of matrix(flat), aliasing the same segment."""
        if self.dense:
            return self.matrix(flat).T
        return _aliased(csc_array, self.seg(flat), self.indices, self.indptr, (1 + self.m, self.n))

    def sampled_chunks(self, d, a):
        """Operands of the sampled products of a masked layer, chunk by chunk.

        For per-sample unit values d (B, n) and layer inputs a (B, 1+m),
        yields (span, D, A) where span slices the layer's segment and row j
        of D and A is d[:, r_j] and a[:, c_j] for the stored entry j of
        [b|W] at (r_j, c_j). Then sum_s d[s, r_j] a[s, c_j] is the row-wise
        dot of D and A.
        """
        dT = np.ascontiguousarray(d.T)
        aT = np.ascontiguousarray(a.T)
        step = max(1, CHUNK_FLOATS // max(1, d.shape[0]))  # entries per chunk
        cuts = np.searchsorted(self.indptr, np.arange(step, self.size, step))
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
            offset += idx.size
        self.layout = BlockLayout(np.concatenate([idx.degrees for idx in self._index]))
        self.theta = np.zeros(self.layout.dim)
        # [b|W] per weight layer, and its transpose for backprop; both alias
        # theta, so writes to them are writes to theta
        self.layers = [idx.matrix(self.theta) for idx in self._index]
        self._layers_t = [idx.matrix_t(self.theta) for idx in self._index]
        self.version = 0

    # -- parameters ----------------------------------------------------------

    def get_params(self) -> ParamVector:
        return self.theta.copy()

    def set_params(self, theta: ParamVector) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.layout.dim,):
            raise ValueError("parameter vector does not match layout")
        self.theta[:] = theta
        self.version += 1

    def init_params(self, rng) -> None:
        """Scaled-uniform weights over unmasked connections, zero biases."""
        for idx in self._index:
            nnz = idx.size - idx.n
            seg = idx.seg(self.theta)
            seg[:] = 0.0
            if nnz == 0:
                continue
            a = np.sqrt(6.0 / (nnz / idx.n + nnz / idx.m))
            draws = rng.uniform(-a, a, size=nnz)  # one per connection, in block order
            seg[:] = np.insert(draws, idx.indptr[:-1] - np.arange(idx.n), 0.0)
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
        b = x.shape[0]
        a = _with_ones(b, self.sizes[0])
        a[:, 1:] = x
        inputs = [a]
        pre, hidden, masks = [], [], []
        for layer, P in enumerate(self.layers):
            z = (P @ a.T).T  # a @ P.T
            pre.append(z)
            if layer == self.n_layers - 1:
                break  # linear output layer
            a = _with_ones(b, z.shape[1])
            if drop > 0.0:
                h = _act(self.activation, z)
                keep = rng.random(h.shape) >= drop
                # In h's memory order, column-major like z and a: keeping
                # the mask, the activities and the deltas in one order spares
                # a transpose copy in each later product and elementwise step.
                mask = np.empty_like(h)
                np.divide(keep, 1.0 - drop, out=mask)  # inverted dropout
                np.multiply(h, mask, out=a[:, 1:])
                masks.append(mask)
            else:
                h = _act(self.activation, z, out=a[:, 1:])
                masks.append(None)
            hidden.append(h)
            inputs.append(a)
        return ForwardTrace(inputs, pre, hidden, masks, self.version, single)

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
            # d @ P, a fresh array, so the products below work in place;
            # column 0 is the bias
            d = (self._layers_t[layer] @ d.T).T[:, 1:]
            if trace.masks[layer - 1] is not None:
                d *= trace.masks[layer - 1]
            d *= _act_deriv(
                self.activation, trace.pre_activations[layer - 1], trace.hidden[layer - 1]
            )
            deltas[layer - 1] = d
        return deltas

    def grad_from_deltas(self, trace: ForwardTrace, deltas, out=None) -> ParamVector:
        """Flat gradient, summed over the batch; written to out if given."""
        grad = np.empty(self.layout.dim) if out is None else out
        for idx, d, a in zip(self._index, deltas, trace.inputs):
            if idx.dense:
                np.matmul(d.T, a, out=idx.matrix(grad))
                continue
            seg = idx.seg(grad)
            for span, D, A in idx.sampled_chunks(d, a):
                np.einsum("ij,ij->i", D, A, out=seg[span])
        return grad

    def backprop(self, trace: ForwardTrace, output_grad) -> ParamVector:
        """Gradient of <output_grad, y> w.r.t. the flat parameters.

        For a batched trace the result is summed over samples; divide by the
        batch size for a mean.
        """
        return self.grad_from_deltas(trace, self.backprop_deltas(trace, output_grad))

    def qd_batch_terms(self, trace: ForwardTrace, sq_deltas, quasi=True, out=None):
        """Metric terms from per-layer summed weighted squared deltas.

        sq_deltas[l] is the (B, sizes[l+1]) array sum_c w_c d_c**2 over
        output seeds c, where d_c are the deltas backprop gives for seed c
        and w_c its scalar or per-sample weight. Returns flat (diag, row)
        with
            diag = sum_s,c w_sc v_sc**2,  row_i = sum_s,c w_sc v_sc0 v_sci,
        where v_sc is the per-sample gradient for seed c. row is None in
        diagonal mode. With out = (diag, row), the terms are written there
        (out's row is ignored in diagonal mode).
        """
        if out is None:
            out = np.empty(self.layout.dim), np.empty(self.layout.dim) if quasi else None
        diag, row = out[0], out[1] if quasi else None
        for idx, q, a in zip(self._index, sq_deltas, trace.inputs):
            if idx.dense:
                np.matmul(q.T, a * a, out=idx.matrix(diag))
                if quasi:
                    np.matmul(q.T, a, out=idx.matrix(row))
            else:
                diag_seg = idx.seg(diag)
                row_seg = idx.seg(row) if quasi else None
                for span, D, A in idx.sampled_chunks(q, a):
                    if quasi:
                        np.einsum("ij,ij->i", D, A, out=row_seg[span])
                    A *= A
                    np.einsum("ij,ij->i", D, A, out=diag_seg[span])
            if quasi:
                idx.seg(row)[idx.indptr[:-1]] = 0.0  # a bias has no row entry with itself
        return diag, row

    # -- misc --------------------------------------------------------------------

    def copy(self) -> "Network":
        dup = Network(self.sizes, self.activation, masks=self.masks, dropout=self.dropout)
        dup.set_params(self.theta)
        return dup

    @property
    def masks(self):
        return [idx.mask for idx in self._index]


# ---------------------------------------------------------------------------
# Parameter correspondences used by the invariance tests
# ---------------------------------------------------------------------------


def _input_change(net, activation, scale, offset, rho):
    """Parameters for affine changes of each layer's inputs and outputs.

    Layer l sees inputs s = scale[l] * t + offset[l] in terms of new
    inputs t, and its new pre-activation is rho[l] times the old one. So
    its weights become rho * scale * W and its bias absorbs the offset,
    rho * (b + offset * sum_i W_i); the masks stay the same.
    """
    out = Network(net.sizes, activation, masks=net.masks, dropout=net.dropout)
    for layer, idx in enumerate(net._index):
        src, dst = idx.seg(net.theta), idx.seg(out.theta)
        bias = idx.indptr[:-1]
        incoming = src.copy()
        incoming[bias] = 0.0
        dst[:] = rho[layer] * scale[layer] * src
        dst[bias] = rho[layer] * (src[bias] + offset[layer] * np.add.reduceat(incoming, bias))
    out.version += 1
    return out


def to_tanh_equivalent(net: Network) -> Network:
    """Map a sigmoid net to the tanh net computing the same function.

    Uses tanh(a/2) = 2 sigmoid(a) - 1: every hidden activity s becomes
    t = 2s - 1, pre-activations halve, and each consumer's bias absorbs the
    +1 offset of its inputs. Outputs are identical up to rounding.
    """
    if net.activation != "sigmoid":
        raise ValueError("source network must use sigmoid activations")
    hidden = net.n_layers - 1
    # raw inputs are not reparameterized; hidden ones are s = (t + 1) / 2
    scale = [1.0] + [0.5] * hidden
    offset = [0.0] + [0.5] * hidden
    rho = [0.5] * hidden + [1.0]  # own pre-activation scale; the output stays
    return _input_change(net, "tanh", scale, offset, rho)


def to_inverted_inputs(net: Network) -> Network:
    """Map parameters for the input change x -> 1 - x.

    First-layer weights flip sign and the bias absorbs their sum, so that
    b' + sum_i w'_i (1 - x_i) = b + sum_i w_i x_i.
    """
    rest = [1.0] * (net.n_layers - 1)
    return _input_change(net, net.activation, [-1.0] + rest, [1.0] + [0.0] * len(rest),
                         [1.0] + rest)


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
