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

Inputs are batches: forward takes a (B, sizes[0]) array and every array of
a trace has B rows; one sample is a one-row batch. Activations are
carried with a leading column of ones, [1|a], so the bias is just the
weight of a constant input. The output layer is linear; output
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
sum_s d[s, r] [1|a][s, c] for each entry (r, c) of P. The layer groups
its units by fan-in, and a group's entries form one (units, 1+fan_in)
array; each chunk of whole units gathers its [1|a] rows once, and each
product runs as one stacked matmul of that buffer with its units' rows of
d or q, read in place (see sampled_products). Given the gradient's deltas
as well, qd_batch_terms writes the gradient with the terms, so a masked
layer gathers each chunk once for all three products. A metric of one
seed of its own (dmcnat and qdmcnat at n_mc = 1) takes that path, since
its q lives in that seed's deltas; the others form q over the gradient's
deltas, so they call grad_from_deltas first and gather twice (see
optim._metric_batch).

A pass stores no hidden pre-activation: a hidden layer's a @ P.T is
written where its activation goes, which is applied in place. Every
batch-sized array of a pass (layer inputs, activations, the output,
dropout masks, backprop products, temporaries) is carved as a view of the
one flat buffer of a Scratch. The trace records its scratch, and
backprop_deltas, grad_from_deltas and qd_batch_terms carve theirs there
too. A forward resets its scratch to the size its batch and mode need,
which overwrites the previous pass: that pass's trace then raises
StaleTraceError in those readers. Each network owns one Scratch,
net.scratch, which the training step and evaluation share. A forward
given no scratch makes one that only its trace holds, sized for a
training pass, so the trace is kept: no later pass overwrites it, and it
can be backpropped whatever its mode. A training pass and a kept trace
hold at most two sets of backprop deltas at once, the gradient's and one
metric term's; backprop drops the deltas it carves, so it can be called
any number of times.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools, csr_array

from .metric import CHUNK_FLOATS, BlockLayout

__all__ = [
    "Network",
    "ForwardTrace",
    "Scratch",
    "StaleTraceError",
    "make_sparse_layout",
    "to_tanh_equivalent",
    "to_inverted_inputs",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("sigmoid", "tanh", "relu")

# An evaluation pass (Network.eval_output) runs a net's leading masked
# layers over blocks of rows, each block as wide as keeps the widest of
# their inputs [1|a] within 8 * CHUNK_FLOATS floats: 2 MiB, a core's L2
# cache, which CHUNK_FLOATS keeps a chunk's few operands in. A masked
# layer's CSR product reads a whole input row per stored entry, so once
# the input outgrows the cache each read goes to memory: on the paper's
# sparse net (2-vCPU Xeon) a 1024-row input [1|a] is 6.3 MB at layer 1
# and 20 MB at layer 2, and the products take 17.6 and 13.2 ms per 1000
# rows, against 10.4 and 7.0 ms in 200-row blocks. 2**18 / 2561 gives
# that net 102-row blocks. Blocks of fewer than EVAL_BLOCK_MIN_ROWS rows
# would spend their time on per-call overhead, so a wider layer still
# takes that many (there, 32-row blocks took 35.7 ms per evaluation of
# 1000 rows, 102-row ones 31.5 ms and one 1024-row pass 48.2 ms).
EVAL_BLOCK_FLOATS = 8 * CHUNK_FLOATS
EVAL_BLOCK_MIN_ROWS = 32

# ParamVector: flat float64 array of length net.layout.dim.
ParamVector = np.ndarray


class StaleTraceError(RuntimeError):
    """Trace was produced under other parameters, or its scratch was reset since."""


def sigmoid(z, out=None):
    """The logistic function 1 / (1 + exp(-z)), elementwise; into out if given.

    Four numpy ufuncs (negative, exp, + 1, reciprocal) in place, so exp runs
    numpy's SIMD kernel, and out may be z itself. Hidden sigmoid units and
    the Bernoulli output model both call it. Within 3 ulp of the same
    formula on math.exp (tests/test_network.py). Below z = -709.79 exp(-z)
    overflows to inf and the result is exactly 0, and above z = 36.74
    (exp(-z) < 2**-53) it is exactly 1; neither warns, whatever the
    caller's np.errstate.
    """
    with np.errstate(over="ignore", under="ignore"):
        out = np.negative(z, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)


def _act(kind, z, out=None):
    if kind == "sigmoid":
        return sigmoid(z, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    raise ValueError(f"unknown activation {kind!r}")


def _act_deriv(kind, h, out):
    """Derivative from the pre-dropout activation h, into out."""
    if kind == "sigmoid":
        return np.multiply(h, np.subtract(1.0, h, out=out), out=out)  # h * (1 - h)
    if kind == "tanh":
        return np.subtract(1.0, np.multiply(h, h, out=out), out=out)  # 1 - h * h
    if kind == "relu":
        return np.greater(h, 0.0, out=out)  # 1.0 where z > 0, else 0.0 (NaN and -0.0 too)
    raise ValueError(f"unknown activation {kind!r}")


class Scratch:
    """One flat float64 buffer that a pass carves its batch-sized arrays from.

    reset(floats) starts a pass that needs at most floats floats. If the
    buffer is smaller, it frees it before allocating one of that size, so
    a step and an evaluation of different batch sizes share one buffer,
    sized for the larger of the two. The buffer never grows within a pass:
    asking for more than was reset raises. take carves the next array;
    the arrays carved inside a released() block are dropped at its end,
    and the next ones reuse their space. passes counts the resets, so a
    trace can tell that a later pass has overwritten its arrays.
    """

    def __init__(self):
        self.buf = np.empty(0)
        self.top = 0  # floats in use
        self.passes = 0

    def reset(self, floats):
        """Start a pass of at most floats floats; returns self."""
        if floats > self.buf.size:
            self.buf = None  # the old buffer goes before the new one is allocated
            self.buf = np.empty(floats)
        self.top = 0
        self.passes += 1
        return self

    def take(self, rows, cols):
        """An uninitialized C-order (rows, cols) view of the buffer."""
        stop = self.top + rows * cols
        if stop > self.buf.size:
            raise RuntimeError(f"scratch pass needs more than the {self.buf.size} floats reset")
        out = self.buf[self.top : stop].reshape(rows, cols)
        self.top = stop
        return out

    @contextmanager
    def released(self):
        """Arrays carved inside the block are dropped at its end."""
        top = self.top
        try:
            yield
        finally:
            self.top = top


def _matmul(P, x, out, transpose=False):
    """P @ x, or P.T @ x with transpose, for a dense or CSR P, written to the C-order out.

    A CSR P runs the kernel that scipy's P @ x runs, on zeros, as scipy
    does. Its indptr, indices and data are also the CSC form of P.T, so
    P.T @ x runs scipy's CSC kernel on them, as scipy's P.T @ x does. Both
    give scipy's floats, and neither copies P.
    """
    if isinstance(P, np.ndarray):
        return np.matmul(P.T if transpose else P, x, out=out)
    out.fill(0.0)
    (M, N), k = P.shape[::-1] if transpose else P.shape, x.shape[1]
    kernel = _sparsetools.csc_matvecs if transpose else _sparsetools.csr_matvecs
    kernel(M, N, k, P.indptr, P.indices, P.data, x.ravel(), out.ravel())
    return out


@dataclass
class ForwardTrace:
    """Cached quantities of one forward pass (batch-shaped); no hidden pre-activation."""

    inputs: list  # [1|a_l] per weight layer: a_0 = input, then post-dropout hidden activity
    hidden: list  # pre-dropout activations h_1 .. h_(L-1)
    masks: list  # dropout masks with entries in {0, 1/(1-p)}, or None
    output: np.ndarray  # (B, K) pre-activation of the linear output layer
    version: int
    scratch: Scratch  # the arrays are its views, valid until its next reset
    scratch_pass: int  # scratch.passes when they were

    def check_pass(self):
        """Raise StaleTraceError if the scratch was reset since the trace was made."""
        if self.scratch.passes != self.scratch_pass:
            raise StaleTraceError("trace's scratch was reset by a later pass")


def make_sparse_layout(sizes, fan_in, rng):
    """Boolean connectivity masks: fan_in presynaptic units per hidden unit.

    Each hidden unit's sources are a uniform random fan_in-subset of the m
    units below, drawn by Floyd's algorithm (Bentley and Floyd, "A sample
    of brilliance", CACM 1987) for all n units of a layer at once: for j
    from m - fan_in to m - 1, every unit draws t uniform in [0, j] with one
    rng.integers(0, j + 1, size=n) call, and takes source t, or source j
    if t is taken already. So a layer costs fan_in draws per unit and its
    (n, m) bool mask, which the draws write directly. The output layer is
    fully connected and draws nothing. Returns one (n_l, n_(l-1)) mask per
    weight layer.
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
        mask = np.zeros((n, m), dtype=bool)
        units = np.arange(n)
        for j in range(m - fan_in, m):
            t = rng.integers(0, j + 1, size=n)
            t[mask[units, t]] = j  # t taken already: j is new, as every pick so far is below j
            mask[units, t] = True
        masks.append(mask)
    return masks


def _with_ones(b, m, scratch):
    """Uninitialized (b, 1+m) layer input [1|.], ones in column 0.

    Stored transposed, as (1+m, b) rows: the products P @ a.T of the
    forward pass and the row gathers of sampled_products read a.T, which is
    then contiguous without a copy.
    """
    a = scratch.take(1 + m, b).T
    a[:, 0] = 1.0
    return a


class _LayerIndex:
    """Where one weight layer's [b|W] matrix sits in a theta-shaped vector.

    The layer owns the segment flat[offset : offset + size]; row u of
    [b|W] is the block of unit u and starts at indptr[u] in the segment. A
    dense layer reads the segment as an (n, 1+m) matrix. A masked layer
    keeps CSR structure over [b|W] (indptr, indices; column 0, the bias,
    first in every row, then the sources shifted by one in ascending
    order), whose data is the segment itself, and its units grouped by
    fan-in for sampled_products. That gathers each chunk's activation rows
    once for all the products it is asked for: the gradient alone
    (grad_from_deltas), the metric's row and diag, or, for a metric of
    one seed of its own, the gradient, row and diag together
    (qd_batch_terms given the gradient's deltas).

    The structure comes from the flat positions of the mask's True entries,
    split by divmod into the rows and columns that np.nonzero(mask) would
    return, so building it costs one 1-D scan of the mask and then work in
    proportion to the connections.
    """

    def __init__(self, mask, n, m, offset):
        self.n, self.m = n, m
        self.offset = offset
        self.dense = mask is None
        if self.dense:
            degrees = np.full(n, 1 + m, dtype=np.int64)
        else:
            rows, cols = np.divmod(np.flatnonzero(mask), m)
            degrees = 1 + np.bincount(rows, minlength=n)
        self.degrees = degrees  # entries per row of [b|W]
        self.indptr = np.concatenate(([0], np.cumsum(degrees)))
        self.size = int(self.indptr[-1])
        if not self.dense:
            # each row: the bias column 0, then its sources shifted by one
            sources_before = self.indptr[:-1] - np.arange(n)
            self.indices = np.insert(cols + 1, sources_before, 0)
            # per fan-in: its units, then the positions in the segment and
            # the columns of their entries, both (units, 1+fan_in)
            self.groups = []
            for k in np.unique(degrees):
                units = np.flatnonzero(degrees == k)
                entries = self.indptr[units, None] + np.arange(k)
                self.groups.append((units, entries, self.indices[entries]))

    @property
    def mask(self):
        if self.dense:
            return None
        full = np.zeros((self.n, 1 + self.m), dtype=bool)
        full[np.repeat(np.arange(self.n), self.degrees), self.indices] = True
        return full[:, 1:]

    def seg(self, flat):
        return flat[self.offset : self.offset + self.size]

    def matrix(self, flat):
        """The layer's segment of flat as the (n, 1+m) matrix [b|W], aliasing it."""
        seg = self.seg(flat)
        if self.dense:
            return seg.reshape(self.n, 1 + self.m)
        P = csr_array((seg, self.indices, self.indptr), shape=(self.n, 1 + self.m))
        P.data = seg  # the constructor copies a view of less than half of its base array
        return P

    def sampled_products(self, a, plain, squared=None):
        """Products of a masked layer, sampled at its stored entries.

        For layer inputs a (B, 1+m), plain lists (d, out) pairs of
        per-sample unit values d (B, n) and segment-sized outputs: each
        gets sum_s d[s, r_j] a[s, c_j] in out[j], for each stored entry j
        of [b|W] at (r_j, c_j). squared, a (d, out) pair or None, gets
        sum_s d[s, r_j] a[s, c_j]**2. The work runs per group of units of
        one fan-in, over chunks of whole units: a chunk gathers the rows
        a[:, c_j] of its entries once, into one (units, 1+fan_in, B)
        buffer, and every product reads that buffer. Each reads the units'
        rows of its d in place as a (units, B, 1) stack, and one stacked
        matmul writes the products of all the chunk's entries, straight
        into out where the units are consecutive. The plain products run
        first; the squared one squares the buffer in place.
        """
        b = a.shape[0]
        aT = a.T
        products = [*plain] if squared is None else [*plain, squared]
        for units, entries, cols in self.groups:
            n, k = cols.shape  # units, 1 + fan_in
            step = max(1, CHUNK_FLOATS // max(1, k * b))  # whole units per chunk
            A_buf = np.empty((min(step, n), k, b))
            run = units[-1] - units[0] + 1 == n  # consecutive units, so consecutive entries
            if run:  # each chunk slices these views of the d rows and the outputs
                lo, at = units[0], entries[0, 0]
                views = [(d.T[lo : lo + n, :, None], out[at : at + n * k].reshape(n, k, 1))
                         for d, out in products]
            for u0 in range(0, n, step):
                u1 = min(u0 + step, n)
                A = _gather(aT, cols[u0:u1], A_buf[: u1 - u0])
                for i, (d, out) in enumerate(products):
                    if i == len(plain):
                        A *= A  # for the squared product, which comes last
                    if run:
                        D, O = views[i]
                        np.matmul(A, D[u0:u1], out=O[u0:u1])
                    else:  # gathers the d rows where it must, and scatters the products
                        D = _rows(d.T, units[u0:u1])[:, :, None]
                        out[entries[u0:u1]] = np.matmul(A, D)[:, :, 0]


def _gather(aT, cols, out):
    """aT[cols] into out: the (units, 1+fan_in, B) activation rows of a chunk."""
    return aT.take(cols, axis=0, out=out, mode="clip")  # "clip" writes to out directly


def _rows(x, idx):
    """x[idx] for ascending idx; a view when idx is one run of consecutive rows."""
    if idx[-1] - idx[0] + 1 == len(idx):
        return x[idx[0] : idx[-1] + 1]
    return x[idx]


class Network:
    """MLP over a flat parameter vector with per-unit blocks."""

    def __init__(self, sizes, activation="sigmoid", masks=None, dropout=0.0):
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2:
            raise ValueError("need at least input and output layers")
        if min(sizes[1:]) < 1:
            raise ValueError(f"every layer after the input needs at least 1 unit, got {sizes}")
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
        # the leading masked layers, which eval_output runs over blocks of
        # eval_rows rows; None where the first layer is dense
        self._blocked = next((l for l, idx in enumerate(self._index) if idx.dense),
                             self.n_layers)
        self.eval_rows = None
        if self._blocked:
            widest = max(1 + m for m in sizes[: self._blocked])
            self.eval_rows = max(EVAL_BLOCK_MIN_ROWS, EVAL_BLOCK_FLOATS // widest)
        self.theta = np.zeros(self.layout.dim)
        # [b|W] per weight layer, aliasing theta, so writes to it are writes
        # to theta; forward reads P and backprop P.T from the same matrix
        self.layers = [idx.matrix(self.theta) for idx in self._index]
        self.version = 0
        self.scratch = Scratch()

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
        """Scaled-uniform weights over unmasked connections, zero biases.

        Each layer draws one uniform per connection, in block order, straight
        into its weight entries.
        """
        for idx in self._index:
            seg = idx.seg(self.theta)
            biases = idx.indptr[:-1]
            seg[biases] = 0.0
            nnz = idx.size - idx.n
            if nnz == 0:
                continue
            a = np.sqrt(6.0 / (nnz / idx.n + nnz / idx.m))
            weights = np.ones(idx.size, dtype=bool)
            weights[biases] = False
            seg[weights] = rng.uniform(-a, a, size=nnz)
        self.version += 1

    # -- forward / backward ----------------------------------------------------

    def _pass_floats(self, b, mode):
        """Floats of a pass over a batch of b rows in mode.

        An eval pass holds its layer inputs and the output. A train pass
        also holds two sets of backprop deltas at once, the gradient's and
        one metric term's, and one temporary.
        """
        ins = sum(1 + m for m in self.sizes[:-1])  # [1|a] per weight layer
        floats = ins + self.sizes[-1]  # and the output
        if mode == "train":
            if self.dropout > 0.0:
                floats += 2 * sum(self.sizes[1:-1])  # hidden activities and masks
            floats += 2 * (ins - 1 - self.sizes[0])  # d @ P above the first layer
            floats += max(1 + m for m in self.sizes[:-1])  # one temporary
        return floats * b

    def _batch(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("input must be a (B, n) batch; one sample is a one-row batch")
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[1]} != {self.sizes[0]}")
        return x

    def forward(self, x, mode="train", rng=None, scratch=None) -> ForwardTrace:
        """Trace of a forward pass; it and the passes over it carve from scratch.

        A given scratch is reset first, sized for the batch and mode, which
        overwrites every array of its previous pass. Without one, the trace
        is kept: it gets a new Scratch of its own, sized for a training pass
        of the batch so that it can be backpropped in either mode.
        """
        if mode not in ("train", "eval"):
            raise ValueError("mode must be train or eval")
        x = self._batch(x)
        drop = self.dropout if mode == "train" else 0.0
        if drop > 0.0 and rng is None:
            raise ValueError("dropout in train mode needs an rng")
        b = x.shape[0]
        if scratch is None:
            scratch = Scratch().reset(self._pass_floats(b, "train"))
        else:
            scratch.reset(self._pass_floats(b, mode))
        a = _with_ones(b, self.sizes[0], scratch)
        a[:, 1:] = x
        inputs, hidden, masks = [a], [], []
        for P in self.layers[:-1]:
            n = P.shape[0]
            a = _with_ones(b, n, scratch)
            # the pre-activation is written where its activation goes, a C-order h.T
            h = scratch.take(n, b).T if drop > 0.0 else a[:, 1:]
            _act(self.activation, _matmul(P, inputs[-1].T, h.T).T, out=h)
            mask = None
            if drop > 0.0:
                # In h's memory order: keeping the mask, the activities and
                # the deltas in one order spares a transpose copy in each
                # later product and elementwise step.
                # It is drawn in that order too, unit by unit.
                mask = rng.random(out=scratch.take(n, b))
                np.greater_equal(mask, drop, out=mask)  # 1.0 where kept
                mask = np.divide(mask, 1.0 - drop, out=mask).T  # inverted dropout
                np.multiply(h, mask, out=a[:, 1:])
            hidden.append(h)
            masks.append(mask)
            inputs.append(a)
        y = _matmul(self.layers[-1], a.T, scratch.take(self.sizes[-1], b)).T  # linear output
        return ForwardTrace(inputs, hidden, masks, y, self.version, scratch, scratch.passes)

    def eval_output(self, x, scratch=None) -> np.ndarray:
        """forward(x, mode="eval", scratch=scratch).output, the same floats, and no trace.

        The net's leading masked layers run over blocks of at most
        self.eval_rows rows, as few blocks as that allows, of sizes that
        differ by at most one row (see EVAL_BLOCK_FLOATS): each block's
        inputs stay in cache from one such layer to the next. Each block's
        last such layer writes the block's rows of the whole batch's input
        to the first dense layer, or of the output, and the layers from
        the first dense one on run over the whole batch, since BLAS may
        round a column of a product differently when the batch is cut. A
        CSR product and the activations compute each row on its own, so
        every block gets forward's floats. A net whose first layer is
        dense, or a batch of at most eval_rows rows, takes forward's pass.
        The output is a (B, K) view of scratch, a new one if None, valid
        until its next reset.
        """
        x = self._batch(x)
        b, p, sizes = len(x), self._blocked, self.sizes
        n_blocks = -(-b // self.eval_rows) if p else 1  # ceil
        if n_blocks <= 1:
            return self.forward(x, mode="eval", scratch=scratch).output
        rows = -(-b // n_blocks)
        block = rows * (sum(1 + m for m in sizes[:p]) + 1 + sizes[p])
        whole = b * (sum(1 + m for m in sizes[p:-1]) + sizes[-1])
        scratch = (Scratch() if scratch is None else scratch).reset(block + whole)
        wide = _with_ones(b, sizes[p], scratch) if p < self.n_layers else \
            scratch.take(sizes[-1], b).T  # the next layer's input, or the output
        for i in range(n_blocks):
            lo, hi = i * b // n_blocks, (i + 1) * b // n_blocks
            with scratch.released():
                a = _with_ones(hi - lo, sizes[0], scratch)
                a[:, 1:] = x[lo:hi]
                wide[lo:hi] = self._eval_layers(a, range(p), scratch)
        return self._eval_layers(wide, range(p, self.n_layers), scratch)

    def _eval_layers(self, a, layers, scratch):
        """The eval-mode pass of the given consecutive layers over their input a.

        Returns the last one's [1|activation], or the output if it is the
        output layer; with no layers, a itself. Each array is carved from
        scratch and written as forward writes it.
        """
        b = a.shape[0]
        for layer in layers:
            P = self.layers[layer]
            if layer == self.n_layers - 1:
                return _matmul(P, a.T, scratch.take(P.shape[0], b)).T  # linear output
            h = _with_ones(b, P.shape[0], scratch)
            _act(self.activation, _matmul(P, a.T, h[:, 1:].T).T, out=h[:, 1:])
            a = h
        return a

    def backprop_deltas(self, trace: ForwardTrace, output_grad) -> list:
        """Per-layer pre-activation sensitivities for an output seed.

        deltas[l] is d<output_grad, y> / d z_(l+1), shape (B, sizes[l+1]);
        the last one is output_grad itself, the others are carved from
        the trace's scratch.
        """
        if trace.version != self.version:
            raise StaleTraceError("trace predates the current parameters")
        trace.check_pass()
        g = np.asarray(output_grad, dtype=float)
        if g.shape != trace.output.shape:
            raise ValueError("output_grad must be a (B, K) array shaped like the trace output")
        scratch = trace.scratch
        b = len(g)
        deltas = [None] * self.n_layers
        deltas[-1] = g
        d = g
        for layer in range(self.n_layers - 1, 0, -1):
            # d @ P, a new array, so the products below work in place;
            # column 0 is the bias
            P = self.layers[layer]
            d = _matmul(P, d.T, scratch.take(P.shape[1], b), transpose=True).T[:, 1:]
            if trace.masks[layer - 1] is not None:
                d *= trace.masks[layer - 1]
            h = trace.hidden[layer - 1]
            with scratch.released():
                d *= _act_deriv(self.activation, h, scratch.take(h.shape[1], b).T)
            deltas[layer - 1] = d
        return deltas

    def grad_from_deltas(self, trace: ForwardTrace, deltas, out=None) -> ParamVector:
        """Flat gradient, summed over the batch; written to out if given."""
        trace.check_pass()
        grad = np.empty(self.layout.dim) if out is None else out
        for idx, d, a in zip(self._index, deltas, trace.inputs):
            if idx.dense:
                np.matmul(d.T, a, out=idx.matrix(grad))
            else:
                idx.sampled_products(a, [(d, idx.seg(grad))])
        return grad

    def backprop(self, trace: ForwardTrace, output_grad) -> ParamVector:
        """Gradient of <output_grad, y> w.r.t. the flat parameters.

        The result is summed over the batch; divide by the batch size for a
        mean. It is a new array: the deltas it carves from the trace's
        scratch are dropped on return.
        """
        with trace.scratch.released():
            return self.grad_from_deltas(trace, self.backprop_deltas(trace, output_grad))

    def qd_batch_terms(self, trace: ForwardTrace, sq_deltas, out, grad=None):
        """Metric terms from per-layer summed weighted squared deltas.

        sq_deltas[l] is the (B, sizes[l+1]) array sum_c w_c d_c**2 over
        output seeds c, where d_c are the deltas backprop gives for seed c
        and w_c its scalar or per-sample weight. Writes to out = (diag, row)
        and returns it, with
            diag = sum_s,c w_sc v_sc**2,  row_i = sum_s,c w_sc v_sc0 v_sci,
        where v_sc is the per-sample gradient for seed c. row is None in
        diagonal mode. grad, if given, is a pair (deltas, flat) of the
        gradient's deltas, which sq_deltas must not overwrite, and a
        theta-sized vector: each layer's gradient is then written to flat
        with its terms, the floats grad_from_deltas writes. A masked
        layer then gathers its activation rows once per chunk for all
        three products. The temporary [1|a**2] of a dense layer is carved
        from the trace's scratch.
        """
        trace.check_pass()
        scratch = trace.scratch
        diag, row = out
        for layer, (idx, q, a) in enumerate(zip(self._index, sq_deltas, trace.inputs)):
            plain = [] if grad is None else [(grad[0][layer], grad[1])]  # products with [1|a]
            if row is not None:
                plain.append((q, row))
            if idx.dense:
                for d, flat in plain:
                    np.matmul(d.T, a, out=idx.matrix(flat))
                with scratch.released():
                    sq = np.multiply(a, a, out=scratch.take(*a.T.shape).T)  # a's memory order
                    np.matmul(q.T, sq, out=idx.matrix(diag))
            else:
                idx.sampled_products(a, [(d, idx.seg(flat)) for d, flat in plain],
                                     (q, idx.seg(diag)))
            if row is not None:
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
    """Architecture header plus flat parameters in one npz file at path; no ".npz" is added."""
    payload = {
        "format": np.int64(CHECKPOINT_FORMAT),
        "sizes": np.asarray(net.sizes, dtype=np.int64),
        "activation": np.str_(net.activation),
        "dropout": np.float64(net.dropout),
        "params": net.get_params(),
    }
    payload.update((f"mask_{layer}", m) for layer, m in enumerate(net.masks) if m is not None)
    if model is not None:
        payload["output_kind"] = np.str_(model.kind)
        payload["output_k"] = np.int64(model.k)
        if model.kind == "gaussian":
            payload["log_sigma"] = model.log_sigma
            payload["learn_variance"] = np.bool_(model.learn_variance)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path):
    """Returns (net, model-or-None)."""
    from .outputs import GaussianOutput, make_output_model

    with np.load(path, allow_pickle=False) as z:
        if int(z["format"]) != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {int(z['format'])}")
        sizes = z["sizes"].tolist()
        # a fully connected layer stores no mask
        masks = [z.get(f"mask_{layer}") for layer in range(len(sizes) - 1)]
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
