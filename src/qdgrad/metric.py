"""Quasi-diagonal metric storage and algebra.

A quasi-diagonal (QD) metric approximates a block-diagonal curvature matrix
by keeping, for each parameter block, only the diagonal and the first row.
Blocks correspond to the incoming parameters of one unit, with the bias as
entry 0 of the block. Storage is two flat arrays of dim(theta) reals each,
regardless of block sizes, or one in diagonal mode.

The dim-sized elementwise passes (accumulation, solve, the parameter
update) run in chunks of CHUNK_FLOATS floats with out= ops, so they
allocate no dim-sized temporary.

The solver inverts the retained entries against a vector in closed form:
each (bias, weight_i) pair is treated as an independent 2x2 system, then the
bias row is adjusted for the already-solved weights. For blocks of length 2
this is the exact block inverse.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BlockLayout",
    "QDMetric",
]


# Floats per operand in one chunk of a dim-sized pass: 256 KiB, so that the
# few operands of one chunk stay in a core's 2 MiB L2 cache. The sampled
# products of masked layers in network.py use the same budget. There,
# gathering a whole layer at once allocates nnz * batch floats per operand,
# 41 MB at the first layer of the paper's sparse net at batch 200; on that
# net (2-vCPU Xeon, batch 200) one gradient plus one QD-term call took a
# median 72 ms with these chunks, 95 ms with 2^18 floats (about 128 units)
# and 178 ms with whole layers.
CHUNK_FLOATS = 1 << 15


def axpy(y: np.ndarray, a: float, x: np.ndarray) -> None:
    """y += a * x in place, chunk by chunk.

    Gives the same floats as the whole-array expression, without its
    dim-sized temporary a * x.
    """
    buf = np.empty(min(CHUNK_FLOATS, y.size))
    for lo in range(0, y.size, CHUNK_FLOATS):
        hi = min(lo + CHUNK_FLOATS, y.size)
        np.add(y[lo:hi], np.multiply(x[lo:hi], a, out=buf[: hi - lo]), out=y[lo:hi])


class MetricError(ValueError):
    """Structural or numerical misuse of a QD metric."""


@dataclass(frozen=True)
class BlockLayout:
    """Partition of a flat parameter vector into per-unit blocks.

    Blocks are contiguous, ordered, disjoint and cover every index exactly
    once. Entry 0 of each block is the unit's bias.
    """

    lengths: np.ndarray
    starts: np.ndarray = field(init=False)
    dim: int = field(init=False)
    _groups: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0:
            raise MetricError("layout needs at least one block")
        if np.any(lengths < 1):
            raise MetricError("block lengths must be >= 1")
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        first = np.flatnonzero(np.diff(lengths, prepend=0))  # first block of each run
        counts = np.diff(first, append=lengths.size)
        groups = list(zip(starts[first].tolist(), counts.tolist(), lengths[first].tolist()))
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "dim", int(lengths.sum()))
        object.__setattr__(self, "_groups", groups)

    @property
    def n_blocks(self) -> int:
        return len(self.lengths)

    def block_slice(self, k: int) -> slice:
        s = int(self.starts[k])
        return slice(s, s + int(self.lengths[k]))

    def groups(self):
        """Runs of consecutive equal-length blocks as (flat_start, count, length).

        Lets the solver reshape each run to a (count, length) matrix and work
        on whole layers at once instead of looping over units.
        """
        return self._groups

    def __eq__(self, other):
        return isinstance(other, BlockLayout) and np.array_equal(
            self.lengths, other.lengths
        )


class QDMetric:
    """Diagonal plus first-row representation of a block curvature matrix.

    In quasi-diagonal mode the first entry of ``row`` in each block is
    unused and kept at zero. In diagonal mode there is no row: ``row`` is
    None.

    The constructor allocates a zero metric; ``from_arrays`` wraps arrays
    handed in. The training step double-buffers the metric: ``updated``
    builds the next metric in a spare pair of arrays, and once the step
    has succeeded the old pair becomes the next spare.
    """

    def __init__(self, layout: BlockLayout, quasi: bool = True):
        self.layout = layout
        self.diag = np.zeros(layout.dim)
        self.row = np.zeros(layout.dim) if quasi else None
        self.initialized = False

    @classmethod
    def from_arrays(cls, layout: BlockLayout, diag, row) -> "QDMetric":
        """An uninitialized metric over the given arrays, not copied.

        row None means diagonal mode.
        """
        m = cls.__new__(cls)
        m.layout, m.diag, m.row, m.initialized = layout, diag, row, False
        return m

    @property
    def quasi(self) -> bool:
        return self.row is not None

    # -- accumulation ------------------------------------------------------

    def add_terms(self, diag_inc: np.ndarray, row_inc, alpha: float) -> None:
        """Accumulate a precomputed QD reduction with coefficient alpha.

        The training step forms the minibatch-averaged diag and row
        contributions with matrix products, not per-sample rank-one updates.
        row_inc is None in diagonal mode.
        """
        axpy(self.diag, alpha, diag_inc)
        if self.row is not None:
            axpy(self.row, alpha, row_inc)

    def decay(self, gamma: float) -> None:
        """Scale the whole metric by (1 - gamma)."""
        if not (0.0 <= gamma <= 1.0):
            raise MetricError(f"decay weight must be in [0, 1], got {gamma}")
        self.diag *= 1.0 - gamma
        if self.row is not None:
            self.row *= 1.0 - gamma

    def updated(self, diag_batch: np.ndarray, row_batch, gamma: float) -> "QDMetric":
        """The moving average (1 - g) M + g M_batch; this metric is left as it is.

        g is gamma, or 1 for the first minibatch of an uninitialized metric.
        The result is built in the minibatch arrays and takes them over
        (row_batch is None in diagonal mode), so the update allocates no
        dim-sized array, and a caller that drops the result keeps the
        metric it had.
        """
        g = gamma if self.initialized else 1.0
        new = QDMetric.from_arrays(self.layout, diag_batch, row_batch)
        new.decay(1.0 - g)  # g M_batch
        new.add_terms(self.diag, self.row, 1.0 - g)
        new.initialized = True
        return new

    # -- solving -----------------------------------------------------------

    def solve(self, v: np.ndarray, epsilon: float, out=None) -> np.ndarray:
        """Apply the inverse of the regularized metric to v.

        Quasi-diagonal mode, per block with Delta = diag + epsilon:
            w_i = (Delta_0 v_i - r_i v_0) / max(Delta_i Delta_0 - r_i^2, epsilon)
            w_0 = (v_0 - sum_i r_i w_i) / Delta_0
        Diagonal mode is elementwise division by Delta.

        The result goes to out if given (a dim-sized array that does not
        overlap v), else to a new array. Each run of equal-length blocks is
        solved in chunks of whole blocks, about CHUNK_FLOATS floats each (a
        longer block is a chunk of its own), with the float operations of
        the formulas above applied to the whole run.

        Raises MetricError on an exactly zero divisor, which happens only
        for an uninitialized metric with epsilon = 0.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.layout.dim,):
            raise MetricError("vector does not match layout")
        if epsilon < 0.0:
            raise MetricError("epsilon must be >= 0")
        if out is None:
            out = np.empty_like(v)
        if not self.quasi:
            delta = np.add(self.diag, epsilon, out=out)
            if np.any(delta == 0.0):
                raise MetricError("zero diagonal entry; metric uninitialized?")
            np.divide(v, delta, out=out)
            return out
        width = max(CHUNK_FLOATS, int(self.layout.lengths.max()))
        d_buf, den_buf, tmp_buf = np.empty((3, width))
        for flat, count, length in self.layout.groups():
            stop = flat + count * length
            # all bias entries of the run first, as a zero one is reported
            # before any zero pair determinant of the run
            if np.any(self.diag[flat:stop:length] + epsilon == 0.0):
                raise MetricError("zero bias entry; metric uninitialized?")
            rows = width // length  # whole blocks per chunk
            for lo in range(flat, stop, rows * length):
                hi = min(lo + rows * length, stop)
                k = (hi - lo) // length
                d = np.add(self.diag[lo:hi], epsilon, out=d_buf[: hi - lo]).reshape(k, length)
                b = v[lo:hi].reshape(k, length)
                w = out[lo:hi].reshape(k, length)
                if length == 1:
                    np.divide(b, d, out=w)
                    continue
                r = self.row[lo:hi].reshape(k, length)[:, 1:]
                d0, w1 = d[:, :1], w[:, 1:]
                denom = den_buf[: k * (length - 1)].reshape(k, length - 1)
                tmp = tmp_buf[: k * (length - 1)].reshape(k, length - 1)
                np.multiply(d[:, 1:], d0, out=denom)
                np.subtract(denom, np.multiply(r, r, out=tmp), out=denom)
                np.maximum(denom, epsilon, out=denom)
                if np.any(denom == 0.0):
                    raise MetricError("zero pair determinant; metric uninitialized?")
                np.multiply(d0, b[:, 1:], out=tmp)
                np.multiply(r, b[:, :1], out=w1)
                np.subtract(tmp, w1, out=w1)
                np.divide(w1, denom, out=w1)
                total = np.sum(np.multiply(r, w1, out=tmp), axis=1)
                np.subtract(b[:, 0], total, out=total)
                np.divide(total, d[:, 0], out=w[:, 0])
        return out

    # -- inspection --------------------------------------------------------

    def copy(self) -> "QDMetric":
        row = None if self.row is None else self.row.copy()
        m = QDMetric.from_arrays(self.layout, self.diag.copy(), row)
        m.initialized = self.initialized
        return m
