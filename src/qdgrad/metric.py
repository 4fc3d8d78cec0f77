"""Quasi-diagonal metric storage and algebra.

A quasi-diagonal (QD) metric approximates a block-diagonal curvature matrix
by keeping, for each parameter block, only the diagonal and the first row.
Blocks correspond to the incoming parameters of one unit, with the bias as
entry 0 of the block. Storage is two flat arrays of dim(theta) reals each,
regardless of block sizes, or one in diagonal mode.

The dim-sized elementwise passes run in chunks of CHUNK_FLOATS floats
with out= ops, so they allocate no dim-sized temporary. A training step
makes two of them: the solve, which also forms the step's moving-average
metric chunk by chunk just before solving with it (see StepSolve), and
the in-place parameter update.

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
# products of masked layers in network.py use the same budget for their
# gathered activation rows, in chunks of whole units. There, gathering a
# whole layer at once allocates nnz * batch floats, 45 MB at the first
# layer of the paper's sparse net at batch 200; on that net (2-vCPU Xeon,
# batch 200) one gradient plus one QD-term call, each gathering the rows,
# took a median 22 ms with these chunks (14 units of that layer), 28-38 ms
# with 2^18 floats (119 units) and 58-84 ms with whole layers. Taken in one
# qd_batch_terms call that gathers each chunk once, as a single-seed
# metric's step takes them, the same products took 13.8-15.4 ms, where
# the earlier code's two calls took 19.4-21.6 ms (medians of 150 calls in
# 5 alternating pairs of processes, 2-vCPU Xeon, a later day than the
# numbers above).
CHUNK_FLOATS = 1 << 15

# A training step holds its batch metric terms at 2**TERM_EXP times their
# value, from q's weight (optim._metric_batch) to the blend (StepSolve),
# which scales them back. On a saturated sigmoid net many w * d**2 fall
# below 2**-1022, and subnormal operands put the metric products on the
# CPU's slow path; scaled, they are normal numbers. Scaling by a power of
# two is exact, so wherever the unscaled terms have no subnormal the
# metric's floats are theirs, bit for bit. A batch term at or above
# 2**(1024 - TERM_EXP) overflows to inf, and the step then raises
# DivergenceError for the metric diagonal or row.
TERM_EXP = 64
TERM_SCALE = 2.0**TERM_EXP


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


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Partition of a flat parameter vector into per-unit blocks.

    Blocks are contiguous, ordered, disjoint and cover every index exactly
    once. Entry 0 of each block is the unit's bias.
    """

    lengths: np.ndarray
    starts: np.ndarray = field(init=False)
    dim: int = field(init=False)
    _groups: list = field(init=False, repr=False)

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


@dataclass(eq=False)
class StepSolve:
    """The rest of a training step's first pass, carried into QDMetric.solve.

    The step solves with a metric that holds the minibatch terms, scaled
    by TERM_SCALE. Chunk by chunk, just before solving with it, the pass
    makes that metric the moving average (1 - g) prev + g M_batch: it
    multiplies the terms by (1 - keep) / TERM_SCALE, keep = 1 - g, and
    adds keep * prev. Wherever no subnormal occurs, those are the floats
    of decay(1 - g) and then add_terms(prev.diag, prev.row, 1 - g) on the
    unscaled terms. The pass also divides v by divisor in place. With
    root it divides by the square root of diag + epsilon instead
    (AdaGrad's exponent -1/2). buf is the
    loop's (3, n) scratch, n at least the solve's chunk width:
    max(CHUNK_FLOATS, the longest block), and zeros a row of n zeros.
    finite records whether the direction, the diagonal and the row all
    came out finite; a missing row is finite. Each chunk's check is one
    dot product with zeros, NaN exactly when the chunk holds an inf or a
    NaN (x * 0 is NaN for those and a zero for any finite x), so it needs
    no chunk-sized mask; an inf raises numpy's invalid-value flag there,
    which optimizer_step's np.errstate ignores. At epsilon = 0 a zero
    divisor makes the direction non-finite, as in any solve, and finite
    says so.
    """

    prev: "QDMetric"
    g: float
    divisor: float
    buf: np.ndarray
    zeros: np.ndarray
    root: bool = False
    finite: list = field(default_factory=lambda: [True, True, True])

    def blend(self, metric, lo, hi, tmp):
        keep = 1.0 - self.g
        scale = (1.0 - keep) / TERM_SCALE  # exact: a power of two
        tmp = tmp[: hi - lo]
        for new, old in ((metric.diag, self.prev.diag), (metric.row, self.prev.row)):
            if new is not None:
                y = new[lo:hi]
                y *= scale  # decay(1 - g) of the unscaled terms
                np.add(y, np.multiply(old[lo:hi], keep, out=tmp), out=y)  # add_terms

    def record(self, metric, out, lo, hi):
        zeros = self.zeros[: hi - lo]
        self.finite = [ok and (a is None or bool(np.isfinite(np.dot(a[lo:hi], zeros))))
                       for ok, a in zip(self.finite, (out, metric.diag, metric.row))]


class QDMetric:
    """Diagonal plus first-row representation of a block curvature matrix.

    In quasi-diagonal mode the first entry of ``row`` in each block is
    unused and kept at zero. In diagonal mode there is no row: ``row`` is
    None.

    The constructor allocates a zero metric. The training step
    double-buffers it: OptimizerState holds two, the step's solve builds
    the next metric in the spare one, and once the step has succeeded the
    two swap.
    """

    def __init__(self, layout: BlockLayout, quasi: bool = True):
        self.layout = layout
        self.diag = np.zeros(layout.dim)
        self.row = np.zeros(layout.dim) if quasi else None

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

    # -- solving -----------------------------------------------------------

    def solve(self, v: np.ndarray, epsilon: float, out=None, *, _step=None) -> np.ndarray:
        """Apply the inverse of the regularized metric to v.

        Quasi-diagonal mode, per block with Delta = diag + epsilon:
            w_i = (Delta_0 v_i - r_i v_0) / max(Delta_i Delta_0 - r_i^2, epsilon)
            w_0 = (v_0 - sum_i r_i w_i) / Delta_0
        Diagonal mode is elementwise division by Delta.

        The result goes to out if given (a dim-sized array that does not
        overlap v), else to a new array. Each run of equal-length blocks is
        solved in chunks of whole blocks, about CHUNK_FLOATS floats each (a
        longer block is a chunk of its own), with the float operations of
        the formulas above applied to the whole run; diagonal mode is one
        run of length-1 blocks. optimizer_step passes a StepSolve as _step,
        so that one pass over the chunks also builds this metric and checks
        what it wrote.

        With epsilon > 0 and a nonnegative diagonal no divisor is zero. At
        epsilon = 0 a zero divisor (a zero bias or diagonal entry, or a zero
        pair determinant) gives inf or NaN in its block of the result, with
        or without _step, and warns as any numpy division does under the
        caller's np.errstate. Raises MetricError only for a v of the wrong
        shape and for epsilon < 0.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.layout.dim,):
            raise MetricError("vector does not match layout")
        if epsilon < 0.0:
            raise MetricError("epsilon must be >= 0")
        if out is None:
            out = np.empty_like(v)
        groups = self.layout.groups() if self.quasi else [(0, self.layout.dim, 1)]
        width = max(CHUNK_FLOATS, max(length for _, _, length in groups))
        buf = np.empty((3, width)) if _step is None else _step.buf
        root = _step is not None and _step.root
        for flat, count, length in groups:
            stop = flat + count * length
            rows = width // length  # whole blocks per chunk
            for lo in range(flat, stop, rows * length):
                hi = min(lo + rows * length, stop)
                k = (hi - lo) // length
                if _step is not None:
                    _step.blend(self, lo, hi, buf[2])
                    v[lo:hi] /= _step.divisor
                d = np.add(self.diag[lo:hi], epsilon, out=buf[0, : hi - lo]).reshape(k, length)
                b = v[lo:hi].reshape(k, length)
                w = out[lo:hi].reshape(k, length)
                if length == 1:
                    if root:
                        np.sqrt(d, out=d)
                    np.divide(b, d, out=w)
                else:
                    # The weight formulas run over whole blocks, as
                    # contiguous arrays are faster than strided views of
                    # the weight columns. Their bias-column values are
                    # thrown away, and its divisor is set to 1 first.
                    r = self.row[lo:hi].reshape(k, length)
                    d0 = d[:, :1]
                    denom = buf[1, : hi - lo].reshape(k, length)
                    tmp = buf[2, : hi - lo].reshape(k, length)
                    np.multiply(d, d0, out=denom)
                    np.subtract(denom, np.multiply(r, r, out=tmp), out=denom)
                    np.maximum(denom, epsilon, out=denom)
                    denom[:, 0] = 1.0
                    np.multiply(d0, b, out=tmp)
                    np.multiply(r, b[:, :1], out=w)
                    np.subtract(tmp, w, out=w)
                    np.divide(w, denom, out=w)
                    total = np.sum(np.multiply(r, w, out=tmp)[:, 1:], axis=1)
                    np.subtract(b[:, 0], total, out=total)
                    np.divide(total, d[:, 0], out=w[:, 0])
                if _step is not None:
                    _step.record(self, out, lo, hi)
        return out
