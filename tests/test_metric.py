"""Metric algebra tests against dense linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdgrad import metric
from qdgrad.metric import (
    CHUNK_FLOATS,
    TERM_SCALE,
    BlockLayout,
    MetricError,
    QDMetric,
    StepSolve,
    axpy,
)
from qdgrad.verify import qd_reduce, rank_one_update

# ---------------------------------------------------------------------------
# Oracles. The library never builds dense matrices; these do.
# ---------------------------------------------------------------------------


def dense_block_solve(diag, row, v, eps):
    """Exact solve of the full retained 2x2 systems, one block.

    For each weight entry i >= 1, solve [[D0, r_i], [r_i, D_i]] [u0, ui] =
    [v0, vi] with a dense solver and keep ui. The bias entry then satisfies
    D0 w0 + sum_i r_i w_i = v0.
    """
    d = np.asarray(diag, dtype=float) + eps
    n = d.size
    w = np.empty(n)
    for i in range(1, n):
        a = np.array([[d[0], row[i]], [row[i], d[i]]])
        w[i] = np.linalg.solve(a, np.array([v[0], v[i]]))[1]
    w[0] = (v[0] - np.dot(row[1:], w[1:])) / d[0]
    return w


def random_qd_metric(rng, lengths, n_terms=4):
    """A metric accumulated from random rank-one terms, positive weights."""
    layout = BlockLayout(np.asarray(lengths))
    m = QDMetric(layout, quasi=True)
    for _ in range(n_terms):
        v = rng.standard_normal(layout.dim)
        rank_one_update(m, v, float(rng.uniform(0.1, 2.0)))
    return m


# ---------------------------------------------------------------------------
# BlockLayout
# ---------------------------------------------------------------------------


def test_layout_covers_all_indices():
    layout = BlockLayout(np.array([3, 1, 4]))
    seen = np.concatenate([np.arange(layout.dim)[layout.block_slice(k)] for k in range(3)])
    assert np.array_equal(np.sort(seen), np.arange(8))
    assert layout.dim == 8
    assert list(layout.starts) == [0, 3, 4]


def test_layout_rejects_bad_lengths():
    with pytest.raises(MetricError):
        BlockLayout(np.array([2, 0, 3]))
    with pytest.raises(MetricError):
        BlockLayout(np.array([], dtype=np.int64))


def test_layout_groups_merge_equal_runs():
    layout = BlockLayout(np.array([3, 3, 2, 2, 2, 5]))
    assert layout.groups() == [(0, 2, 3), (6, 3, 2), (12, 1, 5)]


# ---------------------------------------------------------------------------
# Rank-one accumulation
# ---------------------------------------------------------------------------


def test_rank_one_basic():
    m = QDMetric(BlockLayout(np.array([2])))
    rank_one_update(m, np.array([1.0, 2.0]), 1.0)
    np.testing.assert_allclose(m.diag, [1.0, 4.0])
    np.testing.assert_allclose(m.row, [0.0, 2.0])


def test_rank_one_alpha_zero_is_noop():
    rng = np.random.default_rng(0)
    m = random_qd_metric(rng, [3, 2])
    diag, row = m.diag.copy(), m.row.copy()
    rank_one_update(m, rng.standard_normal(m.layout.dim), 0.0)
    np.testing.assert_array_equal(m.diag, diag)
    np.testing.assert_array_equal(m.row, row)


def test_rank_one_matches_dense_projection():
    # Frozen case: v = [2, -1, 3], alpha = 0.5. Oracle: dense alpha*v v^T has
    # diagonal [2, 0.5, 4.5] and bias row [., -1, 3].
    m = QDMetric(BlockLayout(np.array([3])))
    v = np.array([2.0, -1.0, 3.0])
    rank_one_update(m, v, 0.5)
    dense = 0.5 * np.outer(v, v)
    np.testing.assert_allclose(m.diag, np.diagonal(dense))
    np.testing.assert_allclose(m.diag, [2.0, 0.5, 4.5])
    np.testing.assert_allclose(m.row[1:], dense[0, 1:])
    np.testing.assert_allclose(m.row[1:], [-1.0, 3.0])
    assert m.row[0] == 0.0


def test_rank_one_dimension_mismatch():
    m = QDMetric(BlockLayout(np.array([3])))
    with pytest.raises(MetricError):
        rank_one_update(m, np.ones(4), 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_accumulation_linearity(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    layout = BlockLayout(np.array([2, 4, 1]))
    v = rng.standard_normal(layout.dim)
    a = QDMetric(layout)
    rank_one_update(a, v, alpha)
    rank_one_update(a, v, beta)
    b = QDMetric(layout)
    rank_one_update(b, v, alpha + beta)
    np.testing.assert_allclose(a.diag, b.diag, rtol=1e-12)
    np.testing.assert_allclose(a.row, b.row, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_diag_nonnegative_under_decay_and_updates(seed, gammas):
    rng = np.random.default_rng(seed)
    layout = BlockLayout(np.array([3, 3]))
    m = QDMetric(layout)
    for g in gammas:
        m.decay(g)
        rank_one_update(m, rng.standard_normal(layout.dim), float(rng.uniform(0.0, 2.0)))
        assert np.all(m.diag >= 0.0)


# ---------------------------------------------------------------------------
# Decay
# ---------------------------------------------------------------------------


def test_decay_full_replacement():
    m = QDMetric(BlockLayout(np.array([2])))
    m.diag[:] = [2.0, 4.0]
    m.decay(1.0)
    np.testing.assert_array_equal(m.diag, [0.0, 0.0])


def test_decay_zero_is_noop():
    m = QDMetric(BlockLayout(np.array([2])))
    m.diag[:] = [2.0, 4.0]
    m.row[:] = [0.0, 1.0]
    m.decay(0.0)
    np.testing.assert_array_equal(m.diag, [2.0, 4.0])
    np.testing.assert_array_equal(m.row, [0.0, 1.0])


def test_decay_default_rate():
    m = QDMetric(BlockLayout(np.array([2])))
    m.diag[:] = [2.0, 4.0]
    m.row[:] = [0.0, 1.0]
    m.decay(0.01)
    np.testing.assert_allclose(m.diag, [1.98, 3.96])
    np.testing.assert_allclose(m.row, [0.0, 0.99])


def test_decay_then_update_moving_average():
    # M <- (1 - gamma) M + gamma v v^T, the order used by the training loop.
    rng = np.random.default_rng(3)
    layout = BlockLayout(np.array([4]))
    m = random_qd_metric(rng, [4])
    old = m.diag.copy()
    v = rng.standard_normal(4)
    gamma = 0.01
    m.decay(gamma)
    rank_one_update(m, v, gamma)
    np.testing.assert_allclose(m.diag, (1 - gamma) * old + gamma * v * v, rtol=1e-12)


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def test_solve_identity_metric():
    layout = BlockLayout(np.array([3, 2]))
    m = QDMetric(layout)
    m.diag[:] = 1.0
    v = np.arange(5.0) - 2.0
    np.testing.assert_array_equal(m.solve(v, 0.0), v)


def test_solve_block2_frozen_case():
    # Dense oracle: [[2, 1], [1, 3]] x = [1, 1] has x = [0.4, 0.2].
    m = QDMetric(BlockLayout(np.array([2])))
    m.diag[:] = [2.0, 3.0]
    m.row[:] = [0.0, 1.0]
    w = m.solve(np.array([1.0, 1.0]), 0.0)
    oracle = np.linalg.solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(w, oracle, rtol=1e-12)
    np.testing.assert_allclose(w, [0.4, 0.2], rtol=1e-12)


def test_solve_clamp_branch():
    # Negative pair determinant exercises max(., eps).
    m = QDMetric(BlockLayout(np.array([2])))
    m.diag[:] = [1.0, 1.0]
    m.row[:] = [0.0, 2.0]
    w = m.solve(np.array([0.0, 1.0]), 1e-8)
    np.testing.assert_allclose(w[1], 1e8, rtol=1e-6)
    np.testing.assert_allclose(w[0], -2e8, rtol=1e-6)


def test_solve_block2_matches_dense(subtests=None):
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = random_qd_metric(rng, [2, 2, 2], n_terms=3)
        v = rng.standard_normal(6)
        w = m.solve(v, 0.0)
        for k in range(3):
            sl = m.layout.block_slice(k)
            a = np.array(
                [[m.diag[sl][0], m.row[sl][1]], [m.row[sl][1], m.diag[sl][1]]]
            )
            np.testing.assert_allclose(
                w[sl], np.linalg.solve(a, v[sl]), rtol=1e-10, atol=1e-12
            )


def test_solve_general_matches_pair_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lengths = rng.integers(2, 7, size=rng.integers(1, 4))
        m = random_qd_metric(rng, lengths, n_terms=int(rng.integers(3, 7)))
        v = rng.standard_normal(m.layout.dim)
        w = m.solve(v, 0.0)
        for k in range(m.layout.n_blocks):
            sl = m.layout.block_slice(k)
            ref = dense_block_solve(m.diag[sl], m.row[sl], v[sl], 0.0)
            np.testing.assert_allclose(w[sl], ref, rtol=1e-8, atol=1e-10)


def test_solve_diagonal_mode():
    layout = BlockLayout(np.array([3]))
    m = QDMetric(layout, quasi=False)
    m.diag[:] = [1.0, 2.0, 4.0]
    w = m.solve(np.array([1.0, 1.0, 1.0]), 0.0)
    np.testing.assert_allclose(w, [1.0, 0.5, 0.25])
    assert m.row is None


def test_solve_length_one_blocks():
    m = QDMetric(BlockLayout(np.array([1, 1])))
    m.diag[:] = [2.0, 4.0]
    np.testing.assert_allclose(m.solve(np.array([1.0, 1.0]), 0.0), [0.5, 0.25])


# ---------------------------------------------------------------------------
# Chunked passes against the whole-array formulas, bit for bit
# ---------------------------------------------------------------------------

C = CHUNK_FLOATS
ROWS_OF_1000 = C // 1000  # whole blocks of length 1000 in one chunk

CHUNK_EDGE_LAYOUTS = {
    "block-longer-than-chunk": [C + 5, C + 5, 3],
    "count-not-multiple-of-rows": [1000] * (2 * ROWS_OF_1000 + 3) + [7] * 5,
    "length-one-blocks": [1] * (C + 7) + [2] * 3,
    "mixed": [4] * 9 + [1] * 3 + [C // 3] * 4 + [1, C, 2],
}


def solve_whole_groups(m, v, epsilon):
    """QDMetric.solve as whole-run array expressions, with no chunks."""
    if not m.quasi:
        return v / (m.diag + epsilon)
    out = np.empty_like(v)
    for flat, count, length in m.layout.groups():
        stop = flat + count * length
        d = m.diag[flat:stop].reshape(count, length) + epsilon
        b = v[flat:stop].reshape(count, length)
        w = out[flat:stop].reshape(count, length)
        if length == 1:
            w[:, 0] = b[:, 0] / d[:, 0]
            continue
        r = m.row[flat:stop].reshape(count, length)[:, 1:]
        d0 = d[:, :1]
        denom = np.maximum(d[:, 1:] * d0 - r * r, epsilon)
        w[:, 1:] = (d0 * b[:, 1:] - r * b[:, :1]) / denom
        w[:, 0] = (b[:, 0] - np.sum(r * w[:, 1:], axis=1)) / d[:, 0]
    return out


@pytest.mark.parametrize("quasi", [True, False], ids=["quasi", "diagonal"])
@pytest.mark.parametrize("given_out", [False, True], ids=["new-out", "given-out"])
@pytest.mark.parametrize("name", sorted(CHUNK_EDGE_LAYOUTS))
def test_chunked_solve_matches_whole_groups_bitwise(name, given_out, quasi):
    rng = np.random.default_rng(sorted(CHUNK_EDGE_LAYOUTS).index(name))
    layout = BlockLayout(np.array(CHUNK_EDGE_LAYOUTS[name]))
    m = QDMetric(layout, quasi=quasi)
    m.diag[:] = rng.uniform(0.0, 2.0, layout.dim)
    if quasi:
        # some pair determinants go negative and are clamped to epsilon
        m.row[:] = rng.normal(0.0, 1.0, layout.dim)
        m.row[layout.starts] = 0.0
    v = rng.standard_normal(layout.dim)
    out = np.full(layout.dim, np.nan) if given_out else None
    w = m.solve(v, 1e-8, out=out)
    if given_out:
        assert w is out
    np.testing.assert_array_equal(w, solve_whole_groups(m, v, 1e-8))


@pytest.mark.parametrize("size", [0, 1, C - 1, C, C + 1, 3 * C + 5])
def test_axpy_matches_whole_array_bitwise(size):
    rng = np.random.default_rng(size)
    y, x = rng.standard_normal(size), rng.standard_normal(size)
    a = float(rng.uniform(0.1, 3.0))
    # -a is the parameter update: adding (-a) x is subtracting a x
    for coef, ref in ((a, y + a * x), (-a, y - a * x)):
        out = y.copy()
        axpy(out, coef, x)
        np.testing.assert_array_equal(out, ref)


def metric_over(layout, diag, row):
    """A QDMetric over the given arrays, not copied; row None is diagonal mode."""
    m = QDMetric(layout, quasi=row is not None)
    m.diag, m.row = diag, row
    return m


def updated(prev, diag_batch, row_batch, g):
    """A step's moving-average metric, by the whole-array calls.

    The average is built in the batch arrays by decay(1 - g) and then
    add_terms(prev, 1 - g).
    """
    new = metric_over(prev.layout, diag_batch, row_batch)
    new.decay(1.0 - g)  # g M_batch
    new.add_terms(prev.diag, prev.row, 1.0 - g)
    return new


def solved(metric, v, epsilon, root):
    """The whole-array solve; root solves as AdaGrad does, v / sqrt(diag + epsilon)."""
    if root:
        d = np.add(metric.diag, epsilon)
        np.sqrt(d, out=d)
        return np.divide(v, d, out=d)
    return metric.solve(v, epsilon)


def random_pair(rng, layout, quasi):
    """A (diag, row) pair with every pair determinant positive, as a metric's."""
    diag = rng.uniform(0.5, 2.0, layout.dim)
    if not quasi:
        return diag, None
    bias = np.repeat(diag[layout.starts], layout.lengths)
    row = rng.uniform(-0.5, 0.5, layout.dim) * np.sqrt(diag * bias)
    row[layout.starts] = 0.0
    return diag, row


def bits(a):
    return None if a is None else a.view(np.int64)


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.tuples(st.sampled_from([1, 2, 3, 7]), st.integers(1, 6)),
                     min_size=1, max_size=5),
       mode=st.sampled_from(["quasi", "diagonal", "root"]), first=st.booleans(),
       gamma=st.sampled_from([0.01, 0.5]), epsilon=st.sampled_from([0.0, 1e-8]),
       divisor=st.sampled_from([1, 3, 500]), chunk=st.sampled_from([1, 4, 16, CHUNK_FLOATS]),
       damage=st.sampled_from([None, ("bias", 0.0), ("weight", 0.0), ("batch", 0.0),
                               ("any", np.inf), ("any", np.nan)]), seed=st.integers(0, 2**32 - 1))
def test_the_step_pass_computes_the_floats_of_updated_then_solve(
        runs, mode, first, gamma, epsilon, divisor, chunk, damage, seed):
    # one chunk loop averages, solves and checks; it must give the floats
    # of the two whole-array calls, zero divisors included, and flag their
    # non-finite values, however the blocks fall into chunks. The step
    # hands the loop its batch terms scaled by TERM_SCALE, exactly.
    rng = np.random.default_rng(seed)
    layout = BlockLayout(np.array([length for length, count in runs for _ in range(count)]))
    quasi, root = mode == "quasi", mode == "root"
    prev = metric_over(layout, *random_pair(rng, layout, quasi))
    batch = random_pair(rng, layout, quasi)
    v = rng.standard_normal(layout.dim)
    if damage is not None:
        # zero diagonal entries (and their row entries) of both pairs, or of
        # the batch's only, which a moving average after the first step
        # makes nonzero again; or a non-finite value in every array
        kind, value = damage
        where = {"bias": layout.starts,
                 "weight": np.setdiff1d(np.arange(layout.dim), layout.starts)}.get(kind, layout.dim)
        if np.size(where):
            hit = rng.choice(where, size=min(2, np.size(where)), replace=False)
            for a in (*batch, *(() if kind == "batch" else (prev.diag, prev.row))):
                if a is not None:
                    a[hit] = value
    g = 1.0 if first else gamma
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "CHUNK_FLOATS", chunk)
        new_ref = updated(prev, *(a if a is None else a.copy() for a in batch), g)
        direction = solved(new_ref, v / divisor, epsilon, root)
        grad = v.copy()
        new = metric_over(layout, *(a if a is None else a * TERM_SCALE for a in batch))
        width = max(chunk, int(layout.lengths.max()))  # the solve's chunk width
        step = StepSolve(prev, g, divisor, np.empty((3, width)), np.zeros(width), root=root)
        w = new.solve(grad, epsilon, out=np.empty(layout.dim), _step=step)
    np.testing.assert_array_equal(bits(new.diag), bits(new_ref.diag))
    np.testing.assert_array_equal(bits(new.row), bits(new_ref.row))
    np.testing.assert_array_equal(bits(grad), bits(v / divisor))
    np.testing.assert_array_equal(bits(w), bits(direction))
    assert step.finite[0] == bool(np.isfinite(direction).all())
    assert step.finite[1:] == [bool(np.isfinite(new_ref.diag).all()),
                               new_ref.row is None or bool(np.isfinite(new_ref.row).all())]


# what optimizer_step's DivergenceError names for each of StepSolve.finite's flags
FINITE_NAMES = ("update direction", "metric diagonal", "metric row")


def named(finite):
    """The quantity a step names: the first flag in the check order that is down."""
    return next((name for name, ok in zip(FINITE_NAMES, finite) if not ok), None)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_a_chunk_record_flags_a_non_finite_entry_at_every_position(length, value):
    # record checks a chunk with one dot product against zeros. An inf, a
    # -inf or a NaN at any position of the chunk, in the SIMD body or its
    # tail, must lower the flags that the whole-chunk isfinite test
    # lowered, so that the step names the same quantity; huge, subnormal
    # and zero entries are finite, and entries outside the chunk are not
    # read. A missing row is finite.
    rng = np.random.default_rng(length)
    magnitudes = [1.0, np.finfo(float).max, 1e-310, 0.0]  # two maxima of one sign overflow a sum
    lo, hi = 3, 3 + length  # a chunk that starts inside the arrays, unaligned
    n = hi + 4
    layout = BlockLayout(np.array([n]))
    for quasi in (True, False):
        for which in range(3 if quasi else 2):
            for pos in range(lo, hi):
                m = QDMetric(layout, quasi)
                out = np.empty(n)
                arrays = [a for a in (out, m.diag, m.row) if a is not None]
                for a in arrays:
                    a[:] = rng.choice([-1.0, 1.0], size=n) * rng.choice(magnitudes, size=n)
                    a[:lo], a[hi:] = np.nan, np.inf  # outside the chunk
                arrays[which][pos] = value
                step = StepSolve(None, 0.5, 1.0, np.empty((3, n)), np.zeros(n))
                with np.errstate(invalid="ignore"):  # inf * 0, as optimizer_step allows
                    step.record(m, out, lo, hi)
                expected = [a is None or bool(np.isfinite(a[lo:hi]).all())
                            for a in (out, m.diag, m.row)]
                assert step.finite == expected
                assert named(step.finite) == FINITE_NAMES[which]
                arrays[which][pos] = 1.0
                step.record(m, out, lo, hi)  # a later finite chunk keeps the flag down
                assert named(step.finite) == FINITE_NAMES[which]


@pytest.mark.parametrize("quasi", [True, False], ids=["quasi", "diagonal"])
def test_a_chunk_record_names_the_direction_before_the_metric(quasi):
    # with every array non-finite the step names the direction, as before;
    # with none, it names nothing
    n = 9
    m = QDMetric(BlockLayout(np.array([n])), quasi)
    out = np.zeros(n)
    step = StepSolve(None, 0.5, 1.0, np.empty((3, n)), np.zeros(n))
    step.record(m, out, 0, n)
    assert step.finite == [True, True, True] and named(step.finite) is None
    for a in (out, m.diag, m.row):
        if a is not None:
            a[n // 2] = np.nan
    step.record(m, out, 0, n)
    assert step.finite == [False, False, not quasi]
    assert named(step.finite) == "update direction"


@pytest.mark.parametrize("block", [0, 15, -1], ids=["first-run", "second-chunk-of-a-run", "last-run"])
@pytest.mark.parametrize("damage", ["bias", "pair", "diagonal"])
def test_a_zero_divisor_makes_only_its_block_non_finite(damage, block):
    # at epsilon = 0 a standalone solve raises nothing on a zero divisor: its
    # block of the result holds inf or NaN, and every other block holds the
    # floats of the solve of the same metric with that block repaired
    rng = np.random.default_rng(0)
    layout = BlockLayout(np.array(CHUNK_EDGE_LAYOUTS["mixed"]))
    quasi = damage != "diagonal"
    diag, row = random_pair(rng, layout, quasi)
    v = rng.standard_normal(layout.dim)
    sl = layout.block_slice(block)
    i = sl.start
    broken = metric_over(layout, diag.copy(), None if row is None else row.copy())
    if damage == "bias":
        broken.diag[i] = 0.0
    elif damage == "pair":  # Delta_0 Delta_1 - r_1^2 = 1 * 4 - 2^2
        broken.diag[i : i + 2] = 1.0, 4.0
        broken.row[i + 1] = 2.0
    else:  # diagonal mode: the weight entry's divisor; each entry is a block of its own
        sl = slice(i + 1, i + 2)
        broken.diag[sl] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w = broken.solve(v, 0.0)
    ref = metric_over(layout, diag, row).solve(v, 0.0)
    assert not np.isfinite(w[sl]).all()
    other = np.ones(layout.dim, dtype=bool)
    other[sl] = False
    np.testing.assert_array_equal(bits(w[other]), bits(ref[other]))


# ---------------------------------------------------------------------------
# qd_reduce and storage
# ---------------------------------------------------------------------------


def test_reduce_identity():
    layout = BlockLayout(np.array([3]))
    m = qd_reduce(np.eye(3), layout)
    np.testing.assert_array_equal(m.diag, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(m.row, [0.0, 0.0, 0.0])


def test_reduce_agrees_with_rank_one():
    layout = BlockLayout(np.array([3]))
    v = np.array([1.0, 2.0, 3.0])
    a = qd_reduce(np.outer(v, v), layout)
    b = QDMetric(layout)
    rank_one_update(b, v, 1.0)
    np.testing.assert_allclose(a.diag, b.diag)
    np.testing.assert_allclose(a.row, b.row)


def test_reduce_two_blocks_element_lookup():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5))
    a = a + a.T
    layout = BlockLayout(np.array([3, 2]))
    m = qd_reduce(a, layout)
    np.testing.assert_array_equal(m.diag, np.diagonal(a))
    np.testing.assert_array_equal(m.row[1:3], a[0, 1:3])
    assert m.row[3] == 0.0
    np.testing.assert_array_equal(m.row[4:5], a[3, 4:5])


def test_reduce_dimension_mismatch():
    with pytest.raises(MetricError):
        qd_reduce(np.eye(4), BlockLayout(np.array([3])))


def test_storage_is_two_arrays_of_dim():
    layout = BlockLayout(np.array([5, 3, 2]))
    m = QDMetric(layout)
    assert m.diag.size + m.row.size == 2 * layout.dim


def test_diag_mode_never_writes_row():
    rng = np.random.default_rng(9)
    layout = BlockLayout(np.array([4, 2]))
    m = QDMetric(layout, quasi=False)
    for _ in range(5):
        m.decay(0.3)
        rank_one_update(m, rng.standard_normal(layout.dim), 1.0)
    assert m.row is None
