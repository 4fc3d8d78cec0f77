"""Data layer tests: format round-trips, normalization, inversion, batching."""

import numpy as np
import pytest
from conftest import write_csv

from qdgrad.data import (
    Dataset,
    generate_eeg,
    invert_features,
    load_csv,
    load_idx,
    minibatches,
    split_last,
    write_idx_images,
    write_idx_labels,
)


# ---------------------------------------------------------------------------
# IDX
# ---------------------------------------------------------------------------


def test_idx_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 4, 3), dtype=np.uint8)
    labels = np.array([7, 1], dtype=np.uint8)
    ip, lp = tmp_path / "img", tmp_path / "lab"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    ds = load_idx(ip, lp)
    assert ds.features.shape == (2, 12)
    np.testing.assert_array_equal(ds.features, images.reshape(2, 12) / 255.0)
    np.testing.assert_array_equal(ds.targets, [7, 1])
    assert ds.target_kind == "class"
    assert 0.0 <= ds.features.min() and ds.features.max() <= 1.0


def test_idx_bad_magic_rejected(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(2, 2, 2), dtype=np.uint8)
    ip, lp = tmp_path / "img", tmp_path / "lab"
    write_idx_images(ip, images)
    write_idx_labels(lp, np.array([0, 1], dtype=np.uint8))
    with pytest.raises(ValueError, match="magic"):
        load_idx(lp, lp)  # labels file where images are expected
    with pytest.raises(ValueError, match="magic"):
        load_idx(ip, ip)


def test_idx_truncation_and_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    ip, lp = tmp_path / "img", tmp_path / "lab"
    write_idx_images(ip, images)
    write_idx_labels(lp, np.array([0, 1], dtype=np.uint8))
    with pytest.raises(ValueError, match="count"):
        load_idx(ip, lp)
    blob = ip.read_bytes()
    ip.write_bytes(blob[:-3])
    with pytest.raises(ValueError, match="truncated"):
        load_idx(ip, lp)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_exact_parse_and_normalization(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,10,5\n1,20,5\n0.5,15,5\n")
    ds = load_csv(p)
    # min-max per column; the constant third column maps to 0
    np.testing.assert_allclose(
        ds.features, [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.5, 0.5, 0.0]]
    )
    assert ds.target_kind == "self"
    np.testing.assert_array_equal(ds.target_batch(np.array([1])), ds.features[[1]])


def test_csv_target_columns_raw(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("0,100,-3\n2,300,9\n")
    ds = load_csv(p, target_columns=[1])
    assert ds.target_kind == "vector"
    np.testing.assert_array_equal(ds.targets, [[100.0], [300.0]])  # not normalized
    np.testing.assert_allclose(ds.features, [[0.0, 0.0], [1.0, 1.0]])
    assert ds.n_outputs == 1


def test_csv_header_flag(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(p)
    ds = load_csv(p, has_header=True)
    assert len(ds) == 2


def test_csv_ragged_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: 2 cells, expected 3$"):
        load_csv(p)


def test_normalization_is_idempotent(tmp_path):
    p1 = tmp_path / "a.csv"
    p1.write_text("3,1\n9,1\n6,1\n")
    once = load_csv(p1)
    p2 = tmp_path / "b.csv"
    write_csv(p2, once.features)
    twice = load_csv(p2)
    np.testing.assert_array_equal(once.features, twice.features)


def test_eeg_generator_round_trips_through_csv(tmp_path):
    ds = generate_eeg(64, n_channels=7, seed=3)
    assert ds.features.shape == (64, 7)
    assert ds.features.min() == 0.0 and ds.features.max() == 1.0
    np.testing.assert_array_equal(ds.features.min(axis=0), np.zeros(7))
    np.testing.assert_array_equal(ds.features.max(axis=0), np.ones(7))
    p = tmp_path / "eeg.csv"
    write_csv(p, ds.features)
    back = load_csv(p)
    np.testing.assert_array_equal(back.features, ds.features)


def test_eeg_generator_deterministic():
    a = generate_eeg(32, seed=5)
    b = generate_eeg(32, seed=5)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.features.shape == (32, 56)  # default channel count


# ---------------------------------------------------------------------------
# Splits and minibatches
# ---------------------------------------------------------------------------


def test_split_last_disjoint_union():
    tr, va = split_last(10, 3)
    assert np.intersect1d(tr, va).size == 0
    np.testing.assert_array_equal(np.union1d(tr, va), np.arange(10))
    np.testing.assert_array_equal(va, [7, 8, 9])
    with pytest.raises(ValueError):
        split_last(5, 6)


def test_overlapping_split_rejected():
    with pytest.raises(ValueError, match="overlap"):
        Dataset(np.zeros((4, 2)), None, "self",
                train_idx=np.array([0, 1, 2]), valid_idx=np.array([2, 3]))


def test_minibatch_sizes_and_coverage():
    ds = Dataset(np.zeros((12, 2)), None, "self", train_idx=np.arange(10),
                 valid_idx=np.arange(10, 12))
    batches = list(minibatches(ds, 3, np.random.default_rng(0)))
    assert [len(b) for b in batches] == [3, 3, 3, 1]
    np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(10))


def test_minibatch_order_deterministic_and_shuffled():
    ds = Dataset(np.zeros((64, 1)), None, "self")
    a = np.concatenate(list(minibatches(ds, 8, np.random.default_rng(4))))
    b = np.concatenate(list(minibatches(ds, 8, np.random.default_rng(4))))
    c = np.concatenate(list(minibatches(ds, 8, np.random.default_rng(5))))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, np.arange(64))  # actually shuffled
    with pytest.raises(ValueError):
        next(minibatches(ds, 0, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def test_invert_values_and_involution():
    ds = Dataset(np.array([[0.25, 1.0], [0.0, 0.5]]), None, "self")
    inv = invert_features(ds)
    np.testing.assert_array_equal(inv.features, [[0.75, 0.0], [1.0, 0.5]])
    back = invert_features(inv)
    np.testing.assert_array_equal(back.features, ds.features)


def test_invert_requires_unit_range():
    ds = Dataset(np.array([[1.5]]), None, "self")
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        invert_features(ds)


def test_transform_preserves_class_targets_and_split():
    ds = Dataset(np.array([[0.1], [0.9]]), np.array([0, 1]), "class", 2,
                 train_idx=np.array([0]), valid_idx=np.array([1]))
    out = invert_features(ds)
    np.testing.assert_array_equal(out.targets, ds.targets)
    np.testing.assert_array_equal(out.valid_idx, ds.valid_idx)
    assert out.n_classes == 2


def test_self_targets_track_transformed_features():
    ds = Dataset(np.array([[0.2, 0.4]]), None, "self")
    out = invert_features(ds)
    np.testing.assert_array_equal(out.target_batch(np.array([0])), [[0.8, 0.6]])


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.zeros(3), None, "self")
    with pytest.raises(ValueError, match="kind"):
        Dataset(np.zeros((2, 2)), None, "classes")
    with pytest.raises(ValueError, match="range"):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), "class", n_classes=3)
    with pytest.raises(ValueError, match="2-D"):  # one sample's targets are a one-row array
        Dataset(np.zeros((1, 2)), np.ones(3), "vector")
    ds = Dataset(np.zeros((3, 2)), np.array([0, 2, 1]), "class")
    assert ds.n_classes == 3
    assert ds.n_outputs == 3
    ds2 = Dataset(np.zeros((3, 2)), None, "self")
    assert ds2.n_outputs == 2


def test_class_dataset_n_outputs_and_vector_targets():
    ds = Dataset(np.zeros((2, 4)), np.ones((2, 3)), "vector")
    assert ds.n_outputs == 3
    np.testing.assert_array_equal(ds.target_batch(np.array([0])), [[1.0, 1.0, 1.0]])
