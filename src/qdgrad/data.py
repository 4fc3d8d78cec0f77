"""Dataset loading, normalization, feature inversion, and minibatch iteration.

Features are kept as an (N, D) float array in [0, 1]. Targets are one of
three kinds: "class" (integer labels), "vector" (real regression targets),
or "self" (autoencoding; the target array IS the feature array, so the
reconstruction target tracks the inversion of the features for free).
"""

import csv
import io
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Dataset",
    "load_idx",
    "load_csv",
    "read_text",
    "write_idx_images",
    "write_idx_labels",
    "minibatches",
    "invert_features",
    "generate_eeg",
    "split_last",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

TARGET_KINDS = ("class", "vector", "self")


@dataclass
class Dataset:
    features: np.ndarray
    targets: np.ndarray | None
    target_kind: str
    n_classes: int | None = None
    train_idx: np.ndarray = field(default=None)
    valid_idx: np.ndarray = field(default=None)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        n = len(self.features)
        if self.target_kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.target_kind!r}")
        if self.target_kind == "self":
            self.targets = None
        elif self.target_kind == "class":
            self.targets = np.asarray(self.targets, dtype=np.int64)
            if self.targets.shape != (n,):
                raise ValueError("class targets must be one label per row")
            if self.n_classes is None:
                self.n_classes = int(self.targets.max()) + 1 if n else 0
            if n and (self.targets.min() < 0 or self.targets.max() >= self.n_classes):
                raise ValueError("class index out of range")
        else:
            self.targets = np.asarray(self.targets, dtype=float)
            if self.targets.ndim != 2 or len(self.targets) != n:
                raise ValueError("vector targets must be a 2-D array, one row per feature row")
        if self.train_idx is None:
            self.train_idx = np.arange(n)
        if self.valid_idx is None:
            self.valid_idx = np.empty(0, dtype=np.int64)
        self.train_idx = np.asarray(self.train_idx, dtype=np.int64)
        self.valid_idx = np.asarray(self.valid_idx, dtype=np.int64)
        if np.intersect1d(self.train_idx, self.valid_idx).size:
            raise ValueError("train and validation splits overlap")

    def __len__(self):
        return len(self.features)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_outputs(self) -> int:
        if self.target_kind == "class":
            return self.n_classes
        if self.target_kind == "vector":
            return self.targets.shape[1]
        return self.n_features

    def target_batch(self, idx):
        """Targets aligned with features[idx]; the features themselves for self."""
        if self.target_kind == "self":
            return self.features[idx]
        return self.targets[idx]


def split_last(n, n_valid):
    """First n - n_valid indices train, last n_valid validate."""
    if not (0 <= n_valid <= n):
        raise ValueError("validation size out of range")
    return np.arange(n - n_valid), np.arange(n - n_valid, n)


# ---------------------------------------------------------------------------
# IDX format
# ---------------------------------------------------------------------------


def _read_idx(path, magic, n_dims):
    with open(path, "rb") as fh:
        head = fh.read(4 * (1 + n_dims))
        if len(head) < 4 * (1 + n_dims):
            raise ValueError(f"{path}: truncated header")
        words = struct.unpack(f">{1 + n_dims}i", head)
        if words[0] != magic:
            raise ValueError(f"{path}: bad magic {words[0]:#010x}, expected {magic:#010x}")
        shape = words[1:]
        payload = fh.read()
    expected = int(np.prod(shape))
    if len(payload) < expected:
        raise ValueError(f"{path}: truncated payload ({len(payload)} < {expected} bytes)")
    if len(payload) > expected:
        raise ValueError(f"{path}: {len(payload) - expected} trailing bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def load_idx(images_path, labels_path, n_valid=0) -> Dataset:
    """MNIST-style pair of IDX files; pixels scaled to [0,1] by /255."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if len(images) != len(labels):
        raise ValueError(
            f"image count {len(images)} != label count {len(labels)}"
        )
    features = images.reshape(len(images), -1).astype(float) / 255.0
    train_idx, valid_idx = split_last(len(images), n_valid)
    return Dataset(features, labels, "class", None, train_idx, valid_idx)


def write_idx_images(path, images) -> None:
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("expected (N, rows, cols) uint8 images")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4i", IDX_IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">2i", IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.tobytes())


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _normalize_columns(values):
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = hi - lo
    out = np.zeros_like(values)
    ok = span > 0
    out[:, ok] = (values[:, ok] - lo[ok]) / span[ok]  # constant columns map to 0
    return out


def read_text(path) -> str:
    """The whole file as UTF-8 text; ValueError, naming the file, if it is unreadable or not UTF-8.

    The file is decoded in one piece, so the error gives the offending
    byte's offset in the file.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror}") from e
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text at byte {e.start}") from e


def load_csv(path, target_columns=None, has_header=False, n_valid=0) -> Dataset:
    """Rectangular numeric CSV of finite cells; features min-max normalized per column.

    target_columns picks out raw (unnormalized) regression targets by index:
    a non-empty list of distinct columns that leaves at least one feature
    column. With None the dataset is an autoencoding task over all columns.
    """
    rows = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    for line_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if has_header and line_no == 1:
            continue
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}:{line_no}: {len(row)} cells, expected {len(rows[0])}")
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise ValueError(f"{path}:{line_no}: non-numeric cell") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}:{line_no}: non-finite cell")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    table = np.asarray(rows, dtype=float)
    if target_columns is not None:
        target_columns = list(target_columns)
        if not target_columns:
            raise ValueError(f"{path}: empty target column list")
        if any(not (0 <= c < width) for c in target_columns):
            raise ValueError(f"{path}: target column index out of range")
        if len(set(target_columns)) != len(target_columns):
            raise ValueError(f"{path}: duplicate target column in {target_columns}")
        if len(target_columns) == width:
            raise ValueError(f"{path}: target columns {target_columns} leave no feature column")
        feat_cols = [c for c in range(width) if c not in target_columns]
        features = _normalize_columns(table[:, feat_cols])
        targets = table[:, target_columns]
        kind = "vector"
    else:
        features = _normalize_columns(table)
        targets = None
        kind = "self"
    train_idx, valid_idx = split_last(len(table), n_valid)
    return Dataset(features, targets, kind, None, train_idx, valid_idx)


# ---------------------------------------------------------------------------
# Iteration and inversion
# ---------------------------------------------------------------------------


def minibatches(ds: Dataset, batch_size, rng):
    """One shuffled pass over the training split; last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = rng.permutation(ds.train_idx)
    for lo in range(0, len(order), batch_size):
        yield order[lo : lo + batch_size]


def invert_features(ds: Dataset) -> Dataset:
    """The dataset with every feature x replaced by 1 - x.

    Autoencoding targets follow the features; the splits stay the same.
    """
    if ds.features.min() < 0.0 or ds.features.max() > 1.0:
        raise ValueError("inversion expects features in [0, 1]")
    return replace(ds, features=1.0 - ds.features)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


EEG_SOURCES = 8  # shared sine sources behind the channels of generate_eeg
EEG_NOISE = 0.05  # standard deviation of its white noise, before normalization


def generate_eeg(n_samples, n_channels=56, seed=0, n_valid=0) -> Dataset:
    """Correlated multichannel sinusoid mixtures, per-channel min-maxed to [0,1].

    Channels are random linear mixtures of a few shared sine sources plus
    white noise, an autoencoding task. Exact [0,1] endpoints per channel make
    a full-precision CSV round trip through load_csv bit-identical.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples to span [0, 1]")
    if n_channels < 1:
        raise ValueError(f"need at least 1 channel, got {n_channels}")
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / 128.0  # nominal sample rate
    freqs = rng.uniform(0.5, 30.0, size=EEG_SOURCES)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=EEG_SOURCES)
    sources = np.sin(2.0 * np.pi * freqs * t[:, None] + phases)
    mixing = rng.standard_normal((n_channels, EEG_SOURCES))
    x = sources @ mixing.T + EEG_NOISE * rng.standard_normal((n_samples, n_channels))
    x = _normalize_columns(x)
    train_idx, valid_idx = split_last(n_samples, n_valid)
    return Dataset(x, None, "self", None, train_idx, valid_idx)
