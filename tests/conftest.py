"""Shared fixtures: a deterministic MNIST-shaped classification corpus.

Ten fixed glyph templates (random solid strokes per class) are jittered by
small translations and pixel noise, then written through the real IDX
encoder so every test exercises the production loading path. Shapes and
filenames mirror the MNIST distribution.
"""

from pathlib import Path

import numpy as np
import pytest

from qdgrad.data import Dataset, load_idx, write_idx_images, write_idx_labels

N_IMAGES = 7000
N_VALID = 1000


def _glyph(digit):
    rng = np.random.default_rng(1000 + digit)
    t = np.zeros((28, 28))
    for _ in range(4):
        r, c = rng.integers(2, 18, size=2)
        h, w = rng.integers(5, 10, size=2)
        t[r : r + h, c : c + w] = 1.0
    return t


def write_mnist_like(directory):
    """Write the corpus as MNIST IDX files into directory; returns their paths."""
    rng = np.random.default_rng(42)
    labels = rng.integers(0, 10, size=N_IMAGES)
    glyphs = np.stack([_glyph(d) for d in range(10)])
    shifts = rng.integers(-3, 4, size=(N_IMAGES, 2))
    images = np.empty((N_IMAGES, 28, 28))
    for i in range(N_IMAGES):
        images[i] = np.roll(glyphs[labels[i]], tuple(shifts[i]), axis=(0, 1))
    images = images * 180.0 + rng.normal(0.0, 18.0, size=images.shape)
    images = np.clip(images, 0.0, 255.0).astype(np.uint8)
    paths = Path(directory) / "train-images-idx3-ubyte", Path(directory) / "train-labels-idx1-ubyte"
    write_idx_images(paths[0], images)
    write_idx_labels(paths[1], labels.astype(np.uint8))
    return paths


def write_csv(path, array):
    """Full-precision dump of an (N, D) array, one row per line, for load_csv."""
    np.savetxt(path, np.asarray(array, dtype=float), fmt="%.17g", delimiter=",")


def subset(ds, n_train, n_valid=0):
    """The first n_train rows for training and the next n_valid for validation."""
    n = n_train + n_valid
    assert n <= len(ds)
    return Dataset(ds.features[:n], ds.targets[:n], "class", 10,
                   np.arange(n_train), np.arange(n_train, n))


@pytest.fixture(scope="session")
def mnist_like_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mnist_like")
    write_mnist_like(d)
    return d


@pytest.fixture(scope="session")
def mnist_like(mnist_like_dir):
    return load_idx(
        mnist_like_dir / "train-images-idx3-ubyte",
        mnist_like_dir / "train-labels-idx1-ubyte",
        n_valid=N_VALID,
    )


@pytest.fixture(scope="session")
def subset_of(mnist_like):
    """Factory for prefix subsets: subset_of(n_train, n_valid) -> Dataset."""

    def make(n_train, n_valid=0):
        return subset(mnist_like, n_train, n_valid)

    return make
