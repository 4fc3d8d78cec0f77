"""The benchmark workloads and their set-up.

Each workload is one of the roadmap's fixed shapes trained by one algorithm.
Set-up builds everything a training run needs before its first step: the
corpus (through the data layer), the sparse masks, the network and its
initial parameters, the output model and the optimizer state. All of it is
derived from the seed, so the same seed gives the same inputs and the same
initial state.
"""

import tempfile
import time
from dataclasses import dataclass

import numpy as np

from qdgrad import data, network, optim, outputs

MNIST_SIDE = 28
MNIST_CLASSES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple
    activation: str
    output: str
    algo: str
    eta: float
    batch: int
    n_train: int  # a multiple of batch, so every timed step has the same batch size
    n_valid: int
    nll_ceiling: float  # the final held-out NLL must be below this
    fan_in: int | None = None
    dropout: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's MNIST net: dense GEMMs on a 1.28M-dim theta, one
        # backprop and one qd_batch_terms per step.
        Workload("mnist800-qdop", (784, 800, 800, 10), "sigmoid", "categorical",
                 "qdop", eta=3e-4, batch=500, n_train=6000, n_valid=1000,
                 nll_ceiling=0.5),
        # The sparse deep tanh net: the only workload with masks, dropout
        # and Monte-Carlo pseudo-targets. Batch 200 instead of the config's
        # 500 so that one run holds well over 100 timed steps on a slow machine.
        Workload("sparse-tanh-qdmcnat", (784, 2560, 1280, 640, 320, 160, 80, 40, 20, 10),
                 "tanh", "categorical", "qdmcnat", eta=0.01, batch=200,
                 n_train=6000, n_valid=1000, nll_ceiling=0.5,
                 fan_in=10, dropout=0.2),
    )
}


def generate_digits(n, seed):
    """MNIST-shaped corpus: (n, 28, 28) uint8 images and (n,) labels.

    Each class has a prototype made of a few Gaussian strokes; a sample is
    its class prototype shifted by up to two pixels each way, rescaled in
    intensity and overlaid with noise.
    """
    rng = np.random.default_rng([seed, 1])
    grid = np.arange(MNIST_SIDE, dtype=float)
    n_strokes = 4
    cy = rng.uniform(6, 22, size=(MNIST_CLASSES, n_strokes, 1, 1))
    cx = rng.uniform(6, 22, size=(MNIST_CLASSES, n_strokes, 1, 1))
    width = rng.uniform(1.5, 4.0, size=(MNIST_CLASSES, n_strokes, 1, 1))
    blobs = np.exp(-((grid[:, None] - cy) ** 2 + (grid[None, :] - cx) ** 2) / (2 * width**2))
    protos = np.minimum(blobs.sum(axis=1), 1.0) * 255.0  # (classes, 28, 28)
    shifts = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)]
    shifted = np.stack([np.roll(protos, s, axis=(1, 2)) for s in shifts], axis=1)
    labels = rng.integers(0, MNIST_CLASSES, size=n)
    which = rng.integers(0, len(shifts), size=n)
    scale = rng.uniform(0.7, 1.0, size=(n, 1, 1))
    noise = rng.normal(0.0, 30.0, size=(n, MNIST_SIDE, MNIST_SIDE))
    images = np.clip(shifted[labels, which] * scale + noise, 0, 255).astype(np.uint8)
    return images, labels.astype(np.uint8)


def load_corpus(w: Workload, seed, scratch_dir) -> data.Dataset:
    """The workload's dataset, produced and read back through the data layer."""
    n = w.n_train + w.n_valid
    images, labels = generate_digits(n, seed)
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        img_path, lbl_path = f"{tmp}/images-idx3-ubyte", f"{tmp}/labels-idx1-ubyte"
        data.write_idx_images(img_path, images)
        data.write_idx_labels(lbl_path, labels)
        return data.load_idx(img_path, lbl_path, n_valid=w.n_valid)


@dataclass
class Setup:
    ds: data.Dataset
    net: network.Network
    model: outputs.OutputModel
    state: optim.OptimizerState
    cfg: optim.OptimizerConfig
    rng: np.random.Generator
    data_s: float  # corpus generation and load
    build_s: float  # masks, Network, init_params
    total_s: float  # everything before the first step


def build(w: Workload, seed, scratch_dir) -> Setup:
    """Everything a run needs before its first step, timed by phase."""
    t0 = time.perf_counter()
    ds = load_corpus(w, seed, scratch_dir)
    t1 = time.perf_counter()
    rng = np.random.default_rng(seed)
    masks = None
    if w.fan_in is not None:
        masks = network.make_sparse_layout(list(w.sizes), w.fan_in, rng)
    net = network.Network(w.sizes, w.activation, masks=masks, dropout=w.dropout)
    net.init_params(rng)
    t2 = time.perf_counter()
    model = outputs.make_output_model(w.output, w.sizes[-1])
    cfg = optim.OptimizerConfig(w.algo, w.eta)  # default n_mc=1, as in the sparse config
    state = optim.OptimizerState(net, cfg)
    t3 = time.perf_counter()
    return Setup(ds, net, model, state, cfg, rng, t1 - t0, t2 - t1, t3 - t0)
