"""Output models: loss, gradients, pseudo-target sampling, Fisher seeds.

The network's last layer is linear; each model owns its link function. For
the categorical model the network output holds softmax logits, for the
Bernoulli model per-unit logits, and for the Gaussian model the mean itself.

All methods take batches: y has shape (B, K), targets are (B,) class
indices for the categorical model and (B, K) vectors otherwise, and the
results have one row or entry per sample. One sample is a one-row batch.

Fisher seeds are backprop vectors g such that the model's per-sample Fisher
contribution is sum over terms of weight * (J^T g)(J^T g)^T, where J^T g is
what backprop returns for output-layer seed g.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import logsumexp

from .network import sigmoid

__all__ = [
    "FisherTerm",
    "OutputModel",
    "CategoricalOutput",
    "GaussianOutput",
    "BernoulliOutput",
    "OUTPUT_MODELS",
    "make_output_model",
]

BERNOULLI_CLAMP = 1e-7
SIGMA_FLOOR = 1.0 / 256.0


@dataclass
class FisherTerm:
    """One rank-one component of the exact Fisher decomposition.

    seed: (B, K) output-layer backprop seed per sample.
    weight: scalar or (B,) nonnegative coefficient alpha.
    """

    seed: np.ndarray
    weight: np.ndarray | float


class OutputModel:
    """The interface of the concrete output models."""

    k: int
    kind: str

    def loss(self, y, t):
        raise NotImplementedError

    def loss_output_grad(self, y, t):
        raise NotImplementedError

    def sample_pseudo_target(self, y, rng):
        raise NotImplementedError

    def enumerate_fisher_terms(self, y):
        raise NotImplementedError


class CategoricalOutput(OutputModel):
    """Softmax over K classes with log-loss."""

    kind = "categorical"

    def __init__(self, k: int):
        self.k = int(k)

    def probs(self, y):
        z = y - np.max(y, axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        return p

    def loss(self, y, t):
        t = np.asarray(t, dtype=np.int64)
        if np.any(t < 0) or np.any(t >= self.k):
            raise ValueError("class index out of range")
        return logsumexp(y, axis=1) - y[np.arange(len(t)), t]

    def loss_output_grad(self, y, t):
        t = np.asarray(t, dtype=np.int64)
        g = np.ascontiguousarray(self.probs(y))  # backprop's rounding depends on memory order
        g[np.arange(len(t)), t] -= 1.0
        return g

    def sample_pseudo_target(self, y, rng):
        p = self.probs(y)
        cdf = np.cumsum(p, axis=1)
        u = rng.random((len(p), 1))
        return np.minimum((u > cdf).sum(axis=1), self.k - 1).astype(np.int64)

    def enumerate_fisher_terms(self, y):
        p = self.probs(y)
        terms = []
        for c in range(self.k):
            seed = p.copy()
            seed[:, c] -= 1.0
            terms.append(FisherTerm(seed, p[:, c]))
        return terms

    def error(self, y, t):
        return (np.argmax(y, axis=1) != np.asarray(t, dtype=np.int64)).astype(float)


class GaussianOutput(OutputModel):
    """Diagonal Gaussian with fixed or learned per-output standard deviation.

    The network output is the mean. Learned mode keeps log sigma_k as extra
    parameters outside the metric blocks, updated by plain SGD and floored
    at sigma >= 1/256.
    """

    kind = "gaussian"

    def __init__(self, k: int, sigma=1.0, learn_variance: bool = False):
        self.k = int(k)
        self.learn_variance = bool(learn_variance)
        sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (self.k,)).copy()
        if np.any(sigma < SIGMA_FLOOR):
            raise ValueError(f"sigma below floor {SIGMA_FLOOR}")
        self.log_sigma = np.log(sigma)

    @property
    def sigma(self):
        return np.exp(self.log_sigma)

    def loss(self, y, t):
        s2 = np.exp(2.0 * self.log_sigma)
        r = y - t
        nll = 0.5 * np.sum(r * r / s2, axis=1)
        nll += np.sum(self.log_sigma) + 0.5 * self.k * np.log(2.0 * np.pi)
        return nll

    def loss_output_grad(self, y, t):
        return (y - t) / np.exp(2.0 * self.log_sigma)

    def sample_pseudo_target(self, y, rng):
        return y + self.sigma * rng.standard_normal(y.shape)

    def enumerate_fisher_terms(self, y):
        inv_s2 = np.exp(-2.0 * self.log_sigma)
        terms = []
        for c in range(self.k):
            seed = np.zeros((len(y), self.k))
            seed[:, c] = 1.0
            terms.append(FisherTerm(seed, float(inv_s2[c])))
        return terms

    def error(self, y, t):
        return np.mean((y - t) ** 2, axis=1)

    # -- learned-variance extras -------------------------------------------

    def variance_grad(self, y, t):
        """d loss / d log sigma_k, per sample."""
        return 1.0 - (y - t) ** 2 * np.exp(-2.0 * self.log_sigma)

    def variance_step(self, grad_mean, eta):
        if not self.learn_variance:
            return
        self.log_sigma = self.log_sigma - eta * np.asarray(grad_mean, dtype=float)
        # projection keeps sigma at or above the quantization floor
        np.maximum(self.log_sigma, np.log(SIGMA_FLOOR), out=self.log_sigma)


class BernoulliOutput(OutputModel):
    """Independent Bernoulli units; network output holds per-unit logits."""

    kind = "bernoulli"

    def __init__(self, k: int):
        self.k = int(k)

    def probs(self, y):
        return np.clip(sigmoid(y), BERNOULLI_CLAMP, 1.0 - BERNOULLI_CLAMP)

    def loss(self, y, t):
        p = self.probs(y)
        return -np.sum(t * np.log(p) + (1.0 - t) * np.log1p(-p), axis=1)

    def loss_output_grad(self, y, t):
        # exact d/d logit of the unclamped loss; the clamp only guards logs
        return sigmoid(y) - t

    def sample_pseudo_target(self, y, rng):
        p = self.probs(y)
        return (rng.random(p.shape) < p).astype(float)

    def enumerate_fisher_terms(self, y):
        # Unit k contributes (1 / p(1-p)) (J^T s)(J^T s)^T with s the
        # derivative of the unit's mean w.r.t. its logit, p(1-p) e_k.
        p = self.probs(y)
        var = p * (1.0 - p)
        terms = []
        for c in range(self.k):
            seed = np.zeros((len(p), self.k))
            seed[:, c] = var[:, c]
            terms.append(FisherTerm(seed, 1.0 / var[:, c]))
        return terms

    def error(self, y, t):
        return np.mean((self.probs(y) - t) ** 2, axis=1)


# kind -> constructor taking the output width
OUTPUT_MODELS = {
    "categorical": CategoricalOutput,
    "gaussian": GaussianOutput,
    "gaussian-learned": partial(GaussianOutput, learn_variance=True),
    "bernoulli": BernoulliOutput,
}


def make_output_model(kind: str, k: int) -> OutputModel:
    if kind not in OUTPUT_MODELS:
        raise ValueError(f"unknown output model {kind!r}")
    return OUTPUT_MODELS[kind](k)
