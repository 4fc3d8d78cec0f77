"""Output models: loss, gradients, pseudo-target sampling, Fisher seeds.

The network's last layer is linear; each model owns its link function. For
the categorical model the network output holds softmax logits, for the
Bernoulli model per-unit logits, and for the Gaussian model the mean itself.

All methods are batched: y has shape (B, K), targets are (B,) class indices
for the categorical model and (B, K) vectors otherwise. One-dimensional
inputs are promoted and the corresponding results squeezed back.

Fisher seeds are backprop vectors g such that the model's per-sample Fisher
contribution is sum over terms of weight * (J^T g)(J^T g)^T, where J^T g is
what backprop returns for output-layer seed g.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

__all__ = [
    "FisherTerm",
    "OutputModel",
    "CategoricalOutput",
    "GaussianOutput",
    "BernoulliOutput",
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


def _promote(y, t=None):
    """Lift 1-D y (and its target) to batch form; remember to squeeze back."""
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    if t is not None:
        t = np.asarray(t)
        if single:
            t = t[None, ...]
    return y, t, single


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
    target_kind = "class"

    def __init__(self, k: int):
        self.k = int(k)

    def probs(self, y):
        y, _, single = _promote(y)
        z = y - np.max(y, axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        return p[0] if single else p

    def loss(self, y, t):
        y, t, single = _promote(y, t)
        t = np.asarray(t, dtype=np.int64)
        if np.any(t < 0) or np.any(t >= self.k):
            raise ValueError("class index out of range")
        nll = logsumexp(y, axis=1) - y[np.arange(len(t)), t]
        return float(nll[0]) if single else nll

    def loss_output_grad(self, y, t):
        y, t, single = _promote(y, t)
        t = np.asarray(t, dtype=np.int64)
        g = self.probs(y).copy()
        g[np.arange(len(t)), t] -= 1.0
        return g[0] if single else g

    def sample_pseudo_target(self, y, rng):
        y, _, single = _promote(y)
        p = self.probs(y)
        cdf = np.cumsum(p, axis=1)
        u = rng.random((len(p), 1))
        t = np.minimum((u > cdf).sum(axis=1), self.k - 1).astype(np.int64)
        return t[0] if single else t

    def enumerate_fisher_terms(self, y):
        y, _, single = _promote(y)
        p = self.probs(y)
        terms = []
        for c in range(self.k):
            seed = p.copy()
            seed[:, c] -= 1.0
            weight = p[:, c]
            if single:
                terms.append(FisherTerm(seed[0], float(weight[0])))
            else:
                terms.append(FisherTerm(seed, weight))
        return terms

    def error(self, y, t):
        y, t, single = _promote(y, t)
        wrong = (np.argmax(y, axis=1) != np.asarray(t, dtype=np.int64)).astype(float)
        return float(wrong[0]) if single else wrong


class GaussianOutput(OutputModel):
    """Diagonal Gaussian with fixed or learned per-output standard deviation.

    The network output is the mean. Learned mode keeps log sigma_k as extra
    parameters outside the metric blocks, updated by plain SGD and floored
    at sigma >= 1/256.
    """

    kind = "gaussian"
    target_kind = "vector"

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
        y, t, single = _promote(y, t)
        t = np.asarray(t, dtype=float)
        s2 = np.exp(2.0 * self.log_sigma)
        r = y - t
        nll = 0.5 * np.sum(r * r / s2, axis=1)
        nll += np.sum(self.log_sigma) + 0.5 * self.k * np.log(2.0 * np.pi)
        return float(nll[0]) if single else nll

    def loss_output_grad(self, y, t):
        y, t, single = _promote(y, t)
        t = np.asarray(t, dtype=float)
        g = (y - t) / np.exp(2.0 * self.log_sigma)
        return g[0] if single else g

    def sample_pseudo_target(self, y, rng):
        y, _, single = _promote(y)
        t = y + self.sigma * rng.standard_normal(y.shape)
        return t[0] if single else t

    def enumerate_fisher_terms(self, y):
        y, _, single = _promote(y)
        b = len(y)
        inv_s2 = np.exp(-2.0 * self.log_sigma)
        terms = []
        for c in range(self.k):
            seed = np.zeros((b, self.k))
            seed[:, c] = 1.0
            w = float(inv_s2[c])
            terms.append(FisherTerm(seed[0] if single else seed, w))
        return terms

    def error(self, y, t):
        y, t, single = _promote(y, t)
        t = np.asarray(t, dtype=float)
        mse = np.mean((y - t) ** 2, axis=1)
        return float(mse[0]) if single else mse

    # -- learned-variance extras -------------------------------------------

    def variance_grad(self, y, t):
        """d loss / d log sigma_k, per sample."""
        y, t, single = _promote(y, t)
        t = np.asarray(t, dtype=float)
        r2 = (y - t) ** 2
        g = 1.0 - r2 * np.exp(-2.0 * self.log_sigma)
        return g[0] if single else g

    def variance_step(self, grad_mean, eta):
        if not self.learn_variance:
            return
        self.log_sigma = self.log_sigma - eta * np.asarray(grad_mean, dtype=float)
        # projection keeps sigma at or above the quantization floor
        np.maximum(self.log_sigma, np.log(SIGMA_FLOOR), out=self.log_sigma)


class BernoulliOutput(OutputModel):
    """Independent Bernoulli units; network output holds per-unit logits."""

    kind = "bernoulli"
    target_kind = "vector"

    def __init__(self, k: int):
        self.k = int(k)

    def probs(self, y):
        y, _, single = _promote(y)
        p = np.clip(expit(y), BERNOULLI_CLAMP, 1.0 - BERNOULLI_CLAMP)
        return p[0] if single else p

    def loss(self, y, t):
        y, t, single = _promote(y, t)
        t = np.asarray(t, dtype=float)
        p = self.probs(y)
        nll = -np.sum(t * np.log(p) + (1.0 - t) * np.log1p(-p), axis=1)
        return float(nll[0]) if single else nll

    def loss_output_grad(self, y, t):
        # exact d/d logit of the unclamped loss; the clamp only guards logs
        y, t, single = _promote(y, t)
        t = np.asarray(t, dtype=float)
        g = expit(y) - t
        return g[0] if single else g

    def sample_pseudo_target(self, y, rng):
        y, _, single = _promote(y)
        p = self.probs(y)
        t = (rng.random(p.shape) < p).astype(float)
        return t[0] if single else t

    def enumerate_fisher_terms(self, y):
        # Unit k contributes (1 / p(1-p)) (J^T s)(J^T s)^T with s the
        # derivative of the unit's mean w.r.t. its logit, p(1-p) e_k.
        y, _, single = _promote(y)
        p = self.probs(y)
        var = p * (1.0 - p)
        b = len(p)
        terms = []
        for c in range(self.k):
            seed = np.zeros((b, self.k))
            seed[:, c] = var[:, c]
            w = 1.0 / var[:, c]
            if single:
                terms.append(FisherTerm(seed[0], float(w[0])))
            else:
                terms.append(FisherTerm(seed, w))
        return terms

    def error(self, y, t):
        y, t, single = _promote(y, t)
        t = np.asarray(t, dtype=float)
        p = self.probs(y)
        mse = np.mean((p - t) ** 2, axis=1)
        return float(mse[0]) if single else mse


def make_output_model(kind: str, k: int) -> OutputModel:
    if kind == "categorical":
        return CategoricalOutput(k)
    if kind == "gaussian":
        return GaussianOutput(k)
    if kind == "gaussian-learned":
        return GaussianOutput(k, learn_variance=True)
    if kind == "bernoulli":
        return BernoulliOutput(k)
    raise ValueError(f"unknown output model {kind!r}")
