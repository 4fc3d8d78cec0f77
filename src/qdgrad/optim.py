"""Optimizers: SGD, AdaGrad, and the diagonal / quasi-diagonal family.

The six metric-based variants combine two storage modes with three ways of
seeding the metric from output-space vectors:

    op      per-sample gradient of the realized loss (actual targets)
    mcnat   gradients against pseudo-targets drawn from the model itself
    nat     the model's exact per-output Fisher decomposition

Every variant preconditions the same minibatch mean gradient; they differ
only in the matrix M they maintain. M follows a decayed moving average
M <- (1-gamma) M + gamma M_minibatch, with gamma = 1 on the first minibatch.
AdaGrad keeps the identical accumulator as the diagonal op variant but
applies exponent -1/2 instead of -1 in the preconditioner.
"""

from dataclasses import dataclass

import numpy as np

from .metric import QDMetric, axpy

__all__ = [
    "ALGOS",
    "OptimizerConfig",
    "OptimizerState",
    "StepReport",
    "DivergenceError",
    "optimizer_step",
]

ALGOS = ("sgd", "adagrad", "dop", "qdop", "dmcnat", "qdmcnat", "dnat", "qdnat")


class DivergenceError(RuntimeError):
    """A step produced a non-finite quantity, named in the message; nothing was written."""

    def __init__(self, message, eta=None):
        super().__init__(message)
        self.eta = eta


@dataclass
class OptimizerConfig:
    algo: str
    eta: float
    gamma: float = 0.01
    epsilon: float = 1e-8
    n_mc: int = 1

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be a positive finite step-size")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be a nonnegative finite number")
        if self.n_mc < 1:
            raise ValueError("n_mc must be at least 1")

    @property
    def quasi(self) -> bool:
        return self.algo.startswith("qd")

    @property
    def needs_metric(self) -> bool:
        return self.algo != "sgd"


class OptimizerState:
    """Owns the metric and the dim-sized arrays of a step, allocated once.

    grad is the minibatch mean gradient and direction the preconditioned
    one (sgd steps along grad). spare is the (diag, row) pair that the next
    metric is built in, row None in diagonal mode: the step writes the
    minibatch metric terms there and forms the moving average in place,
    and once the step has succeeded the metric takes the pair over and its
    old arrays become the next spare. A step that raises has written only
    to these scratch arrays.
    """

    def __init__(self, net, cfg: OptimizerConfig):
        dim = net.layout.dim
        self.grad = np.empty(dim)
        self.metric = self.direction = self.spare = None
        if cfg.needs_metric:
            self.metric = QDMetric(net.layout, quasi=cfg.quasi)
            self.direction = np.empty(dim)
            self.spare = (np.empty(dim), np.empty(dim) if cfg.quasi else None)
        self.t = 0  # completed parameter updates

    def commit(self, metric: QDMetric) -> None:
        """Keep metric, built in the spare pair, and make the old pair the spare."""
        old = self.metric
        self.spare = (old.diag, old.row)
        self.metric = metric


@dataclass
class StepReport:
    loss: float
    grad_norm: float
    step_norm: float


def _delta_sets(cfg) -> int:
    """Sets of backprop deltas a step of cfg keeps alive at once.

    The gradient's; for mcnat and nat the first metric term's too, whose
    weighted squares the later terms add to, one at a time.
    """
    if cfg.algo in ("sgd", "adagrad", "dop", "qdop"):
        return 1
    return 2 if cfg.algo.endswith("mcnat") and cfg.n_mc == 1 else 3


def _metric_batch(net, model, trace, grad_deltas, cfg, rng, out=None):
    """Minibatch-averaged metric contribution (diag, row) for cfg.algo.

    Each algorithm lists its (output seed, weight) terms, a weight being a
    scalar or one per sample; adagrad and the op variants use the
    gradient's deltas, grad_deltas. The metric depends on the terms only
    through the sum of weight * deltas**2 per layer, so that sum is formed
    first, in place over the first term's deltas (grad_deltas included),
    and the activation products run once, however many terms there are.
    The later terms' deltas reuse one region of the trace's scratch. The
    terms are written to out, a (diag, row) pair, if given.
    """
    y = trace.pre_activations[-1]
    b = y.shape[0]
    if cfg.algo in ("adagrad", "dop", "qdop"):
        terms = [(None, 1.0 / b)]
    elif cfg.algo in ("dmcnat", "qdmcnat"):
        terms = ((model.loss_output_grad(y, model.sample_pseudo_target(y, rng)),
                  1.0 / (b * cfg.n_mc)) for _ in range(cfg.n_mc))
    else:  # dnat, qdnat
        terms = ((term.seed, term.weight / b) for term in model.enumerate_fisher_terms(y))

    def weighted_squares(seed, w):
        deltas = grad_deltas if seed is None else net.backprop_deltas(trace, seed)
        w = np.reshape(w, (-1, 1))
        for d in deltas:
            np.multiply(w, np.square(d, out=d), out=d)  # w * d**2
        return deltas

    terms = iter(terms)
    sq_deltas = weighted_squares(*next(terms))
    for seed, w in terms:
        with trace.scratch.released():
            for q, d in zip(sq_deltas, weighted_squares(seed, w)):
                q += d
    return net.qd_batch_terms(trace, sq_deltas, quasi=cfg.quasi, out=out)


def _finite(a) -> bool:
    """True for None (a quantity the step does not have) and for all-finite values."""
    return a is None or bool(np.isfinite(a).all())


def optimizer_step(net, model, inputs, targets, state, cfg, rng=None) -> StepReport:
    """One minibatch update; raises DivergenceError instead of writing NaNs.

    Order of operations: forward and backprop under the current parameters,
    then the candidate metric, the preconditioned direction and the learned
    output variances' gradient, then the finiteness check, and only then
    the writes: parameters, metric, learned output variances (a plain SGD
    step with the same eta) and the step count. A step that raises leaves
    all of them as they were. The batch-sized arrays of the step live in
    net.scratch. An empty batch raises ValueError before any work.
    """
    if len(inputs) == 0:
        raise ValueError("a step needs at least one sample")
    # overflow here surfaces as a DivergenceError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        scratch = net.reset_scratch(len(inputs), "train", _delta_sets(cfg))
        trace = net.forward(inputs, mode="train", rng=rng, scratch=scratch)
        y = trace.output
        b = y.shape[0]
        loss = float(np.mean(model.loss(y, targets)))
        grad_deltas = net.backprop_deltas(trace, model.loss_output_grad(y, targets))
        grad_mean = net.grad_from_deltas(trace, grad_deltas, out=state.grad)
        grad_mean /= b

        theta = net.get_params()
        metric = vgrad = None
        if cfg.algo == "sgd":
            direction = grad_mean
        else:
            diag, row = _metric_batch(net, model, trace, grad_deltas, cfg, rng, state.spare)
            metric = state.metric.updated(diag, row, cfg.gamma)
            direction = state.direction
            if cfg.algo == "adagrad":
                np.add(metric.diag, cfg.epsilon, out=direction)
                np.sqrt(direction, out=direction)
                np.divide(grad_mean, direction, out=direction)
            else:
                metric.solve(grad_mean, cfg.epsilon, out=direction)
        if getattr(model, "learn_variance", False):
            vgrad = model.variance_grad(y, targets).mean(axis=0)
        report = StepReport(
            loss=loss,
            grad_norm=float(np.linalg.norm(grad_mean)),
            step_norm=float(cfg.eta * np.linalg.norm(direction)),
        )

    checks = [("loss", loss), ("update direction", direction), ("output variance gradient", vgrad)]
    if metric is not None:
        checks += [("metric diagonal", metric.diag), ("metric row", metric.row)]
    for name, value in checks:
        if not _finite(value):
            raise DivergenceError(f"non-finite {name}", eta=cfg.eta)
    axpy(theta, -cfg.eta, direction)  # theta -= eta * direction, bit for bit
    net.set_params(theta)
    if metric is not None:
        state.commit(metric)
    if vgrad is not None:
        model.variance_step(vgrad, cfg.eta)
    state.t += 1
    return report
