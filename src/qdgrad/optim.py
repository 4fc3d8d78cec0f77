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

from .metric import CHUNK_FLOATS, TERM_SCALE, QDMetric, StepSolve, axpy

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
    """Owns the metric and the arrays of a step, allocated once.

    grad is the minibatch mean gradient and direction the preconditioned
    one (sgd steps along grad). spare is a second QDMetric that the next
    metric is built in: the step writes the minibatch metric terms there,
    and the solve forms the moving average in place, chunk by chunk; once
    the step has succeeded, metric and spare swap. chunks is the solve's
    chunk-sized scratch. A step that raises has written only to these
    scratch arrays.
    """

    def __init__(self, net, cfg: OptimizerConfig):
        dim = net.layout.dim
        self.grad = np.empty(dim)
        self.metric = self.direction = self.spare = self.chunks = None
        if cfg.needs_metric:
            self.metric = QDMetric(net.layout, quasi=cfg.quasi)
            self.direction = np.empty(dim)
            self.spare = QDMetric(net.layout, quasi=cfg.quasi)
            self.chunks = np.empty((3, max(CHUNK_FLOATS, int(net.layout.lengths.max()))))
        self.t = 0  # completed parameter updates


@dataclass
class StepReport:
    loss: float
    grad_norm: float
    step_norm: float


def _metric_batch(net, model, trace, grad_deltas, cfg, rng, out, grad_out):
    """The batch's summed gradient and its averaged metric terms for cfg.algo.

    Each algorithm lists its (output seed, weight) terms, a weight being a
    scalar or one per sample; adagrad and the op variants use the
    gradient's deltas, grad_deltas. The metric depends on the terms only
    through q, the sum of weight * deltas**2 per layer, so q is formed
    first, in place, and the activation products run once, however many
    terms there are. A term with a seed of its own backprops into one
    released region of the trace's scratch, so a step holds at most two
    sets of deltas. The gradient is written to grad_out and the terms to
    out, a (diag, row) pair, which is returned. Each weight is taken times
    metric.TERM_SCALE (2**64), so q and the terms come out 2**64 times
    their value, normal numbers where w * d**2 would be subnormal, and
    StepSolve's blend scales them back (metric.TERM_EXP says why, and
    which terms overflow).

    Where q lives. A metric of one seed of its own (dmcnat and qdmcnat at
    n_mc = 1) forms q over that seed's deltas. The gradient's deltas then
    stay whole, and one qd_batch_terms call writes the gradient with the
    terms, so a masked layer gathers its activation rows once. Every other
    metric takes the gradient first and then forms q over the gradient's
    deltas, which it no longer needs. The op variants' q is those deltas
    squared, and a set of its own would touch scratch that their step
    leaves untouched (6.4 MB on the paper's MNIST net at batch 500). A
    metric of K > 1 terms needs the second set for each later seed, and a
    step holds no third.
    """
    y = trace.output
    b = y.shape[0]
    if cfg.algo in ("dmcnat", "qdmcnat") and cfg.n_mc == 1:
        seed = model.loss_output_grad(y, model.sample_pseudo_target(y, rng))
        with trace.scratch.released():
            q = net.backprop_deltas(trace, seed)
            for d in q:
                np.multiply(TERM_SCALE / b, np.square(d, out=d), out=d)  # w * d**2, scaled
            return net.qd_batch_terms(trace, q, out, grad=(grad_deltas, grad_out))

    # first, so that its gather buffer and the terms' seeds are not held at once
    net.grad_from_deltas(trace, grad_deltas, out=grad_out)
    if cfg.algo in ("adagrad", "dop", "qdop"):
        terms = [(None, TERM_SCALE / b)]
    elif cfg.algo in ("dmcnat", "qdmcnat"):
        terms = ((model.loss_output_grad(y, model.sample_pseudo_target(y, rng)),
                  TERM_SCALE / (b * cfg.n_mc)) for _ in range(cfg.n_mc))
    else:  # dnat, qdnat
        terms = ((term.seed, term.weight * TERM_SCALE / b)
                 for term in model.enumerate_fisher_terms(y))

    for i, (seed, w) in enumerate(terms):
        with trace.scratch.released():
            deltas = grad_deltas if seed is None else net.backprop_deltas(trace, seed)
            w = np.reshape(w, (-1, 1))
            for q, d in zip(grad_deltas, deltas):
                # w * d**2: the first term's over q, each later one added to it
                np.multiply(w, np.square(d, out=d), out=d if i else q)
                if i:
                    q += d
    return net.qd_batch_terms(trace, grad_deltas, out)


def _finite(a) -> bool:
    """True for None (a quantity the step does not have) and for all-finite values."""
    return a is None or bool(np.isfinite(a).all())


def optimizer_step(net, model, inputs, targets, state, cfg, rng=None) -> StepReport:
    """One minibatch update; raises DivergenceError instead of writing NaNs.

    Order of operations: forward and backprop under the current parameters,
    the minibatch gradient and metric terms (_metric_batch says in which
    order), then one pass over theta-sized chunks that builds the
    candidate metric in state.spare, solves for the preconditioned
    direction and checks both (QDMetric.solve with a StepSolve), and the
    learned output variances' gradient. The first step (state.t == 0)
    sets the metric to the minibatch's terms. Only once every check has
    passed come the writes: the parameters, updated in place in a second
    pass, the metric (a swap of state.metric and state.spare), the learned
    output variances (a plain SGD step with the same eta) and the step
    count. A step that raises leaves all of them as they were. At
    epsilon = 0 a zero divisor in the solve is a non-finite update
    direction like any other. The batch-sized arrays of the step live in
    net.scratch. An empty batch raises ValueError before any work.
    """
    if len(inputs) == 0:
        raise ValueError("a step needs at least one sample")
    # overflow and zero divisors surface as a DivergenceError below, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        trace = net.forward(inputs, mode="train", rng=rng, scratch=net.scratch)
        y = trace.output
        b = y.shape[0]
        loss = float(np.mean(model.loss(y, targets)))
        grad_deltas = net.backprop_deltas(trace, model.loss_output_grad(y, targets))
        grad_mean = state.grad

        vgrad = None
        if cfg.algo == "sgd":
            net.grad_from_deltas(trace, grad_deltas, out=grad_mean)
            grad_mean /= b
            direction = grad_mean
            finite = [_finite(direction), True, True]
        else:
            new = state.spare
            _metric_batch(net, model, trace, grad_deltas, cfg, rng, (new.diag, new.row), grad_mean)
            g = 1.0 if state.t == 0 else cfg.gamma
            # divides grad_mean by b as it goes
            step = StepSolve(state.metric, g, b, state.chunks, root=cfg.algo == "adagrad")
            direction = new.solve(grad_mean, cfg.epsilon, out=state.direction, _step=step)
            finite = step.finite
        if getattr(model, "learn_variance", False):
            vgrad = model.variance_grad(y, targets).mean(axis=0)
        report = StepReport(
            loss=loss,
            grad_norm=float(np.linalg.norm(grad_mean)),
            step_norm=float(cfg.eta * np.linalg.norm(direction)),
        )

    checks = [("loss", _finite(loss)), ("update direction", finite[0]),
              ("output variance gradient", _finite(vgrad)),
              ("metric diagonal", finite[1]), ("metric row", finite[2])]
    for name, ok in checks:
        if not ok:
            raise DivergenceError(f"non-finite {name}")
    axpy(net.theta, -cfg.eta, direction)  # theta -= eta * direction, bit for bit
    net.version += 1  # as set_params does
    if state.spare is not None:
        state.metric, state.spare = state.spare, state.metric
    if vgrad is not None:
        model.variance_step(vgrad, cfg.eta)
    state.t += 1
    return report
