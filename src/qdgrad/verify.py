"""Built-in verification suites: quantified checks of the library's math.

Each suite builds its own fixtures from a fixed seed, measures the relevant
discrepancies, and returns a CheckResult with the numbers it saw, so both
the CLI and the test suite can assert on identical machinery. The dense
oracles the suites and the tests check the QD metric against live here
too: rank_one_update, qd_reduce and pairwise_solve_oracle.
"""

from dataclasses import dataclass

import numpy as np

from .metric import BlockLayout, MetricError, QDMetric
from .network import Network, to_inverted_inputs, to_tanh_equivalent
from .optim import OptimizerConfig, OptimizerState, optimizer_step
from .outputs import (
    BernoulliOutput,
    CategoricalOutput,
    GaussianOutput,
    make_output_model,
)

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict

    def summary(self) -> str:
        body = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.details.items())
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({body})"


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------


def _loss_mean(net, model, X, T):
    y = net.forward(X, mode="eval").output
    return float(np.mean(model.loss(y, T)))


def gradcheck_max_rel(net, model, X, T, n_coords, rng, h=1e-6):
    """Max relative error of backprop against central differences."""
    tr = net.forward(X, mode="eval")
    grad = net.backprop(tr, model.loss_output_grad(tr.output, T)) / len(X)
    theta0 = net.get_params()
    coords = rng.permutation(theta0.size)[:n_coords]
    worst = 0.0
    for i in coords:
        for sign in (1.0, -1.0):
            theta = theta0.copy()
            theta[i] += sign * h
            net.set_params(theta)
            if sign > 0:
                plus = _loss_mean(net, model, X, T)
            else:
                minus = _loss_mean(net, model, X, T)
        fd = (plus - minus) / (2.0 * h)
        rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-6)
        worst = max(worst, rel)
    net.set_params(theta0)
    return worst


def suite_gradcheck(seed=0, n_coords=100, tol=1e-5) -> CheckResult:
    """Backprop vs finite differences across activations and output heads."""
    rng = np.random.default_rng(seed)
    sizes = [8, 7, 5]  # 103 parameters, enough distinct coordinates
    worst = 0.0
    for activation in ("sigmoid", "tanh", "relu"):
        for kind in ("categorical", "gaussian", "bernoulli"):
            net = Network(sizes, activation)
            net.init_params(rng)
            net.set_params(0.8 * rng.standard_normal(net.layout.dim))
            model = make_output_model(kind, sizes[-1])
            X = rng.uniform(0.0, 1.0, size=(3, sizes[0]))
            if kind == "categorical":
                T = rng.integers(0, sizes[-1], size=3)
            elif kind == "gaussian":
                T = rng.standard_normal((3, sizes[-1]))
            else:
                T = rng.integers(0, 2, size=(3, sizes[-1])).astype(float)
            worst = max(worst, gradcheck_max_rel(net, model, X, T, n_coords, rng))
    return CheckResult("gradcheck", worst <= tol,
                       {"max_rel_err": worst, "tolerance": tol})


# ---------------------------------------------------------------------------
# QD solve against dense oracles
# ---------------------------------------------------------------------------


def rank_one_update(metric: QDMetric, v, alpha: float) -> None:
    """Add alpha * (v v^T) to metric, restricted to its retained entries.

    diag += alpha * v**2 everywhere; in QD mode the first row of each
    block picks up alpha * v_0 * v_i for i >= 1.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (metric.layout.dim,):
        raise MetricError("vector does not match layout")
    if not np.isfinite(alpha):
        raise MetricError("alpha must be finite")
    metric.diag += alpha * v * v
    if metric.quasi:
        for flat, count, length in metric.layout.groups():
            blk = v[flat : flat + count * length].reshape(count, length)
            if length > 1:
                r = metric.row[flat : flat + count * length].reshape(count, length)
                r[:, 1:] += alpha * blk[:, :1] * blk[:, 1:]


def qd_reduce(dense, layout: BlockLayout, quasi: bool = True) -> QDMetric:
    """Project a dense symmetric matrix onto its QD representation.

    Keeps the diagonal and, per block, the row of the bias entry.
    """
    dense = np.asarray(dense, dtype=float)
    if dense.shape != (layout.dim, layout.dim):
        raise MetricError("matrix does not match layout")
    m = QDMetric(layout, quasi=quasi)
    m.diag[:] = np.diagonal(dense)
    if quasi:
        for k in range(layout.n_blocks):
            sl = layout.block_slice(k)
            bias = sl.start
            m.row[sl.start + 1 : sl.stop] = dense[bias, sl.start + 1 : sl.stop]
    return m


def pairwise_solve_oracle(metric: QDMetric, v):
    """Independent per-pair reconstruction of the QD inverse action.

    For every block, each weight coordinate is solved jointly with the bias
    from its dense 2x2 subsystem; the bias then balances the full first row.
    """
    w = np.empty_like(v)
    for k in range(metric.layout.n_blocks):
        blk = metric.layout.block_slice(k)
        d = metric.diag[blk]
        r = metric.row[blk]
        vb = v[blk]
        n = len(d)
        wb = np.empty(n)
        for i in range(1, n):
            a = np.array([[d[0], r[i]], [r[i], d[i]]])
            wb[i] = np.linalg.solve(a, np.array([vb[0], vb[i]]))[1]
        wb[0] = (vb[0] - sum(r[i] * wb[i] for i in range(1, n))) / d[0]
        w[blk] = wb
    return w


def suite_qdsolve_oracle(seed=0, n_matrices=1000, tol_pair=1e-8,
                         tol_dense=1e-10) -> CheckResult:
    """Random rank-one-built QD matrices vs dense per-pair solves."""
    rng = np.random.default_rng(seed)
    worst_pair = 0.0
    worst_dense = 0.0
    for _ in range(n_matrices):
        lengths = rng.integers(2, 7, size=rng.integers(3, 7))
        layout = BlockLayout(lengths)
        m = QDMetric(layout, quasi=True)
        for _ in range(3 + rng.integers(0, 4)):
            rank_one_update(m, rng.standard_normal(layout.dim),
                            float(rng.uniform(0.2, 2.0)))
        v = rng.standard_normal(layout.dim)
        w = m.solve(v, 0.0)  # no clamp: denominators are genuinely positive
        ref = pairwise_solve_oracle(m, v)
        scale = np.maximum(np.abs(ref), 1e-12)
        worst_pair = max(worst_pair, float(np.max(np.abs(w - ref) / scale)))
        for k in range(layout.n_blocks):
            blk = layout.block_slice(k)
            if blk.stop - blk.start != 2:
                continue
            d = m.diag[blk]
            r = m.row[blk][1]
            dense = np.array([[d[0], r], [r, d[1]]])
            ref2 = np.linalg.solve(dense, v[blk])
            rel = np.max(np.abs(w[blk] - ref2) / np.maximum(np.abs(ref2), 1e-12))
            worst_dense = max(worst_dense, float(rel))
    passed = worst_pair <= tol_pair and worst_dense <= tol_dense
    return CheckResult("qdsolve-oracle", passed,
                       {"n_matrices": n_matrices, "max_rel_pair": worst_pair,
                        "max_rel_dense2": worst_dense})


# ---------------------------------------------------------------------------
# Exact Fisher vs Monte-Carlo outer products
# ---------------------------------------------------------------------------


def _jacobian(net, x):
    """Rows J_k = d y_k / d theta at one input, a one-row batch x."""
    tr = net.forward(x, mode="eval")
    k = net.sizes[-1]
    return np.stack([net.backprop(tr, np.eye(k)[c : c + 1]) for c in range(k)]), tr


def suite_fisher_consistency(seed=0, n_draws=100_000) -> CheckResult:
    """Dense exact Fisher vs the mean of sampled outer products, within 3 SE."""
    rng = np.random.default_rng(seed)
    sizes = [4, 2, 3]
    net = Network(sizes, "sigmoid")
    net.init_params(rng)
    x = rng.uniform(0.0, 1.0, size=(1, 4))
    jac, tr = _jacobian(net, x)

    # categorical: t ~ softmax(y); counts give the exact MC average cheaply
    cat = CategoricalOutput(3)
    p = cat.probs(tr.output)[0]
    vs = np.stack([jac.T @ (p - np.eye(3)[c]) for c in range(3)])
    outers = np.einsum("ci,cj->cij", vs, vs)
    exact_cat = np.einsum("c,cij->ij", p, outers)
    counts = rng.multinomial(n_draws, p)
    mc = np.einsum("c,cij->ij", counts / n_draws, outers)
    second = np.einsum("c,cij->ij", counts / n_draws, outers**2)
    se = np.sqrt(np.maximum(second - mc**2, 0.0) / n_draws)
    gap_cat = float(np.max(np.abs(mc - exact_cat) - 3.0 * se))

    # gaussian: v = J^T (y - t~)/sigma^2 with t~ = y + sigma xi
    sigma = np.array([1.0, 0.5, 2.0])
    exact_g = np.einsum("k,ki,kj->ij", sigma**-2, jac, jac)
    xi = rng.standard_normal((n_draws, 3))
    V = (xi / sigma) @ jac  # per-draw parameter gradients, sign-free in vv^T
    mc_g = V.T @ V / n_draws
    second_g = (V**2).T @ (V**2) / n_draws
    se_g = np.sqrt(np.maximum(second_g - mc_g**2, 0.0) / n_draws)
    gap_g = float(np.max(np.abs(mc_g - exact_g) - 3.0 * se_g))

    passed = gap_cat <= 1e-12 and gap_g <= 1e-12
    return CheckResult("fisher-consistency", passed,
                       {"n_draws": n_draws, "categorical_gap": gap_cat,
                        "gaussian_gap": gap_g})


# ---------------------------------------------------------------------------
# Invariance of the quasi-diagonal update
# ---------------------------------------------------------------------------


def _one_step_outputs(net, model, X, T, probes, algo, eta):
    """One step on (X, T) from a fresh state, whose metric is (X, T)'s; probe outputs."""
    cfg = OptimizerConfig(algo, eta=eta, epsilon=0.0)
    optimizer_step(net, model, X, T, OptimizerState(net, cfg), cfg)
    return net.forward(probes, mode="eval").output


def _output_gap(a, b):
    return float(np.max(np.abs(a - b)))


def one_step_gaps(base, model, X, T, probes, eta=1.0) -> dict:
    """Max probe-output gaps between base and its twins after one step each.

    (a) tanh_qdop_gap: a sigmoid net and its tanh reparameterization under
    qdop; (b) invert_qdop_gap: the net and its input-flip twin, trained on
    1 - X with the bias correspondence; invert_sgd_gap: (b) under sgd,
    which is not invariant. Works for dense and masked nets alike. The
    base net's step under each algorithm is taken once, for both gaps.
    """
    y = {algo: _one_step_outputs(base.copy(), model, X, T, probes, algo, eta)
         for algo in ("qdop", "sgd")}
    y_tanh = _one_step_outputs(to_tanh_equivalent(base), model, X, T, probes, "qdop", eta)
    gaps = {"tanh_qdop_gap": _output_gap(y["qdop"], y_tanh)}
    for algo, ya in y.items():
        yb = _one_step_outputs(to_inverted_inputs(base), model, 1.0 - X, T,
                               1.0 - probes, algo, eta)
        gaps[f"invert_{algo}_gap"] = _output_gap(ya, yb)
    return gaps


def suite_invariance(seed=0, eta=1.0, n_probes=100) -> CheckResult:
    """One-step affine invariances of qdop, with an sgd counterexample.

    (a) a sigmoid net and its tanh reparameterization stay functionally
    equal after one step each; (b) likewise for the input flip x -> 1-x
    with the bias correspondence; sgd visibly breaks (b). Also checks the
    trajectory-level input-rescaling invariance of the diagonal family.
    """
    rng = np.random.default_rng(seed)
    sizes = [6, 5, 4, 3]
    base = Network(sizes, "sigmoid")
    base.init_params(rng)
    base.set_params(0.8 * rng.standard_normal(base.layout.dim))
    model = CategoricalOutput(3)
    X = rng.uniform(0.0, 1.0, size=(40, 6))
    T = rng.integers(0, 3, size=40)
    probes = rng.uniform(0.0, 1.0, size=(n_probes, 6))

    gaps = one_step_gaps(base, model, X, T, probes, eta)
    rescale = rescaling_trajectory_gaps(seed=seed + 1)
    passed = (gaps["tanh_qdop_gap"] <= 1e-6 and gaps["invert_qdop_gap"] <= 1e-6
              and gaps["invert_sgd_gap"] >= 1e-3
              and rescale["dop"] <= 1e-6 and rescale["adagrad"] > 1e-3)
    return CheckResult("invariance", passed, {
        **gaps,
        "rescale_dop_rel": rescale["dop"],
        "rescale_adagrad_rel": rescale["adagrad"],
    })


def rescaling_trajectory_gaps(seed=0, c=10.0, steps=10, eta=0.05) -> dict:
    """Max mapped-trajectory error over 10 steps for dop and adagrad.

    Every input coordinate is scaled by c, first-layer weights by 1/c; the
    diagonal metric family must retrace the same trajectory in the mapped
    coordinates, while adagrad's square-root preconditioner cannot.
    """
    rng = np.random.default_rng(seed)
    sizes = [4, 5, 3]
    net = Network(sizes, "sigmoid")
    net.init_params(rng)
    net.set_params(0.8 * rng.standard_normal(net.layout.dim))
    model = CategoricalOutput(3)
    X = rng.uniform(0.0, 1.0, size=(8, 4))
    T = rng.integers(0, 3, size=8)
    out = {}
    for algo in ("dop", "adagrad"):
        a = net.copy()
        b = net.copy()
        b.layers[0][:, 1:] /= c  # first-layer weights, in place in theta
        b.version += 1
        cfg = OptimizerConfig(algo, eta=eta, epsilon=0.0)
        st_a, st_b = OptimizerState(a, cfg), OptimizerState(b, cfg)
        worst = 0.0
        for _ in range(steps):
            optimizer_step(a, model, X, T, st_a, cfg)
            optimizer_step(b, model, c * X, T, st_b, cfg)
            mapped = b.copy()
            mapped.layers[0][:, 1:] *= c
            mapped.version += 1
            pa, pb = a.get_params(), mapped.get_params()
            worst = max(worst, float(np.max(np.abs(pa - pb)
                                            / np.maximum(np.abs(pa), 1e-12))))
        out[algo] = worst
    return out


# ---------------------------------------------------------------------------
# The noiseless-quadratic pathology
# ---------------------------------------------------------------------------


def suite_op_quadratic(seed=0, theta0=1e-3, eta=0.1, steps=10) -> CheckResult:
    """loss = theta^2/2: op overshoots wildly, exact natural contracts."""

    def run(algo, theta_start, n):
        net = Network([0, 1], "sigmoid")
        net.set_params(np.array([theta_start]))
        model = GaussianOutput(1)
        cfg = OptimizerConfig(algo, eta=eta, gamma=1.0, epsilon=0.0)
        state = OptimizerState(net, cfg)
        iterates = [theta_start]
        for _ in range(n):
            optimizer_step(net, model, np.zeros((1, 0)), np.array([[0.0]]),
                           state, cfg)
            iterates.append(float(net.get_params()[0]))
        return iterates

    op = run("dop", theta0, 1)
    overshoot = abs(op[1]) / abs(op[0])
    nat = run("dnat", 0.5, steps)
    nat_err = max(abs(nat[i + 1] - (1.0 - eta) * nat[i]) / abs(nat[i + 1])
                  for i in range(steps))
    passed = op[1] < 0 and overshoot >= 10.0 and nat_err <= 1e-15
    return CheckResult("op-quadratic", passed, {
        "op_first_step": op[1],
        "op_overshoot_factor": overshoot,
        "natural_contraction_rel_err": nat_err,
    })


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES = {
    "gradcheck": suite_gradcheck,
    "qdsolve-oracle": suite_qdsolve_oracle,
    "fisher-consistency": suite_fisher_consistency,
    "invariance": suite_invariance,
    "op-quadratic": suite_op_quadratic,
}


def run_suite(name: str) -> CheckResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
