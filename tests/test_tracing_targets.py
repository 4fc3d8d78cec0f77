"""The benchmark's tracer still finds what it wraps.

perfbench/tracing.py replaces public calls of the library by name. A rename
there would break only a traced benchmark run, which the test suite never
starts, so these tests load the tracer by file path and check its targets.
"""

import importlib.util
from pathlib import Path

import numpy as np

from qdgrad.network import Network, make_sparse_layout
from qdgrad.optim import OptimizerConfig, OptimizerState, optimizer_step
from qdgrad.outputs import CategoricalOutput

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracing = load_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.targets() if attr not in vars(owner)]
    assert missing == []


def test_a_traced_step_records_the_metric_path():
    # the step builds the metric inside the solve and updates theta in
    # place, so it neither copies the parameters nor calls decay/add_terms
    tracing = load_tracing()
    rng = np.random.default_rng(0)
    net = Network([3, 4, 2], "sigmoid")
    net.init_params(rng)
    cfg = OptimizerConfig("qdop", eta=0.1)
    state = OptimizerState(net, cfg)
    rec = tracing.SpanRecorder()
    with tracing.Tracer(rec):
        optimizer_step(net, CategoricalOutput(2), rng.uniform(size=(5, 3)),
                       rng.integers(0, 2, size=5), state, cfg)
    order = [rec.names[i] for i in rec.arrays()["name"]]
    assert "metric.solve" in order
    for name in ("network.get_params", "network.set_params", "metric.decay", "metric.add_terms"):
        assert name not in order
    assert not hasattr(Network.get_params, "__wrapped__")  # restored on exit


def test_a_traced_single_seed_step_takes_the_gradient_in_the_metric_term_pass():
    # qdmcnat at n_mc = 1 writes the gradient with the metric terms, so its
    # step records qd_batch_terms and no grad_from_deltas
    tracing = load_tracing()
    rng = np.random.default_rng(0)
    sizes = [6, 8, 5, 3]
    net = Network(sizes, "tanh", masks=make_sparse_layout(sizes, 2, rng))
    net.init_params(rng)
    cfg = OptimizerConfig("qdmcnat", eta=0.1)
    state = OptimizerState(net, cfg)
    rec = tracing.SpanRecorder()
    with tracing.Tracer(rec):
        optimizer_step(net, CategoricalOutput(3), rng.uniform(size=(5, 6)),
                       rng.integers(0, 3, size=5), state, cfg, rng)
    order = [rec.names[i] for i in rec.arrays()["name"]]
    assert order.count("network.qd_batch_terms") == 1
    assert "network.grad_from_deltas" not in order
