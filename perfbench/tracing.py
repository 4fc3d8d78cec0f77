"""Outside-in tracing: spans around the public calls of the qdgrad layers.

While a Tracer is active, the public functions of ``network``, ``outputs``,
``metric``, ``optim`` and ``harness`` that the training step and evaluation
call are replaced, at class or module level, by wrappers that record one
span per call. Leaving the Tracer puts every original attribute back.

Spans live in flat in-memory arrays (name, start, end, parent, step id) and
are written out once, when the run ends. A span's self time is its duration
minus the part of it covered by its direct children.
"""

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from qdgrad import harness, metric, network, optim, outputs

NO_PARENT = -1
NO_STEP = -1  # spans outside a training step, such as evaluation


class SpanRecorder:
    """Single-threaded span store; the caller sets ``step`` before each step."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.step_of = array("i")
        self.step = NO_STEP
        self._stack = []

    def open(self, name) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.step_of.append(self.step)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "step": np.frombuffer(self.step_of, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its direct children's intervals."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = {}
    for i, p in enumerate(np.asarray(parent)):
        if p != NO_PARENT:
            children.setdefault(int(p), []).append(i)
    for p, kids in children.items():
        covered = 0.0
        reach = start[p]
        for k in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[k], reach), min(end[k], end[p])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[p] -= covered
    return out


def _wrap(rec, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)

    return traced


def targets():
    """(owner, attribute, span name) for every traced call."""
    out = [(network.Network, m, f"network.{m}")
           for m in ("forward", "backprop_deltas", "grad_from_deltas",
                     "qd_batch_terms", "get_params", "set_params")]
    out += [(metric.QDMetric, m, f"metric.{m}") for m in ("solve", "decay", "add_terms")]
    for cls in (outputs.CategoricalOutput, outputs.GaussianOutput, outputs.BernoulliOutput):
        for m in ("loss", "loss_output_grad", "sample_pseudo_target", "enumerate_fisher_terms"):
            if m in vars(cls):
                out.append((cls, m, f"outputs.{m}"))
    out.append((optim, "optimizer_step", "optim.optimizer_step"))
    out.append((harness, "eval_metrics", "harness.eval_metrics"))
    return out


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._saved = []

    def __enter__(self):
        for owner, attr, name in targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.rec, name, original))
        return self.rec

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
