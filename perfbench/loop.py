"""The closed training loop the benchmark times, its output checks and metrics.

One caller, one process: the next step starts only after the previous one
has returned. A run builds the workload and times gather + ``optimizer_step``
calls for its time budget. After every epoch, as training does, it times
``eval_metrics`` calls on the held-out split until evaluation has used its
share of the elapsed time, so that evaluation and training sample the same
stretches of machine time. A last evaluation gives the final held-out NLL.
The run then builds the workload again from the same seed, replays the
first steps and requires the same losses bit for bit, and builds it a few
more times so that set-up time is a median.
"""

import gc
import itertools
import math
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import tracing
import workloads
from qdgrad import data, harness, optim

EVAL_SHARE = 0.15  # of the elapsed time, spent on eval_metrics calls
MIN_STEPS = 20  # early qdop steps overshoot; the NLL check needs a few more
MIN_SETUPS = 3
MAX_SETUPS = 50
SETUP_BUDGET_S = 2.0  # cheap set-ups repeat until this much time is spent
REPLAY_BUDGET_S = 1.0
P90_MIN_BEYOND = 10


@dataclass
class RunResult:
    workload: workloads.Workload
    step_s: list = field(default_factory=list)
    gather_s: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    failed: int = 0
    eval_s: list = field(default_factory=list)
    final_nll: float = math.nan
    setups: list = field(default_factory=list)  # (total_s, data_s, build_s) per set-up
    replay_steps: int = 0
    replay_identical: bool = False
    dim: int = 0  # parameters

    @property
    def attempted(self) -> int:
        return len(self.step_s)

    def checks(self) -> dict:
        """Verdict of each output check; the run is correct only if all hold."""
        w = self.workload
        return {
            "every step loss finite": self.failed == 0 and bool(np.isfinite(self.losses).all()),
            f"held-out NLL {self.final_nll:.6g} < {w.nll_ceiling:g}": self.final_nll < w.nll_ceiling,
            f"replay of {self.replay_steps} steps bit-identical": self.replay_identical,
        }

    @property
    def correct(self) -> bool:
        return all(self.checks().values())


def _no_span(name):
    return nullcontext()


def _steps(s, w, span=_no_span):
    """The closed loop: one step per next(); yields (gather s, step s, loss).

    The loss of a step that raised DivergenceError is NaN.
    """
    def batches():
        while True:
            yield from data.minibatches(s.ds, w.batch, s.rng)

    stream = batches()
    while True:
        t0 = time.perf_counter()
        with span("data.batch_gather"):
            idx = next(stream)
            x, t = s.ds.features[idx], s.ds.target_batch(idx)
        t1 = time.perf_counter()
        try:
            loss = optim.optimizer_step(s.net, s.model, x, t, s.state, s.cfg, s.rng).loss
        except optim.DivergenceError:
            loss = math.nan
        yield t1 - t0, time.perf_counter() - t1, loss


def _evaluate(s, res, rec):
    if rec is not None:
        rec.step = tracing.NO_STEP
    t0 = time.perf_counter()
    nll, _ = harness.eval_metrics(s.net, s.model, s.ds, s.ds.valid_idx)
    res.eval_s.append(time.perf_counter() - t0)
    return nll


def _measure(s, w, seconds, res, rec):
    steps = _steps(s, w, rec.span if rec is not None else _no_span)
    epoch_steps = w.n_train // w.batch
    t_start = time.perf_counter()
    while True:
        if rec is not None:
            rec.step = len(res.step_s)
        gather, step, loss = next(steps)
        res.gather_s.append(gather)
        res.step_s.append(step)
        res.losses.append(loss)
        res.failed += math.isnan(loss)
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and len(res.step_s) >= MIN_STEPS:
            break
        if len(res.step_s) % epoch_steps == 0:
            while sum(res.eval_s) < EVAL_SHARE * (time.perf_counter() - t_start):
                _evaluate(s, res, rec)
    res.final_nll = _evaluate(s, res, rec)


def run(w: workloads.Workload, seed, seconds, scratch_dir, rec=None) -> RunResult:
    """One measured run; with a recorder, the timed phases are traced."""
    res = RunResult(w)
    s = workloads.build(w, seed, scratch_dir)
    res.setups.append((s.total_s, s.data_s, s.build_s))
    res.dim = s.net.layout.dim
    with tracing.Tracer(rec) if rec is not None else nullcontext():
        _measure(s, w, seconds, res, rec)
    del s
    gc.collect()

    s = workloads.build(w, seed, scratch_dir)
    res.setups.append((s.total_s, s.data_s, s.build_s))
    res.replay_steps = int(min(res.attempted,
                               max(2, REPLAY_BUDGET_S // np.median(res.step_s))))
    replayed = [loss for _, _, loss in itertools.islice(_steps(s, w), res.replay_steps)]
    # bit-identical: compare the float64 bit patterns, so NaN never matches
    res.replay_identical = (
        np.array_equal(np.array(replayed).view(np.int64),
                       np.array(res.losses[: res.replay_steps]).view(np.int64))
        and bool(np.isfinite(replayed).all())
    )
    del s
    gc.collect()

    spent = sum(t for t, _, _ in res.setups)
    while len(res.setups) < MAX_SETUPS and (len(res.setups) < MIN_SETUPS or spent < SETUP_BUDGET_S):
        s = workloads.build(w, seed, scratch_dir)
        res.setups.append((s.total_s, s.data_s, s.build_s))
        spent += s.total_s
        del s
    return res


def step_p90(res: RunResult):
    """(p90 of step time in ms, steps beyond it)."""
    ms = np.asarray(res.step_s) * 1e3
    p90 = float(np.percentile(ms, 90))
    return p90, int((ms > p90).sum())


def end_to_end(res: RunResult) -> dict:
    """The six end-to-end metrics as {name: (value, unit)}."""
    w = res.workload
    busy = sum(res.step_s) + sum(res.gather_s)
    return {
        "train_samples_per_s": (res.attempted * w.batch / busy, "samples/s"),
        "step_ms_p50": (float(np.median(res.step_s)) * 1e3, "ms"),
        "step_ms_p90": (step_p90(res)[0], "ms"),
        "eval_samples_per_s": (w.n_valid / float(np.median(res.eval_s)), "samples/s"),
        "setup_s": (float(np.median([t for t, _, _ in res.setups])), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _gemm_flop(w: workloads.Workload, calls: dict, quasi: bool) -> float:
    """Multiply-add FLOP of the dense matrix products per step, from shapes."""
    nm = [n * m for m, n in zip(w.sizes[:-1], w.sizes[1:])]
    per_call = {
        "network.forward": 2 * w.batch * sum(nm),
        "network.backprop_deltas": 2 * w.batch * sum(nm[1:]),
        "network.grad_from_deltas": 2 * w.batch * sum(nm),
        "network.qd_batch_terms": (4 if quasi else 2) * w.batch * sum(nm),
    }
    return sum(per_call[k] * calls[k] for k in per_call)


def per_layer(res: RunResult, rec: tracing.SpanRecorder, untraced_p50_ms) -> dict:
    """Per-layer metrics from the spans of a traced run, as {name: (value, unit)}.

    ``.ms`` and ``.calls`` are self time and calls per timed step, counting
    only spans inside steps. Exceptions: ``harness.eval_metrics.ms`` is the
    median whole duration of one evaluation call; ``data.load_s`` and
    ``network.build_s`` are medians over the run's set-ups; the step counts
    are per run. ``network.param_bytes_copied`` and ``network.gemm_gflop``
    are computed from call counts and shapes, the latter as if every layer
    were dense, which is how masked layers run. ``optim.metric_share`` is
    the time from the return of ``get_params`` to the call of ``set_params``
    (where the metric is built, decayed and solved) over the step time.
    """
    sizes = res.workload.sizes
    dense_entries = sum(n * (m + 1) for m, n in zip(sizes[:-1], sizes[1:]))
    a = rec.arrays()
    self_s = tracing.self_times(a["start"], a["end"], a["parent"])
    dur = a["end"] - a["start"]
    in_step = a["step"] != tracing.NO_STEP
    n = res.attempted
    ids = {name: i for i, name in enumerate(rec.names)}

    def sel(name, step_scoped=True):
        mask = a["name"] == ids.get(name, -1)
        return mask & in_step if step_scoped else mask & ~in_step

    def ms(name):
        return float(self_s[sel(name)].sum()) / n * 1e3

    def calls(name):
        return float(sel(name).sum()) / n

    gemm = ["network.forward", "network.backprop_deltas",
            "network.grad_from_deltas", "network.qd_batch_terms"]
    gflop = _gemm_flop(res.workload, {k: calls(k) for k in gemm},
                       res.workload.algo.startswith("qd")) / 1e9
    gemm_s = sum(ms(k) for k in gemm) / 1e3

    gp_end = np.full(n, np.nan)
    sp_start = np.full(n, np.nan)
    gp_end[a["step"][sel("network.get_params")]] = a["end"][sel("network.get_params")]
    sp_start[a["step"][sel("network.set_params")]] = a["start"][sel("network.set_params")]
    metric_path_s = float(np.nansum(sp_start - gp_end))
    step_span_s = float(dur[sel("optim.optimizer_step")].sum())

    evals = sel("harness.eval_metrics", step_scoped=False)
    traced_p50 = float(np.median(res.step_s)) * 1e3
    setups = np.array(res.setups)
    return {
        "network.qd_batch_terms.ms": (ms("network.qd_batch_terms"), "ms"),
        "network.qd_batch_terms.calls": (calls("network.qd_batch_terms"), "count"),
        "network.backprop_deltas.ms": (ms("network.backprop_deltas"), "ms"),
        "network.backprop_deltas.calls": (calls("network.backprop_deltas"), "count"),
        "network.forward.ms": (ms("network.forward"), "ms"),
        "network.grad_from_deltas.ms": (ms("network.grad_from_deltas"), "ms"),
        "network.get_params.ms": (ms("network.get_params"), "ms"),
        "network.set_params.ms": (ms("network.set_params"), "ms"),
        "optim.optimizer_step.self_ms": (ms("optim.optimizer_step"), "ms"),
        "network.param_bytes_copied": (
            (calls("network.get_params") + calls("network.set_params")) * res.dim * 8, "bytes"),
        "metric.solve.ms": (ms("metric.solve"), "ms"),
        "metric.decay.ms": (ms("metric.decay"), "ms"),
        "metric.add_terms.ms": (ms("metric.add_terms"), "ms"),
        "outputs.sample_pseudo_target.ms": (ms("outputs.sample_pseudo_target"), "ms"),
        "outputs.loss.ms": (ms("outputs.loss"), "ms"),
        "outputs.loss_output_grad.ms": (ms("outputs.loss_output_grad"), "ms"),
        "network.density": (res.dim / dense_entries, "ratio"),
        "network.gemm_gflop": (gflop, "GFLOP"),
        "network.gflop_per_s": (gflop / gemm_s, "GFLOP/s"),
        "harness.eval_metrics.ms": (float(np.median(dur[evals])) * 1e3, "ms"),
        "data.batch_gather_ms": (ms("data.batch_gather"), "ms"),
        "data.load_s": (float(np.median(setups[:, 1])), "s"),
        "network.build_s": (float(np.median(setups[:, 2])), "s"),
        "optim.metric_share": (metric_path_s / step_span_s, "ratio"),
        "optim.steps_attempted": (float(res.attempted), "count"),
        "optim.steps_failed": (float(res.failed), "count"),
        "trace.overhead": (traced_p50 / untraced_p50_ms, "ratio"),
    }
