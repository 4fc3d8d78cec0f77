"""Training runs, step-size grid search, benchmark timing, and CSV logs."""

import io
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, invert_features, minibatches, read_text
from .network import Network, make_sparse_layout, save_checkpoint
from .optim import ALGOS, DivergenceError, OptimizerConfig, OptimizerState, optimizer_step
from .outputs import make_output_model

__all__ = [
    "RunConfig",
    "RunConfigError",
    "TrainLog",
    "LogRow",
    "run_training",
    "grid_search",
    "GridResult",
    "benchmark",
    "BenchResult",
    "eval_metrics",
    "parse_config_file",
]

LOG_COLUMNS = ("epoch", "train_nll", "train_err", "valid_nll", "valid_err",
               "wall_s", "diverged")

EVAL_CHUNK = 1024


@dataclass
class RunConfig:
    arch: list
    activation: str = "sigmoid"
    output: str = "categorical"
    algo: str = "sgd"
    lr: float = 0.01
    gamma: float = OptimizerConfig.gamma
    epsilon: float = OptimizerConfig.epsilon
    nmc: int = OptimizerConfig.n_mc
    epochs: int = 1
    batch_size: int = 100
    dropout: float = 0.0
    sparsity: int | None = None  # fan-in per hidden unit; None = dense
    invert_inputs: bool = False
    seed: int = 0
    log: str | None = None
    checkpoint: str | None = None

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(self.algo, self.lr, self.gamma, self.epsilon, self.nmc)


class RunConfigError(ValueError):
    """The run's configuration cannot be built, for instance for its dataset."""


@dataclass
class LogRow:
    epoch: int
    train_nll: float
    train_err: float
    valid_nll: float
    valid_err: float
    wall_s: float
    diverged: int

    def format(self) -> str:
        vals = [str(self.epoch)]
        for v in (self.train_nll, self.train_err, self.valid_nll, self.valid_err,
                  self.wall_s):
            vals.append(repr(float(v)))  # repr round-trips float64 exactly
        vals.append(str(self.diverged))
        return ",".join(vals)


class TrainLog:
    """Per-epoch metrics, optionally mirrored incrementally to a CSV file."""

    def __init__(self, path=None):
        self.path = path
        self.rows = []
        self._fh = None
        if path is not None:
            self._fh = open(path, "w")
            self._fh.write(",".join(LOG_COLUMNS) + "\n")
            self._fh.flush()

    def append(self, row: LogRow) -> None:
        if self.rows and row.epoch <= self.rows[-1].epoch:
            raise ValueError("epochs must strictly increase")
        self.rows.append(row)
        if self._fh is not None:
            self._fh.write(row.format() + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def diverged(self) -> bool:
        return any(r.diverged for r in self.rows)

    @property
    def final(self) -> LogRow:
        return self.rows[-1]

    @staticmethod
    def read(path) -> "TrainLog":
        log = TrainLog()
        with open(path) as fh:
            header = fh.readline().strip()
            if header != ",".join(LOG_COLUMNS):
                raise ValueError(f"{path}: unexpected log header")
            for line in fh:
                cells = line.strip().split(",")
                log.rows.append(LogRow(int(cells[0]), *map(float, cells[1:6]),
                                       int(cells[6])))
        return log


def eval_metrics(net: Network, model, ds: Dataset, idx) -> tuple:
    """(mean loss, mean error) over the given rows, dropout disabled.

    Each chunk's forward pass runs in net.scratch, like a training step.
    """
    if len(idx) == 0:
        return math.nan, math.nan
    loss_sum = 0.0
    err_sum = 0.0
    # a near-diverged model may overflow here; report inf rather than warn
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(idx), EVAL_CHUNK):
            sel = idx[lo : lo + EVAL_CHUNK]
            y = net.forward(ds.features[sel], mode="eval", scratch=net.scratch).output
            t = ds.target_batch(sel)
            loss_sum += float(np.sum(model.loss(y, t)))
            err_sum += float(np.sum(model.error(y, t)))
    return loss_sum / len(idx), err_sum / len(idx)


def _build(ds: Dataset, config: RunConfig):
    """Network, output model, and optimizer state for a run, deterministically.

    Every ValueError raised here is a configuration error and surfaces as a
    RunConfigError.
    """
    try:
        arch = [int(s) for s in config.arch]
        if arch[0] != ds.n_features:
            raise ValueError(f"arch input width {arch[0]} != dataset {ds.n_features}")
        if arch[-1] != ds.n_outputs:
            raise ValueError(f"arch output width {arch[-1]} != dataset {ds.n_outputs}")
        if config.output == "categorical" and ds.target_kind != "class":
            raise ValueError("categorical output needs class targets")
        if config.output != "categorical" and ds.target_kind == "class":
            raise ValueError("class targets need a categorical output")
        if config.batch_size < 1:
            raise ValueError(f"batch size must be at least 1, got {config.batch_size}")
        if config.epochs < 0:
            raise ValueError(f"epochs must be at least 0, got {config.epochs}")
        rng = np.random.default_rng(config.seed)
        masks = None
        if config.sparsity is not None:
            masks = make_sparse_layout(arch, config.sparsity, rng)
        net = Network(arch, config.activation, masks=masks, dropout=config.dropout)
        net.init_params(rng)
        model = make_output_model(config.output, arch[-1])
        cfg = config.optimizer_config()
        state = OptimizerState(net, cfg)
    except ValueError as e:
        raise RunConfigError(str(e)) from e
    return net, model, state, cfg, rng


def _epoch(ds: Dataset, batch_size, net, model, state, cfg, rng) -> None:
    """One pass of minibatch steps over the training rows, in a shuffled order."""
    for batch in minibatches(ds, batch_size, rng):
        optimizer_step(net, model, ds.features[batch], ds.target_batch(batch),
                       state, cfg, rng)


def run_training(ds: Dataset, config: RunConfig) -> TrainLog:
    """Epochs of minibatch steps with per-epoch evaluation rows.

    The epoch-0 row reports metrics at initialization; epoch k reports them
    after k full passes. A divergent step marks its epoch and every
    remaining one with the diverged flag and NaN metrics, then stops
    training. The final checkpoint always holds finite parameters.
    """
    if config.invert_inputs:
        ds = invert_features(ds)
    net, model, state, cfg, rng = _build(ds, config)
    log = TrainLog(config.log)
    try:
        if config.epochs > 0:
            t0 = time.perf_counter()
            tr = eval_metrics(net, model, ds, ds.train_idx)
            va = eval_metrics(net, model, ds, ds.valid_idx)
            log.append(LogRow(0, tr[0], tr[1], va[0], va[1],
                              time.perf_counter() - t0, 0))
        diverged_at = None
        for epoch in range(1, config.epochs + 1):
            if diverged_at is not None:
                log.append(LogRow(epoch, math.nan, math.nan, math.nan, math.nan,
                                  math.nan, 1))
                continue
            t0 = time.perf_counter()
            try:
                _epoch(ds, config.batch_size, net, model, state, cfg, rng)
            except DivergenceError:
                diverged_at = epoch
                log.append(LogRow(epoch, math.nan, math.nan, math.nan, math.nan,
                                  time.perf_counter() - t0, 1))
                continue
            wall = time.perf_counter() - t0
            tr = eval_metrics(net, model, ds, ds.train_idx)
            va = eval_metrics(net, model, ds, ds.valid_idx)
            log.append(LogRow(epoch, tr[0], tr[1], va[0], va[1], wall, 0))
        if config.checkpoint is not None:
            save_checkpoint(config.checkpoint, net, model)
    finally:
        log.close()
    return log


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

DEFAULT_ETA_GRID = tuple(10.0**e for e in range(-5, 1))


@dataclass
class GridEntry:
    eta: float
    log: TrainLog
    diverged: bool
    final_valid_nll: float


@dataclass
class GridResult:
    entries: list
    best: GridEntry | None
    boundary_warning: bool

    def summary_lines(self) -> list:
        lines = ["eta,final_valid_nll,diverged,best"]
        for e in self.entries:
            mark = "*" if self.best is not None and e.eta == self.best.eta else ""
            lines.append(f"{e.eta:g},{e.final_valid_nll!r},{int(e.diverged)},{mark}")
        if self.best is None:
            lines.append("# no valid step-size: every run diverged")
        elif self.boundary_warning:
            lines.append("# warning: best step-size sits on the grid boundary")
        return lines


def grid_search(ds: Dataset, config: RunConfig, etas) -> GridResult:
    """One training run per step-size; best = lowest final valid NLL.

    Duplicate step-sizes are collapsed. Runs that diverge are kept in the
    table but excluded from the selection. Without a validation split the
    final train NLL is used instead.
    """
    etas = sorted(set(float(e) for e in etas))
    if not etas:
        raise RunConfigError("grid needs at least one step-size")
    entries = []
    for eta in etas:
        sub = replace(config, lr=eta,
                      log=f"{config.log}.eta{eta:g}.csv" if config.log else None,
                      checkpoint=None)
        log = run_training(ds, sub)
        if log.diverged or not log.rows:
            score = math.nan
        elif len(ds.valid_idx):
            score = log.final.valid_nll
        else:
            score = log.final.train_nll
        entries.append(GridEntry(eta, log, log.diverged or not log.rows, score))
    scored = [e for e in entries if not e.diverged and math.isfinite(e.final_valid_nll)]
    best = min(scored, key=lambda e: e.final_valid_nll) if scored else None
    boundary = best is not None and len(etas) > 1 and best.eta in (etas[0], etas[-1])
    return GridResult(entries, best, boundary)


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


@dataclass
class BenchResult:
    medians: dict  # algo -> median seconds per epoch over the step loop
    ratios: dict  # algo -> median / sgd median

    def summary_lines(self) -> list:
        lines = ["algo,median_epoch_s,ratio_vs_sgd"]
        for algo, med in self.medians.items():
            lines.append(f"{algo},{med:.4f},{self.ratios[algo]:.3f}")
        return lines


def benchmark(ds: Dataset, config: RunConfig, algos=None, epochs=3) -> BenchResult:
    """Median wall time of the minibatch step loop per epoch, per algorithm.

    Evaluation and logging are excluded from timing: only forward, backprop,
    metric work, and the parameter update are measured. Every algorithm's
    run is built first, and their epochs are then timed round-robin, so a
    slow stretch of the machine spreads over the algorithms instead of
    landing on one. Ratios are relative to sgd, which is always benchmarked.
    """
    if epochs < 3:
        raise ValueError("need at least 3 epochs for a stable median")
    algos = list(algos) if algos is not None else list(ALGOS)
    if "sgd" not in algos:
        algos.insert(0, "sgd")
    runs = {algo: _build(ds, replace(config, algo=algo, log=None, checkpoint=None))
            for algo in algos}
    times = {algo: [] for algo in algos}
    for _ in range(epochs):
        for algo, (net, model, state, cfg, rng) in runs.items():
            t0 = time.perf_counter()
            _epoch(ds, config.batch_size, net, model, state, cfg, rng)
            times[algo].append(time.perf_counter() - t0)
    medians = {algo: float(np.median(t)) for algo, t in times.items()}
    ratios = {algo: medians[algo] / medians["sgd"] for algo in algos}
    return BenchResult(medians, ratios)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def parse_config_file(path) -> dict:
    """Flat key=value lines; # starts a comment; values stay as strings.

    An unreadable or non-UTF-8 file, or a line without =, raises RunConfigError.
    """
    try:
        text = read_text(path)
    except ValueError as e:
        raise RunConfigError(str(e)) from e
    out = {}
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise RunConfigError(f"{path}:{line_no}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out
