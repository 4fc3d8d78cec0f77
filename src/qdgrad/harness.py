"""Training runs, step-size grid search, benchmark timing, and CSV logs."""

import io
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, minibatches, read_text
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

# eval_metrics sums the losses and errors of EVAL_CHUNK rows at a time, in
# index order, whatever the row blocks its forward passes run over
# (Network.eval_output), so the floats it reports do not depend on them
EVAL_CHUNK = 1024
NAN_METRICS = (math.nan,) * 4  # train_nll, train_err, valid_nll, valid_err of a diverged epoch


@dataclass
class RunConfig:
    """One run's model, optimizer, schedule and output paths; the dataset comes separately.

    A transform of the data, such as inverting the inputs, is applied to the
    Dataset before it is passed in. grid_search runs it once per step-size,
    each with its own log and no checkpoint, and needs at least 1 epoch;
    benchmark runs it once per algorithm, times max(3, epochs) epochs and
    writes neither output.
    """

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
    seed: int = 0
    log: str | None = None
    checkpoint: str | None = None


class RunConfigError(ValueError):
    """The run's configuration cannot be built, for instance for its dataset."""


def _open_output(path, mode="w"):
    """path open in mode ("w" truncates it); a RunConfigError naming it if it cannot be."""
    try:
        return open(path, mode)
    except OSError as e:
        raise RunConfigError(f"{path}: {e.strerror}") from e


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
        self.rows = []
        self._fh = None
        if path is not None:
            self._fh = _open_output(path)
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
            for line_no, line in enumerate(fh, start=2):
                cells = line.strip().split(",")
                if len(cells) != len(LOG_COLUMNS):
                    raise ValueError(f"{path}:{line_no}: {len(cells)} cells, "
                                     f"expected {len(LOG_COLUMNS)}")
                try:
                    log.rows.append(LogRow(int(cells[0]), *map(float, cells[1:6]),
                                           int(cells[6])))
                except ValueError:
                    raise ValueError(f"{path}:{line_no}: non-numeric cell") from None
        return log


def eval_metrics(net: Network, model, ds: Dataset, idx) -> tuple:
    """(mean loss, mean error) over the given rows, dropout disabled.

    The rows are taken EVAL_CHUNK at a time, in index order: a chunk's
    eval-mode output (Network.eval_output) is computed in net.scratch, like
    a training step's forward, and its losses and its errors are each
    summed once. A masked net's output comes from forward passes over
    blocks of fewer rows, with the floats of one pass over the chunk, so
    the means are the same floats whatever the blocks are.
    """
    if len(idx) == 0:
        return math.nan, math.nan
    loss_sum = 0.0
    err_sum = 0.0
    # a near-diverged model may overflow here; report inf rather than warn
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(idx), EVAL_CHUNK):
            sel = idx[lo : lo + EVAL_CHUNK]
            y = net.eval_output(ds.features[sel], net.scratch)
            t = ds.target_batch(sel)
            loss_sum += float(np.sum(model.loss(y, t)))
            err_sum += float(np.sum(model.error(y, t)))
    return loss_sum / len(idx), err_sum / len(idx)


class Run:
    """One run's network, output model, optimizer state and rng, built deterministically.

    It keeps the dataset and the batch size, and epoch() takes one pass of
    minibatch steps. Every ValueError raised while it is built is a
    configuration error and surfaces as a RunConfigError.
    """

    def __init__(self, ds: Dataset, config: RunConfig):
        try:
            arch = [int(s) for s in config.arch]
            if len(arch) < 2:
                raise ValueError(f"arch needs at least input and output sizes, got {arch}")
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
            self.rng = np.random.default_rng(config.seed)
            masks = None
            if config.sparsity is not None:
                masks = make_sparse_layout(arch, config.sparsity, self.rng)
            self.net = Network(arch, config.activation, masks=masks, dropout=config.dropout)
            self.net.init_params(self.rng)
            self.model = make_output_model(config.output, arch[-1])
            self.cfg = OptimizerConfig(config.algo, config.lr, config.gamma, config.epsilon,
                                       config.nmc)
            self.state = OptimizerState(self.net, self.cfg)
        except ValueError as e:
            raise RunConfigError(str(e)) from e
        self.ds = ds
        self.batch_size = config.batch_size

    def epoch(self) -> None:
        """One pass of minibatch steps over the training rows, in a shuffled order."""
        for batch in minibatches(self.ds, self.batch_size, self.rng):
            optimizer_step(self.net, self.model, self.ds.features[batch],
                           self.ds.target_batch(batch), self.state, self.cfg, self.rng)


def run_training(ds: Dataset, config: RunConfig) -> TrainLog:
    """Epochs of minibatch steps on ds as given, with per-epoch evaluation rows.

    Epoch 0 only evaluates: its row reports the metrics at initialization,
    timed by wall_s. Epoch k reports them after k full passes, and wall_s
    times its steps. A divergent step marks its epoch and every remaining
    one with the diverged flag and NaN metrics (and NaN wall_s after it),
    then stops training. The final checkpoint always holds finite
    parameters. An output path that cannot be written raises RunConfigError
    before the first step, and leaves no checkpoint that the run created;
    an existing checkpoint is left as it is until the run ends.
    """
    run = Run(ds, config)
    created = config.checkpoint is not None and not os.path.lexists(config.checkpoint)
    if config.checkpoint is not None:
        _open_output(config.checkpoint, "ab").close()  # checked, not truncated
    try:
        log = TrainLog(config.log)
    except RunConfigError:
        if created:
            os.remove(config.checkpoint)
        raise
    try:
        diverged = False
        for epoch in range(config.epochs + 1 if config.epochs else 0):
            if diverged:
                log.append(LogRow(epoch, *NAN_METRICS, math.nan, 1))
                continue
            t0 = time.perf_counter()
            try:
                if epoch:
                    run.epoch()
            except DivergenceError:
                diverged = True
                log.append(LogRow(epoch, *NAN_METRICS, time.perf_counter() - t0, 1))
                continue
            steps_s = time.perf_counter() - t0
            tr = eval_metrics(run.net, run.model, ds, ds.train_idx)
            va = eval_metrics(run.net, run.model, ds, ds.valid_idx)
            log.append(LogRow(epoch, *tr, *va, steps_s if epoch else time.perf_counter() - t0, 0))
        if config.checkpoint is not None:
            save_checkpoint(config.checkpoint, run.net, run.model)
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
    final train NLL is used instead. An empty grid, a step-size that
    OptimizerConfig refuses, or 0 epochs raises RunConfigError before the
    first run. Each run gets its own log, config.log with
    ".eta<step-size>.csv" appended, and no checkpoint.
    """
    etas = sorted(set(float(e) for e in etas))
    if not etas:
        raise RunConfigError("grid needs at least one step-size")
    if config.epochs == 0:  # a negative count is Run's error
        raise RunConfigError("grid needs at least 1 epoch")
    try:
        for eta in etas:
            OptimizerConfig(config.algo, eta)
    except ValueError as e:
        raise RunConfigError(str(e)) from e
    entries = []
    for eta in etas:
        sub = replace(config, lr=eta,
                      log=f"{config.log}.eta{eta:g}.csv" if config.log else None,
                      checkpoint=None)
        log = run_training(ds, sub)
        if log.diverged:
            score = math.nan
        elif len(ds.valid_idx):
            score = log.final.valid_nll
        else:
            score = log.final.train_nll
        entries.append(GridEntry(eta, log, log.diverged, score))
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


def benchmark(ds: Dataset, config: RunConfig, algos=None) -> BenchResult:
    """Median wall time of the minibatch step loop per epoch, per algorithm.

    It times max(3, config.epochs) epochs, so that the median is stable.
    Nothing is evaluated, and config's log and checkpoint are not written:
    only forward, backprop, metric work, and the parameter update are
    timed. Every algorithm's run is built first, and their epochs are then
    timed round-robin, so a slow stretch of the machine spreads over the
    algorithms instead of landing on one. Ratios are relative to sgd, which is always benchmarked.
    A diverging step ends the benchmark with a DivergenceError that names
    the algorithm and the non-finite quantity.
    """
    algos = list(algos) if algos is not None else list(ALGOS)
    if "sgd" not in algos:
        algos.insert(0, "sgd")
    runs = {algo: Run(ds, replace(config, algo=algo)) for algo in algos}
    times = {algo: [] for algo in algos}
    for _ in range(max(3, config.epochs)):
        for algo, run in runs.items():
            t0 = time.perf_counter()
            try:
                run.epoch()
            except DivergenceError as e:
                raise DivergenceError(f"{algo} diverged: {e}") from e
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
