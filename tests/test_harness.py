"""Harness tests: training loop, logs, grid search, config files."""

import math

import numpy as np
import pytest

from qdgrad import harness
from qdgrad.data import Dataset
from qdgrad.harness import (
    DEFAULT_ETA_GRID,
    LOG_COLUMNS,
    LogRow,
    RunConfig,
    TrainLog,
    benchmark,
    eval_metrics,
    grid_search,
    parse_config_file,
    run_training,
)
from qdgrad.network import Network, load_checkpoint
from qdgrad.outputs import CategoricalOutput


def small_config(**kw):
    base = dict(arch=[784, 32, 10], activation="sigmoid", output="categorical",
                algo="sgd", lr=0.1, epochs=1, batch_size=100, seed=7)
    base.update(kw)
    return RunConfig(**base)


def ae_config(**kw):
    # L2 reconstruction head: the one loss that genuinely overflows, since
    # the output-bias recursion amplifies by |1 - eta| per step
    base = dict(arch=[784, 32, 784], activation="sigmoid", output="gaussian",
                algo="sgd", lr=1e3, epochs=8, batch_size=50, seed=7)
    base.update(kw)
    return RunConfig(**base)


def autoencode(ds):
    return Dataset(ds.features, None, "self", None, ds.train_idx, ds.valid_idx)


def rows_equal_modulo_wall(a: LogRow, b: LogRow) -> bool:
    def key(r):
        return (r.epoch, repr(r.train_nll), repr(r.train_err), repr(r.valid_nll),
                repr(r.valid_err), r.diverged)

    return key(a) == key(b)


# ---------------------------------------------------------------------------
# Logs
# ---------------------------------------------------------------------------


def test_zero_epochs_header_only_log_and_checkpoint(tmp_path, subset_of):
    ds = subset_of(200)
    log_path = tmp_path / "run.csv"
    ckpt = tmp_path / "init.npz"
    cfg = small_config(epochs=0, log=str(log_path), checkpoint=str(ckpt))
    log = run_training(ds, cfg)
    assert log.rows == []
    assert log_path.read_text() == ",".join(LOG_COLUMNS) + "\n"
    net, model = load_checkpoint(ckpt)
    assert net.sizes == [784, 32, 10]
    assert isinstance(model, CategoricalOutput)


def test_log_round_trip_and_monotone_epochs(tmp_path):
    path = tmp_path / "log.csv"
    log = TrainLog(str(path))
    log.append(LogRow(0, 2.5, 0.9, 2.6, 0.91, 0.01, 0))
    log.append(LogRow(1, 1.5, 0.4, 1.7, 0.45, 0.5, 0))
    with pytest.raises(ValueError):
        log.append(LogRow(1, 1.0, 0.1, 1.0, 0.1, 0.1, 0))
    log.close()
    back = TrainLog.read(str(path))
    assert len(back.rows) == 2
    assert back.rows[1].train_nll == 1.5
    assert back.rows[0].epoch == 0 and not back.diverged


GOOD_ROW = "1,1.5,0.4,1.7,0.45,0.5,0"


@pytest.mark.parametrize("row, message", [
    ("1,1.5,0.4,1.7,0.45,0.5", "6 cells, expected 7"),
    (GOOD_ROW + ",0", "8 cells, expected 7"),
    ("1,1.5,oops,1.7,0.45,0.5,0", "non-numeric cell"),
], ids=["short", "long", "non-numeric"])
def test_reading_a_malformed_log_row_names_the_file_and_line(tmp_path, row, message):
    path = tmp_path / "log.csv"
    path.write_text(",".join(LOG_COLUMNS) + "\n" + GOOD_ROW + "\n" + row + "\n")
    with pytest.raises(ValueError) as e:
        TrainLog.read(path)
    assert str(e.value) == f"{path}:3: {message}"


def test_epoch_zero_row_reports_initialization(subset_of):
    ds = subset_of(300, 100)
    log = run_training(ds, small_config(epochs=2, batch_size=50))
    assert [r.epoch for r in log.rows] == [0, 1, 2]
    # zero-weight-free init still predicts near uniform: NLL close to ln 10
    assert abs(log.rows[0].train_nll - math.log(10)) < 0.3
    assert all(r.wall_s > 0 for r in log.rows)
    assert all(math.isfinite(r.valid_nll) for r in log.rows)


def test_training_reduces_nll_qdop(subset_of):
    ds = subset_of(1000, 200)
    cfg = small_config(arch=[784, 100, 10], algo="qdop", lr=1e-2, epochs=5,
                       batch_size=100)
    log = run_training(ds, cfg)
    assert not log.diverged
    assert log.rows[5].train_nll < log.rows[0].train_nll
    assert log.rows[5].valid_nll < log.rows[0].valid_nll
    assert log.rows[5].train_err < log.rows[0].train_err


def test_divergence_marks_remaining_epochs(subset_of):
    ds = autoencode(subset_of(500))
    log = run_training(ds, ae_config(lr=1e3, epochs=8, batch_size=50))
    assert log.diverged
    flags = [r.diverged for r in log.rows]
    first = flags.index(1)
    assert all(flags[first:]) and not any(flags[:first])
    assert len(log.rows) == 9  # epoch 0 plus all eight epochs, none skipped
    for r in log.rows[first:]:
        assert math.isnan(r.train_nll) and math.isnan(r.valid_nll)


def test_reproducible_logs_bit_identical_modulo_wall(tmp_path, subset_of):
    ds = subset_of(400, 100)
    cfg = small_config(algo="qdmcnat", lr=1e-2, epochs=2, batch_size=80,
                       dropout=0.2, seed=11)
    a = run_training(ds, cfg)
    b = run_training(ds, cfg)
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert rows_equal_modulo_wall(ra, rb)


def test_checkpoint_reproduces_final_metrics(tmp_path, subset_of):
    ds = subset_of(300, 100)
    ckpt = tmp_path / "final.npz"
    cfg = small_config(epochs=2, checkpoint=str(ckpt), algo="dop", lr=1e-2)
    log = run_training(ds, cfg)
    net, model = load_checkpoint(ckpt)
    nll, err = eval_metrics(net, model, ds, ds.valid_idx)
    assert nll == pytest.approx(log.final.valid_nll, rel=1e-12)
    assert err == pytest.approx(log.final.valid_err, rel=1e-12)


def test_build_validation_errors(subset_of):
    ds = subset_of(100)
    with pytest.raises(ValueError, match="input width"):
        run_training(ds, small_config(arch=[100, 10, 10]))
    with pytest.raises(ValueError, match="output width"):
        run_training(ds, small_config(arch=[784, 10, 9]))
    with pytest.raises(ValueError, match="categorical"):
        run_training(ds, small_config(output="gaussian"))
    eeg = Dataset(np.random.default_rng(0).uniform(size=(20, 8)), None, "self")
    with pytest.raises(ValueError, match="categorical"):
        run_training(eeg, small_config(arch=[8, 4, 8]))


def test_eval_metrics_empty_split_is_nan(subset_of):
    ds = subset_of(50)
    net = Network([784, 10], "sigmoid")
    model = CategoricalOutput(10)
    nll, err = eval_metrics(net, model, ds, ds.valid_idx)
    assert math.isnan(nll) and math.isnan(err)
    nll, err = eval_metrics(net, model, ds, ds.train_idx)
    assert nll == pytest.approx(math.log(10), rel=1e-12)  # all-zero logits


def test_autoencoder_run_on_synthetic_signals():
    from qdgrad.data import generate_eeg

    ds = generate_eeg(256, n_channels=16, seed=1, n_valid=56)
    cfg = RunConfig(arch=[16, 8, 16], activation="tanh", output="gaussian",
                    algo="qdop", lr=1e-2, epochs=3, batch_size=32, seed=5)
    log = run_training(ds, cfg)
    assert not log.diverged
    assert log.rows[3].train_nll < log.rows[0].train_nll


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def test_grid_single_eta_is_best(subset_of):
    ds = subset_of(200, 50)
    res = grid_search(ds, small_config(epochs=1), [1e-2])
    assert len(res.entries) == 1
    assert res.best is res.entries[0]
    assert not res.boundary_warning


def test_grid_dedupes_and_orders(subset_of):
    ds = subset_of(200, 50)
    res = grid_search(ds, small_config(epochs=1), [1e-2, 1e-3, 1e-2])
    assert [e.eta for e in res.entries] == [1e-3, 1e-2]


def test_grid_all_diverged_reports_no_valid_step_size(subset_of):
    ds = autoencode(subset_of(200))
    cfg = ae_config(epochs=3, batch_size=10)
    res = grid_search(ds, cfg, [1e5, 1e6])
    assert res.best is None
    assert all(e.diverged for e in res.entries)
    assert any("no valid step-size" in line for line in res.summary_lines())


def test_grid_boundary_warning(subset_of):
    ds = subset_of(300, 100)
    # both step-sizes are tiny, so the larger boundary value wins
    res = grid_search(ds, small_config(epochs=1), [1e-5, 1e-4])
    assert res.best is not None and res.best.eta == 1e-4
    assert res.boundary_warning
    assert any("boundary" in line for line in res.summary_lines())


def test_grid_excludes_diverged_from_selection(subset_of):
    ds = autoencode(subset_of(300, 100))
    cfg = ae_config(epochs=3, batch_size=10)
    res = grid_search(ds, cfg, [1e-2, 1e6])
    assert any(e.diverged for e in res.entries)
    assert res.best is not None and res.best.eta == 1e-2


def test_grid_writes_per_eta_logs(tmp_path, subset_of):
    ds = subset_of(100, 20)
    cfg = small_config(epochs=1, log=str(tmp_path / "grid"))
    grid_search(ds, cfg, [1e-3, 1e-2])
    assert (tmp_path / "grid.eta0.001.csv").exists()
    assert (tmp_path / "grid.eta0.01.csv").exists()


def test_default_eta_grid_is_powers_of_ten():
    assert DEFAULT_ETA_GRID == (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0)


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


def test_benchmark_shapes_and_sgd_ratio(subset_of):
    ds = subset_of(400)
    cfg = small_config(arch=[784, 64, 10], batch_size=200)
    res = benchmark(ds, cfg, algos=["sgd", "qdop"])
    assert res.ratios["sgd"] == 1.0
    assert res.medians["qdop"] > 0
    assert res.ratios["qdop"] > 1.0  # metric work cannot be free
    lines = res.summary_lines()
    assert lines[0].startswith("algo,")


@pytest.mark.parametrize("epochs, timed", [(1, 3), (4, 4)])
def test_benchmark_times_config_epochs_but_at_least_3(subset_of, monkeypatch, epochs, timed):
    timed_algos = []
    epoch = harness.Run.epoch

    def traced_epoch(run):
        timed_algos.append(run.cfg.algo)
        epoch(run)

    monkeypatch.setattr(harness.Run, "epoch", traced_epoch)
    res = benchmark(subset_of(200), small_config(arch=[784, 8, 10], epochs=epochs),
                    algos=["sgd", "qdop"])
    assert timed_algos == ["sgd", "qdop"] * timed
    assert set(res.medians) == {"sgd", "qdop"}


def test_benchmark_builds_every_run_then_times_epochs_round_robin(subset_of, monkeypatch):
    events = []
    init, epoch = harness.Run.__init__, harness.Run.epoch

    def traced_init(run, ds, config):
        events.append(("build", config.algo))
        init(run, ds, config)

    def traced_epoch(run):
        events.append(("epoch", run.cfg.algo))
        epoch(run)

    monkeypatch.setattr(harness.Run, "__init__", traced_init)
    monkeypatch.setattr(harness.Run, "epoch", traced_epoch)
    benchmark(subset_of(200), small_config(arch=[784, 8, 10], epochs=3), algos=["qdop", "dop"])
    algos = ["sgd", "qdop", "dop"]
    assert events == [("build", a) for a in algos] + [("epoch", a) for a in algos] * 3


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# experiment\n"
        "arch = 784,100,10\n"
        "algo=qdop\n"
        "lr = 0.01  # step size\n"
        "\n"
        "epochs=5\n"
    )
    cfg = parse_config_file(p)
    assert cfg == {"arch": "784,100,10", "algo": "qdop", "lr": "0.01", "epochs": "5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_file(bad)
