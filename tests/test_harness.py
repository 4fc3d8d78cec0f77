"""Harness tests: training loop, logs, grid search, config files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qdgrad.network import Network, Scratch, load_checkpoint, make_sparse_layout
from qdgrad.outputs import CategoricalOutput, GaussianOutput


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


# ---------------------------------------------------------------------------
# Evaluation in row blocks
# ---------------------------------------------------------------------------


def mixed_fan_in_mask(rng, n, m):
    """(n, m) mask whose units take 0 to m // 2 sources each."""
    mask = np.zeros((n, m), dtype=bool)
    for unit, k in enumerate(rng.integers(0, m // 2 + 1, size=n)):
        mask[unit, rng.choice(m, size=k, replace=False)] = True
    return mask


# hidden sizes and which weight layers are masked; the output layer is last
EVAL_NETS = {
    "dense": ([40, 300, 200], [False, False, False]),
    "mixed-fan-in": ([40, 900, 300], [True, True, False]),
    "wide-dense-hidden": ([600, 300, 800, 30], [True, False, True, False]),
    "masked-output": ([40, 900], [True, True]),
}


def parent_eval_metrics(net, model, ds, idx):
    """eval_metrics as one forward pass per EVAL_CHUNK rows computed it."""
    loss_sum = err_sum = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(idx), harness.EVAL_CHUNK):
            sel = idx[lo : lo + harness.EVAL_CHUNK]
            y = net.forward(ds.features[sel], mode="eval", scratch=Scratch()).output
            t = ds.target_batch(sel)
            loss_sum += float(np.sum(model.loss(y, t)))
            err_sum += float(np.sum(model.error(y, t)))
    return loss_sum / len(idx), err_sum / len(idx)


@pytest.mark.parametrize("head", ["categorical", "gaussian"])
@pytest.mark.parametrize("kind", sorted(EVAL_NETS))
@settings(max_examples=15, deadline=None)
@given(activation=st.sampled_from(["sigmoid", "tanh", "relu"]),
       length=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (0, 1023), (0, 1024),
                               (0, 1025), (0, 2500)]),
       permuted=st.booleans(), scale=st.sampled_from([1.0, 8.0]), seed=st.integers(0, 2**32 - 1))
def test_blocked_evaluation_reports_the_floats_of_one_pass_per_chunk(
        kind, head, activation, length, permuted, scale, seed):
    # a masked net's forward passes run over row blocks, dense layers over
    # the whole chunk; the mean loss and error must be the floats of one
    # forward pass per 1024-row chunk, bit for bit, for every length
    # around the block and the chunk (length is (blocks, rows): blocks
    # times the block plus rows), in index order or shuffled
    rng = np.random.default_rng(seed)
    hidden, masked = EVAL_NETS[kind]
    k = 10 if head == "categorical" else 6
    sizes = [*hidden, k]
    masks = [mixed_fan_in_mask(rng, n, m) if mask else None
             for n, m, mask in zip(sizes[1:], sizes[:-1], masked)]
    net = Network(sizes, activation, masks=masks)
    net.init_params(rng)
    net.theta *= scale
    n = 2600
    x = rng.uniform(-1.0, 1.0, size=(n, sizes[0]))
    if head == "categorical":
        model, ds = CategoricalOutput(k), Dataset(x, rng.integers(0, k, size=n), "class", k)
    else:
        model = GaussianOutput(k, sigma=rng.uniform(0.5, 2.0, size=k))
        ds = Dataset(x, rng.standard_normal((n, k)), "vector")
    block = net.eval_rows or harness.EVAL_CHUNK
    assert (net.eval_rows is None) == (kind == "dense")
    length = length[0] * block + length[1]
    idx = rng.permutation(n)[:length] if permuted else np.arange(n - length, n)
    got = eval_metrics(net, model, ds, idx)
    want = parent_eval_metrics(net, model, ds, idx)
    assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    # and the outputs themselves, where a last-bit change could round away in the sums
    x = ds.features[idx[: harness.EVAL_CHUNK]]
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(net.eval_output(x).view(np.int64),
                                      net.forward(x, mode="eval").output.view(np.int64))


def spy_batches(monkeypatch, method):
    """The row counts of the arrays that Network.<method> is given, call by call."""
    rows = []
    original = getattr(Network, method)

    def spy(net, a, *args, **kw):
        rows.append(len(a))
        return original(net, a, *args, **kw)

    monkeypatch.setattr(Network, method, spy)
    return rows


def test_a_dense_net_evaluates_1024_rows_per_forward_pass(monkeypatch):
    rng = np.random.default_rng(3)
    net = Network([20, 30, 4], "tanh")
    assert net.eval_rows is None
    ds = Dataset(rng.uniform(size=(2500, 20)), rng.integers(0, 4, size=2500), "class", 4)
    rows = spy_batches(monkeypatch, "forward")
    eval_metrics(net, CategoricalOutput(4), ds, np.arange(2500))
    assert rows == [1024, 1024, 452]


def test_the_sparse_net_evaluates_in_blocks_of_at_most_102_rows(monkeypatch):
    # 2**18 floats over its widest masked input, 1 + 2560: 102 rows, so a
    # 1000-row chunk takes ten 100-row blocks, then its dense output layer
    sizes = [784, 2560, 1280, 640, 320, 160, 80, 40, 20, 10]
    rng = np.random.default_rng(4)
    net = Network(sizes, "tanh", masks=make_sparse_layout(sizes, 10, rng))
    assert net.eval_rows == 102
    rows = spy_batches(monkeypatch, "_eval_layers")
    net.eval_output(rng.uniform(size=(1000, 784)))
    assert rows == [100] * 10 + [1000]
    assert Network([5000, 10, 3], masks=[np.eye(10, 5000, dtype=bool), None]).eval_rows == 52
    assert Network([9000, 10, 3], masks=[np.eye(10, 9000, dtype=bool), None]).eval_rows == 32


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
