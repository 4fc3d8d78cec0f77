from pathlib import Path

import numpy as np
import pytest
from conftest import write_csv

from qdgrad.cli import OPTIONS, _build_parser, _load_dataset, _merge_options, _run_config, main
from qdgrad.data import generate_eeg, invert_features
from qdgrad.harness import RunConfig, TrainLog, parse_config_file, run_training
from qdgrad.network import load_checkpoint

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

EEG = ["--dataset", "synthetic-eeg", "--eeg-samples", "64", "--eeg-channels", "8",
       "--n-valid", "16", "--arch", "8,6,8", "--output", "gaussian",
       "--epochs", "2", "--batch-size", "16", "--seed", "3"]
# the step-size and algorithm flags that each run command takes
OWN = {"train": ["--algo", "qdop", "--lr", "0.05"], "grid": ["--algo", "qdop"],
       "bench": ["--lr", "0.05"]}


def run_args(command, *extra):
    return [command, *EEG, *OWN[command], *extra]


def read_rows(path):
    return TrainLog.read(path).rows


def logs_equal_modulo_wall(a, b):
    ra, rb = read_rows(a), read_rows(b)
    assert len(ra) == len(rb)
    for x, y in zip(ra, rb):
        for field in ("epoch", "train_nll", "train_err", "valid_nll",
                      "valid_err", "diverged"):
            xv, yv = getattr(x, field), getattr(y, field)
            assert xv == yv or (np.isnan(xv) and np.isnan(yv))


def test_train_synthetic_writes_log_and_checkpoint(tmp_path, capsys):
    log = tmp_path / "run.csv"
    ckpt = tmp_path / "run.npz"
    rc = main(run_args("train", "--log", str(log), "--checkpoint", str(ckpt)))
    assert rc == 0
    out = capsys.readouterr().out
    assert "epoch 2:" in out and str(log) in out and str(ckpt) in out
    rows = read_rows(log)
    assert [r.epoch for r in rows] == [0, 1, 2]
    net, model = load_checkpoint(ckpt)
    assert net.sizes == [8, 6, 8] and model.kind == "gaussian"


def test_train_requires_arch(tmp_path, capsys):
    assert main(["train", "--dataset", "synthetic-eeg", "--eeg-samples", "32",
                 "--eeg-channels", "4", "--output", "gaussian"]) == 2
    assert capsys.readouterr().err == ("qdgrad: error: --arch is required "
                                       "(e.g. --arch 784,100,10)\n")


def test_train_missing_mnist_dir_errors(tmp_path, capsys):
    assert main(["train", "--dataset", "mnist", "--data-dir", str(tmp_path),
                 "--arch", "784,10,10"]) == 2
    assert capsys.readouterr().err == (
        f"qdgrad: error: MNIST IDX files not found under {tmp_path} "
        "(expected train-images-idx3-ubyte and train-labels-idx1-ubyte)\n")


def test_train_mnist_like_with_limit(mnist_like_dir, tmp_path):
    log = tmp_path / "m.csv"
    rc = main([
        "train", "--dataset", "mnist", "--data-dir", str(mnist_like_dir),
        "--n-valid", "500", "--train-limit", "800",
        "--arch", "784,16,10", "--algo", "sgd", "--lr", "0.1",
        "--epochs", "1", "--batch-size", "100", "--log", str(log),
    ])
    assert rc == 0
    rows = read_rows(log)
    assert rows[-1].epoch == 1 and np.isfinite(rows[-1].valid_nll)


def test_train_csv_dataset(tmp_path):
    ds = generate_eeg(48, n_channels=6, seed=1)
    path = tmp_path / "sig.csv"
    write_csv(path, ds.features)
    log = tmp_path / "c.csv"
    rc = main([
        "train", "--dataset", "csv", "--csv", str(path), "--n-valid", "8",
        "--arch", "6,4,6", "--output", "gaussian", "--algo", "dop",
        "--lr", "0.05", "--epochs", "1", "--batch-size", "8",
        "--log", str(log),
    ])
    assert rc == 0
    assert len(read_rows(log)) == 2


def test_train_divergence_exit_code(tmp_path, capsys):
    rc = main([
        "train", "--dataset", "synthetic-eeg", "--eeg-samples", "64",
        "--eeg-channels", "8", "--arch", "8,6,8", "--output", "gaussian",
        "--algo", "sgd", "--lr", "1e6", "--epochs", "8",
        "--batch-size", "8", "--seed", "0",
    ])
    assert rc == 1
    assert "diverged=1" in capsys.readouterr().out


# a relu autoencoder with units that no sample reaches: at epsilon = 0 its
# metric has zero bias entries, which make a qdop step's direction non-finite
DEAD_RELU = ["--dataset", "synthetic-eeg", "--eeg-samples", "512", "--arch", "56,24,8,24,56",
             "--output", "gaussian", "--activation", "relu", "--epsilon", "0",
             "--seed", "0"]


def test_train_and_grid_record_a_zero_divisor_at_epsilon_zero_as_divergence(tmp_path, capsys):
    log = tmp_path / "run.csv"
    assert main(["train", *DEAD_RELU, "--algo", "qdop", "--epochs", "2", "--log", str(log)]) == 1
    assert "diverged=1" in capsys.readouterr().out
    assert [r.diverged for r in read_rows(log)] == [0, 1, 1]
    assert main(["grid", *DEAD_RELU, "--algo", "qdop", "--epochs", "2",
                 "--lr-grid", "0.001,0.01", "--log", str(log)]) == 1
    out = capsys.readouterr().out
    assert "0.001,nan,1," in out and "0.01,nan,1," in out
    for eta in ("0.001", "0.01"):
        assert [r.diverged for r in read_rows(f"{log}.eta{eta}.csv")] == [0, 1, 1]


@pytest.mark.parametrize("extra, message", [
    (["--algos", "qdop", "--lr", "1e30"], "sgd diverged: non-finite loss"),
    (["--algos", "qdop", "--activation", "relu", "--epsilon", "0"],
     "qdop diverged: non-finite update direction"),
], ids=["lr-1e30", "relu-epsilon0"])
def test_bench_names_the_diverging_algorithm_and_quantity(capsys, extra, message):
    rc = main(["bench", "--dataset", "synthetic-eeg", "--eeg-samples", "512",
               "--arch", "56,24,8,24,56", "--output", "gaussian", "--seed", "0", *extra])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"qdgrad: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "grid", "bench"])
@pytest.mark.parametrize("extra, message", [
    (["--sparsity", "-1"], "fan_in must be at least 1, got -1"),
    (["--output", "categorical"], "categorical output needs class targets"),
    (["--epsilon", "nan"], "epsilon must be a nonnegative finite number"),
    (["--batch-size", "0"], "batch size must be at least 1, got 0"),
    (["--epochs", "-1"], "epochs must be at least 0, got -1"),
    (["--config", "nope.cfg"], "nope.cfg: No such file or directory"),
    (["--arch", "8,0,8"], "every layer after the input needs at least 1 unit, got [8, 0, 8]"),
])
def test_config_errors_are_usage_errors(tmp_path, monkeypatch, capsys, command, extra, message):
    # status 2 with the message, not a traceback; status 1 means "diverged"
    monkeypatch.chdir(tmp_path)  # where no nope.cfg exists
    rc = main(run_args(command, *extra))
    assert rc == 2
    assert capsys.readouterr().err == f"qdgrad: error: {message}\n"


@pytest.mark.parametrize("argv, config, message", [
    (["verify"], "suite = nope\n",
     "unknown suite 'nope'; choose from fisher-consistency, gradcheck, invariance, "
     "op-quadratic, qdsolve-oracle, all"),
    (["--eeg-samples", "1"], None, "need at least 2 samples to span [0, 1]"),
    (["--eeg-samples", "32", "--n-valid", "40"], None, "validation size out of range"),
    (["train"], "dataset = foo\n",
     "unknown dataset 'foo'; choose from mnist, csv, synthetic-eeg"),
    (["train"], "activation = softplus\n",
     "unknown activation 'softplus'; choose from sigmoid, tanh, relu"),
    (["--train-limit", "0"], None, "train limit must be at least 1, got 0"),
    (["--train-limit", "-60"], None, "train limit must be at least 1, got -60"),
    (["--eeg-channels", "0", "--arch", "0,6,0"], None, "need at least 1 channel, got 0"),
    (["grid", "--lr-grid=,"], "dataset = synthetic-eeg\neeg-samples = 32\neeg-channels = 4\n"
     "arch = 4,3,4\noutput = gaussian\n", "grid needs at least one step-size"),
    (["train"], "algo qdop\n", "bad.cfg:1: expected key=value"),
    (["train"], b"\xff\xfealgo = qdop\n", "bad.cfg: not UTF-8 text at byte 0"),
    (["--dataset", "csv", "--csv", "nope.csv"], None, "nope.csv: No such file or directory"),
    (["--dataset", "csv", "--csv", "."], None, ".: Is a directory"),
    (["--dataset", "csv", "--csv", "bin.csv", "--arch", "3,2,3"], None,
     "bin.csv: not UTF-8 text at byte 0"),
    pytest.param(["train"], b"#" * 9000 + b"\n\xff", "bad.cfg: not UTF-8 text at byte 9001",
                 id="non-UTF-8-byte-past-the-first-read"),
])
def test_dataset_and_suite_errors_are_usage_errors(tmp_path, monkeypatch, capsys, argv, config,
                                                   message):
    # config values meet the flags' allowed values, and the dataset is built before the run
    monkeypatch.chdir(tmp_path)  # relative paths, as the messages quote them
    (tmp_path / "bin.csv").write_bytes(b"\xff\xfe1,2,3\n")  # a CSV that is not UTF-8
    if config is None:
        argv = run_args("train", *argv)
    else:
        (tmp_path / "bad.cfg").write_bytes(config if isinstance(config, bytes) else config.encode())
        argv = [*argv, "--config", "bad.cfg"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"qdgrad: error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["train", "--log", "missing/run.csv"], "missing/run.csv: No such file or directory"),
    (["train", "--log", "."], ".: Is a directory"),
    (["train", "--checkpoint", "missing/x.npz"], "missing/x.npz: No such file or directory"),
    (["grid", "--lr-grid", "0.01,0.1", "--log", "missing/g"],
     "missing/g.eta0.01.csv: No such file or directory"),
])
def test_an_unwritable_output_path_is_a_usage_error_before_any_step(tmp_path, monkeypatch,
                                                                     capsys, argv, message):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the output path was checked")

    monkeypatch.chdir(tmp_path)  # where no directory "missing" exists
    monkeypatch.setattr("qdgrad.harness.optimizer_step", no_step)
    assert main(run_args(*argv)) == 2
    assert capsys.readouterr().err == f"qdgrad: error: {message}\n"


def test_a_usage_error_leaves_an_existing_checkpoint_as_it_is(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where no directory "missing" exists
    old = tmp_path / "old.npz"
    old.write_bytes(b"an earlier run's checkpoint")
    assert main(run_args("train", "--checkpoint", "old.npz", "--log", "missing/l.csv")) == 2
    assert capsys.readouterr().err == "qdgrad: error: missing/l.csv: No such file or directory\n"
    assert old.read_bytes() == b"an earlier run's checkpoint"


@pytest.mark.parametrize("extra, message", [
    (["--lr-grid", "0.01,inf"], "eta must be a positive finite step-size"),
    (["--lr-grid", "0,0.01"], "eta must be a positive finite step-size"),
    (["--lr-grid", "0.01", "--epochs", "0"], "grid needs at least 1 epoch"),
], ids=["inf", "zero", "no-epochs"])
def test_a_bad_grid_is_a_usage_error_before_the_first_run(tmp_path, monkeypatch, capsys,
                                                          extra, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the grid was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("qdgrad.harness.run_training", no_run)
    assert main(run_args("grid", "--log", "g", *extra)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qdgrad: error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_is_written_to_the_path_given(tmp_path, monkeypatch, capsys):
    # no ".npz" is added, so the file printed is the file written
    monkeypatch.chdir(tmp_path)
    assert main(run_args("train", "--epochs", "1", "--checkpoint", "ck")) == 0
    assert "checkpoint written to ck\n" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
    net, model = load_checkpoint("ck")
    assert net.sizes == [8, 6, 8] and model.kind == "gaussian"


# the flags that train, grid and bench share
RUN_FLAGS = [
    "--activation", "--arch", "--batch-size", "--config", "--csv", "--csv-header",
    "--csv-targets", "--data-dir", "--dataset", "--dropout", "--eeg-channels", "--eeg-samples",
    "--epochs", "--epsilon", "--gamma", "--invert-inputs", "--n-valid", "--nmc", "--output",
    "--seed", "--sparsity", "--train-limit",
]


@pytest.mark.parametrize("command, flags", [
    ("train", RUN_FLAGS + ["--algo", "--lr", "--log", "--checkpoint"]),
    ("grid", RUN_FLAGS + ["--algo", "--lr-grid", "--log"]),
    ("bench", RUN_FLAGS + ["--algos", "--lr"]),
    ("verify", ["--config", "--suite"]),
])
def test_each_command_has_exactly_the_flags_it_reads(command, flags):
    parser = _build_parser()._subparsers._group_actions[0].choices[command]
    have = sorted(s for action in parser._actions for s in action.option_strings)
    assert have == sorted(flags + ["--help", "-h"])


@pytest.mark.parametrize("argv", [
    ["train", "--lr-grid", "0.5"],
    ["grid", "--lr", "0.1"],
    ["grid", "--checkpoint", "x.npz"],
    ["bench", "--algo", "qdop"],
    ["bench", "--lr-grid", "0.5"],
    ["bench", "--log", "x.csv"],
    ["bench", "--checkpoint", "x.npz"],
    ["verify", "--arch", "8,6,8"],
], ids=" ".join)
def test_a_flag_the_command_does_not_read_is_rejected(tmp_path, monkeypatch, capsys, argv):
    # "grid --lr" is not taken as an abbreviation of --lr-grid, nor "bench --algo" of --algos
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "grid", "bench"])
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_every_shipped_config_builds_a_run_under_each_run_command(path, command):
    # one file serves several commands: each keeps the keys it reads and checks the rest
    assert len(CONFIGS) == 6
    opt = _merge_options(_build_parser().parse_args([command, "--config", str(path)]))
    config = _run_config(opt)
    assert set(opt) == {dest for dest, o in OPTIONS.items() if command in o.commands}
    for key, raw in parse_config_file(path).items():
        dest = key.replace("-", "_")
        if dest in opt:
            assert opt[dest] == OPTIONS[dest].conv(raw)
            if hasattr(config, dest):
                assert getattr(config, dest) == opt[dest]


def test_invert_inputs_flag_inverts_the_loaded_features(tmp_path):
    def load(*extra):
        args = _build_parser().parse_args(run_args("train", *extra))
        return _load_dataset(_merge_options(args))

    plain, inverted = load(), load("--invert-inputs")
    assert np.array_equal(inverted.features, invert_features(plain).features)
    assert np.array_equal(inverted.train_idx, plain.train_idx)
    assert np.array_equal(inverted.valid_idx, plain.valid_idx)
    # training on the flag equals training on the pre-inverted data
    flag_log, pre_log = tmp_path / "flag.csv", tmp_path / "pre.csv"
    assert main(run_args("train", "--invert-inputs", "--log", str(flag_log))) == 0
    run_training(invert_features(plain),
                 RunConfig(arch=[8, 6, 8], output="gaussian", algo="qdop", lr=0.05, epochs=2,
                           batch_size=16, seed=3, log=str(pre_log)))
    assert len(read_rows(flag_log)) == 3
    logs_equal_modulo_wall(flag_log, pre_log)


def test_bench_times_inverted_inputs(monkeypatch, capsys):
    seen = []

    def record(run):
        seen.append(run.ds.features)

    monkeypatch.setattr("qdgrad.harness.Run.epoch", record)
    assert main(run_args("bench", "--algos", "sgd", "--invert-inputs")) == 0
    expected = invert_features(generate_eeg(64, n_channels=8, seed=3, n_valid=16)).features
    assert len(seen) == 3
    for features in seen:
        assert np.array_equal(features, expected)


def test_config_file_supplies_options(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dataset = synthetic-eeg\n"
        "eeg-samples = 64\n"
        "eeg-channels = 8\n"
        "n-valid = 16\n"
        "arch = 8,6,8\n"
        "output = gaussian\n"
        "algo = qdop\n"
        "lr = 0.05\n"
        "epochs = 2\n"
        "batch-size = 16\n"
        "seed = 3\n"
    )
    log_a = tmp_path / "a.csv"
    log_b = tmp_path / "b.csv"
    assert main(["train", "--config", str(cfg), "--log", str(log_a)]) == 0
    assert main(run_args("train", "--log", str(log_b))) == 0
    logs_equal_modulo_wall(log_a, log_b)


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = synthetic-eeg\neeg-samples = 64\n"
                   "eeg-channels = 8\narch = 8,6,8\noutput = gaussian\n"
                   "epochs = 1\nseed = 3\nbatch-size = 16\n")
    log_a = tmp_path / "a.csv"
    log_b = tmp_path / "b.csv"
    # seed flag overrides the file's seed; epochs comes from the file
    assert main(["train", "--config", str(cfg), "--seed", "7",
                 "--log", str(log_a)]) == 0
    assert main(["train", "--config", str(cfg), "--log", str(log_b)]) == 0
    ra, rb = read_rows(log_a), read_rows(log_b)
    assert len(ra) == len(rb) == 2  # both ran 1 epoch
    assert ra[-1].train_nll != rb[-1].train_nll  # but from different seeds


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no-such-option = 1\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == ("qdgrad: error: config file: "
                                       "unknown option 'no-such-option'\n")


def test_config_file_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = soon\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == ("qdgrad: error: config file: bad value for 'epochs': "
                                       "invalid literal for int() with base 10: 'soon'\n")


def test_grid_prints_summary_and_marks_best(tmp_path, capsys):
    rc = main([
        "grid", "--dataset", "synthetic-eeg", "--eeg-samples", "64",
        "--eeg-channels", "8", "--n-valid", "16", "--arch", "8,6,8",
        "--output", "gaussian", "--algo", "dop", "--lr-grid", "0.001,0.01",
        "--epochs", "1", "--batch-size", "16", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eta,final_valid_nll,diverged" in out
    assert out.count("*") == 1


def test_bench_reports_ratios(tmp_path, capsys):
    rc = main([
        "bench", "--dataset", "synthetic-eeg", "--eeg-samples", "96",
        "--eeg-channels", "8", "--arch", "8,6,8", "--output", "gaussian",
        "--algos", "sgd,dop", "--epochs", "3", "--batch-size", "16",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "algo,median_epoch_s,ratio_vs_sgd" in out
    assert "sgd," in out and "dop," in out


def test_verify_single_suite(capsys):
    rc = main(["verify", "--suite", "op-quadratic"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("op-quadratic: PASS")
