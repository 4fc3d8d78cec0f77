import numpy as np
import pytest
from conftest import write_csv

from qdgrad.cli import _build_parser, main
from qdgrad.data import generate_eeg
from qdgrad.harness import TrainLog
from qdgrad.network import load_checkpoint


def eeg_args(tmp_path, *extra):
    return [
        "train", "--dataset", "synthetic-eeg", "--eeg-samples", "64",
        "--eeg-channels", "8", "--n-valid", "16", "--arch", "8,6,8",
        "--output", "gaussian", "--algo", "qdop", "--lr", "0.05",
        "--epochs", "2", "--batch-size", "16", "--seed", "3",
        *extra,
    ]


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
    rc = main(eeg_args(tmp_path, "--log", str(log), "--checkpoint", str(ckpt)))
    assert rc == 0
    out = capsys.readouterr().out
    assert "epoch 2:" in out and str(log) in out and str(ckpt) in out
    rows = read_rows(log)
    assert [r.epoch for r in rows] == [0, 1, 2]
    net, model = load_checkpoint(ckpt)
    assert net.sizes == [8, 6, 8] and model.kind == "gaussian"


def test_train_requires_arch(tmp_path):
    with pytest.raises(SystemExit, match="--arch"):
        main(["train", "--dataset", "synthetic-eeg", "--eeg-samples", "32",
              "--eeg-channels", "4", "--output", "gaussian"])


def test_train_missing_mnist_dir_errors(tmp_path):
    with pytest.raises(SystemExit, match="IDX files not found"):
        main(["train", "--dataset", "mnist", "--data-dir", str(tmp_path),
              "--arch", "784,10,10"])


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
    rc = main([command, *eeg_args(tmp_path, *extra)[1:]])
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
        argv = eeg_args(tmp_path, *argv)
    else:
        (tmp_path / "bad.cfg").write_bytes(config if isinstance(config, bytes) else config.encode())
        argv = [*argv, "--config", "bad.cfg"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"qdgrad: error: {message}\n"


COMMON_FLAGS = [
    "--activation", "--algo", "--arch", "--batch-size", "--checkpoint", "--config", "--csv",
    "--csv-header", "--csv-targets", "--data-dir", "--dataset", "--dropout", "--eeg-channels",
    "--eeg-samples", "--epochs", "--epsilon", "--gamma", "--help", "--invert-inputs", "--log",
    "--lr", "--lr-grid", "--n-valid", "--nmc", "--output", "--seed", "--sparsity",
    "--train-limit", "-h",
]


@pytest.mark.parametrize("command, own", [
    ("train", []), ("grid", []), ("bench", ["--algos"]), ("verify", ["--suite"]),
])
def test_each_command_has_the_shared_flags_and_its_own(command, own):
    parser = _build_parser()._subparsers._group_actions[0].choices[command]
    flags = sorted(s for action in parser._actions for s in action.option_strings)
    assert flags == sorted(COMMON_FLAGS + own)


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
    assert main(eeg_args(tmp_path, "--log", str(log_b))) == 0
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


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no-such-option = 1\n")
    with pytest.raises(SystemExit, match="unknown option"):
        main(["train", "--config", str(cfg)])


def test_config_file_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = soon\n")
    with pytest.raises(SystemExit, match="bad value"):
        main(["train", "--config", str(cfg)])


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
