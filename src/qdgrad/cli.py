"""Command-line interface: train, grid, bench, and verify subcommands.

Options may come from a flat key=value config file (--config); explicit
flags override file values, which override built-in defaults.
"""

import argparse
import sys
from pathlib import Path

from .data import generate_eeg, load_csv, load_idx
from .harness import (
    DEFAULT_ETA_GRID,
    RunConfig,
    RunConfigError,
    benchmark,
    grid_search,
    parse_config_file,
    run_training,
)
from .optim import ALGOS
from .verify import SUITES, run_suite

__all__ = ["main"]

MNIST_IMAGES = "train-images-idx3-ubyte"
MNIST_LABELS = "train-labels-idx1-ubyte"


def _parse_bool(s):
    if isinstance(s, bool):
        return s
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_ints(s):
    return [int(v) for v in str(s).split(",") if v.strip()]


def _parse_floats(s):
    return [float(v) for v in str(s).split(",") if v.strip()]


def _parse_names(s):
    return [v.strip() for v in str(s).split(",") if v.strip()]


# dest -> (converter, default); the single source of truth for option merging
OPTIONS = {
    "dataset": (str, "mnist"),
    "data_dir": (str, "."),
    "csv": (str, None),
    "csv_targets": (_parse_ints, None),
    "csv_header": (_parse_bool, False),
    "eeg_samples": (int, 2048),
    "eeg_channels": (int, 56),
    "n_valid": (int, None),
    "train_limit": (int, None),
    "arch": (_parse_ints, None),
    "activation": (str, "sigmoid"),
    "output": (str, "categorical"),
    "algo": (str, "sgd"),
    "algos": (_parse_names, None),
    "lr": (float, 0.01),
    "lr_grid": (_parse_floats, None),
    "gamma": (float, 0.01),
    "epsilon": (float, 1e-8),
    "nmc": (int, 1),
    "epochs": (int, 1),
    "batch_size": (int, 100),
    "dropout": (float, 0.0),
    "sparsity": (int, None),
    "invert_inputs": (_parse_bool, False),
    "seed": (int, 0),
    "log": (str, None),
    "checkpoint": (str, None),
    "suite": (str, "all"),
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("data")
    g.add_argument("--config", help="flat key=value option file; flags override it")
    g.add_argument("--dataset", choices=["mnist", "csv", "synthetic-eeg"])
    g.add_argument("--data-dir", help="directory holding the MNIST IDX files")
    g.add_argument("--csv", help="CSV file for --dataset csv")
    g.add_argument("--csv-targets", help="comma-separated target column indices")
    g.add_argument("--csv-header", action="store_true", default=None,
                   help="skip the first CSV line")
    g.add_argument("--eeg-samples", type=int)
    g.add_argument("--eeg-channels", type=int)
    g.add_argument("--n-valid", type=int, help="validation rows taken from the end")
    g.add_argument("--train-limit", type=int, help="cap on training rows")
    g.add_argument("--invert-inputs", action="store_true", default=None,
                   help="train on 1 - x instead of x")

    m = common.add_argument_group("model")
    m.add_argument("--arch", help='layer sizes, e.g. "784,100,10"')
    m.add_argument("--activation", choices=["sigmoid", "tanh", "relu"])
    m.add_argument("--output",
                   choices=["categorical", "gaussian", "gaussian-learned", "bernoulli"])
    m.add_argument("--dropout", type=float)
    m.add_argument("--sparsity", type=int, metavar="FAN_IN",
                   help="random incoming connections per hidden unit")

    o = common.add_argument_group("optimization")
    o.add_argument("--algo", choices=list(ALGOS))
    o.add_argument("--lr", type=float)
    o.add_argument("--lr-grid", help='step-sizes for grid, e.g. "1e-4,1e-3,1e-2"')
    o.add_argument("--gamma", type=float)
    o.add_argument("--epsilon", type=float)
    o.add_argument("--nmc", type=int)
    o.add_argument("--epochs", type=int)
    o.add_argument("--batch-size", type=int)
    o.add_argument("--seed", type=int)

    io = common.add_argument_group("outputs")
    io.add_argument("--log", help="CSV log path")
    io.add_argument("--checkpoint", help="final model checkpoint path (.npz)")

    p = argparse.ArgumentParser(prog="qdgrad",
                                description="Quasi-diagonal Riemannian training")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("train", parents=[common], help="run one training config")
    sub.add_parser("grid", parents=[common], help="step-size grid search")
    b = sub.add_parser("bench", parents=[common], help="per-epoch timing ratios")
    b.add_argument("--algos", help='algorithms to time, e.g. "sgd,qdop,qdnat"')
    v = sub.add_parser("verify", parents=[common],
                       help="run built-in verification suites")
    v.add_argument("--suite", choices=sorted(SUITES) + ["all"])
    return p


def _merge_options(args) -> dict:
    """builtin defaults < config file < explicit flags."""
    merged = {dest: default for dest, (_, default) in OPTIONS.items()}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            dest = key.replace("-", "_")
            if dest not in OPTIONS:
                raise SystemExit(f"config file: unknown option {key!r}")
            conv = OPTIONS[dest][0]
            try:
                merged[dest] = conv(raw)
            except ValueError as e:
                raise SystemExit(f"config file: bad value for {key!r}: {e}")
    for dest in OPTIONS:
        val = getattr(args, dest, None)
        if val is not None:
            conv = OPTIONS[dest][0]
            merged[dest] = conv(val) if isinstance(val, str) else val
    return merged


def _load_dataset(opt):
    n_valid = opt["n_valid"]
    if opt["dataset"] == "mnist":
        d = Path(opt["data_dir"])
        images, labels = d / MNIST_IMAGES, d / MNIST_LABELS
        if not images.exists() or not labels.exists():
            raise SystemExit(
                f"MNIST IDX files not found under {d} "
                f"(expected {MNIST_IMAGES} and {MNIST_LABELS})"
            )
        ds = load_idx(images, labels, n_valid=10_000 if n_valid is None else n_valid)
    elif opt["dataset"] == "csv":
        if not opt["csv"]:
            raise SystemExit("--dataset csv needs --csv PATH")
        ds = load_csv(opt["csv"], target_columns=opt["csv_targets"],
                      has_header=opt["csv_header"],
                      n_valid=0 if n_valid is None else n_valid)
    elif opt["dataset"] == "synthetic-eeg":
        ds = generate_eeg(opt["eeg_samples"], n_channels=opt["eeg_channels"],
                          seed=opt["seed"],
                          n_valid=0 if n_valid is None else n_valid)
    else:
        raise SystemExit(f"unknown dataset {opt['dataset']!r}")
    if opt["train_limit"] is not None:
        ds = ds.with_split(ds.train_idx[: opt["train_limit"]], ds.valid_idx)
    return ds


def _run_config(opt) -> RunConfig:
    if opt["arch"] is None:
        raise SystemExit("--arch is required (e.g. --arch 784,100,10)")
    return RunConfig(
        arch=opt["arch"], activation=opt["activation"], output=opt["output"],
        algo=opt["algo"], lr=opt["lr"], gamma=opt["gamma"],
        epsilon=opt["epsilon"], nmc=opt["nmc"], epochs=opt["epochs"],
        batch_size=opt["batch_size"], dropout=opt["dropout"],
        sparsity=opt["sparsity"], invert_inputs=opt["invert_inputs"],
        seed=opt["seed"], log=opt["log"], checkpoint=opt["checkpoint"],
    )


def cmd_train(opt) -> int:
    ds = _load_dataset(opt)
    log = run_training(ds, _run_config(opt))
    if log.rows:
        r = log.final
        print(f"epoch {r.epoch}: train_nll={r.train_nll:.6g} "
              f"train_err={r.train_err:.6g} valid_nll={r.valid_nll:.6g} "
              f"valid_err={r.valid_err:.6g} diverged={r.diverged}")
    if opt["log"]:
        print(f"log written to {opt['log']}")
    if opt["checkpoint"]:
        print(f"checkpoint written to {opt['checkpoint']}")
    return 1 if log.diverged else 0


def cmd_grid(opt) -> int:
    ds = _load_dataset(opt)
    etas = opt["lr_grid"] if opt["lr_grid"] else DEFAULT_ETA_GRID
    res = grid_search(ds, _run_config(opt), etas)
    for line in res.summary_lines():
        print(line)
    return 0 if res.best is not None else 1


def cmd_bench(opt) -> int:
    ds = _load_dataset(opt)
    res = benchmark(ds, _run_config(opt), algos=opt["algos"],
                    epochs=max(3, opt["epochs"]))
    for line in res.summary_lines():
        print(line)
    return 0


def cmd_verify(opt) -> int:
    names = sorted(SUITES) if opt["suite"] == "all" else [opt["suite"]]
    ok = True
    for name in names:
        result = run_suite(name)
        print(result.summary())
        ok &= result.passed
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    opt = _merge_options(args)
    handler = {"train": cmd_train, "grid": cmd_grid,
               "bench": cmd_bench, "verify": cmd_verify}[args.command]
    try:
        return handler(opt)
    except RunConfigError as e:  # raised only while a run is built, never by a step
        print(f"qdgrad: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
