"""Command-line interface: train, grid, bench, and verify subcommands.

OPTIONS declares every option once, with the commands that read it. It builds
each command's flags, and a flat key=value config file (--config) goes through
the same converters and allowed values. A config file may set any option, so
one file serves several commands; each command keeps the options it reads.
Flags override file values, which override built-in defaults.
"""

import argparse
import sys
from collections import namedtuple
from dataclasses import MISSING, fields, replace
from pathlib import Path

from .data import generate_eeg, invert_features, load_csv, load_idx
from .harness import (DEFAULT_ETA_GRID, RunConfig, RunConfigError, benchmark, grid_search,
                      parse_config_file, run_training)
from .network import ACTIVATIONS
from .optim import ALGOS, DivergenceError
from .outputs import OUTPUT_MODELS
from .verify import SUITES, run_suite

__all__ = ["main"]

MNIST_IMAGES = "train-images-idx3-ubyte"
MNIST_LABELS = "train-labels-idx1-ubyte"


def _parse_bool(s):
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_list(conv):
    def parse(s):
        return [conv(v.strip()) for v in s.split(",") if v.strip()]
    parse.__name__ = f"{conv.__name__} list"  # argparse names it in "invalid ... value"
    return parse


def _given(**kwargs) -> dict:
    """The arguments that are set, so that the callee's defaults fill the rest."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _mnist(opt):
    d = Path(opt["data_dir"])
    images, labels = d / MNIST_IMAGES, d / MNIST_LABELS
    if not images.exists() or not labels.exists():
        raise RunConfigError(f"MNIST IDX files not found under {d} "
                             f"(expected {MNIST_IMAGES} and {MNIST_LABELS})")
    n_valid = opt["n_valid"]
    return load_idx(images, labels, n_valid=10_000 if n_valid is None else n_valid)


def _csv(opt):
    if not opt["csv"]:
        raise RunConfigError("--dataset csv needs --csv PATH")
    return load_csv(opt["csv"], **_given(target_columns=opt["csv_targets"],
                                         has_header=opt["csv_header"], n_valid=opt["n_valid"]))


def _eeg(opt):
    return generate_eeg(opt["eeg_samples"], seed=opt["seed"],
                        **_given(n_channels=opt["eeg_channels"], n_valid=opt["n_valid"]))


DATASETS = {"mnist": _mnist, "csv": _csv, "synthetic-eeg": _eeg}


# dest -> Option; the flag is --dest with "-" for "_", and the config key is either form.
# group: the --help section; conv: string -> value; default: None is unset, or RunConfig's
# default for its fields; choices: allowed values; commands: the commands that read it
RUN_COMMANDS = ("train", "grid", "bench")
Option = namedtuple("Option", "group conv default choices help commands",
                    defaults=(str, None, None, None, RUN_COMMANDS))
OPTIONS = {
    "dataset": Option("data", default="mnist", choices=list(DATASETS)),
    "data_dir": Option("data", default=".", help="directory holding the MNIST IDX files"),
    "csv": Option("data", help="CSV file for --dataset csv"),
    "csv_targets": Option("data", _parse_list(int), help="comma-separated target column indices"),
    "csv_header": Option("data", _parse_bool, help="skip the first CSV line"),
    "eeg_samples": Option("data", int, 2048),
    "eeg_channels": Option("data", int),
    "n_valid": Option("data", int, help="validation rows taken from the end"),
    "train_limit": Option("data", int, help="cap on training rows"),
    "invert_inputs": Option("data", _parse_bool, help="replace every feature x by 1 - x"),
    "arch": Option("model", _parse_list(int), help='layer sizes, e.g. "784,100,10"'),
    "activation": Option("model", choices=ACTIVATIONS),
    "output": Option("model", choices=list(OUTPUT_MODELS)),
    "dropout": Option("model", float),
    "sparsity": Option("model", int, help="random incoming connections per hidden unit"),
    "algo": Option("optimization", choices=ALGOS, commands=("train", "grid")),
    "algos": Option("optimization", _parse_list(str), commands=("bench",),
                    help='algorithms to time, e.g. "sgd,qdop,qdnat"'),
    "lr": Option("optimization", float, commands=("train", "bench")),
    "lr_grid": Option("optimization", _parse_list(float), commands=("grid",),
                      help='step-sizes to try, e.g. "1e-4,1e-3,1e-2"'),
    "gamma": Option("optimization", float),
    "epsilon": Option("optimization", float),
    "nmc": Option("optimization", int),
    "epochs": Option("optimization", int,
                     help="passes over the training rows; bench times at least 3"),
    "batch_size": Option("optimization", int),
    "seed": Option("optimization", int),
    "log": Option("outputs", help="CSV log path", commands=("train", "grid")),
    "checkpoint": Option("outputs", help="final model checkpoint path (.npz)",
                         commands=("train",)),
    "suite": Option("verification", default="all", choices=[*sorted(SUITES), "all"],
                    commands=("verify",)),
}


def _build_parser():
    p = argparse.ArgumentParser(prog="qdgrad", description="Quasi-diagonal Riemannian training")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, about) in COMMANDS.items():
        # an unset flag stays out of the namespace, so it overrides nothing; with no
        # abbreviations, "grid --lr" is an unknown flag rather than --lr-grid
        cmd = sub.add_parser(name, help=about, argument_default=argparse.SUPPRESS,
                             allow_abbrev=False)
        cmd.add_argument("--config", help="flat key=value option file; flags override it")
        groups = {}
        for dest, o in OPTIONS.items():
            if name in o.commands:
                if o.group not in groups:
                    groups[o.group] = cmd.add_argument_group(o.group)
                kw = ({"action": "store_true"} if o.conv is _parse_bool
                      else {"type": o.conv, "choices": o.choices})
                groups[o.group].add_argument("--" + dest.replace("_", "-"), help=o.help, **kw)
    return p


def _merge_options(args) -> dict:
    """builtin defaults < config file < explicit flags, for the options args.command reads.

    A config file may set any option; a value the command does not read is
    still checked, then left out.
    """
    run = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}
    merged = {dest: run.get(dest, o.default) for dest, o in OPTIONS.items()
              if args.command in o.commands}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            dest = key.replace("-", "_")
            if dest not in OPTIONS:
                raise RunConfigError(f"config file: unknown option {key!r}")
            try:
                val = OPTIONS[dest].conv(raw)
            except ValueError as e:
                raise RunConfigError(f"config file: bad value for {key!r}: {e}") from e
            choices = OPTIONS[dest].choices
            if choices is not None and val not in choices:
                raise RunConfigError(f"unknown {dest} {val!r}; choose from {', '.join(choices)}")
            if dest in merged:
                merged[dest] = val
    merged.update((dest, v) for dest, v in vars(args).items() if dest in OPTIONS)
    return merged


def _load_dataset(opt):
    """The run's dataset, inverted and limited as asked.

    A ValueError while it is built is a RunConfigError.
    """
    limit = opt["train_limit"]
    if limit is not None and limit < 1:
        raise RunConfigError(f"train limit must be at least 1, got {limit}")
    try:
        ds = DATASETS[opt["dataset"]](opt)
        if opt["invert_inputs"]:
            ds = invert_features(ds)
    except ValueError as e:
        raise RunConfigError(str(e)) from e
    return ds if limit is None else replace(ds, train_idx=ds.train_idx[:limit])


def _run_config(opt) -> RunConfig:
    if opt["arch"] is None:
        raise RunConfigError("--arch is required (e.g. --arch 784,100,10)")
    return RunConfig(**{f.name: opt[f.name] for f in fields(RunConfig) if f.name in opt})


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
    etas = DEFAULT_ETA_GRID if opt["lr_grid"] is None else opt["lr_grid"]
    res = grid_search(ds, _run_config(opt), etas)
    print("\n".join(res.summary_lines()))
    return 0 if res.best is not None else 1


def cmd_bench(opt) -> int:
    ds = _load_dataset(opt)
    try:
        res = benchmark(ds, _run_config(opt), algos=opt["algos"])
    except DivergenceError as e:
        print(f"qdgrad: {e}", file=sys.stderr)
        return 1
    print("\n".join(res.summary_lines()))
    return 0


def cmd_verify(opt) -> int:
    ok = True
    for name in sorted(SUITES) if opt["suite"] == "all" else [opt["suite"]]:
        result = run_suite(name)
        print(result.summary())
        ok &= result.passed
    return 0 if ok else 1


# command -> (handler, help)
COMMANDS = {
    "train": (cmd_train, "run one training config"),
    "grid": (cmd_grid, "step-size grid search"),
    "bench": (cmd_bench, "per-epoch timing ratios"),
    "verify": (cmd_verify, "run built-in verification suites"),
}


def main(argv=None) -> int:
    """Run the command in argv; return its exit status.

    A usage error is a RunConfigError, raised while a run is built and never
    by a step: main prints "qdgrad: error: <message>" and returns 2. A flag
    that argparse rejects exits with status 2 from argparse itself.
    """
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](_merge_options(args))
    except RunConfigError as e:
        print(f"qdgrad: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
