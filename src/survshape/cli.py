"""Command-line pipeline: fit the black box, explain it, generate data, evaluate.

Exit codes: 0 success, 2 usage, 3 data error, 4 numeric/training error.
Every command resolves its defaults, echoes the effective configuration
to stdout and into report.txt, and writes fixed filenames under --out
(forest.bin, explanation.csv, nam.json, shapes.svg, dataset.csv,
log_risk.csv, report.txt). Reruns with identical flags produce
byte-identical outputs.

Each subcommand also accepts `--config file.json`: a flat JSON object of
option names (underscored, e.g. {"min_leaf_events": 5}) that overrides the
built-in defaults; explicit flags still win over the config file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .data import (
    DatasetSchema,
    export_csv,
    load_and_split_csv,
    load_prepared_csv,
    read_csv_rows,
)
from .errors import DataError, NumericError, SurvShapeError, _atomic_open, _read_json
from .explain import explain_global, explain_local, surrogate_c_index
from .forest import (
    ForestConfig,
    fit_forest,
    load_forest,
    save_forest,
)
from .nam import NamConfig, load_model, save_model
from .report import (
    _fmt,
    explanation_summary,
    write_explanation_csv,
    write_shapes_svg,
)
from .survival import concordance_index, risk_scores
from .synthetic import SHAPE_FUNCTIONS, SyntheticSpec, generate_cox_data

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _UsageError(Exception):
    pass


def _banner(args) -> str:
    """The command's name, then every option it runs with, in flag order."""
    lines = [f"survshape {args.command} (v{__version__})"]
    lines += [f"  {key} = {_fmt(value)}" for key, value in vars(args).items()
              if key not in ("command", "func", "config")]
    return "\n".join(lines)


def _parse_list(args, dest: str, kind):
    """The comma-separated values of a flag, each parsed by kind (int or float)."""
    text = getattr(args, dest)
    try:
        return tuple(kind(item) for item in text.split(","))
    except ValueError:
        raise _UsageError(f"--{dest.replace('_', '-')} needs comma-separated "
                          f"{kind.__name__}s, not {text!r}") from None


def _write_report(out_dir: str, banner: str, body_lines: list[str]) -> None:
    with _atomic_open(os.path.join(out_dir, "report.txt")) as fh:
        fh.write(banner + "\n\n" + "\n".join(body_lines) + "\n")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _load_dataset_for(forest_extra: Optional[dict], path: str):
    """Encode a CSV the same way the forest's training data was encoded."""
    if forest_extra and forest_extra.get("schema"):
        schema = DatasetSchema.from_dict(forest_extra["schema"])
        return schema.transform(read_csv_rows(path))
    return load_prepared_csv(path)


def cmd_fit(args) -> int:
    banner = _banner(args)
    print(banner)

    if args.schema is not None:
        schema = DatasetSchema.from_config(args.schema)
        train, test = load_and_split_csv(args.data, schema, args.test_fraction,
                                         args.seed)
        schema_blob = schema.to_dict()
    else:
        from .data import train_test_split
        dataset = load_prepared_csv(args.data)
        train, test = train_test_split(dataset, args.test_fraction, args.seed)
        schema_blob = None

    config = ForestConfig(
        n_trees=args.trees, min_leaf_events=args.min_leaf_events,
        max_depth=args.max_depth, features_per_split=args.features_per_split,
        seed=args.seed, gamma_fraction=args.gamma_fraction,
    )
    forest = fit_forest(train, config)
    out = _ensure_out(args.out)
    c_train = concordance_index(risk_scores(forest, train.features), train)
    c_test = concordance_index(risk_scores(forest, test.features), test)
    save_forest(forest, os.path.join(out, "forest.bin"),
                extra={"schema": schema_blob})

    body = [
        f"train_samples = {train.n}",
        f"test_samples = {test.n}",
        f"features = {train.m}",
        f"c_index_train = {_fmt(c_train)}",
        f"c_index_test = {_fmt(c_test)}",
        "forest = forest.bin",
    ]
    _write_report(out, banner, body)
    print("\n".join(body))
    return EXIT_OK


def cmd_explain(args) -> int:
    if args.mode == "local" and args.center_row is None and args.center_values is None:
        raise _UsageError("local mode needs --center-row or --center-values")
    if args.center_row is not None and args.center_values is not None:
        raise _UsageError("give only one of --center-row / --center-values")
    if args.mu is None:
        args.mu = 1.0 if args.variant == "shortcut" else 0.0

    hidden = _parse_list(args, "hidden", int)
    banner = _banner(args)
    print(banner)

    forest, extra = load_forest(args.forest)
    dataset = _load_dataset_for(extra, args.data)
    config = NamConfig(hidden_sizes=hidden, activation=args.activation,
                       learning_rate=args.learning_rate, epochs=args.epochs,
                       batch=args.batch, seed=args.seed, variant=args.variant)

    if args.mode == "local":
        if args.center_row is not None:
            if not 0 <= args.center_row < dataset.n:
                raise DataError(f"--center-row {args.center_row} outside 0..{dataset.n - 1}")
            center = dataset.features[args.center_row]
        else:
            center = np.array(_parse_list(args, "center_values", float))
            if center.shape != (dataset.m,):
                raise _UsageError(
                    f"--center-values needs {dataset.m} comma-separated numbers")
    out = _ensure_out(args.out)
    if args.mode == "local":
        explanation = explain_local(forest, dataset, center, config,
                                    lam=args.lam, mu=args.mu,
                                    n_points=args.n_points, epsilon=args.epsilon,
                                    seed=args.seed)
    else:
        explanation = explain_global(forest, dataset, config, lam=args.lam,
                                     mu=args.mu, epsilon=args.epsilon)

    write_explanation_csv(explanation, os.path.join(out, "explanation.csv"))
    save_model(explanation.model, os.path.join(out, "nam.json"))
    body = [f"{k} = {v}" for k, v in explanation_summary(explanation)]
    body.append("explanation = explanation.csv")
    body.append("model = nam.json")
    if args.svg:
        write_shapes_svg(explanation, os.path.join(out, "shapes.svg"))
        body.append("shapes = shapes.svg")
    _write_report(out, banner, body)
    print("\n".join(body))
    return EXIT_OK


def cmd_synth(args) -> int:
    if (args.coef is None) == (args.shapes is None):
        raise _UsageError("give exactly one of --coef / --shapes")
    coef = None if args.coef is None else _parse_list(args, "coef", float)
    shapes = None if args.shapes is None else tuple(args.shapes.split(","))
    out = _ensure_out(args.out)
    banner = _banner(args)
    print(banner)

    spec = SyntheticSpec(n=args.n, m=args.m, coef=coef, shapes=shapes,
                         scale=args.scale, shape_param=args.shape,
                         censoring_rate=args.censoring,
                         feature_distribution=args.dist, seed=args.seed)
    dataset, risk = generate_cox_data(spec)
    export_csv(dataset, os.path.join(out, "dataset.csv"))
    with _atomic_open(os.path.join(out, "log_risk.csv")) as fh:
        fh.write("row,log_risk\n")
        for i, value in enumerate(risk):
            fh.write(f"{i},{float(value)!r}\n")
    body = [
        f"samples = {dataset.n}",
        f"events = {int(dataset.events.sum())}",
        "dataset = dataset.csv",
        "log_risk = log_risk.csv",
    ]
    _write_report(out, banner, body)
    print("\n".join(body))
    return EXIT_OK


def cmd_eval(args) -> int:
    banner = _banner(args)
    print(banner)

    forest, extra = load_forest(args.forest)
    model = load_model(args.model)
    test = _load_dataset_for(extra, args.data)
    out = _ensure_out(args.out)
    c_blackbox, c_surrogate = surrogate_c_index(model, forest, test)
    body = [
        f"test_samples = {test.n}",
        f"c_index_blackbox = {_fmt(c_blackbox)}",
        f"c_index_surrogate = {_fmt(c_surrogate)}",
    ]
    _write_report(out, banner, body)
    print("\n".join(body))
    return EXIT_OK


# Flags a command cannot run without; enforced after config-file merging.
_REQUIRED = {
    "fit": ("data", "out"),
    "explain": ("forest", "data", "out"),
    "synth": ("n", "m", "out"),
    "eval": ("forest", "model", "data", "out"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="survshape",
        description="Explain black-box survival models with additive shape functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = subparsers["fit"] = sub.add_parser(
        "fit", help="fit the random survival forest black box")
    p.add_argument("--data", help="training CSV")
    p.add_argument("--schema", default=None,
                   help="JSON schema config; omit for already-encoded CSVs")
    p.add_argument("--out", help="output directory")
    p.add_argument("--trees", type=int, default=500)
    p.add_argument("--min-leaf-events", type=int, default=3)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--features-per-split", type=int, default=None)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--gamma-fraction", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fit)

    p = subparsers["explain"] = sub.add_parser(
        "explain", help="fit the additive surrogate and export curves")
    p.add_argument("--forest", help="forest.bin from `fit`")
    p.add_argument("--data",
                   help="CSV encoded like the training data (baseline + reference)")
    p.add_argument("--out")
    p.add_argument("--mode", choices=("local", "global"), default="global")
    p.add_argument("--variant", choices=("base", "lasso", "shortcut"), default="base")
    p.add_argument("--center-row", type=int, default=None,
                   help="row of --data to explain (local mode)")
    p.add_argument("--center-values", default=None,
                   help="comma-separated encoded feature values (local mode)")
    p.add_argument("--n-points", type=int, default=100)
    p.add_argument("--lam", type=float, default=0.0, help="L1 strength")
    p.add_argument("--mu", type=float, default=None,
                   help="L2 strength on subnet parameters (default 1 for shortcut, else 0)")
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--hidden", default="64,32")
    p.add_argument("--activation", choices=("relu", "tanh"), default="relu")
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", action="store_true", help="also write shapes.svg")
    p.set_defaults(func=cmd_explain)

    p = subparsers["synth"] = sub.add_parser(
        "synth", help="generate proportional-hazards data with known truth")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--coef", default=None, help="comma-separated linear coefficients")
    p.add_argument("--shapes", default=None,
                   help="comma-separated shape names: " + ",".join(sorted(SHAPE_FUNCTIONS)))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--shape", type=float, default=1.0, help="Weibull shape parameter")
    p.add_argument("--censoring", type=float, default=0.0)
    p.add_argument("--dist", choices=("uniform", "normal"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = subparsers["eval"] = sub.add_parser(
        "eval", help="C-index of black box and surrogate on held-out data")
    p.add_argument("--forest")
    p.add_argument("--model", help="nam.json from `explain`")
    p.add_argument("--data", help="held-out CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    for name, sp in subparsers.items():
        sp.add_argument("--config", default=None,
                        help="JSON file of option defaults (flags still win)")
    return parser, subparsers


def _apply_config(subparser, command, path):
    """Load a flat JSON option map and install it as the command's defaults."""
    overrides = _read_json(path, "config")
    if not isinstance(overrides, dict):
        raise _UsageError(f"config {path} must hold a JSON object")
    actions = {action.dest: action for action in subparser._actions
               if action.dest not in ("help", "config")}
    unknown = sorted(set(overrides) - set(actions))
    if unknown:
        raise _UsageError(f"config {path}: unknown option(s) for {command}: "
                          + ", ".join(unknown))
    subparser.set_defaults(**{key: _config_value(actions[key], value, path)
                              for key, value in overrides.items()})


def _config_value(action, value, path):
    """A config value checked against the type its flag parses to.

    An int counts for a float flag and becomes a float; a bool counts only
    for an on/off flag; null counts for a flag whose default is None.
    """
    expected = bool if action.nargs == 0 else (action.type or str)
    if expected is float and type(value) is int:
        value = float(value)
    if value is None and action.default is None:
        return value
    if type(value) is not expected:
        raise _UsageError(f"config {path}: {action.dest} must be {expected.__name__}, "
                          f"not {type(value).__name__}")
    if action.choices is not None and value not in action.choices:
        raise _UsageError(f"config {path}: {action.dest} must be one of "
                          + ", ".join(action.choices))
    return value


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _apply_config(subparsers[args.command], args.command, args.config)
            args = parser.parse_args(argv)  # explicit flags override config values
        missing = [name for name in _REQUIRED[args.command]
                   if getattr(args, name) is None]
        if missing:
            raise _UsageError(f"{args.command} needs " +
                              ", ".join(f"--{m.replace('_', '-')}" for m in missing))
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SurvShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
