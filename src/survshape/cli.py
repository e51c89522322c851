"""Command-line pipeline: fit the black box, explain it, generate data, evaluate.

Exit codes: 0 success, 2 usage, 3 data error, 4 numeric/training error,
130 interrupted (SIGINT, e.g. Ctrl-C), each failure with one stderr line.
Every command resolves its defaults, echoes the effective configuration
to stdout and into report.txt, and writes fixed filenames under --out
(forest.bin, explanation.csv, nam.json, shapes.svg, dataset.csv,
log_risk.csv, report.txt). No command creates --out until everything it
writes is computed, so a command that fails leaves no directory behind.
Reruns with identical flags produce byte-identical outputs.

Each subcommand also accepts `--config file.json`: a flat JSON object of
option names (underscored, e.g. {"min_leaf_events": 5}) that overrides the
built-in defaults; explicit flags still win over the config file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .data import (
    DatasetSchema,
    export_csv,
    load_and_split_csv,
    load_prepared_csv,
    read_csv_rows,
    train_test_split,
)
from .errors import DataError, NumericError, SurvShapeError, _atomic_open, _read_json
from .explain import explain_global, explain_local, surrogate_c_index
from .forest import (
    ForestConfig,
    fit_forest,
    load_forest,
    save_forest,
)
from .nam import ACTIVATIONS, VARIANTS, NamConfig, load_model, save_model
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
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process it interrupted


class _UsageError(Exception):
    pass


def _banner(args) -> str:
    """The command's name, then every option it runs with, in flag order."""
    lines = [f"survshape {args.command} (v{__version__})"]
    lines += [f"  {key} = {_fmt(value)}" for key, value in vars(args).items()
              if key not in ("command", "func", "config")]
    return "\n".join(lines)


def _parse_list(args, dest: str, kind):
    """The comma-separated values of a flag, each parsed by kind (int or finite float)."""
    text = getattr(args, dest)
    flag = f"--{dest.replace('_', '-')}"
    items = text.split(",")
    try:
        values = tuple(kind(item) for item in items)
    except ValueError:
        raise _UsageError(f"{flag} needs comma-separated {kind.__name__}s, "
                          f"not {text!r}") from None
    for item, value in zip(items, values):
        if not math.isfinite(value):
            raise _UsageError(f"{flag} needs finite numbers, not {item.strip()!r}")
    return values


def _finish(args, pairs, artifacts=()) -> int:
    """Create --out, write the artifacts and report.txt, print the results.

    The one place a command writes under --out, called once the command's
    work has succeeded. Each artifact is (report key, file name, writer);
    the writer gets the file's path and the report gets `key = file name`.
    """
    os.makedirs(args.out, exist_ok=True)
    pairs = list(pairs)
    for key, name, write in artifacts:
        write(os.path.join(args.out, name))
        pairs.append((key, name))
    body = "\n".join(f"{key} = {_fmt(value)}" for key, value in pairs)
    with _atomic_open(os.path.join(args.out, "report.txt")) as fh:
        fh.write(_banner(args) + "\n\n" + body + "\n")
    print(body)
    return EXIT_OK


def _check_features(what: str, names, forest) -> None:
    """DataError unless names are the forest's feature names, in the forest's order."""
    if tuple(names) != forest.feature_names:
        raise DataError(f"{what} {list(names)} do not match the forest's features "
                        f"{list(forest.feature_names)}")


def _load_dataset_for(forest, forest_extra: dict | None, path: str):
    """A CSV encoded as the forest's training data was; its columns must be the forest's."""
    if forest_extra and forest_extra.get("schema"):
        dataset = DatasetSchema.from_dict(forest_extra["schema"]).transform(read_csv_rows(path))
    else:
        dataset = load_prepared_csv(path)
    _check_features(f"{path}: data columns", dataset.feature_names, forest)
    return dataset


def cmd_fit(args) -> int:
    print(_banner(args))

    if args.schema is not None:
        schema = DatasetSchema.from_config(args.schema)
        train, test = load_and_split_csv(args.data, schema, args.test_fraction,
                                         args.seed)
        schema_blob = schema.to_dict()
    else:
        dataset = load_prepared_csv(args.data)
        train, test = train_test_split(dataset, args.test_fraction, args.seed)
        schema_blob = None

    config = ForestConfig(
        n_trees=args.trees, min_leaf_events=args.min_leaf_events,
        max_depth=args.max_depth, features_per_split=args.features_per_split,
        seed=args.seed, gamma_fraction=args.gamma_fraction,
    )
    forest = fit_forest(train, config)
    c_train = concordance_index(risk_scores(forest, train.features), train)
    c_test = concordance_index(risk_scores(forest, test.features), test)
    write_forest = partial(save_forest, forest, extra={"schema": schema_blob})
    return _finish(args, [
        ("train_samples", train.n),
        ("test_samples", test.n),
        ("features", train.m),
        ("c_index_train", c_train),
        ("c_index_test", c_test),
    ], [("forest", "forest.bin", write_forest)])


def cmd_explain(args) -> int:
    if args.mode == "local" and args.center_row is None and args.center_values is None:
        raise _UsageError("local mode needs --center-row or --center-values")
    if args.center_row is not None and args.center_values is not None:
        raise _UsageError("give only one of --center-row / --center-values")
    if args.mu is None:
        args.mu = 1.0 if args.variant == "shortcut" else 0.0

    hidden = _parse_list(args, "hidden", int)
    print(_banner(args))

    forest, extra = load_forest(args.forest)
    dataset = _load_dataset_for(forest, extra, args.data)
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
        explanation = explain_local(forest, dataset, center, config,
                                    lam=args.lam, mu=args.mu,
                                    n_points=args.n_points, epsilon=args.epsilon,
                                    seed=args.seed)
    else:
        explanation = explain_global(forest, dataset, config, lam=args.lam,
                                     mu=args.mu, epsilon=args.epsilon)

    artifacts = [
        ("explanation", "explanation.csv", partial(write_explanation_csv, explanation)),
        ("model", "nam.json", partial(save_model, explanation.model)),
    ]
    if args.svg:
        artifacts.append(("shapes", "shapes.svg", partial(write_shapes_svg, explanation)))
    return _finish(args, explanation_summary(explanation), artifacts)


def cmd_synth(args) -> int:
    if (args.coef is None) == (args.shapes is None):
        raise _UsageError("give exactly one of --coef / --shapes")
    coef = None if args.coef is None else _parse_list(args, "coef", float)
    shapes = None if args.shapes is None else tuple(args.shapes.split(","))
    print(_banner(args))

    spec = SyntheticSpec(n=args.n, m=args.m, coef=coef, shapes=shapes,
                         scale=args.scale, shape_param=args.shape,
                         censoring_rate=args.censoring,
                         feature_distribution=args.dist, seed=args.seed)
    dataset, risk = generate_cox_data(spec)

    def write_log_risk(path):
        with _atomic_open(path) as fh:
            fh.write("row,log_risk\n")
            for i, value in enumerate(risk):
                fh.write(f"{i},{float(value)!r}\n")

    return _finish(args, [
        ("samples", dataset.n),
        ("events", int(dataset.events.sum())),
    ], [
        ("dataset", "dataset.csv", partial(export_csv, dataset)),
        ("log_risk", "log_risk.csv", write_log_risk),
    ])


def cmd_eval(args) -> int:
    print(_banner(args))

    forest, extra = load_forest(args.forest)
    model = load_model(args.model)
    if model.feature_names is not None:
        _check_features(f"{args.model}: model features", model.feature_names, forest)
    test = _load_dataset_for(forest, extra, args.data)
    c_blackbox, c_surrogate = surrogate_c_index(model, forest, test)
    return _finish(args, [
        ("test_samples", test.n),
        ("c_index_blackbox", c_blackbox),
        ("c_index_surrogate", c_surrogate),
    ])


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
    p.add_argument("--trees", type=int, default=ForestConfig.n_trees)
    p.add_argument("--min-leaf-events", type=int, default=ForestConfig.min_leaf_events)
    p.add_argument("--max-depth", type=int, default=ForestConfig.max_depth)
    p.add_argument("--features-per-split", type=int, default=ForestConfig.features_per_split)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--gamma-fraction", type=float, default=ForestConfig.gamma_fraction)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fit)

    p = subparsers["explain"] = sub.add_parser(
        "explain", help="fit the additive surrogate and export curves")
    p.add_argument("--forest", help="forest.bin from `fit`")
    p.add_argument("--data",
                   help="CSV encoded like the training data (baseline + reference)")
    p.add_argument("--out")
    p.add_argument("--mode", choices=("local", "global"), default="global")
    p.add_argument("--variant", choices=VARIANTS, default=NamConfig.variant)
    p.add_argument("--center-row", type=int, default=None,
                   help="row of --data to explain (local mode)")
    p.add_argument("--center-values", default=None,
                   help="comma-separated encoded feature values (local mode)")
    p.add_argument("--n-points", type=int, default=100)
    p.add_argument("--lam", type=float, default=0.0, help="L1 strength")
    p.add_argument("--mu", type=float, default=None,
                   help="L2 strength on subnet parameters (default 1 for shortcut, else 0)")
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--hidden", default=",".join(map(str, NamConfig.hidden_sizes)))
    p.add_argument("--activation", choices=tuple(ACTIVATIONS), default=NamConfig.activation)
    p.add_argument("--learning-rate", type=float, default=NamConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=NamConfig.epochs)
    p.add_argument("--batch", type=int, default=NamConfig.batch)
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
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
