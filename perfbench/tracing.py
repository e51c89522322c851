"""Per-layer spans for the traced benchmark run, recorded from outside the program.

Each public function named in LAYERS is replaced, wherever a survshape
module binds it (names imported by name into other modules included), by
a wrapper that records one span per call: name, start, end, parent span
and run id. Spans stay in memory until the run ends; the per-layer
metrics are derived from them afterwards, and `Tracer.restore` puts the
original bindings back. A layer is a module of the package.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Module -> public functions whose calls become spans.
LAYERS = {
    "data": ("load_prepared_csv", "train_test_split", "export_csv"),
    "synthetic": ("generate_cox_data",),
    "survival": ("build_time_grid", "nelson_aalen", "concordance_index"),
    "forest": ("fit_forest", "save_forest", "load_forest", "predict_chf_matrix"),
    "nam": ("train", "loss_and_gradient", "loss_only", "predict_log_risk",
            "shape_curve", "save_model", "load_model"),
    "explain": ("explain_global", "explain_local", "build_targets",
                "dataset_diameter", "build_neighborhood", "surrogate_c_index"),
    "report": ("write_explanation_csv", "write_shapes_svg"),
}
LAYER_NAMES = ("cli",) + tuple(LAYERS)

# Per-layer metrics that are summed span durations or call counts.
SPAN_SECONDS = {
    "data.load_prepared_csv_s": ("data.load_prepared_csv",),
    "data.train_test_split_s": ("data.train_test_split",),
    "data.export_csv_s": ("data.export_csv",),
    "synthetic.generate_cox_data_s": ("synthetic.generate_cox_data",),
    "survival.build_time_grid_s": ("survival.build_time_grid",),
    "survival.nelson_aalen_s": ("survival.nelson_aalen",),
    "survival.concordance_index_s": ("survival.concordance_index",),
    "forest.fit_forest_s": ("forest.fit_forest",),
    "forest.save_forest_s": ("forest.save_forest",),
    "forest.load_forest_s": ("forest.load_forest",),
    "forest.predict_chf_matrix_s": ("forest.predict_chf_matrix",),
    "nam.train_s": ("nam.train",),
    "nam.loss_and_gradient_s": ("nam.loss_and_gradient",),
    "nam.loss_only_s": ("nam.loss_only",),
    "nam.predict_log_risk_s": ("nam.predict_log_risk",),
    "nam.shape_curve_s": ("nam.shape_curve",),
    "nam.save_model_s": ("nam.save_model",),
    "nam.load_model_s": ("nam.load_model",),
    "explain.explain_s": ("explain.explain_global", "explain.explain_local"),
    "explain.build_targets_s": ("explain.build_targets",),
    "explain.dataset_diameter_s": ("explain.dataset_diameter",),
    "explain.build_neighborhood_s": ("explain.build_neighborhood",),
    "explain.surrogate_c_index_s": ("explain.surrogate_c_index",),
    "report.write_explanation_csv_s": ("report.write_explanation_csv",),
    "report.write_shapes_svg_s": ("report.write_shapes_svg",),
}
SPAN_CALLS = {
    "survival.concordance_index_calls": "survival.concordance_index",
    "forest.predict_chf_matrix_calls": "forest.predict_chf_matrix",
    "nam.loss_and_gradient_calls": "nam.loss_and_gradient",
    "nam.loss_only_calls": "nam.loss_only",
    "explain.dataset_diameter_calls": "explain.dataset_diameter",
}
FOREST_SHAPE = ("forest.trees", "forest.leaves", "forest.max_depth",
                "forest.mean_depth", "forest.leaf_fill_ratio")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run: int


class Tracer:
    """Span recorder plus the counts read from what the layers are given and return.

    `added` holds counts that add up over calls (rows predicted, epochs
    trained); `state` holds the latest value of a property (forest shape,
    parameter count, grid size, file size).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.added: dict[str, float] = {}
        self.state: dict[str, object] = {}
        self._open: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._loaded_forest = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def install(self) -> None:
        """Wrap every survshape binding of the functions in LAYERS."""
        package = importlib.import_module("survshape")
        modules = [package] + [importlib.import_module(f"survshape.{name}")
                               for name in ("cli", *LAYERS)]
        for layer, names in LAYERS.items():
            home = sys.modules[f"survshape.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue  # gone from this version: its metrics read 0
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bindings.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                try:
                    count(self, args, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    pass  # a result this version shapes differently: the count stays null
            return result

        return wrapper

    def end_command(self) -> None:
        """Walk the last loaded forest outside every span, once the command is done."""
        if self._loaded_forest is not None:
            self.state.update(forest_shape(self._loaded_forest))
            self._loaded_forest = None

    def take(self) -> dict[str, float]:
        """Additive totals of the spans and counts recorded since the last take."""
        totals = summarize(self.spans)
        for key, value in self.added.items():
            totals[key] = totals.get(key, 0) + value
        self.spans = []
        self.added = {}
        return totals


def _add(tracer: Tracer, key: str, amount: float) -> None:
    tracer.added[key] = tracer.added.get(key, 0) + amount


def _count_load_forest(tracer, args, result):
    forest = result[0]
    tracer._loaded_forest = forest
    grid = getattr(forest, "grid", None)
    tracer.state["survival.grid_intervals"] = getattr(grid, "n_intervals", None)


def _count_model(tracer, model):
    try:
        tracer.state["nam.params"] = sum(int(p.size) for p in model.param_arrays())
    except (AttributeError, TypeError):
        tracer.state["nam.params"] = None


def _count_train(tracer, args, result):
    model, _ = result
    _count_model(tracer, model)
    _add(tracer, "nam.epochs", model.config.epochs)


def _count_target_matrix(tracer, args, result):
    # n x (s+1) float64 targets; 0 once a batch no longer holds the matrix.
    matrix = getattr(result, "log_ratios", None)
    nbytes = 0 if matrix is None else matrix.shape[0] * matrix.shape[1] * 8
    tracer.state["explain.target_matrix_bytes"] = max(
        nbytes, tracer.state.get("explain.target_matrix_bytes", 0))


def _count_predict_rows(tracer, args, result):
    _add(tracer, "forest.predict_rows", len(result))


def _count_file_bytes(tracer, args, result):
    tracer.state["forest.file_bytes"] = os.path.getsize(args[1])


_COUNTERS = {
    "forest.load_forest": _count_load_forest,
    "forest.predict_chf_matrix": _count_predict_rows,
    "forest.save_forest": _count_file_bytes,
    "nam.train": _count_train,
    "nam.load_model": lambda tracer, args, result: _count_model(tracer, result),
    "explain.build_targets": _count_target_matrix,
}


def forest_shape(forest) -> dict:
    """Tree, leaf and depth counts of a forest whose trees are nested dicts.

    leaf_fill_ratio is the share of stored leaf CHF values that start a
    new step (nonzero increments over stored floats). A forest that cannot
    be walked this way reports None for every count.
    """
    try:
        depths = []
        steps = 0
        stored = 0
        for tree in forest.trees:
            stack = [(tree, 0)]
            while stack:
                node, depth = stack.pop()
                if "values" in node:
                    values = np.asarray(node["values"], dtype=float)
                    depths.append(depth)
                    stored += values.size
                    steps += np.count_nonzero(np.diff(values, prepend=0.0))
                else:
                    stack.append((node["left"], depth + 1))
                    stack.append((node["right"], depth + 1))
        return {
            "forest.trees": len(forest.trees),
            "forest.leaves": len(depths),
            "forest.max_depth": max(depths),
            "forest.mean_depth": statistics.fmean(depths),
            "forest.leaf_fill_ratio": int(steps) / stored,
        }
    except (AttributeError, KeyError, TypeError, IndexError, ValueError,
            ZeroDivisionError, statistics.StatisticsError):
        return dict.fromkeys(FOREST_SHAPE)


def summarize(spans: list[Span]) -> dict[str, float]:
    """Time, self time and calls per span name, self time per layer, root total.

    A span's self time is its duration minus its children's durations; the
    calls are sequential, so children never overlap. Root spans are the
    CLI commands, named "cli.<command>".
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for span, children in zip(spans, child_time):
        duration = span.end - span.start
        layer = span.name.split(".", 1)[0]
        for key, amount in ((f"{span.name}:s", duration),
                            (f"{span.name}:self", duration - children),
                            (f"{span.name}:calls", 1),
                            (f"{layer}:self", duration - children)):
            totals[key] = totals.get(key, 0.0) + amount
        if span.parent < 0:
            totals["total"] = totals.get("total", 0.0) + duration
    return totals


def layer_metrics(totals: dict[str, float], timed: dict[str, float],
                  state: dict[str, object]) -> dict:
    """The per-layer metrics from span totals and the latest counts.

    `totals` cover the set-up plus one timed pass; the layer shares are
    shares of the self time in `timed`, one timed pass alone.
    """
    metrics = {f"cli.{command}_s": totals.get(f"cli.{command}:s", 0.0)
               for command in ("fit", "explain", "eval")}
    metrics["cli.self_s"] = totals.get("cli:self", 0.0)
    for name, span_names in SPAN_SECONDS.items():
        metrics[name] = sum(totals.get(f"{span}:s", 0.0) for span in span_names)
    for name, span_name in SPAN_CALLS.items():
        metrics[name] = totals.get(f"{span_name}:calls", 0)
    metrics["explain.self_s"] = totals.get("explain:self", 0.0)
    metrics["nam.train_self_s"] = totals.get("nam.train:self", 0.0)
    epochs = totals.get("nam.epochs", 0)
    metrics["nam.epoch_ms"] = 1000.0 * metrics["nam.train_s"] / epochs if epochs else 0.0
    metrics["forest.predict_rows"] = totals.get("forest.predict_rows", 0)
    for key in FOREST_SHAPE + ("forest.file_bytes", "survival.grid_intervals",
                               "nam.params", "explain.target_matrix_bytes"):
        metrics[key] = state.get(key)
    total = timed.get("total", 0.0)
    for layer in LAYER_NAMES:
        metrics[f"share.{layer}"] = (100.0 * timed.get(f"{layer}:self", 0.0) / total
                                     if total else 0.0)
    return metrics
