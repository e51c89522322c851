"""Reference black-box survival model: a random survival forest.

Trees split on the two-sample log-rank statistic, over every midpoint cut
of a random feature subset, and store Nelson-Aalen cumulative hazards in
their leaves, projected onto the dataset-level time grid at fit time so
ensemble averaging is a plain vector mean. Each node makes one split
search (_best_split): the node's event times and its death and at-risk
tables are built once and shared by all its candidate features.
Each tree draws its bootstrap and feature subsets from its own stream,
default_rng([seed, tree index]), so trees are independent and the
forest does not depend on which process grows which tree: on Linux,
fit_forest grows them in one forked worker per usable CPU (never more
than the tree count) and returns the same forest as a serial fit. Fitted
forests are immutable and safe for concurrent prediction.

In memory a tree is nested dicts. forest.bin (format 4) stores each one
as its preorder split features (-1 at a leaf), one threshold per split
and run-length encoded leaf CHFs; the preorder alone fixes which nodes
are a split's children, so no child links are stored. The float arrays
(grid times, thresholds, run values) are base64 of their float64 bytes.
A fit's trees travel in this stored form too, from the worker that grows
them, and are rebuilt by the code that loads a file. Prediction routes
the rows through one tree at a time and adds its leaf values into the
result in blocks of rows, so it holds little beyond the result. The risk
score, the integrated CHF (`SurvivalForest.integrated_chf`, which
`risk_scores` calls), takes the same routes but adds one integral per
reached leaf, so it never builds the (n, s+1) CHF matrix.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (DataError, _array, _atomic_open, _config, _field, _floats, _integer,
                     _pack_floats, _read_json, _real)
from .survival import (
    SurvivalDataset,
    TimeGrid,
    _hazard_increments,
    _step_values,
    build_time_grid,
    risk_scores,  # noqa: F401  re-exported: survshape.forest.risk_scores is public
)

FORMAT_VERSION = 4  # of the forest file; save_forest writes it, load_forest reads only it
# Rows per block when predict_chf_matrix adds one tree's leaf values into its result.
_PREDICT_BLOCK_ROWS = 256

# The JSON types load_forest accepts per config key, in ForestConfig's field order.
_CONFIG_KINDS = {"n_trees": int, "min_leaf_events": int, "max_depth": (int, type(None)),
                 "features_per_split": (int, type(None)), "seed": int,
                 "gamma_fraction": (int, float)}


@dataclass(frozen=True)
class ForestConfig:
    """Hyperparameters; only the tree count is protocol-fixed, at 500."""

    n_trees: int = 500
    min_leaf_events: int = 3
    max_depth: Optional[int] = None
    features_per_split: Optional[int] = None  # default: ceil(sqrt(m))
    seed: int = 0
    gamma_fraction: float = 0.01

    def __post_init__(self):
        for name in ("n_trees", "min_leaf_events", "max_depth", "features_per_split", "seed"):
            value = _integer(getattr(self, name), name,
                             optional=name in ("max_depth", "features_per_split"))
            object.__setattr__(self, name, value)
        object.__setattr__(self, "gamma_fraction", _real(self.gamma_fraction, "gamma_fraction"))
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.min_leaf_events < 1:
            raise DataError("min_leaf_events must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise DataError("max_depth must be >= 1 or None")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise DataError("features_per_split must be >= 1 or None")
        if not self.gamma_fraction > 0:
            raise DataError("gamma_fraction must be positive")


@dataclass(frozen=True)
class SurvivalForest:
    """Fitted trees plus the shared grid and training feature metadata.

    Trees are nested dicts: internal nodes {"feature", "threshold",
    "left", "right"}, leaves {"values": (s+1,) array}.
    """

    trees: tuple
    grid: TimeGrid
    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]
    config: ForestConfig

    @property
    def m(self) -> int:
        return len(self.feature_names)

    def predict_chf_matrix(self, x) -> np.ndarray:
        return predict_chf_matrix(self, x)

    def integrated_chf(self, x) -> np.ndarray:
        """Per row, the CHF integrated over the grid: predict_chf_matrix(x) @ widths, shape (n,).

        The CHF is a mean over trees, so this is the mean over trees of the
        integral of the leaf each row reaches; no (n, s+1) array is built.
        A leaf's integral is a row-wise sum, not a matrix product, so a
        row's result does not depend on the other rows in x. It agrees with
        the matrix product to rounding (a few 1e-15 relative).
        """
        x, routes = _routes(self, x)
        total = np.zeros(x.shape[0])
        for leaf, values in routes:
            total += (values * self.grid.widths).sum(axis=1)[leaf]
        total /= len(self.trees)
        return total


def _best_split(x, times, events, candidates, min_leaf_events):
    """(feature, threshold) of the node's best log-rank split, or None if no cut scores > 0.

    The node's distinct event times, its death and at-risk indicators
    (boolean (n, E) tables) and their column totals are built once. Each
    candidate feature, in draw order, sorts the samples by its values; the
    tables' prefix sums at the boundaries between distinct values then give
    the log-rank numerator and variance of every left/right partition at
    once. The first candidate to reach the top score wins, at its lowest cut.
    """
    event_times = np.unique(times[events == 1])
    died = (times[:, None] == event_times) & (events[:, None] == 1)
    at_risk = times[:, None] >= event_times
    d_tot = died.sum(axis=0, dtype=float)
    n_tot = at_risk.sum(axis=0, dtype=float)
    best_score, best = 0.0, None
    for k in candidates:
        order = np.argsort(x[:, k], kind="mergesort")
        f = x[order, k]
        boundaries = np.nonzero(f[:-1] < f[1:])[0] + 1  # left side = first c samples
        e = events[order]
        events_left = np.cumsum(e)[boundaries - 1]
        events_right = e.sum() - events_left
        valid = (events_left >= min_leaf_events) & (events_right >= min_leaf_events)
        if not valid.any():
            continue
        d_left = np.cumsum(died[order], axis=0, dtype=float)[boundaries - 1]
        n_left = np.cumsum(at_risk[order], axis=0, dtype=float)[boundaries - 1]
        share = n_left / n_tot
        num = (d_left - d_tot * share).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            per_time = d_tot * share * (1.0 - share) * (n_tot - d_tot) / (n_tot - 1.0)
            per_time[:, n_tot <= 1] = 0.0
            var = per_time.sum(axis=1)
            scores = np.where(var > 0.0, num * num / var, 0.0)
        scores[~valid] = -np.inf
        cut = int(np.argmax(scores))
        if scores[cut] > best_score:
            best_score = scores[cut]
            best = (int(k), 0.5 * (f[boundaries[cut] - 1] + f[boundaries[cut]]))
        del d_left, n_left, share, per_time  # free the (C, E) tables before the next feature
    return best


def _grow_tree(x, times, events, depth, grid, config, n_features_to_try, rng) -> dict:
    split = None
    if (events.sum() >= 2 * config.min_leaf_events
            and (config.max_depth is None or depth < config.max_depth)):
        candidates = rng.choice(x.shape[1], size=n_features_to_try, replace=False)
        split = _best_split(x, times, events, candidates, config.min_leaf_events)
    if split is None:  # a leaf: the samples' Nelson-Aalen CHF at the grid times
        uniq, increments = _hazard_increments(times, events)
        return {"values": _step_values(uniq, np.cumsum(increments), grid.times)}
    feature, threshold = split
    go_left = x[:, feature] <= threshold
    left, right = (_grow_tree(x[side], times[side], events[side], depth + 1, grid, config,
                              n_features_to_try, rng) for side in (go_left, ~go_left))
    return {"feature": feature, "threshold": threshold, "left": left, "right": right}


# Per worker process: the arguments of _grow_bootstrap_tree after the tree
# index, installed once by _start_worker.
_worker_args = None


def _start_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _grow_one(tree_index: int) -> dict:
    """Pool task: one flattened tree, from the training data _start_worker installed."""
    return _grow_bootstrap_tree(tree_index, *_worker_args)


def _grow_bootstrap_tree(tree_index, x, times, events, grid, config, n_try) -> dict:
    """Tree `tree_index`, flattened: its bootstrap rows, then its feature draws, from one stream."""
    rng = np.random.default_rng([config.seed, tree_index])
    idx = rng.integers(0, len(times), len(times))
    return _flatten(_grow_tree(x[idx], times[idx], events[idx], 0, grid, config, n_try, rng))


def _worker_count(n_trees: int) -> int:
    """Usable CPUs (the affinity mask), at most n_trees; 1 off Linux.

    Off Linux, workers could not be forked: spawned ones re-import the
    caller's __main__, which breaks any script that fits at top level.
    """
    if sys.platform != "linux":
        return 1
    return min(len(os.sched_getaffinity(0)), n_trees)


def fit_forest(dataset: SurvivalDataset, config: ForestConfig = ForestConfig()) -> SurvivalForest:
    """Fit bootstrapped log-rank survival trees on the dataset-level grid.

    Trees grow in _worker_count(n_trees) forked processes; with one, in
    this process. Either way _unflatten rebuilds each tree from its stored form.
    """
    if int(dataset.events.sum()) < config.min_leaf_events:
        raise DataError("dataset has fewer events than min_leaf_events")
    grid = build_time_grid(dataset, config.gamma_fraction)
    n_try = config.features_per_split
    if n_try is None:
        n_try = int(math.ceil(math.sqrt(dataset.m)))
    n_try = min(n_try, dataset.m)
    work = (dataset.features, dataset.times, dataset.events, grid, config, n_try)
    workers = _worker_count(config.n_trees)

    def build(blobs):
        return tuple(_unflatten(blob, dataset.m, grid.n_intervals, f"tree {k}")
                     for k, blob in enumerate(blobs))

    if workers == 1:
        trees = build(_grow_bootstrap_tree(t, *work) for t in range(config.n_trees))
    else:
        # Imported here, as only a pooled fit needs them: they add about 2 MB
        # to the peak RSS of every command that imports this module.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, context, _start_worker, work) as pool:
            trees = build(pool.map(_grow_one, range(config.n_trees)))
    if all("values" in t for t in trees):
        warnings.warn("no split satisfied the constraints; forest is a single leaf",
                      stacklevel=2)
    return SurvivalForest(trees, grid, dataset.feature_names,
                          dataset.feature_kinds, config)


def _leaf_numbers(tree: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of x, the number of the leaf it reaches; and the reached leaves' values, stacked.

    An explicit stack, so any depth works; a subtree no row reaches is skipped.
    """
    leaf = np.empty(x.shape[0], dtype=np.intp)
    values = []
    stack = [(tree, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if not idx.size:
            continue
        if "values" in node:
            leaf[idx] = len(values)
            values.append(node["values"])
            continue
        mask = x[idx, node["feature"]] <= node["threshold"]
        stack += [(node["right"], idx[~mask]), (node["left"], idx[mask])]
    return leaf, np.stack(values)


def _routes(forest: SurvivalForest, x):
    """x checked as rows of the forest's features, and _leaf_numbers(tree, x) per tree in order.

    The second item is a generator, so one tree's routing is held at a time;
    with zero rows it yields nothing, as no row reaches a leaf.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != forest.m:
        raise DataError(f"x has {x.shape[-1]} features, forest expects {forest.m}")
    if not np.all(np.isfinite(x)):
        raise DataError("x contains non-finite values")
    trees = forest.trees if x.shape[0] else ()
    return x, (_leaf_numbers(tree, x) for tree in trees)


def predict_chf_matrix(forest: SurvivalForest, x) -> np.ndarray:
    """CHF values for many rows at once; shape (n, s+1).

    Trees are added in order, each one _PREDICT_BLOCK_ROWS rows at a time
    through a small buffer, so beside the result only one tree's reached
    leaves and one block are held. Each row gets the same floats as adding
    whole per-tree matrices.
    """
    x, routes = _routes(forest, x)
    n = x.shape[0]
    total = np.zeros((n, forest.grid.n_intervals))
    block = np.empty((min(n, _PREDICT_BLOCK_ROWS), forest.grid.n_intervals))
    for leaf, values in routes:
        for start in range(0, n, _PREDICT_BLOCK_ROWS):
            rows = leaf[start:start + _PREDICT_BLOCK_ROWS]
            # mode="clip" writes straight into out; "raise" would buffer a copy.
            np.take(values, rows, axis=0, out=block[:len(rows)], mode="clip")
            total[start:start + len(rows)] += block[:len(rows)]
    total /= len(forest.trees)
    return total


def _flatten(tree: dict) -> dict:
    """One tree as preorder split/leaf flags plus run-length encoded leaf CHFs.

    `feature` lists the nodes in preorder, -1 at a leaf; a split is
    followed by its left subtree, then its right one, so the flags fix the
    shape. `threshold` holds one value per split, in preorder. Each leaf's
    runs are cut where the bit pattern changes, so np.repeat gives back the
    same floats; a run start of 0 opens the next leaf. `threshold` and
    `run_values` are packed by _pack_floats.
    """
    feature, threshold, leaves = [], [], []
    stack = [tree]
    while stack:
        node = stack.pop()
        if "values" in node:
            feature.append(-1)
            leaves.append(np.asarray(node["values"], dtype=float))
        else:
            feature.append(int(node["feature"]))
            threshold.append(float(node["threshold"]))
            stack += [node["right"], node["left"]]
    values = np.stack(leaves)
    bits = values.view(np.int64)
    new_run = np.ones(values.shape, dtype=bool)
    new_run[:, 1:] = bits[:, 1:] != bits[:, :-1]
    return {"feature": feature, "threshold": _pack_floats(threshold),
            "run_starts": np.nonzero(new_run)[1].tolist(),
            "run_values": _pack_floats(values[new_run])}


def _unflatten(blob, m: int, s: int, where: str) -> dict:
    """Inverse of _flatten; DataError for a tree the forest cannot use."""
    if not isinstance(blob, dict):
        raise DataError(f"{where} is not a JSON object")
    feature = _array(blob, "feature", where)
    threshold = _floats(blob, "threshold", where)
    starts = _array(blob, "run_starts", where)
    run_values = _floats(blob, "run_values", where)
    bad = feature[(feature < -1) | (feature >= m)]
    if bad.size:
        raise DataError(f"{where}: split feature {bad[0]} outside 0..{m - 1}")
    if not (np.all(np.isfinite(threshold)) and np.all(np.isfinite(run_values))):
        raise DataError(f"{where} holds a non-finite threshold or CHF value")
    n_leaves = int(np.count_nonzero(feature == -1))
    if len(threshold) != len(feature) - n_leaves:
        raise DataError(f"{where} has {len(feature) - n_leaves} splits "
                        f"but {len(threshold)} thresholds")
    bad = starts[(starts < 0) | (starts >= s)]
    if bad.size:
        raise DataError(f"{where}: run start {bad[0]} outside 0..{s - 1}")
    opens = starts == 0  # the first run of a leaf
    if np.count_nonzero(opens) != n_leaves or not opens[:1].all():
        raise DataError(f"{where}: 'run_starts' must open each of its {n_leaves} leaves "
                        "with a 0, starting with the first run")
    if len(run_values) != len(starts):
        raise DataError(f"{where}: 'run_starts' and 'run_values' differ in length")
    if np.any(np.diff(starts)[~opens[1:]] <= 0):
        raise DataError(f"{where}: run starts within a leaf must increase strictly")
    ends = np.append(starts[1:], s)
    ends[:-1][opens[1:]] = s  # a leaf's last run ends at the end of the grid
    leaves = iter(np.repeat(run_values, ends - starts).reshape(n_leaves, s)[::-1])
    thresholds = iter(threshold[::-1].tolist())
    stack = []  # the subtrees after the current node, the first of them on top
    for f in reversed(feature.tolist()):
        if f == -1:
            stack.append({"values": next(leaves)})
        elif len(stack) < 2:
            break
        else:
            left, right = stack.pop(), stack.pop()
            stack.append({"feature": f, "threshold": next(thresholds),
                          "left": left, "right": right})
    else:
        if len(stack) == 1:
            return stack[0]
    raise DataError(f"{where}: 'feature' does not flag exactly one preorder tree, "
                    "each split followed by two subtrees")


def save_forest(forest: SurvivalForest, path, extra: Optional[dict] = None) -> None:
    """Versioned JSON serialization (format 4); floats survive the round trip exactly.

    Each tree is stored by _flatten. `extra` is an arbitrary
    JSON-compatible blob stored verbatim (the CLI keeps the fitted data
    schema there so one file carries the whole model).
    """
    payload = {
        "format": "survshape-forest",
        "version": FORMAT_VERSION,
        "grid": {"times": _pack_floats(forest.grid.times), "gamma": forest.grid.gamma},
        "feature_names": list(forest.feature_names),
        "feature_kinds": list(forest.feature_kinds),
        "config": asdict(forest.config),
        "extra": extra,
        "trees": [_flatten(t) for t in forest.trees],
    }
    with _atomic_open(path) as fh:
        fh.write(json.dumps(payload))


def load_forest(path):
    """Read a forest written by save_forest; returns (forest, extra).

    An unreadable file, invalid JSON, another format version, a missing
    or ill-typed key (config keys included; a bool is never a number), an
    `extra` that is neither an object nor null, an unknown config key, an
    `n_trees` other than the number of trees or a tree that does not fit
    the grid and features raises DataError.
    """
    payload = _read_json(path, "forest")
    if not isinstance(payload, dict) or payload.get("format") != "survshape-forest":
        raise DataError(f"{path}: not a survshape forest file")
    if payload.get("version") != FORMAT_VERSION:
        raise DataError(f"{path}: forest file version {payload.get('version')!r} is not "
                        f"supported (this release reads version {FORMAT_VERSION}); "
                        "refit the forest")
    where = f"{path}: forest file"
    grid_blob = _field(payload, "grid", dict, where)
    names = _field(payload, "feature_names", list, where)
    kinds = _field(payload, "feature_kinds", list, where)
    config = _field(payload, "config", dict, where)
    trees = _field(payload, "trees", list, where)
    times = _floats(grid_blob, "times", where)
    gamma = _field(grid_blob, "gamma", (int, float), where)
    extra = payload.get("extra")
    if extra is not None and not isinstance(extra, dict):
        raise DataError(f"{where}'s 'extra' must be an object or null")
    if len(names) != len(kinds) or not all(isinstance(v, str) for v in names + kinds):
        raise DataError(f"{path}: feature names and kinds must be matching lists of strings")
    settings = _config(config, _CONFIG_KINDS, "forest", path, f"{path}: forest config")
    if settings["n_trees"] != len(trees):
        raise DataError(f"{path}: forest config says n_trees = {settings['n_trees']}, "
                        f"but the file holds {len(trees)} trees")
    try:
        grid = TimeGrid(times, gamma)
        if not (np.all(np.isfinite(grid.times)) and math.isfinite(grid.gamma)):
            raise DataError("grid times and gamma must be finite")
        forest = SurvivalForest(
            tuple(_unflatten(t, len(names), grid.n_intervals, f"tree {k}")
                  for k, t in enumerate(trees)),
            grid,
            tuple(names),
            tuple(kinds),
            ForestConfig(**settings),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed forest file: {exc!r}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return forest, extra
