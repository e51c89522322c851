"""Reference black-box survival model: a random survival forest.

Trees split on the two-sample log-rank statistic, over every midpoint cut
of a random feature subset, and store Nelson-Aalen cumulative hazards in
their leaves, as step functions on the dataset-level time grid, so
ensemble averaging is a plain vector mean. Each node makes one split
search (_best_split): the node's event times and its death and at-risk
tables are built once and shared by all its candidate features.
Each tree draws its bootstrap and feature subsets from its own stream,
default_rng([seed, tree index]), so trees are independent and the
forest does not depend on which process grows which tree: on Linux,
fit_forest grows them in one forked worker per usable CPU (never more
than the tree count) and returns the same forest as a serial fit. Fitted
forests are immutable and safe for concurrent prediction.

A leaf is a Nelson-Aalen estimator, fixed by its count table (per event
time: grid index, deaths, number at risk), built by survival's code for
the baseline H_0. Growing a tree gives its stored form, which forest.bin
(format 5, one gzip stream of a JSON document) holds: its preorder split
features (-1 at a leaf), one threshold per split and the leaves' count
tables as lists of integers; the preorder alone fixes which nodes are a
split's children, so no child links are stored. The float arrays (grid
times, thresholds) are base64 of their float64 bytes. _unflatten derives
the nested dicts that route rows from the stored forms of a fit and of a
file alike, so a fitted and a loaded forest hold the same floats; each
root keeps its stored form, which save_forest writes. A leaf holds its
CHF as runs, not one float per grid point: each run's value (0 before
the leaf's first event time, then the CHF after each event time) and the
number of grid points it covers.
Prediction routes the rows through one tree at a time, expands only
that tree's reached leaves to grid length and adds them into the result
in blocks of rows, so it holds little beyond the result. The risk score,
the integrated CHF (`SurvivalForest.integrated_chf`, which `risk_scores`
calls), takes the same routes but adds one integral per reached leaf, so
it never builds the (n, s+1) CHF matrix.
"""

from __future__ import annotations

import gc
import gzip
import itertools
import json
import math
import os
import sys
import warnings
from contextlib import suppress
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (DataError, _atomic_open, _config, _field, _floats, _integer, _pack_floats,
                     _read_json, _real)
from .survival import (
    GAMMA_FRACTION,
    SurvivalDataset,
    TimeGrid,
    _leaf_counts,
    _leaf_values,
    build_time_grid,
    risk_scores,  # noqa: F401  re-exported: survshape.forest.risk_scores is public
)

FORMAT_VERSION = 5  # of the forest file; save_forest writes it, load_forest reads only it
# Rows per block when predict_chf_matrix adds one tree's leaf values into its result.
_PREDICT_BLOCK_ROWS = 256

# A stored tree's leaf lists: event times per leaf, in preorder; then per
# event time, leaf after leaf, the grid-index step (from 0 at a leaf's first
# event time, from the previous one after it), deaths and number at risk.
_LEAF_KEYS = ("leaf_events", "grid_steps", "deaths", "at_risk")
# No fit has this many rows; below it a reader can hold each count as an int32.
_MOST_AT_RISK = np.iinfo(np.int32).max
# Trees that _unflatten checks and builds together: few numpy calls a tree,
# and little held beyond the trees themselves.
_LOAD_CHUNK = 32

@dataclass(frozen=True)
class ForestConfig:
    """Hyperparameters; only the tree count is protocol-fixed, at 500."""

    n_trees: int = 500
    min_leaf_events: int = 3
    max_depth: Optional[int] = None
    features_per_split: Optional[int] = None  # default: ceil(sqrt(m))
    seed: int = 0
    gamma_fraction: float = GAMMA_FRACTION

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
    "left", "right"}, leaves {"values", "lengths"}: the leaf's CHF as
    runs, value values[r] at lengths[r] grid points in turn, so that
    np.repeat(values, lengths) is its (s+1,) CHF. A tree's root also
    holds "stored", the tree as forest.bin stores it (see the module
    docstring), which the rest was built from and save_forest writes.
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
        for leaf, chfs in routes:
            total += (chfs * self.grid.widths).sum(axis=1)[leaf]
        total /= len(self.trees)
        return total


def _best_split(x, times, events, candidates, min_leaf_events):
    """(feature, threshold) of the node's best log-rank split, or None if no cut scores > 0.

    The node's distinct event times, its death and at-risk indicators
    (boolean (n, E) tables) and their column totals are built once. Each
    candidate feature, in draw order, sorts the samples by its values; the
    tables' prefix sums at the boundaries between distinct values that leave
    min_leaf_events events on each side then give the log-rank numerator
    and variance of every such left/right partition at once. The first
    candidate to reach the top score wins, at its lowest cut.
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
        cuts = boundaries[(events_left >= min_leaf_events) & (events_right >= min_leaf_events)]
        if not cuts.size:
            continue
        d_left = _prefix_counts(died, order, cuts)
        n_left = _prefix_counts(at_risk, order, cuts)
        share = n_left / n_tot
        num = (d_left - d_tot * share).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            per_time = d_tot * share * (1.0 - share) * (n_tot - d_tot) / (n_tot - 1.0)
            per_time[:, n_tot <= 1] = 0.0
            var = per_time.sum(axis=1)
            scores = np.where(var > 0.0, num * num / var, 0.0)
        cut = int(np.argmax(scores))
        if scores[cut] > best_score:
            best_score = scores[cut]
            best = (int(k), 0.5 * (f[cuts[cut] - 1] + f[cuts[cut]]))
        del d_left, n_left, share, per_time  # free the (C, E) tables before the next feature
    return best


def _prefix_counts(table, order, cuts) -> np.ndarray:
    """Column sums of a boolean table's first c rows in `order`, per cut c; shape (C, E).

    The counts are exact, so they are summed as int32 in place, in one
    (cuts[-1], E) buffer; np.cumsum(..., dtype=float) of the whole table
    held a float64 copy of it beside its float64 result.
    """
    rows = table[order[:cuts[-1]]].astype(np.int32)
    np.cumsum(rows, axis=0, out=rows)
    return rows[cuts - 1]


def _grow_tree(x, times, events, depth, grid, config, n_features_to_try, rng, tree) -> None:
    """Append the subtree of these samples, in preorder, to tree = (features, thresholds, leaves).

    A split appends its feature and threshold, a leaf -1 and its
    _leaf_counts table; the left subtree grows before the right one.
    """
    features, thresholds, leaves = tree
    split = None
    if (events.sum() >= 2 * config.min_leaf_events
            and (config.max_depth is None or depth < config.max_depth)):
        candidates = rng.choice(x.shape[1], size=n_features_to_try, replace=False)
        split = _best_split(x, times, events, candidates, config.min_leaf_events)
    if split is None:
        features.append(-1)
        leaves.append(_leaf_counts(times, events, grid.times))
        return
    feature, threshold = split
    features.append(feature)
    thresholds.append(threshold)
    go_left = x[:, feature] <= threshold
    for side in (go_left, ~go_left):
        _grow_tree(x[side], times[side], events[side], depth + 1, grid, config,
                   n_features_to_try, rng, tree)


# Per worker process: the arguments of _grow_bootstrap_tree after the tree
# index, installed once by _start_worker.
_worker_args = None


def _start_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _grow_one(tree_index: int) -> dict:
    """Pool task: one tree in its stored form, from the training data _start_worker installed."""
    return _grow_bootstrap_tree(tree_index, *_worker_args)


def _grow_bootstrap_tree(tree_index, x, times, events, grid, config, n_try) -> dict:
    """Tree `tree_index` in its stored form: its bootstrap rows, then feature draws, one stream."""
    rng = np.random.default_rng([config.seed, tree_index])
    idx = rng.integers(0, len(times), len(times))
    features, thresholds, leaves = tree = [], [], []
    _grow_tree(x[idx], times[idx], events[idx], 0, grid, config, n_try, rng, tree)
    steps = np.concatenate([np.diff(index, prepend=0) for index, _, _ in leaves])
    _, deaths, at_risk = np.concatenate(leaves, axis=1)
    return {"feature": features, "threshold": _pack_floats(thresholds),
            **dict(zip(_LEAF_KEYS, ([c.shape[1] for c in leaves], steps.tolist(),
                                    deaths.tolist(), at_risk.tolist())))}


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
    this process. Either way _unflatten builds each tree from its stored form.
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

    if workers == 1:
        blobs = [_grow_bootstrap_tree(t, *work) for t in range(config.n_trees)]
    else:
        # Imported here, as only a pooled fit needs them: they add about 2 MB
        # to the peak RSS of every command that imports this module.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, context, _start_worker, work) as pool:
            blobs = list(pool.map(_grow_one, range(config.n_trees)))
    trees = _unflatten(blobs, dataset.m, grid.n_intervals)
    if all("values" in t for t in trees):
        warnings.warn("no split satisfied the constraints; forest is a single leaf",
                      stacklevel=2)
    return SurvivalForest(trees, grid, dataset.feature_names,
                          dataset.feature_kinds, config)


def _leaf_numbers(tree: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of x, the number of the leaf it reaches; and the reached leaves' CHFs, one a row.

    An explicit stack, so any depth works; a subtree no row reaches is
    skipped. Only the reached leaves are expanded from their runs, in one
    np.repeat.
    """
    leaf = np.empty(x.shape[0], dtype=np.intp)
    values, lengths = [], []
    stack = [(tree, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if not idx.size:
            continue
        if "values" in node:
            leaf[idx] = len(values)
            values.append(node["values"])
            lengths.append(node["lengths"])
            continue
        mask = x[idx, node["feature"]] <= node["threshold"]
        stack += [(node["right"], idx[~mask]), (node["left"], idx[mask])]
    chfs = np.repeat(np.concatenate(values), np.concatenate(lengths))
    return leaf, chfs.reshape(len(values), -1)


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
    leaves, expanded to grid length, and one block are held. Each row gets
    the same floats as adding whole per-tree matrices.
    """
    x, routes = _routes(forest, x)
    n = x.shape[0]
    total = np.zeros((n, forest.grid.n_intervals))
    block = np.empty((min(n, _PREDICT_BLOCK_ROWS), forest.grid.n_intervals))
    for leaf, chfs in routes:
        for start in range(0, n, _PREDICT_BLOCK_ROWS):
            rows = leaf[start:start + _PREDICT_BLOCK_ROWS]
            # mode="clip" writes straight into out; "raise" would buffer a copy.
            np.take(chfs, rows, axis=0, out=block[:len(rows)], mode="clip")
            total[start:start + len(rows)] += block[:len(rows)]
    total /= len(forest.trees)
    return total


def _joined(blobs, key: str, first_tree: int):
    """Every tree's `key` list joined as one int64 array, and where each tree's part starts.

    The starts end with the array's length. DataError, naming the first
    tree at fault (blobs[0] is tree `first_tree`), unless each list is a
    flat list of integers.
    """
    lists = [_field(blob, key, list, f"tree {first_tree + k}") for k, blob in enumerate(blobs)]
    joined = _integers(list(itertools.chain.from_iterable(lists)))
    if joined is not None:
        return joined, np.cumsum([0] + [len(v) for v in lists])
    for k, values in enumerate(lists):
        if _integers(values) is None:
            raise DataError(f"tree {first_tree + k}'s {key!r} must be a flat list of integers")
    raise DataError(f"the trees' {key!r} must be flat lists of integers")


def _integers(values: list):
    """values as an int64 array, or None unless each is an integer (a bool is not)."""
    with suppress(ValueError):  # lists nested to uneven depths
        array = np.asarray(values)
        if (array.ndim == 1 and (not array.size or array.dtype.kind == "i")
                and bool not in set(map(type, values))):  # np.asarray([2, True]) is an int array
            return array.astype(np.int64, copy=False)
    return None


def _unflatten(blobs, m: int, s: int) -> tuple:
    """A forest's trees, from their stored forms; DataError names the first the forest cannot use.

    _unflatten_trees takes _LOAD_CHUNK trees at a time. A forest is tens of
    thousands of dicts that all outlive the build, so the garbage collector
    is paused meanwhile: its passes would find nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return tuple(itertools.chain.from_iterable(
            _unflatten_trees(blobs[start:start + _LOAD_CHUNK], m, s, start)
            for start in range(0, len(blobs), _LOAD_CHUNK)))
    finally:
        if enabled:
            gc.enable()


def _unflatten_trees(blobs, m: int, s: int, first_tree: int) -> list:
    """Trees first_tree, first_tree + 1, ... from their stored blobs.

    Their lists are joined and checked together, at a few dozen numpy calls
    for all of them rather than per tree, and _leaf_values builds all their
    leaves' runs.
    """
    for k, blob in enumerate(blobs):
        if not isinstance(blob, dict):
            raise DataError(f"tree {first_tree + k} is not a JSON object")
    feature, nodes_at = _joined(blobs, "feature", first_tree)
    thresholds = [_floats(blob, "threshold", f"tree {first_tree + k}")
                  for k, blob in enumerate(blobs)]
    (sizes, leaves_at), (steps, events_at), (deaths, deaths_at), (at_risk, at_risk_at) = (
        _joined(blobs, key, first_tree) for key in _LEAF_KEYS)
    trees_at = np.arange(len(blobs) + 1)

    def per_tree(values, at):  # the sums of a joined list's values over each tree's part
        total = np.append(0, np.cumsum(values))
        return total[at[1:]] - total[at[:-1]]

    def refuse(wrong, at, message):  # DataError for the tree of a joined list's first wrong entry
        bad = np.flatnonzero(wrong)
        if bad.size:
            k = first_tree + np.searchsorted(at, bad[0], side="right") - 1
            raise DataError(f"tree {k}{message}")

    outside = (feature < -1) | (feature >= m)
    if outside.any():
        refuse(outside, nodes_at, f": split feature {feature[outside][0]} outside 0..{m - 1}")
    # In preorder each node fills an open slot and a split opens two: the
    # flags form one tree when the count of slots still open, 1 less than
    # the subtrees started, first falls to -1 at the tree's last node.
    open_slots = np.cumsum(np.where(feature == -1, -1, 1))
    open_slots -= np.repeat(np.append(0, open_slots)[nodes_at[:-1]], np.diff(nodes_at))
    refuse((per_tree(open_slots < 0, nodes_at) != 1)
           | (np.append(open_slots, 0)[nodes_at[1:] - 1] != -1), trees_at,
           ": 'feature' does not flag exactly one preorder tree, each split followed by "
           "two subtrees")
    refuse([not np.all(np.isfinite(t)) for t in thresholds], trees_at,
           " holds a non-finite threshold")
    n_leaves = per_tree(feature == -1, nodes_at)
    n_splits, n_thresholds = np.diff(nodes_at) - n_leaves, [len(t) for t in thresholds]
    for k in np.flatnonzero(n_splits != n_thresholds)[:1]:
        raise DataError(f"tree {first_tree + k} has {n_splits[k]} splits but "
                        f"{n_thresholds[k]} thresholds")
    for k in np.flatnonzero(np.diff(leaves_at) != n_leaves)[:1]:
        raise DataError(f"tree {first_tree + k} has {n_leaves[k]} leaves but 'leaf_events' "
                        f"has {leaves_at[k + 1] - leaves_at[k]}")
    events = np.diff(events_at)
    refuse((per_tree(np.clip(sizes, 0, len(steps) + 1), leaves_at) != events)  # no overflow
           | (per_tree(sizes < 0, leaves_at) > 0)
           | (np.diff(deaths_at) != events) | (np.diff(at_risk_at) != events), trees_at,
           ": 'leaf_events' must add up to the length of each of 'grid_steps', 'deaths' "
           "and 'at_risk'")
    first = np.cumsum(sizes) - sizes  # each leaf's first entry
    later = np.ones(len(steps), dtype=bool)  # entries after their leaf's first
    later[first[sizes > 0]] = False
    for wrong, message in (
            (deaths < 1, "fewer than 1 death at an event time"),
            (at_risk < 1, "fewer than 1 sample at risk at an event time"),
            (deaths > at_risk, "more deaths than samples at risk"),
            (at_risk > _MOST_AT_RISK, f"more than {_MOST_AT_RISK} samples at risk"),
            (np.append(False, later[1:] & (at_risk[1:] > at_risk[:-1])),
             "a number at risk that grows"),
            (later & (steps <= 0), "a grid step <= 0 after its first")):
        refuse(wrong, events_at, f": a leaf has {message}")
    # Clipped, the sums cannot overflow, and a clipped step still leaves the grid.
    reached = np.cumsum(np.clip(steps, -1, s))
    index = reached - np.repeat(np.append(0, reached)[first], sizes)
    refuse((index < 0) | (index >= s), events_at,
           f": a leaf's grid index falls outside 0..{s - 1}")
    runs = _leaf_values(sizes, index, deaths, at_risk, s)
    return [_nest(feature[nodes_at[k]:nodes_at[k + 1]], thresholds[k],
                  runs[leaves_at[k]:leaves_at[k + 1]], blobs[k])
            for k in range(len(blobs))]


def _nest(feature, threshold, runs, stored) -> dict:
    """One tree's nested dicts from its preorder flags (checked to form one tree),
    thresholds and leaves' (values, lengths) runs; its root keeps the stored
    form they came from."""
    leaves = reversed(runs)
    thresholds = iter(threshold[::-1].tolist())
    stack = []  # the subtrees after the current node, the first of them on top
    push, pop = stack.append, stack.pop
    for f in reversed(feature.tolist()):
        if f < 0:
            values, lengths = next(leaves)
            push({"values": values, "lengths": lengths})
        else:
            push({"feature": f, "threshold": next(thresholds), "left": pop(), "right": pop()})
    stack[0]["stored"] = stored
    return stack[0]


def save_forest(forest: SurvivalForest, path, extra: Optional[dict] = None) -> None:
    """Versioned JSON serialization (format 5) in one gzip stream; floats survive exactly.

    The trees go last, each compressed one at a time as the stored form its
    root keeps: json.dumps holds every number of what it encodes as a string
    before it joins them. `extra` is an arbitrary JSON-compatible blob
    stored verbatim (the CLI keeps the fitted data schema there so one file
    carries the whole model).
    """
    header = {
        "format": "survshape-forest",
        "version": FORMAT_VERSION,
        "grid": {"times": _pack_floats(forest.grid.times), "gamma": forest.grid.gamma},
        "feature_names": list(forest.feature_names),
        "feature_kinds": list(forest.feature_kinds),
        "config": asdict(forest.config),
        "extra": extra,
    }
    # filename="" and mtime=0 keep the temp file's name and the clock out of the header.
    with _atomic_open(path, binary=True) as fh, gzip.GzipFile(
            filename="", mode="wb", fileobj=fh, compresslevel=6, mtime=0) as gz:
        gz.write((json.dumps(header)[:-1] + ', "trees": [').encode())
        for k, tree in enumerate(forest.trees):
            gz.write(((", " if k else "") + json.dumps(tree["stored"])).encode())
        gz.write(b"]}")


def load_forest(path):
    """Read a forest written by save_forest; returns (forest, extra).

    An unreadable file, invalid JSON, another format version, a missing
    or ill-typed key, an `extra` that is neither an object nor null, an
    unknown or missing config key, a config value ForestConfig refuses,
    an `n_trees` other than the number of trees or a tree that does not
    fit the grid and features raises DataError.
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
    config_blob = _field(payload, "config", dict, where)
    trees = _field(payload, "trees", list, where)
    times = _floats(grid_blob, "times", where)
    gamma = _field(grid_blob, "gamma", (int, float), where)
    extra = payload.get("extra")
    if extra is not None and not isinstance(extra, dict):
        raise DataError(f"{where}'s 'extra' must be an object or null")
    if len(names) != len(kinds) or not all(isinstance(v, str) for v in names + kinds):
        raise DataError(f"{path}: feature names and kinds must be matching lists of strings")
    config = _config(ForestConfig, config_blob, "forest", path, f"{path}: forest config")
    if config.n_trees != len(trees):
        raise DataError(f"{path}: forest config says n_trees = {config.n_trees}, "
                        f"but the file holds {len(trees)} trees")
    try:
        grid = TimeGrid(times, gamma)
        if not (np.all(np.isfinite(grid.times)) and math.isfinite(grid.gamma)):
            raise DataError("grid times and gamma must be finite")
        forest = SurvivalForest(
            _unflatten(trees, len(names), grid.n_intervals),
            grid,
            tuple(names),
            tuple(kinds),
            config,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed forest file: {exc!r}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return forest, extra
