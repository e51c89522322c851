"""Reference black-box survival model: a random survival forest.

Trees split on the two-sample log-rank statistic (exhaustive midpoint
candidates over a random feature subset) and store Nelson-Aalen
cumulative hazards in their leaves, projected onto the dataset-level
time grid at fit time so ensemble averaging is a plain vector mean.
Per-tree RNG streams are derived from (seed, tree index), so a parallel
fit would produce the same forest as this serial one. Fitted forests
are immutable and safe for concurrent prediction.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, _atomic_open, _field, _read_json
from .survival import (
    SurvivalDataset,
    TimeGrid,
    _hazard_increments,
    _step_values,
    build_time_grid,
    concordance_index,
    risk_scores,
)

FORMAT_VERSION = 2  # of the forest file; save_forest writes it, load_forest reads only it

# The forest file's config keys, in the order save_forest writes them, and the
# JSON types load_forest accepts for each.
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
        object.__setattr__(self, "n_trees", int(self.n_trees))
        object.__setattr__(self, "min_leaf_events", int(self.min_leaf_events))
        object.__setattr__(self, "seed", int(self.seed))
        if self.max_depth is not None:
            object.__setattr__(self, "max_depth", int(self.max_depth))
        if self.features_per_split is not None:
            object.__setattr__(self, "features_per_split", int(self.features_per_split))
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


def _best_split_for_feature(values, times, events, min_leaf_events):
    """Best (score, threshold) over all midpoint candidates of one feature.

    Vectorized over candidates: with samples sorted by feature value,
    cumulative event/at-risk counts per distinct node event time give the
    log-rank numerator and variance of every left/right partition at once.
    """
    order = np.argsort(values, kind="mergesort")
    f = values[order]
    t = times[order]
    e = events[order]
    boundaries = np.nonzero(f[:-1] < f[1:])[0] + 1  # left side = first c samples
    if len(boundaries) == 0:
        return None
    event_times = np.unique(t[e == 1])
    if len(event_times) == 0:
        return None
    d_mat = ((t[:, None] == event_times[None, :]) & (e[:, None] == 1)).astype(float)
    n_mat = (t[:, None] >= event_times[None, :]).astype(float)
    d_left = np.cumsum(d_mat, axis=0)[boundaries - 1]
    n_left = np.cumsum(n_mat, axis=0)[boundaries - 1]
    d_tot = d_mat.sum(axis=0)
    n_tot = n_mat.sum(axis=0)

    events_left = np.cumsum(e)[boundaries - 1]
    events_right = e.sum() - events_left
    valid = (events_left >= min_leaf_events) & (events_right >= min_leaf_events)
    if not valid.any():
        return None

    share = n_left / n_tot
    num = (d_left - d_tot * share).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_time = d_tot * share * (1.0 - share) * (n_tot - d_tot) / (n_tot - 1.0)
    per_time[:, n_tot <= 1] = 0.0
    var = per_time.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.where(var > 0.0, num * num / var, 0.0)
    scores[~valid] = -np.inf
    best = int(np.argmax(scores))
    if not scores[best] > 0.0:
        return None
    cut = boundaries[best]
    threshold = 0.5 * (f[cut - 1] + f[cut])
    return float(scores[best]), threshold


def _leaf_node(times, events, grid: TimeGrid) -> dict:
    """Nelson-Aalen CHF of the leaf samples, evaluated at the shared grid times."""
    if events.sum() == 0:
        return {"values": np.zeros(grid.n_intervals)}
    uniq, increments = _hazard_increments(times, events)
    return {"values": _step_values(uniq, np.cumsum(increments), grid.times)}


def _grow_tree(x, times, events, depth, grid, config, n_features_to_try, rng) -> dict:
    n, m = x.shape
    if (events.sum() < 2 * config.min_leaf_events
            or (config.max_depth is not None and depth >= config.max_depth)):
        return _leaf_node(times, events, grid)
    candidates = rng.choice(m, size=n_features_to_try, replace=False)
    best = None
    for k in candidates:
        found = _best_split_for_feature(x[:, k], times, events,
                                        config.min_leaf_events)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(k), found[1])
    if best is None:
        return _leaf_node(times, events, grid)
    _, feature, threshold = best
    go_left = x[:, feature] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow_tree(x[go_left], times[go_left], events[go_left],
                           depth + 1, grid, config, n_features_to_try, rng),
        "right": _grow_tree(x[~go_left], times[~go_left], events[~go_left],
                            depth + 1, grid, config, n_features_to_try, rng),
    }


def fit_forest(dataset: SurvivalDataset, config: ForestConfig = ForestConfig()) -> SurvivalForest:
    """Fit bootstrapped log-rank survival trees on the dataset-level grid."""
    if int(dataset.events.sum()) < config.min_leaf_events:
        raise DataError("dataset has fewer events than min_leaf_events")
    grid = build_time_grid(dataset, config.gamma_fraction)
    n_try = config.features_per_split
    if n_try is None:
        n_try = int(math.ceil(math.sqrt(dataset.m)))
    n_try = min(n_try, dataset.m)
    trees = []
    for tree_idx in range(config.n_trees):
        rng = np.random.default_rng([config.seed, tree_idx])
        idx = rng.integers(0, dataset.n, dataset.n)
        trees.append(_grow_tree(dataset.features[idx], dataset.times[idx],
                                dataset.events[idx], 0, grid, config, n_try, rng))
    if all("values" in t for t in trees):
        warnings.warn("no split satisfied the constraints; forest is a single leaf",
                      stacklevel=2)
    return SurvivalForest(tuple(trees), grid, dataset.feature_names,
                          dataset.feature_kinds, config)


def _tree_values_batch(node: dict, x: np.ndarray, out: np.ndarray, idx: np.ndarray) -> None:
    if "values" in node:
        out[idx] = node["values"]
        return
    mask = x[idx, node["feature"]] <= node["threshold"]
    _tree_values_batch(node["left"], x, out, idx[mask])
    _tree_values_batch(node["right"], x, out, idx[~mask])


def predict_chf_matrix(forest: SurvivalForest, x) -> np.ndarray:
    """CHF values for many rows at once; shape (n, s+1)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != forest.m:
        raise DataError(f"x has {x.shape[-1]} features, forest expects {forest.m}")
    if not np.all(np.isfinite(x)):
        raise DataError("x contains non-finite values")
    total = np.zeros((x.shape[0], forest.grid.n_intervals))
    scratch = np.empty_like(total)
    all_rows = np.arange(x.shape[0])
    for tree in forest.trees:
        _tree_values_batch(tree, x, scratch, all_rows)
        total += scratch
    return total / len(forest.trees)


def permutation_importance(forest: SurvivalForest, dataset: SurvivalDataset,
                           n_repeats: int = 10, seed: int = 0) -> np.ndarray:
    """Mean drop in concordance when one feature column is shuffled."""
    if n_repeats < 1:
        raise DataError("n_repeats must be >= 1")
    baseline = concordance_index(risk_scores(forest, dataset.features), dataset)
    rng = np.random.default_rng(seed)
    scores = np.zeros(dataset.m)
    for k in range(dataset.m):
        drop = 0.0
        for _ in range(n_repeats):
            shuffled = dataset.features.copy()
            shuffled[:, k] = shuffled[rng.permutation(dataset.n), k]
            drop += baseline - concordance_index(risk_scores(forest, shuffled), dataset)
        scores[k] = drop / n_repeats
    return scores


def _flatten(tree: dict) -> dict:
    """One tree as parallel preorder node arrays plus run-length encoded leaf CHFs.

    A node's left child is the next node, so only `right` is stored;
    leaves have feature -1, threshold 0.0 and right -1, and `leaf` gives
    each leaf's row of the run lists (-1 at a split). Runs are cut where
    the bit pattern changes, so np.repeat gives back the same floats.
    """
    feature, threshold, right, leaf, leaves = [], [], [], [], []
    stack = [(tree, -1)]  # (node, index of the split whose right child it is)
    while stack:
        node, parent = stack.pop()
        index = len(feature)
        if parent >= 0:
            right[parent] = index
        if "values" in node:
            feature.append(-1)
            threshold.append(0.0)
            leaf.append(len(leaves))
            leaves.append(np.asarray(node["values"], dtype=float))
        else:
            feature.append(int(node["feature"]))
            threshold.append(float(node["threshold"]))
            leaf.append(-1)
            stack.append((node["right"], index))
            stack.append((node["left"], -1))
        right.append(-1)
    values = np.stack(leaves)
    bits = values.view(np.int64)
    new_run = np.ones(values.shape, dtype=bool)
    new_run[:, 1:] = bits[:, 1:] != bits[:, :-1]
    offsets = np.concatenate([[0], np.cumsum(new_run.sum(axis=1))])
    return {
        "feature": feature,
        "threshold": threshold,
        "right": right,
        "leaf": leaf,
        "run_offsets": offsets.tolist(),
        "run_starts": np.nonzero(new_run)[1].tolist(),
        "run_values": values[new_run].tolist(),
    }


def _array(blob: dict, key: str, kinds: str, where: str) -> np.ndarray:
    """blob[key] as a flat array whose dtype kind is one of `kinds` ("i" or "if")."""
    values = np.asarray(_field(blob, key, list, where))
    if values.ndim != 1 or (values.size and values.dtype.kind not in kinds):
        raise DataError(f"{where}'s {key!r} must be a flat list of "
                        + ("integers" if kinds == "i" else "numbers"))
    return values.astype(np.int64 if kinds == "i" else float)


def _unflatten(blob, m: int, s: int, where: str) -> dict:
    """Inverse of _flatten; DataError for a tree the forest cannot use."""
    if not isinstance(blob, dict):
        raise DataError(f"{where} is not a JSON object")
    feature = _array(blob, "feature", "i", where)
    threshold = _array(blob, "threshold", "if", where)
    right = _array(blob, "right", "i", where)
    leaf = _array(blob, "leaf", "i", where)
    offsets = _array(blob, "run_offsets", "i", where)
    starts = _array(blob, "run_starts", "i", where)
    run_values = _array(blob, "run_values", "if", where)
    n = len(feature)
    if not n or not len(threshold) == len(right) == len(leaf) == n:
        raise DataError(f"{where}: node arrays must be nonempty and of one length")
    bad = feature[(feature < -1) | (feature >= m)]
    if bad.size:
        raise DataError(f"{where}: split feature {bad[0]} outside 0..{m - 1}")
    if not (np.all(np.isfinite(threshold)) and np.all(np.isfinite(run_values))):
        raise DataError(f"{where} holds a non-finite threshold or CHF value")
    is_leaf = feature == -1
    n_leaves = len(offsets) - 1
    if (n_leaves != is_leaf.sum() or np.any(leaf[~is_leaf] != -1)
            or not np.array_equal(np.sort(leaf[is_leaf]), np.arange(n_leaves))):
        raise DataError(f"{where}: 'leaf' must number the leaves 0..{n_leaves - 1} "
                        "once each, one row of 'run_offsets' per leaf")
    if (offsets[0] != 0 or np.any(np.diff(offsets) < 1)
            or not offsets[-1] == len(starts) == len(run_values)):
        raise DataError(f"{where}: 'run_offsets' must rise from 0 to the run count, "
                        "at least one run per leaf")
    bad = starts[(starts < 0) | (starts >= s)]
    if bad.size:
        raise DataError(f"{where}: run start {bad[0]} outside 0..{s - 1}")
    first = np.zeros(len(starts), dtype=bool)
    first[offsets[:-1]] = True
    bad = starts[first & (starts != 0)]
    if bad.size:
        raise DataError(f"{where}: a leaf's first run starts at {bad[0]}, not 0")
    if np.any(np.diff(starts)[~first[1:]] <= 0):
        raise DataError(f"{where}: run starts within a leaf must increase strictly")
    ends = np.append(starts[1:], s)
    ends[offsets[1:-1] - 1] = s
    dense = np.repeat(run_values, ends - starts).reshape(n_leaves, s)

    feature, threshold, right, leaf = (a.tolist() for a in (feature, threshold, right, leaf))
    nodes = [None] * n
    end = [0] * n  # one past the last node of each node's subtree
    for i in range(n - 1, -1, -1):
        if feature[i] < 0:
            nodes[i] = {"values": dense[leaf[i]]}
            end[i] = i + 1
            continue
        r = right[i]
        if not i + 1 < r < n:
            raise DataError(f"{where}: node {i}'s right child {r} outside {i + 2}..{n - 1}")
        if r != end[i + 1]:
            raise DataError(f"{where}: node {i}'s right child {r} is not node "
                            f"{end[i + 1]}, the first after its left subtree")
        nodes[i] = {"feature": feature[i], "threshold": threshold[i],
                    "left": nodes[i + 1], "right": nodes[r]}
        end[i] = end[r]
    if end[0] != n:
        raise DataError(f"{where}: nodes {end[0]}..{n - 1} are not reachable from the root")
    return nodes[0]


def save_forest(forest: SurvivalForest, path, extra: Optional[dict] = None) -> None:
    """Versioned JSON serialization (format 2); floats survive the round trip exactly.

    Each tree is stored by _flatten. `extra` is an arbitrary
    JSON-compatible blob stored verbatim (the CLI keeps the fitted data
    schema there so one file carries the whole model).
    """
    payload = {
        "format": "survshape-forest",
        "version": FORMAT_VERSION,
        "grid": {"times": forest.grid.times.tolist(), "gamma": forest.grid.gamma},
        "feature_names": list(forest.feature_names),
        "feature_kinds": list(forest.feature_kinds),
        "config": {key: getattr(forest.config, key) for key in _CONFIG_KINDS},
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
    times = _field(grid_blob, "times", list, where)
    gamma = _field(grid_blob, "gamma", (int, float), where)
    extra = payload.get("extra")
    if extra is not None and not isinstance(extra, dict):
        raise DataError(f"{where}'s 'extra' must be an object or null")
    if len(names) != len(kinds) or not all(isinstance(v, str) for v in names + kinds):
        raise DataError(f"{path}: feature names and kinds must be matching lists of strings")
    unknown = sorted(set(config) - set(_CONFIG_KINDS))
    if unknown:
        raise DataError(f"{path}: unknown forest config key(s): {', '.join(unknown)}")
    settings = {key: _field(config, key, kind, f"{path}: forest config")
                for key, kind in _CONFIG_KINDS.items()}
    if not trees:
        raise DataError(f"{path}: forest file holds no trees")
    if settings["n_trees"] != len(trees):
        raise DataError(f"{path}: forest config says n_trees = {settings['n_trees']}, "
                        f"but the file holds {len(trees)} trees")
    try:
        grid = TimeGrid(np.asarray(times, dtype=float), gamma)
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
