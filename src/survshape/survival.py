"""Core survival-analysis machinery.

Censored datasets, the event-time interval grid, the piecewise-constant
cumulative-hazard step function, the Nelson-Aalen estimator (the
baseline H_0 of nelson_aalen and every forest leaf alike, through
_leaf_counts and _leaf_values), the integrated-CHF risk score of a black
box and Harrell's concordance index. Everything here is immutable after
construction and free of hidden state, so concurrent read-only use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    GridDegenerateError,
    MetricUndefinedError,
    TooFewRowsError,
    _real,
)

KIND_NUMERIC = "numeric"
KIND_ONE_HOT = "one_hot_level"
GAMMA_FRACTION = 0.01  # the tail interval's width, as a fraction of the event-time span


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored samples stored column-wise as numpy arrays.

    Attributes
    ----------
    features : (n, m) finite float array
    times : (n,) finite nonnegative float array, observed event or censoring times
    events : (n,) int array, 1 = event observed, 0 = censored
    feature_names : m column names
    feature_kinds : per-column tag, KIND_NUMERIC or KIND_ONE_HOT
    """

    features: np.ndarray
    times: np.ndarray
    events: np.ndarray
    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.features, dtype=float))
        t = np.asarray(self.times, dtype=float)
        e = np.asarray(self.events, dtype=int)
        if x.ndim != 2:
            raise DataError("features must be a 2-D (n, m) array")
        n, m = x.shape
        if len(t) != n or len(e) != n:
            raise DataError("times/events length must match the number of rows")
        if n < 2:
            raise TooFewRowsError("a survival dataset needs at least 2 samples")
        if len(self.feature_names) != m or len(self.feature_kinds) != m:
            raise DataError("feature metadata must have one entry per column")
        bad = np.flatnonzero(~np.isfinite(x).all(axis=0))
        if bad.size:
            raise DataError(f"feature {self.feature_names[bad[0]]!r} holds a non-finite value")
        if not np.isfinite(t).all():
            raise DataError("observed times must be finite")
        if np.any(t < 0):
            raise DataError("observed times must be nonnegative")
        if not np.all(np.isin(e, (0, 1))):
            raise DataError("event indicators must be 0 or 1")
        if int(e.sum()) < 1:
            raise TooFewRowsError("a survival dataset needs at least one observed event")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "events", e)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "feature_kinds", tuple(self.feature_kinds))

    @classmethod
    def from_arrays(cls, features, times, events, feature_names=None, feature_kinds=None):
        """Build a dataset, defaulting names to x0..x{m-1} and kinds to numeric."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        m = features.shape[1]
        if feature_names is None:
            feature_names = tuple(f"x{k}" for k in range(m))
        if feature_kinds is None:
            feature_kinds = tuple(KIND_NUMERIC for _ in range(m))
        return cls(features, np.asarray(times, dtype=float),
                   np.asarray(events, dtype=int), tuple(feature_names),
                   tuple(feature_kinds))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "SurvivalDataset":
        idx = np.asarray(indices, dtype=int)
        return SurvivalDataset(self.features[idx], self.times[idx], self.events[idx],
                               self.feature_names, self.feature_kinds)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Partition of [t_0, t_s + gamma] into half-open intervals.

    Interval j covers [times[j], times[j+1]) for j < s and
    [times[s], times[s] + gamma] for the last one, so `widths[j]` is the
    interval length and `widths[-1] == gamma`.
    """

    times: np.ndarray
    gamma: float
    widths: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise GridDegenerateError("a time grid needs >= 2 distinct times")
        if np.any(np.diff(t) <= 0):
            raise GridDegenerateError("grid times must be strictly increasing")
        if not self.gamma > 0:
            raise GridDegenerateError("gamma must be positive")
        widths = np.empty(len(t))
        widths[:-1] = np.diff(t)
        widths[-1] = self.gamma
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "widths", widths)

    @property
    def n_intervals(self) -> int:
        return len(self.times)

    @property
    def horizon(self) -> float:
        return float(self.times[-1] + self.gamma)

    def __eq__(self, other):
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return (np.array_equal(self.times, other.times)
                and self.gamma == other.gamma)


def _step_values(grid_times: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Right-continuous step lookup; 0 before the first grid time."""
    idx = np.searchsorted(grid_times, t, side="right") - 1
    out = np.where(idx >= 0, values[np.clip(idx, 0, len(values) - 1)], 0.0)
    return out


@dataclass(frozen=True)
class PiecewiseChf:
    """Piecewise-constant cumulative hazard on a TimeGrid (one value per interval)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_intervals,):
            raise DataError("need one CHF value per grid interval")
        if not np.all(np.isfinite(v)):
            raise DataError("CHF values must be finite")
        if np.any(v < 0):
            raise DataError("CHF values must be nonnegative")
        if np.any(np.diff(v) < -1e-12):
            raise DataError("CHF values must be nondecreasing")
        object.__setattr__(self, "values", v)

    def __call__(self, t) -> np.ndarray:
        return _step_values(self.grid.times, self.values, np.asarray(t, dtype=float))


def build_time_grid(dataset: SurvivalDataset, gamma_fraction: float = GAMMA_FRACTION) -> TimeGrid:
    """Distinct observed event times plus a tail interval of relative width gamma_fraction.

    Uses the times of samples with an observed event; falls back to all
    observed times when fewer than two of those are distinct. Raises
    GridDegenerateError when even the fallback has fewer than two.
    """
    if not _real(gamma_fraction, "gamma_fraction") > 0:
        raise DataError("gamma_fraction must be positive")
    event_times = np.unique(dataset.times[dataset.events == 1])
    if len(event_times) < 2:
        event_times = np.unique(dataset.times)
    if len(event_times) < 2:
        raise GridDegenerateError(
            f"need >= 2 distinct times to build a grid, got {len(event_times)}")
    gamma = gamma_fraction * float(event_times[-1] - event_times[0])
    return TimeGrid(event_times, gamma)


def _leaf_counts(times, events, grid_times) -> np.ndarray:
    """Nelson-Aalen table, shape (3, k): per event time its grid index, deaths, at risk.

    The grid index is that of the first grid time at or after the event
    time; after the last grid time it is the grid's length, so the
    increment reaches no grid time. Censored-only times are left out: they
    add 0 to the CHF.
    """
    event_times, deaths = np.unique(times[events == 1], return_counts=True)
    at_risk = len(times) - np.searchsorted(np.sort(times), event_times)
    return np.stack([np.searchsorted(grid_times, event_times), deaths, at_risk])


def _leaf_values(sizes, index, deaths, at_risk, s: int) -> list:
    """Leaves' Nelson-Aalen CHFs on an s-point grid, as runs, from their _leaf_counts tables.

    Leaf k owns the next sizes[k] entries of the other three arrays, whose
    grid indices (0 to s) do not fall. Its increments deaths / at risk are
    summed in order: one cumsum over a zero-padded (leaves, 1 + most
    events) matrix gives each row the floats of that leaf's own cumsum.
    Leaf k's CHF is sizes[k] + 1 runs: a 0 from grid index 0 on, then each
    sum from its grid index up to the next one (the last to the end of the
    grid), so a run may cover no grid point.

    Returns one (values, lengths) pair per leaf: views of two flat arrays
    that hold every leaf's runs in turn, without the padding.
    np.repeat(values, lengths) is the leaf's CHF, s floats.
    """
    sizes = np.asarray(sizes)
    leaf = np.repeat(np.arange(len(sizes)), sizes)
    column = np.arange(len(index)) - (np.cumsum(sizes) - sizes)[leaf] + 1
    hazard = np.zeros((len(sizes), sizes.max(initial=0) + 1))
    hazard[leaf, column] = deaths / at_risk
    np.cumsum(hazard, axis=1, out=hazard)
    bounds = np.full((len(sizes), hazard.shape[1] + 1), s)  # each run's start, then s
    bounds[:, 0] = 0
    bounds[leaf, column] = index
    runs = np.arange(hazard.shape[1]) <= sizes[:, None]  # each leaf's own runs
    values, lengths = hazard[runs], np.diff(bounds, axis=1)[runs]
    stops = np.cumsum(sizes + 1).tolist()
    return [(values[a:b], lengths[a:b]) for a, b in zip([0] + stops[:-1], stops)]


def nelson_aalen(dataset: SurvivalDataset, grid: TimeGrid) -> PiecewiseChf:
    """Nelson-Aalen cumulative hazard evaluated at the grid times.

    H(t_j) = sum over distinct observed times u <= t_j of d_u / n_u, where
    d_u counts events at u and n_u the samples still at risk just before u.
    """
    counts = _leaf_counts(dataset.times, dataset.events, grid.times)
    (values, lengths), = _leaf_values([counts.shape[1]], *counts, grid.n_intervals)
    return PiecewiseChf(grid, np.repeat(values, lengths))


def risk_scores(box, x) -> np.ndarray:
    """Integrated CHF per row of any black box: a monotone risk summary for ranking.

    A box that has `integrated_chf(x) -> (n,)` (the forest does) answers
    it itself, without an (n, s+1) array. Any other box only needs `grid`
    and `predict_chf_matrix`, and gets `predict_chf_matrix(x) @ grid.widths`.
    """
    integrated = getattr(box, "integrated_chf", None)
    if integrated is not None:
        return np.asarray(integrated(x), dtype=float)
    return np.asarray(box.predict_chf_matrix(x), dtype=float) @ box.grid.widths


def concordance_index(risk_scores, dataset: SurvivalDataset) -> float:
    """Harrell's C-index: fraction of admissible pairs ordered correctly.

    Higher risk score must go with shorter time to event. A pair is
    admissible unless both members are censored, the earlier time is
    censored, or the times are equal with both events observed; for equal
    times with exactly one event, the event sample counts as failing first.
    Tied risk scores earn 0.5. Raises MetricUndefinedError when no pair
    is admissible.

    O(n log n) time and O(n) memory: samples are visited by time
    descending, censored before events within one time, and a Fenwick
    tree over dense risk ranks counts the later samples each event
    outranks. A time's events are inserted only after all of them are
    queried, so equal-time event pairs stay inadmissible.
    """
    r = np.asarray(risk_scores, dtype=float)
    if r.shape != (dataset.n,):
        raise DataError("need exactly one risk score per sample")
    if not np.all(np.isfinite(r)):
        raise DataError("risk scores must be finite")
    order = np.lexsort((dataset.events, -dataset.times))
    t = dataset.times[order]
    e = dataset.events[order]
    # Ranks start at 1 so that the Fenwick tree's index 0 stays empty.
    ranks = np.unique(r, return_inverse=True)[1][order] + 1
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    stops = np.r_[starts[1:], len(t)]
    # Within one time, positions [start, split) are censored, [split, stop) events.
    splits = starts + np.add.reduceat(1 - e, starts)
    # Each event's admissible partners are exactly the samples placed before its time's events.
    admissible = int(np.dot(splits, stops - splits))
    if admissible == 0:
        raise MetricUndefinedError("no admissible pairs for the concordance index")
    size = int(ranks.max()) + 1
    below = [0] * size  # Fenwick tree: prefix sums give the inserted count at ranks <= k
    equal = [0] * size  # inserted count at exactly rank k
    correct = tied = 0
    ranks = ranks.tolist()

    def insert(group):
        for k in group:
            equal[k] += 1
            while k < size:
                below[k] += 1
                k += k & -k

    for start, split, stop in zip(starts.tolist(), splits.tolist(), stops.tolist()):
        insert(ranks[start:split])
        for k in ranks[split:stop]:
            tied += equal[k]
            k -= 1
            while k > 0:
                correct += below[k]
                k -= k & -k
        insert(ranks[split:stop])
    return float((correct + 0.5 * tied) / admissible)
