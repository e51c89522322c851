import base64
import concurrent.futures
import gzip
import multiprocessing
import os
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survshape import forest as forest_module
from survshape.errors import DataError, _floats, _pack_floats
from survshape.forest import (
    ForestConfig,
    fit_forest,
    load_forest,
    predict_chf_matrix,
    risk_scores,
    save_forest,
    _best_split,
)
from survshape.survival import SurvivalDataset, _leaf_counts, _leaf_values, concordance_index
from survshape.synthetic import SyntheticSpec, generate_cox_data


def log_rank_statistic(times_a, events_a, times_b, events_b) -> float:
    """Two-sample log-rank chi-square statistic; symmetric, 0 without events."""
    ta = np.asarray(times_a, dtype=float)
    tb = np.asarray(times_b, dtype=float)
    ea = np.asarray(events_a, dtype=int)
    eb = np.asarray(events_b, dtype=int)
    if len(ta) == 0 or len(tb) == 0:
        raise DataError("both groups must be nonempty")
    times = np.concatenate([ta, tb])
    events = np.concatenate([ea, eb])
    in_a = np.zeros(len(times), dtype=bool)
    in_a[:len(ta)] = True
    event_times = np.unique(times[events == 1])
    if len(event_times) == 0:
        return 0.0
    num = 0.0
    var = 0.0
    for u in event_times:
        at_risk = times >= u
        n = int(at_risk.sum())
        n_a = int((at_risk & in_a).sum())
        here = (times == u) & (events == 1)
        d = int(here.sum())
        d_a = int((here & in_a).sum())
        num += d_a - d * n_a / n
        if n > 1:
            var += d * (n_a / n) * (1.0 - n_a / n) * (n - d) / (n - 1)
    if var <= 0.0:
        return 0.0
    return float(num * num / var)


def hand_nelson_aalen(times, events, at_times):
    """Direct sum of d/n over distinct times, evaluated at each grid time."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    out = []
    for tj in np.asarray(at_times, dtype=float):
        total = 0.0
        for u in sorted(set(times.tolist())):
            if u > tj:
                break
            d = int(events[times == u].sum())
            if d:
                total += d / int((times >= u).sum())
        out.append(total)
    return np.asarray(out)


def separable_dataset():
    """Binary feature 0 splits early failures from late ones; feature 1 is noise.

    The noise column is binary too, so no chance threshold of it can separate
    the two time clusters and the log-rank argmax is always the true split.
    """
    rng = np.random.default_rng(0)
    n = 40
    group = np.repeat([0.0, 1.0], n // 2)
    times = np.where(group == 0, rng.uniform(1, 2, n), rng.uniform(10, 20, n))
    x = np.column_stack([group, rng.integers(0, 2, n).astype(float)])
    return SurvivalDataset.from_arrays(x, times, np.ones(n, dtype=int))


class TestLogRank:
    def test_identical_groups_zero(self):
        t = np.array([1.0, 2.0, 3.0])
        e = np.array([1, 0, 1])
        assert log_rank_statistic(t, e, t, e) == 0.0

    def test_symmetric(self):
        ta, ea = np.array([1.0, 3.0]), np.array([1, 1])
        tb, eb = np.array([2.0, 4.0]), np.array([1, 1])
        assert log_rank_statistic(ta, ea, tb, eb) == pytest.approx(
            log_rank_statistic(tb, eb, ta, ea))

    def test_hand_computed_four_samples(self):
        # events at 1,3 vs 2,4; chi-square works out to (2/3)^2 / (13/18) = 8/13
        stat = log_rank_statistic([1.0, 3.0], [1, 1], [2.0, 4.0], [1, 1])
        assert stat == pytest.approx(8.0 / 13.0, abs=1e-12)

    def test_no_events_zero(self):
        assert log_rank_statistic([1.0, 2.0], [0, 0], [3.0], [0]) == 0.0

    def test_self_comparison_always_zero(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            t = np.round(rng.uniform(1, 9, n), 1)
            e = rng.integers(0, 2, n)
            assert log_rank_statistic(t, e, t, e) == 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(DataError):
            log_rank_statistic([], [], [1.0], [1])


def _reference_best_split_for_feature(values, times, events, min_leaf_events):
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


def _reference_best_split(x, times, events, candidates, min_leaf_events):
    """(feature, threshold): the first maximum of the per-feature search over the candidates."""
    best = None
    for k in candidates:
        found = _reference_best_split_for_feature(x[:, k], times, events, min_leaf_events)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(k), found[1])
    return None if best is None else best[1:]


def _random_node(rng, n):
    """A node of n samples with tied values and times, censoring, a constant
    feature and an exact copy of another feature (so two candidates tie)."""
    m = 5
    x = rng.normal(size=(n, m))
    x[:, 1] = rng.integers(0, 3, n)  # few distinct values
    x[:, 2] = 0.75  # constant
    x[:, 3] = np.round(x[:, 3], 1)
    x[:, 4] = x[:, int(rng.choice([0, 1, 3]))]  # an exact copy
    times = np.round(rng.uniform(1, 6, n), int(rng.integers(0, 2)))
    events = (rng.uniform(size=n) > rng.uniform(0, 0.6)).astype(int)
    return x, times, events


class TestSplitSearch:
    def test_picks_brute_force_optimum(self):
        ds = separable_dataset()
        for feature in range(2):
            values = ds.features[:, feature]
            found = _best_split(ds.features, ds.times, ds.events, [feature], 1)
            if found is None:
                continue
            assert found[0] == feature
            left = values <= found[1]
            score = log_rank_statistic(ds.times[left], ds.events[left],
                                       ds.times[~left], ds.events[~left])
            # brute force over every midpoint candidate
            uniq = np.unique(values)
            best = 0.0
            for lo, hi in zip(uniq[:-1], uniq[1:]):
                thr = 0.5 * (lo + hi)
                left = values <= thr
                stat = log_rank_statistic(ds.times[left], ds.events[left],
                                          ds.times[~left], ds.events[~left])
                best = max(best, stat)
            assert score == pytest.approx(best, rel=1e-9)

    def test_constant_feature_unsplittable(self):
        assert _best_split(np.ones((6, 1)), np.arange(1.0, 7.0),
                           np.ones(6, dtype=int), [0], 1) is None

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 300])
    @pytest.mark.parametrize("min_leaf_events", [1, 3])
    def test_matches_per_feature_reference_bit_for_bit(self, n, min_leaf_events):
        rng = np.random.default_rng([n, min_leaf_events])
        splits = 0
        for _ in range(12):
            x, times, events = _random_node(rng, n)
            for candidates in (rng.permutation(5), rng.choice(5, 2, replace=False),
                               np.array([4, 0, 1, 3]), np.array([0, 1, 3, 4])):
                expected = _reference_best_split(x, times, events, candidates,
                                                 min_leaf_events)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = _best_split(x, times, events, candidates, min_leaf_events)
                if expected is None:
                    assert got is None
                    continue
                splits += 1
                assert type(got[0]) is int and got[0] == expected[0]
                assert np.float64(got[1]).tobytes() == np.float64(expected[1]).tobytes()
        assert splits or n < 7

    def test_one_search_per_grown_node(self, monkeypatch):
        calls = []  # each call's result
        search = forest_module._best_split

        def record(*args):
            calls.append(search(*args))
            return calls[-1]
        monkeypatch.setattr(forest_module, "_best_split", record)
        monkeypatch.setattr(forest_module, "_worker_count", lambda n_trees: 1)
        ds = generate_cox_data(SyntheticSpec(n=120, m=3, coef=(1.0, -0.5, 0.0),
                                             censoring_rate=0.3, seed=4))[0]
        tree = fit_forest(ds, ForestConfig(n_trees=1, min_leaf_events=2, seed=1)).trees[0]
        features = preorder(tree)[0]
        assert features == tree["stored"]["feature"]
        assert len(calls) <= len(features)
        assert sum(c is not None for c in calls) == sum(f >= 0 for f in features)


class TestFitAndPredict:
    def test_separating_feature_wins_root(self):
        ds = separable_dataset()
        config = ForestConfig(n_trees=10, min_leaf_events=2, features_per_split=2, seed=3)
        forest = fit_forest(ds, config)
        for tree in forest.trees:
            assert tree["feature"] == 0

    def test_single_tree_pure_leaf_matches_nelson_aalen(self):
        ds = separable_dataset()
        config = ForestConfig(n_trees=1, min_leaf_events=1, seed=1)
        forest = fit_forest(ds, config)
        x = ds.features[0]
        members = [i for i in _bootstrap_rows(config.seed, ds.n)
                   if _same_leaf(forest.trees[0], ds.features[i], x)]
        chf = predict_chf_matrix(forest, x[None])[0]
        expected = hand_nelson_aalen(ds.times[members], ds.events[members], forest.grid.times)
        assert chf == pytest.approx(expected, abs=1e-12)

    def test_every_leaf_is_local_nelson_aalen(self):
        # brute-force oracle on n <= 30 over the tree's own bootstrap sample
        rng = np.random.default_rng(5)
        n = 24
        x = rng.normal(size=(n, 2))
        times = np.round(rng.uniform(1, 10, n), 2)
        ds = SurvivalDataset.from_arrays(x, times, np.ones(n, dtype=int))
        config = ForestConfig(n_trees=1, min_leaf_events=1, seed=2)
        forest = fit_forest(ds, config)
        sample = _bootstrap_rows(config.seed, n)
        for i in range(n):
            members = [j for j in sample if _same_leaf(forest.trees[0], ds.features[j],
                                                       ds.features[i])]
            assert members
            expected = hand_nelson_aalen(ds.times[members], ds.events[members],
                                         forest.grid.times)
            got = predict_chf_matrix(forest, ds.features[i][None])[0]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_bootstrap_without_events_is_a_zero_leaf(self):
        n = 6
        ds = SurvivalDataset.from_arrays(np.arange(n, dtype=float)[:, None],
                                         np.arange(1.0, n + 1.0), np.eye(n, dtype=int)[0])
        seed = next(s for s in range(50) if 0 not in _bootstrap_rows(s, n))
        with pytest.warns(UserWarning, match="single leaf"):
            forest = fit_forest(ds, ForestConfig(n_trees=1, min_leaf_events=1, seed=seed))
        s = forest.grid.n_intervals
        leaf = forest.trees[0]
        assert leaf["values"].tobytes() == np.zeros(1).tobytes() and leaf["lengths"].tolist() == [s]
        chf = predict_chf_matrix(forest, ds.features)
        assert chf.tobytes() == np.zeros((n, s)).tobytes()

    def test_deterministic_forest(self, tmp_path):
        ds = separable_dataset()
        config = ForestConfig(n_trees=5, min_leaf_events=2, seed=11)
        f1 = fit_forest(ds, config)
        f2 = fit_forest(ds, config)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_forest(f1, p1)
        save_forest(f2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mean_of_two_trees(self):
        ds = separable_dataset()
        config = ForestConfig(n_trees=1, min_leaf_events=2, seed=0)
        forest = fit_forest(ds, config)
        grid_len = forest.grid.n_intervals
        trees = (
            {"values": np.array([0.2]), "lengths": np.array([grid_len])},
            {"values": np.array([0.0, 0.4]), "lengths": np.array([0, grid_len])},
        )
        doctored = type(forest)(trees, forest.grid, forest.feature_names,
                                forest.feature_kinds, forest.config)
        chf = predict_chf_matrix(doctored, ds.features[0][None])[0]
        assert np.allclose(chf, 0.3)

    def test_batch_path_matches_single_path_exactly(self):
        ds = separable_dataset()
        forest = fit_forest(ds, ForestConfig(n_trees=6, min_leaf_events=2, seed=8))
        batch = predict_chf_matrix(forest, ds.features)
        for i in range(ds.n):
            row = predict_chf_matrix(forest, ds.features[i][None])[0]
            assert np.array_equal(batch[i], row)
        # Rows off the training data, through the forest's own method.
        spec = SyntheticSpec(n=120, m=3, coef=(1.0, -0.5, 0.2), censoring_rate=0.3, seed=2)
        forest = fit_forest(generate_cox_data(spec)[0], ForestConfig(n_trees=10, seed=3))
        x = np.random.default_rng(4).uniform(-1, 1, (50, 3))
        batch = forest.predict_chf_matrix(x)
        for i in range(len(x)):
            assert np.array_equal(forest.predict_chf_matrix(x[i][None])[0], batch[i])

    def test_prediction_monotone(self):
        spec = SyntheticSpec(n=80, m=3, coef=(1.0, -0.5, 0.0), censoring_rate=0.25, seed=4)
        ds, _ = generate_cox_data(spec)
        forest = fit_forest(ds, ForestConfig(n_trees=12, seed=5))
        rng = np.random.default_rng(0)
        for _ in range(10):
            chf = predict_chf_matrix(forest, rng.uniform(-1, 1, 3)[None])[0]
            assert np.all(np.diff(chf) >= -1e-12)

    def test_grid_independent_of_tree_count(self):
        ds = separable_dataset()
        f_small = fit_forest(ds, ForestConfig(n_trees=2, seed=0))
        f_big = fit_forest(ds, ForestConfig(n_trees=7, seed=0))
        assert f_small.grid == f_big.grid

    def test_schema_mismatch_rejected(self):
        ds = separable_dataset()
        forest = fit_forest(ds, ForestConfig(n_trees=2, seed=0))
        with pytest.raises(DataError):
            predict_chf_matrix(forest, np.array([1.0, 2.0, 3.0])[None])
        with pytest.raises(DataError):
            predict_chf_matrix(forest, np.array([np.nan, 0.0])[None])

    @pytest.mark.parametrize("field, value", [
        ("n_trees", 2.7), ("n_trees", 2.0), ("n_trees", "3"), ("n_trees", None),
        ("min_leaf_events", "4"), ("min_leaf_events", True), ("max_depth", True),
        ("max_depth", 2.5), ("features_per_split", "2"), ("seed", 1.0),
        ("gamma_fraction", "0.5"), ("gamma_fraction", True),
    ])
    def test_config_rejects_non_int_fields(self, field, value):
        kind = "a real number" if field == "gamma_fraction" else "an int"
        with pytest.raises(DataError, match=f"^{field} must be {kind}, got {value!r}$"):
            ForestConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_config_rejects_non_finite_gamma_fraction(self, value):
        with pytest.raises(DataError, match=f"^gamma_fraction must be finite, got {value!r}$"):
            ForestConfig(gamma_fraction=value)

    def test_config_keeps_int_fields(self):
        config = ForestConfig(n_trees=np.int64(3), min_leaf_events=2, max_depth=None,
                              features_per_split=np.int32(2), seed=4)
        assert (config.n_trees, config.features_per_split) == (3, 2)
        assert type(config.n_trees) is int and type(config.features_per_split) is int
        assert config.max_depth is None

    def test_tiny_dataset_single_leaf_with_warning(self):
        # 3 events satisfies the precondition but no split can give each
        # child min_leaf_events = 3 events, so every tree stays a leaf.
        ds = SurvivalDataset.from_arrays(np.array([[0.0], [1.0], [2.0], [3.0]]),
                                         np.array([1.0, 2.0, 3.0, 4.0]),
                                         np.array([1, 1, 1, 0]))
        with pytest.warns(UserWarning):
            forest = fit_forest(ds, ForestConfig(n_trees=2, min_leaf_events=3, seed=0))
        assert all("values" in t for t in forest.trees)

    def test_learns_risk_ordering(self):
        spec = SyntheticSpec(n=300, m=2, coef=(1.5, 0.0), censoring_rate=0.2, seed=6)
        ds, _ = generate_cox_data(spec)
        forest = fit_forest(ds, ForestConfig(n_trees=30, seed=7))
        spec_test = SyntheticSpec(n=150, m=2, coef=(1.5, 0.0), censoring_rate=0.2, seed=60)
        test, _ = generate_cox_data(spec_test)
        c = concordance_index(risk_scores(forest, test.features), test)
        assert c > 0.6


def _usable_cpus(monkeypatch, count):
    """Make the affinity mask, which sizes fit_forest's pool, hold `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _forest_bytes(forest, path):
    save_forest(forest, path)
    return path.read_bytes()


class WorkerFailure(DataError):
    """A DataError subclass a pool worker raises; module-level, so it pickles by name."""


class TestWorkerPool:
    """Trees grow in one process per usable CPU; the forest is the serial one."""

    @pytest.mark.parametrize("seed, n, m, n_trees", [
        (0, 80, 2, 1), (1, 80, 2, 3), (2, 150, 4, 3), (3, 150, 4, 25), (4, 60, 1, 25),
    ])
    def test_two_workers_save_the_serial_bytes(self, seed, n, m, n_trees, monkeypatch,
                                               tmp_path):
        spec = SyntheticSpec(n=n, m=m, coef=(1.0,) * m, censoring_rate=0.3, seed=seed)
        ds, _ = generate_cox_data(spec)
        config = ForestConfig(n_trees=n_trees, min_leaf_events=2, seed=seed)
        saved = []
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            saved.append(_forest_bytes(fit_forest(ds, config), tmp_path / f"{cpus}.bin"))
        assert saved[0] == saved[1]

    def test_single_leaf_forest_warns_once(self, monkeypatch, tmp_path):
        ds = SurvivalDataset.from_arrays(np.array([[0.0], [1.0], [2.0], [3.0]]),
                                         np.array([1.0, 2.0, 3.0, 4.0]),
                                         np.array([1, 1, 1, 0]))
        config = ForestConfig(n_trees=3, min_leaf_events=3, seed=0)
        saved = []
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                forest = fit_forest(ds, config)
            assert [str(w.message) for w in caught] == [
                "no split satisfied the constraints; forest is a single leaf"]
            assert caught[0].filename == __file__  # stacklevel=2: the caller's line
            saved.append(_forest_bytes(forest, tmp_path / f"{cpus}.bin"))
        assert saved[0] == saved[1]

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def fail(*args):
            raise WorkerFailure("empty risk set at an event time")

        monkeypatch.setattr(forest_module, "_grow_tree", fail)
        _usable_cpus(monkeypatch, 2)
        with pytest.raises(DataError) as caught:
            fit_forest(separable_dataset(), ForestConfig(n_trees=4, min_leaf_events=2))
        assert type(caught.value) is WorkerFailure
        assert str(caught.value) == "empty risk set at an event time"
        assert multiprocessing.active_children() == []

    def test_workers_send_each_tree_in_its_stored_form(self, monkeypatch):
        received, unflatten = [], forest_module._unflatten

        def record(blobs, *args):
            received.extend(blobs)
            return unflatten(blobs, *args)

        monkeypatch.setattr(forest_module, "_unflatten", record)
        _usable_cpus(monkeypatch, 2)
        forest = fit_forest(separable_dataset(), ForestConfig(n_trees=4, min_leaf_events=2))
        assert all(isinstance(blob["deaths"], list) for blob in received)
        assert [tree["stored"] for tree in forest.trees] == received
        for tree, blob in zip(forest.trees, received):
            features, thresholds, _ = preorder(tree)
            assert features == blob["feature"]
            assert thresholds == _floats(blob, "threshold", "tree").tolist()

    def test_no_worker_outlives_the_fit(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        fit_forest(separable_dataset(), ForestConfig(n_trees=4, min_leaf_events=2))
        assert multiprocessing.active_children() == []

    # Off Linux, workers could only be spawned, and spawned workers
    # re-import the caller's __main__.
    @pytest.mark.parametrize("platform, cpus", [("linux", 1), ("darwin", 2)],
                             ids=["one-cpu", "off-linux"])
    def test_grows_in_process(self, platform, cpus, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(sys, "platform", platform)
        _usable_cpus(monkeypatch, cpus)
        forest = fit_forest(separable_dataset(), ForestConfig(n_trees=4, min_leaf_events=2))
        assert len(forest.trees) == 4

    def test_worker_count_is_clamped_to_cpus_and_trees(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        _usable_cpus(monkeypatch, 64)
        assert [forest_module._worker_count(n) for n in (1, 3, 64, 500)] == [1, 3, 64, 64]
        _usable_cpus(monkeypatch, 1)
        assert forest_module._worker_count(500) == 1


def stored_chfs(blob, s):
    """Each leaf's CHF on the s-point grid, in preorder, summed by hand from a stored
    tree's count tables."""
    chfs, start = [], 0
    for size in blob["leaf_events"]:
        chf, total, index = np.zeros(s), 0.0, 0
        for step, d, n in zip(*(blob[key][start:start + size]
                                for key in ("grid_steps", "deaths", "at_risk"))):
            index += step  # the first step from 0, each later one from the last index
            total += d / n
            chf[index:] = total
        chfs.append(chf)
        start += size
    return chfs


def leaf_chfs(tree, s):
    """A tree's leaf CHFs in preorder: from its stored count tables, or, for a tree
    made by hand, repeated from its runs."""
    if "stored" in tree:
        return stored_chfs(tree["stored"], s)
    return [np.repeat(values, lengths) for values, lengths in preorder(tree)[2]]


def hand_made_leaf(k, s):
    """A leaf built by hand as k + 2 rising runs; the first covers no grid point, as in a
    leaf with an event at the grid's first time."""
    cuts = np.sort(np.r_[0, np.random.default_rng(k).integers(1, s, k)])
    return {"values": np.linspace(0.0, 1.0 + k / 3.0, k + 2) ** 1.5,
            "lengths": np.diff(np.r_[0, cuts, s])}


def scatter_sum_predict(forest, x):
    """Each tree's leaf CHFs (leaf_chfs) scattered into a full n x (s+1) matrix, summed
    in tree order, divided."""
    total = np.zeros((len(x), forest.grid.n_intervals))
    scratch = np.empty_like(total)
    for tree in forest.trees:
        chfs = iter(leaf_chfs(tree, forest.grid.n_intervals))
        stack = [(tree, np.arange(len(x)))]
        while stack:  # preorder, as leaf_chfs
            node, idx = stack.pop()
            if "feature" not in node:
                scratch[idx] = next(chfs)
                continue
            mask = x[idx, node["feature"]] <= node["threshold"]
            stack += [(node["right"], idx[~mask]), (node["left"], idx[mask])]
        total += scratch
    return total / len(forest.trees)


def deep_chain(depth=1500):
    """A one-tree forest whose splits form a chain deeper than Python's default
    recursion limit, built from its stored form; rows that reach each of its
    leaves; and those leaves' values."""
    forest = fit_forest(separable_dataset(), ForestConfig(n_trees=1, seed=0))
    s = forest.grid.n_intervals
    # split k sends x0 <= k + 0.5 to leaf k, and the rest on down the chain;
    # leaf k holds one death among k + 1 at risk, at grid index k mod s
    blob = {"feature": [0, -1] * depth + [-1], "threshold": _pack_floats(np.arange(depth) + 0.5),
            "leaf_events": [1] * (depth + 1), "grid_steps": [k % s for k in range(depth + 1)],
            "deaths": [1] * (depth + 1), "at_risk": list(range(1, depth + 2))}
    chain = type(forest)(forest_module._unflatten([blob], 2, s), forest.grid,
                         forest.feature_names, forest.feature_kinds, forest.config)
    x = np.column_stack([np.arange(depth + 1.0), np.zeros(depth + 1)])
    leaf_values = np.array([np.where(np.arange(s) >= k % s, 1 / (k + 1), 0.0)
                            for k in range(depth + 1)])
    return chain, x, leaf_values


class TestBlockedPrediction:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 700])
    def test_bitwise_equal_to_scatter_sum(self, n, tmp_path):
        spec = SyntheticSpec(n=150, m=3, coef=(1.0, -0.5, 0.2), censoring_rate=0.3, seed=6)
        fitted = fit_forest(generate_cox_data(spec)[0], ForestConfig(n_trees=7, seed=2))
        save_forest(fitted, tmp_path / "forest.bin")
        loaded, _ = load_forest(tmp_path / "forest.bin")
        s = fitted.grid.n_intervals
        single_leaves = type(fitted)(tuple(hand_made_leaf(k, s) for k in range(3)),
                                     fitted.grid, fitted.feature_names, fitted.feature_kinds,
                                     fitted.config)
        x = np.random.default_rng(n).uniform(-1.5, 1.5, (n, 3))
        for forest in (fitted, loaded, single_leaves):
            assert predict_chf_matrix(forest, x).tobytes() == scatter_sum_predict(forest, x).tobytes()


def matrix_risk(forest, x):
    """The integrated CHF from the whole CHF matrix: the oracle for the forest's risk."""
    return predict_chf_matrix(forest, x) @ forest.grid.widths


def risk_cases(tmp_path):
    """(forest, x) pairs: a fitted forest, its saved and loaded copy, a forest of
    single-leaf trees and the deep chain, each with rows it routes to many leaves."""
    spec = SyntheticSpec(n=200, m=3, coef=(1.0, -0.5, 0.2), censoring_rate=0.3, seed=6)
    fitted = fit_forest(generate_cox_data(spec)[0], ForestConfig(n_trees=9, seed=2))
    save_forest(fitted, tmp_path / "forest.bin")
    loaded, _ = load_forest(tmp_path / "forest.bin")
    s = fitted.grid.n_intervals
    single_leaves = type(fitted)(tuple(hand_made_leaf(k, s) for k in range(3)),
                                 fitted.grid, fitted.feature_names, fitted.feature_kinds,
                                 fitted.config)
    x = np.random.default_rng(7).uniform(-1.5, 1.5, (600, 3))
    chain, chain_x, _ = deep_chain()
    return [(fitted, x), (loaded, x), (single_leaves, x), (chain, chain_x)]


class TestRiskScores:
    """risk_scores on a forest: one integral per reached leaf, no CHF matrix."""

    def test_matches_the_matrix_oracle(self, tmp_path):
        for forest, x in risk_cases(tmp_path):
            risk, oracle = risk_scores(forest, x), matrix_risk(forest, x)
            assert risk.shape == (len(x),)
            np.testing.assert_allclose(risk, oracle, rtol=1e-13, atol=0)
            rng = np.random.default_rng(len(x))
            ds = SurvivalDataset.from_arrays(x, rng.exponential(size=len(x)),
                                             rng.integers(0, 2, len(x)) | (np.arange(len(x)) == 0))
            assert concordance_index(risk, ds) == concordance_index(oracle, ds)

    def test_risk_of_a_row_does_not_depend_on_its_batch(self, tmp_path):
        for forest, x in risk_cases(tmp_path):
            batch = risk_scores(forest, x)
            alone = np.concatenate([risk_scores(forest, row[None]) for row in x])
            assert alone.tobytes() == batch.tobytes()

    def test_zero_rows_give_an_empty_vector(self):
        forest = fit_forest(separable_dataset(), ForestConfig(n_trees=2, seed=0))
        risk = risk_scores(forest, np.empty((0, 2)))
        assert risk.shape == (0,) and risk.dtype == float

    @pytest.mark.parametrize("x, message", [
        (np.array([[1.0, 2.0, 3.0]]), "^x has 3 features, forest expects 2$"),
        (np.array([[np.nan, 0.0]]), "^x contains non-finite values$"),
        (np.array([[0.0, np.inf]]), "^x contains non-finite values$"),
    ])
    def test_rejects_rows_as_predict_chf_matrix_does(self, x, message):
        forest = fit_forest(separable_dataset(), ForestConfig(n_trees=2, seed=0))
        for fn in (risk_scores, predict_chf_matrix):
            with pytest.raises(DataError, match=message):
                fn(forest, x)

    def test_a_box_without_integrated_chf_gets_the_matrix_product(self):
        forest = fit_forest(separable_dataset(), ForestConfig(n_trees=3, seed=0))
        box = SimpleNamespace(grid=forest.grid, predict_chf_matrix=forest.predict_chf_matrix)
        x = separable_dataset().features
        assert risk_scores(box, x).tobytes() == matrix_risk(forest, x).tobytes()


class TestSerialization:
    def test_roundtrip_predictions(self, tmp_path):
        ds = separable_dataset()
        forest = fit_forest(ds, ForestConfig(n_trees=4, min_leaf_events=2, seed=12))
        path = tmp_path / "forest.json"
        save_forest(forest, path, extra={"note": "hello"})
        loaded, extra = load_forest(path)
        assert extra == {"note": "hello"}
        assert loaded.grid == forest.grid
        assert loaded.feature_names == forest.feature_names
        assert np.array_equal(predict_chf_matrix(loaded, ds.features),
                              predict_chf_matrix(forest, ds.features))

    def test_save_is_stable(self, tmp_path):
        ds = separable_dataset()
        forest = fit_forest(ds, ForestConfig(n_trees=3, min_leaf_events=2, seed=13))
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_forest(forest, p1)
        loaded, _ = load_forest(p1)
        save_forest(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_gzip_without_name_or_time(self, tmp_path):
        forest = fit_forest(separable_dataset(), ForestConfig(n_trees=2, seed=12))
        save_forest(forest, tmp_path / "forest.bin")
        header = (tmp_path / "forest.bin").read_bytes()[:10]
        # magic, deflate, FLG 0 (no file name), MTIME 0, XFL 0 (level 6), OS unknown
        assert header == bytes.fromhex("1f8b 08 00 00000000 00 ff")

    def test_path_does_not_change_the_bytes(self, tmp_path):
        forest = fit_forest(separable_dataset(), ForestConfig(n_trees=3, seed=14))
        short, long = tmp_path / "f.bin", tmp_path / "a" / "much_longer_name.forest.bin"
        long.parent.mkdir()
        save_forest(forest, short)
        save_forest(forest, long)
        assert short.read_bytes() == long.read_bytes()

    def test_plain_json_file_loads_the_same_forest(self, tmp_path):
        spec = SyntheticSpec(n=200, m=3, coef=(1.0, -0.5, 0.2), censoring_rate=0.45, seed=9)
        forest = fit_forest(generate_cox_data(spec)[0],
                            ForestConfig(n_trees=6, min_leaf_events=2, seed=4))
        save_forest(forest, tmp_path / "forest.bin")
        # the uncompressed JSON text, as format 5 files were written before gzip
        plain = tmp_path / "plain.bin"
        plain.write_bytes(gzip.decompress((tmp_path / "forest.bin").read_bytes()))
        assert plain.read_bytes().startswith(b'{"format": "survshape-forest", "version": 5')
        (gzipped, _), (loaded, _) = load_forest(tmp_path / "forest.bin"), load_forest(plain)
        x = np.random.default_rng(3).uniform(-1.5, 1.5, (200, 3))
        for side in (gzipped, forest):
            assert loaded.predict_chf_matrix(x).tobytes() == side.predict_chf_matrix(x).tobytes()
            assert loaded.integrated_chf(x).tobytes() == side.integrated_chf(x).tobytes()

    def test_rejects_bool_among_counts(self, tmp_path, forest_document):
        forest = fit_forest(separable_dataset(), ForestConfig(n_trees=3, seed=12))
        save_forest(forest, tmp_path / "forest.bin")

        def ones_to_true(payload):
            deaths = payload["trees"][0]["deaths"]
            assert 1 in deaths  # the other trees' counts make the chunk an int array
            payload["trees"][0]["deaths"] = [True if d == 1 else d for d in deaths]

        forest_document(tmp_path / "forest.bin", ones_to_true, tmp_path / "bool.bin")
        with pytest.raises(DataError, match="tree 0's 'deaths' must be a flat list of integers"):
            load_forest(tmp_path / "bool.bin")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(DataError):
            load_forest(path)

    def test_trees_are_flat_preorder_arrays(self, tmp_path, forest_document):
        ds = separable_dataset()
        forest = fit_forest(ds, ForestConfig(n_trees=2, min_leaf_events=2, seed=12))
        path = tmp_path / "forest.bin"
        save_forest(forest, path)
        payload = forest_document(path)
        assert payload["version"] == 5 and "bootstrap" not in payload["config"]
        assert _floats(payload["grid"], "times", "grid").tobytes() == forest.grid.times.tobytes()
        for tree, blob in zip(forest.trees, payload["trees"]):
            assert list(blob) == ["feature", "threshold", "leaf_events", "grid_steps",
                                  "deaths", "at_risk"]
            assert blob == tree["stored"]
            features, thresholds, runs = preorder(tree)
            assert blob["feature"] == features
            assert _floats(blob, "threshold", "tree").tolist() == thresholds
            assert len(thresholds) == len(features) - features.count(-1)
            assert len(blob["leaf_events"]) == len(runs)
            for size, (values, lengths) in zip(blob["leaf_events"], runs):  # leaves in preorder
                assert len(values) == len(lengths) == size + 1 and values[0] == 0.0
            assert ([chf.tobytes() for chf in stored_chfs(blob, forest.grid.n_intervals)]
                    == [np.repeat(values, lengths).tobytes() for values, lengths in runs])
            events = sum(blob["leaf_events"])
            assert events == len(blob["grid_steps"]) == len(blob["deaths"]) == len(blob["at_risk"])

    @given(st.lists(st.booleans(), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_flags_load_exactly_when_they_form_one_tree(self, splits):
        slots = 1  # subtrees still owed; a preorder tree leaves none and never runs short
        for split in splits:
            slots = -1 if slots <= 0 else slots + (1 if split else -1)
        n_leaves = splits.count(False)
        blob = {"feature": [0 if split else -1 for split in splits],
                "threshold": _pack_floats([0.5] * (len(splits) - n_leaves)),
                "leaf_events": [1] * n_leaves, "grid_steps": [0] * n_leaves,
                "deaths": [1] * n_leaves, "at_risk": [2] * n_leaves}
        if slots == 0:
            tree, = forest_module._unflatten([blob], 1, 1)
            assert tree["stored"] == blob
            assert preorder(tree)[0] == blob["feature"]
        else:
            with pytest.raises(DataError, match="does not flag exactly one preorder tree"):
                forest_module._unflatten([blob], 1, 1)

    def test_deep_chain_saves_loads_and_predicts(self, tmp_path):
        chain, x, leaf_values = deep_chain()
        save_forest(chain, tmp_path / "chain.bin")
        loaded, _ = load_forest(tmp_path / "chain.bin")
        assert np.array_equal(predict_chf_matrix(loaded, x), leaf_values)
        assert predict_chf_matrix(loaded, x).tobytes() == scatter_sum_predict(loaded, x).tobytes()

    def test_leaf_without_events_survives(self, tmp_path, forest_document):
        forest = fit_forest(separable_dataset(), ForestConfig(n_trees=1, seed=0))
        stored = {"feature": [-1], "threshold": "", "leaf_events": [0],
                  "grid_steps": [], "deaths": [], "at_risk": []}
        leaf, = forest_module._unflatten([stored], forest.m, forest.grid.n_intervals)
        doctored = type(forest)((leaf,), forest.grid, forest.feature_names,
                                forest.feature_kinds, forest.config)
        save_forest(doctored, tmp_path / "f.bin")
        loaded, _ = load_forest(tmp_path / "f.bin")
        s = forest.grid.n_intervals
        for tree in (leaf, loaded.trees[0]):
            assert tree["values"].tobytes() == np.zeros(1).tobytes()  # one run of +0.0
            assert tree["lengths"].tolist() == [s]
            assert tree["stored"] == stored
        x = separable_dataset().features
        assert predict_chf_matrix(loaded, x).tobytes() == np.zeros((len(x), s)).tobytes()
        assert forest_document(tmp_path / "f.bin")["trees"][0] == stored

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, -0.0],
        [5e-324, -2.225073858507201e-308, 1e-310],
        [1e308, -1e308, 1.7976931348623157e308],
        [],
    ], ids=["signed-zeros", "subnormals", "huge", "empty"])
    def test_float_codec_keeps_every_bit(self, values):
        packed = _pack_floats(values)
        assert base64.b64decode(packed, validate=True) == np.array(values, "<f8").tobytes()
        assert len(packed) == 4 * -(-8 * len(values) // 3)  # padded: whole 4-character groups
        unpacked = _floats({"v": packed}, "v", "test")
        assert unpacked.dtype == float and unpacked.tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize("value", ["AAAAAAAAAA!=", "AAAAAAAAAAé=", "AAAAAAAAAAA", "AAAAAAAAAA==",
                                       [1.0, 2.0], 1.0, None])
    def test_float_codec_refuses_anything_else(self, value):
        # a bad character, non-ASCII, missing padding, 7 bytes, and three non-strings
        with pytest.raises(DataError, match="^tree 0's 'v' (must be base64|has the wrong type)"):
            _floats({"v": value}, "v", "tree 0")

    @given(st.integers(0, 2**32 - 1), st.integers(6, 40), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_exact(self, seed, n, m, n_trees, min_leaf_events):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(n, m)), 1)
        times = np.round(rng.uniform(1, 6, n), 1)  # coarse, so times tie
        events = rng.integers(0, 2, n)
        assume(events.sum() >= min_leaf_events and len(np.unique(times)) > 1)
        ds = SurvivalDataset.from_arrays(x, times, events)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # single-leaf forests
            forest = fit_forest(ds, ForestConfig(n_trees=n_trees,
                                                 min_leaf_events=min_leaf_events, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = f"{tmp}/a.bin", f"{tmp}/b.bin"
            save_forest(forest, first, extra={"seed": seed})
            loaded, extra = load_forest(first)
            save_forest(loaded, second, extra=extra)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        probe = np.vstack([x, rng.normal(size=(5, m))])
        assert (predict_chf_matrix(loaded, probe).tobytes()
                == predict_chf_matrix(forest, probe).tobytes())


def random_leaf(rng, grid_times):
    """A leaf's samples: tied times on the grid, censored-only times between grid
    times and, with probability 1/4, no event at all."""
    n = int(rng.integers(1, 30))
    on_grid = rng.choice(grid_times, n)  # with repeats, so times tie
    between = rng.choice(grid_times[:-1] + 0.5 * np.diff(grid_times), n)
    censored_only = rng.uniform(size=n) < 0.3
    times = np.where(censored_only, between, on_grid)
    events = (~censored_only & (rng.uniform(size=n) < 0.6)).astype(int)
    if rng.uniform() < 0.25:
        events[:] = 0
    return times, events


class TestCountTables:
    """Leaves stored as Nelson-Aalen count tables rebuild the fit's CHFs bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_rebuilt_leaves_match_the_step_function_oracle(self, seed):
        rng = np.random.default_rng(seed)
        grid_times = np.cumsum(rng.uniform(0.1, 2.0, int(rng.integers(2, 40))))
        s = len(grid_times)
        leaves = [random_leaf(rng, grid_times) for _ in range(25)]
        tables = [_leaf_counts(t, e, grid_times) for t, e in leaves]
        # all leaves at once (zero-padded to the most events of any), and each alone
        sizes = [c.shape[1] for c in tables]
        together = _leaf_values(sizes, *np.concatenate(tables, axis=1), s)
        assert any(c.shape[1] == 0 for c in tables) and any(c.shape[1] > 1 for c in tables)
        for (times, events), counts, runs in zip(leaves, tables, together):
            oracle = hand_nelson_aalen(times, events, grid_times)  # summed in order, as the fit does
            alone, = _leaf_values([counts.shape[1]], *counts, s)
            for values, lengths in (runs, alone):
                assert len(values) == len(lengths) == counts.shape[1] + 1
                assert values[0] == 0.0 and lengths.min() >= 0 and lengths.sum() == s
                assert np.repeat(values, lengths).tobytes() == oracle.tobytes()

    def test_ties_and_censored_times_count_as_in_the_estimator(self):
        grid_times = np.array([1.0, 2.0, 3.0, 4.0])
        # two deaths tied at 2, a censored-only time at 2.5, a censored tie at 3
        times = np.array([1.0, 2.0, 2.0, 2.5, 3.0, 3.0, 5.0])
        events = np.array([0, 1, 1, 0, 1, 0, 0])
        counts = _leaf_counts(times, events, grid_times)
        assert counts.tolist() == [[1, 2], [2, 1], [6, 3]]
        (values, lengths), = _leaf_values([2], *counts, 4)
        assert values.tolist() == [0.0, 2 / 6, 2 / 6 + 1 / 3]
        assert lengths.tolist() == [1, 1, 2]

    @pytest.mark.parametrize("n_trees, min_leaf_events", [(1, 1), (5, 2), (3, 30)])
    def test_stored_form_round_trips(self, n_trees, min_leaf_events):
        spec = SyntheticSpec(n=60, m=2, coef=(1.0, -0.5), censoring_rate=0.4, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # min_leaf_events=30: one leaf a tree
            forest = fit_forest(generate_cox_data(spec)[0],
                                ForestConfig(n_trees=n_trees, min_leaf_events=min_leaf_events))
        blobs = [tree["stored"] for tree in forest.trees]
        loaded = forest_module._unflatten(blobs, 2, forest.grid.n_intervals)
        assert [tree["stored"] for tree in loaded] == blobs
        for fitted_tree, loaded_tree, blob in zip(forest.trees, loaded, blobs):
            (features, thresholds, runs), again = preorder(fitted_tree), preorder(loaded_tree)
            assert features == again[0] == blob["feature"]
            assert thresholds == again[1] == _floats(blob, "threshold", "tree").tolist()
            for (values, lengths), (loaded_values, loaded_lengths) in zip(runs, again[2],
                                                                          strict=True):
                assert values.tobytes() == loaded_values.tobytes()
                assert lengths.tobytes() == loaded_lengths.tobytes()
        if min_leaf_events == 30:
            assert all("feature" not in tree for tree in forest.trees)

    def test_loaded_forest_predicts_the_fitted_floats(self, tmp_path):
        spec = SyntheticSpec(n=200, m=3, coef=(1.0, -0.5, 0.2), censoring_rate=0.45, seed=9)
        fitted = fit_forest(generate_cox_data(spec)[0],
                            ForestConfig(n_trees=8, min_leaf_events=1, seed=4))
        save_forest(fitted, tmp_path / "forest.bin")
        loaded, _ = load_forest(tmp_path / "forest.bin")
        x = np.random.default_rng(2).uniform(-1.5, 1.5, (300, 3))
        assert loaded.predict_chf_matrix(x).tobytes() == fitted.predict_chf_matrix(x).tobytes()
        assert loaded.integrated_chf(x).tobytes() == fitted.integrated_chf(x).tobytes()

    def test_readme_reader_gives_the_leaves(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Forest file format")[1].split("\n### ")[0]
        snippet = section.split("```python\n")[1].split("```")[0]
        spec = SyntheticSpec(n=120, m=2, coef=(1.0, -0.5), censoring_rate=0.3, seed=5)
        forest = fit_forest(generate_cox_data(spec)[0], ForestConfig(n_trees=1, seed=2))
        save_forest(forest, tmp_path / "forest.bin")
        monkeypatch.chdir(tmp_path)
        scope = {}
        exec(snippet, scope)
        leaves, stack = [], [load_forest("forest.bin")[0].trees[0]]
        while stack:  # preorder
            node = stack.pop()
            if "feature" in node:
                stack += [node["right"], node["left"]]
            else:
                leaves.append(np.repeat(node["values"], node["lengths"]).tobytes())
        assert len(leaves) > 1
        assert [chf.tobytes() for chf in scope["chfs"]] == leaves


def _bootstrap_rows(seed, n):
    """The rows (with repeats) that tree 0 of a forest with this seed is grown on."""
    return np.random.default_rng([seed, 0]).integers(0, n, n)


def preorder(tree):
    """A tree's split features (-1 at a leaf), thresholds and leaf (values, lengths) runs,
    in preorder."""
    features, thresholds, runs = [], [], []
    stack = [tree]
    while stack:  # a split, its left subtree, then its right one
        node = stack.pop()
        if "values" in node:
            features.append(-1)
            runs.append((node["values"], node["lengths"]))
        else:
            features.append(node["feature"])
            thresholds.append(node["threshold"])
            stack += [node["right"], node["left"]]
    return features, thresholds, runs


def _same_leaf(tree, a, b):
    """True when two inputs are routed to the same leaf of the tree."""
    node = tree
    while "feature" in node:
        go_a = a[node["feature"]] <= node["threshold"]
        go_b = b[node["feature"]] <= node["threshold"]
        if go_a != go_b:
            return False
        node = node["left"] if go_a else node["right"]
    return True
