import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survshape import explain
from survshape.errors import AlignmentError, DiameterUndefinedError
from survshape.explain import (
    build_neighborhood,
    build_targets,
    dataset_diameter,
    explain_global,
    explain_local,
    generate_perturbations,
    neighborhood_weights,
    surrogate_c_index,
)
from survshape.nam import NamConfig, predict_log_risk
from survshape.survival import (
    KIND_NUMERIC,
    KIND_ONE_HOT,
    PiecewiseChf,
    SurvivalDataset,
    TimeGrid,
    build_time_grid,
    nelson_aalen,
)
from survshape.synthetic import ExactCoxPredictor, SyntheticSpec, generate_cox_data


def linear_setup(n=120, coef=(1.0, 0.0), censoring=0.0, seed=0):
    spec = SyntheticSpec(n=n, m=len(coef), coef=coef, censoring_rate=censoring, seed=seed)
    dataset, risk = generate_cox_data(spec)
    oracle = ExactCoxPredictor.for_dataset(spec, dataset)
    return spec, dataset, risk, oracle


def constant_box(grid, values):
    """A batch box that gives every row the same CHF values on grid."""
    return SimpleNamespace(
        grid=grid,
        predict_chf_matrix=lambda x: np.tile(values, (len(np.atleast_2d(x)), 1)))


def baseline_box(dataset):
    """Ignores features: always returns the dataset's Nelson-Aalen CHF."""
    grid = build_time_grid(dataset)
    return constant_box(grid, nelson_aalen(dataset, grid).values)


def fast_config(variant="base", **kw):
    defaults = dict(hidden_sizes=(16, 8), learning_rate=1e-2, epochs=400, seed=0,
                    variant=variant)
    defaults.update(kw)
    return NamConfig(**defaults)


class TestPerturbations:
    def test_deterministic(self):
        _, dataset, _, _ = linear_setup()
        x = dataset.features[3]
        a = generate_perturbations(x, dataset, 20, seed=5)
        b = generate_perturbations(x, dataset, 20, seed=5)
        assert np.array_equal(a, b)

    def test_mean_near_center(self):
        _, dataset, _, _ = linear_setup()
        x = dataset.features[0]
        pts = generate_perturbations(x, dataset, 10000, seed=1)
        std = 0.10 * dataset_diameter(dataset)
        bound = 3.0 * std / np.sqrt(10000)
        assert np.all(np.abs(pts.mean(axis=0) - x) < bound)

    def test_one_hot_coordinates_fixed(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
        ds = SurvivalDataset(x, np.array([1.0, 2.0, 3.0, 4.0]),
                             np.array([1, 1, 1, 1]), ("num", "flag"),
                             (KIND_NUMERIC, KIND_ONE_HOT))
        pts = generate_perturbations(ds.features[0], ds, 50, seed=2)
        assert np.all(pts[:, 1] == 1.0)
        assert np.std(pts[:, 0]) > 0

    def test_degenerate_dataset_rejected(self):
        x = np.zeros((3, 2))
        ds = SurvivalDataset.from_arrays(x, np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
        with pytest.raises(DiameterUndefinedError):
            generate_perturbations(ds.features[0], ds, 10, seed=0)


def brute_force_diameter(x):
    """Largest np.linalg.norm over all row pairs, one row at a time."""
    return max(float(np.linalg.norm(x - row, axis=1).max()) for row in x)


def full_matrix_diameter(x):
    """The diameter from the whole n x n squared-distance matrix at once."""
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    return float(np.sqrt(max(float(d2.max()), 0.0)))


def features_only(x):
    return SurvivalDataset.from_arrays(x, np.arange(1.0, len(x) + 1), np.ones(len(x), dtype=int))


class TestDatasetDiameter:
    def test_two_points(self):
        ds = features_only(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert dataset_diameter(ds) == 5.0

    def test_duplicate_rows(self):
        rng = np.random.default_rng(0)
        x = np.repeat(rng.normal(size=(7, 3)), 5, axis=0)[rng.permutation(35)]
        assert dataset_diameter(features_only(x)) == pytest.approx(brute_force_diameter(x),
                                                                   rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 31, 64, 97])
    def test_small_blocks_match_brute_force(self, n, monkeypatch):
        # 64 elements per block: rows split into blocks of n // 32 or more.
        monkeypatch.setattr(explain, "_DIAMETER_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        x[-1] = 10.0  # the farthest pair straddles the first and last block
        assert dataset_diameter(features_only(x)) == pytest.approx(brute_force_diameter(x),
                                                                   rel=1e-12)

    def test_block_size_not_dividing_n(self):
        # 1501 rows: several blocks of unequal size at the default budget.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1501, 4))
        assert 1501 % (explain._DIAMETER_BLOCK_ELEMENTS // 1501) != 0
        assert dataset_diameter(features_only(x)) == pytest.approx(brute_force_diameter(x),
                                                                   rel=1e-12)

    def test_same_float_as_full_matrix_on_5000_rows(self):
        _, dataset, _, _ = linear_setup(n=5000, coef=(1.0, -0.5, 0.3, 0.0, 0.8, 0.0, 0.2, 1.2),
                                        censoring=0.45, seed=17)
        assert dataset.features.shape == (5000, 8)
        assert dataset_diameter(dataset).hex() == full_matrix_diameter(dataset.features).hex()

    def test_coincident_points_have_zero_diameter(self):
        assert dataset_diameter(features_only(np.ones((4, 2)))) == 0.0


def unpruned_diameter(x):
    """The diameter from blocks of rows against all rows, with no row pruned.

    The block sizes and the operations on each block are those
    dataset_diameter applies to the rows it keeps.
    """
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    n_blocks = max(1, n // max(2, explain._DIAMETER_BLOCK_ELEMENTS // n))
    peak = -np.inf
    for xb, sqb in zip(np.array_split(x, n_blocks), np.array_split(sq, n_blocks)):
        peak = max(peak, float((np.add.outer(sqb, sq) - 2.0 * (xb @ x.T)).max()))
    return float(np.sqrt(max(peak, 0.0)))


@st.composite
def point_clouds(draw):
    """Random, one-hot, duplicate-row, two-row, sphere and far-from-origin rows."""
    kind = draw(st.sampled_from(("uniform", "normal", "one_hot", "duplicates", "two_rows",
                                 "sphere", "far")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 2 if kind == "two_rows" else draw(st.integers(2, 400))
    m = draw(st.integers(1, 10))
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (n, m))
    if kind == "one_hot":
        return rng.integers(0, 2, (n, m)).astype(float)
    if kind == "duplicates":
        return rng.normal(size=(max(1, n // 4), m))[rng.integers(0, max(1, n // 4), n)]
    x = rng.normal(size=(n, m))
    if kind == "sphere":
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    if kind == "far":
        return x + 10.0 ** draw(st.integers(1, 7))
    return x


class TestPrunedDiameter:
    @given(point_clouds())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_unpruned_scan(self, x):
        # Each squared distance both scans form is off by at most
        # 8 (m + 2) eps max|x|^2, so their maxima are within twice that.
        pruned = dataset_diameter(features_only(x))
        full = unpruned_diameter(x)
        eps = np.finfo(float).eps
        bound = 16.0 * (x.shape[1] + 2) * eps * float(np.max(np.sum(x * x, axis=1)))
        assert abs(pruned * pruned - full * full) <= bound + 4.0 * eps * full * full

    def test_perfbench_shaped_file_scans_few_rows(self, monkeypatch):
        # Seed 1819850096 draws the 5000-row reference file of the benchmark's
        # seed-1 local_rows workload. How many rows survive depends on the
        # draw: the reference files of benchmark seeds 1-5 keep 59 to 643
        # rows, so the bounds below are this file's, not every file's.
        spec = SyntheticSpec(n=5000, m=8, censoring_rate=0.45, seed=1819850096,
                             shapes=("square", "sin3", "linear", "abs", "half", "zero",
                                     "linear", "zero"))
        dataset, _ = generate_cox_data(spec)
        scanned = []
        scan = explain._max_squared_distance
        monkeypatch.setattr(explain, "_max_squared_distance",
                            lambda x, sq: scanned.append(len(x)) or scan(x, sq))
        tracemalloc.start()
        try:
            diameter = dataset_diameter(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scanned[0] < 500  # under 10 % of the rows
        assert peak < 4 * 1024 * 1024
        assert diameter == unpruned_diameter(dataset.features)


class TestNeighborhoodWeights:
    def test_zero_distance_weight_one(self):
        x = np.array([1.0, 2.0])
        assert neighborhood_weights(x, x[None, :], radius=3.0)[0] == 1.0

    def test_boundary_weight_zero(self):
        x = np.zeros(2)
        p = np.array([[3.0, 4.0]])  # distance 5
        assert neighborhood_weights(x, p, radius=5.0)[0] == 0.0

    def test_quarter_radius(self):
        x = np.zeros(1)
        p = np.array([[1.0]])
        assert neighborhood_weights(x, p, radius=4.0)[0] == pytest.approx(0.5)

    def test_radius_spans_unit_interval(self):
        _, dataset, _, _ = linear_setup()
        nbhd = build_neighborhood(dataset.features[0], dataset, 50, seed=3)
        assert nbhd.weights.max() <= 1.0
        assert nbhd.weights.min() == 0.0  # farthest point exactly at the radius


def assert_all_log_ratios(batch, k):
    """Every log-ratio of the batch equals k (to 1e-8).

    That holds exactly when each row's width-weighted mean b/T is k and
    its floor c, the width-weighted spread around that mean, is 0.
    """
    assert np.allclose(batch.b / batch.T, k)
    assert np.all(np.sqrt(batch.c / batch.T) <= 1e-8)


class TestBuildTargets:
    def test_constant_black_box_zero_targets(self):
        _, dataset, _, _ = linear_setup()
        bb = baseline_box(dataset)
        baseline = nelson_aalen(dataset, bb.grid)
        pts = dataset.features[:5]
        batch = build_targets(bb, baseline, pts, np.ones(5))
        assert_all_log_ratios(batch, 0.0)

    def test_exp2_scaling_gives_two(self):
        _, dataset, _, _ = linear_setup()
        grid = build_time_grid(dataset)
        baseline = nelson_aalen(dataset, grid)
        bb = constant_box(grid, baseline.values * np.exp(2.0))
        batch = build_targets(bb, baseline, dataset.features[:4], np.ones(4))
        assert_all_log_ratios(batch, 2.0)

    def test_floor_applies_to_both_sides(self):
        grid = TimeGrid(np.array([1.0, 2.0]), 0.1)
        baseline = PiecewiseChf(grid, np.array([1e-5, 1e-5]))
        bb = constant_box(grid, np.zeros(2))
        batch = build_targets(bb, baseline, np.zeros((1, 1)), np.ones(1), epsilon=1e-5)
        assert_all_log_ratios(batch, 0.0)

    def test_grid_mismatch_raises(self):
        grid_a = TimeGrid(np.array([1.0, 2.0]), 0.1)
        grid_b = TimeGrid(np.array([1.0, 3.0]), 0.1)
        baseline = PiecewiseChf(grid_a, np.array([0.1, 0.2]))
        bb = constant_box(grid_b, np.array([0.1, 0.2]))
        with pytest.raises(AlignmentError):
            build_targets(bb, baseline, np.zeros((1, 1)), np.ones(1))


class TestExplainLocal:
    def test_constant_black_box_flat_curves(self):
        _, dataset, _, _ = linear_setup()
        bb = baseline_box(dataset)
        expl = explain_local(bb, dataset, dataset.features[0], fast_config(), seed=4)
        for curve in expl.curves:
            assert np.max(np.abs(curve.values)) < 0.05

    def test_all_one_hot_columns_give_radius_zero_and_unit_weights(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=(40, 2)).astype(float)
        dataset = SurvivalDataset(x, rng.exponential(size=40), np.ones(40, dtype=int),
                                  ("a=1", "b=1"), (KIND_ONE_HOT, KIND_ONE_HOT))
        nbhd = build_neighborhood(dataset.features[0], dataset, n_points=10, seed=1)
        assert nbhd.radius == 0.0
        assert np.array_equal(nbhd.weights, np.ones(10))
        expl = explain_local(baseline_box(dataset), dataset, dataset.features[0],
                             fast_config(epochs=5), n_points=10, seed=1)
        assert np.array_equal(expl.reference_points, np.tile(dataset.features[0], (10, 1)))
        for k, curve in enumerate(expl.curves):
            assert np.array_equal(curve.xs, dataset.features[:1, k])

    def test_linear_cox_recovered(self):
        spec, dataset, _, oracle = linear_setup(coef=(1.0, 0.5), seed=5)
        x = dataset.features[0]
        expl = explain_local(oracle, dataset, x, fast_config(epochs=800), seed=6)
        pts = expl.reference_points
        fitted = predict_log_risk(expl.model, pts)
        truth = spec.log_risk(pts)
        r = np.corrcoef(fitted, truth)[0, 1]
        assert r >= 0.95

    def test_deterministic(self):
        _, dataset, _, oracle = linear_setup()
        cfg = fast_config(epochs=60)
        e1 = explain_local(oracle, dataset, dataset.features[1], cfg, seed=7)
        e2 = explain_local(oracle, dataset, dataset.features[1], cfg, seed=7)
        assert np.array_equal(e1.model.flatten(), e2.model.flatten())
        for c1, c2 in zip(e1.curves, e2.curves):
            assert np.array_equal(c1.values, c2.values)

    def test_point_order_does_not_matter(self):
        # the loss is a plain sum over points, so shuffling the rows of a
        # fixed point set changes nothing beyond float-sum noise
        _, dataset, _, oracle = linear_setup(n=60)
        grid = build_time_grid(dataset)
        baseline = nelson_aalen(dataset, grid)
        from survshape.nam import init_model, train
        rng = np.random.default_rng(0)
        pts = generate_perturbations(dataset.features[0], dataset, 30, seed=1)
        w = neighborhood_weights(dataset.features[0], pts,
                                 float(np.linalg.norm(pts - dataset.features[0], axis=1).max()))
        perm = rng.permutation(30)
        cfg = fast_config(epochs=150)
        t1 = build_targets(oracle, baseline, pts, w)
        t2 = build_targets(oracle, baseline, pts[perm], w[perm])
        m1, _ = train(init_model(dataset.m, cfg), t1, cfg)
        m2, _ = train(init_model(dataset.m, cfg), t2, cfg)
        psi1 = predict_log_risk(m1, pts)
        psi2 = predict_log_risk(m2, pts)
        assert np.allclose(psi1, psi2, atol=1e-6)

    def test_curves_centered_over_neighborhood(self):
        _, dataset, _, oracle = linear_setup()
        expl = explain_local(oracle, dataset, dataset.features[2],
                             fast_config(epochs=100), seed=8)
        from survshape.nam import feature_contribution
        for k, curve in enumerate(expl.curves):
            ref = expl.reference_points[:, k]
            vals = feature_contribution(expl.model, k, ref)
            offset = vals.mean()
            recon = feature_contribution(expl.model, k, curve.xs) - offset
            assert np.allclose(recon, curve.values, atol=1e-10)


class TestExplainGlobal:
    def test_constant_black_box_flat(self):
        _, dataset, _, _ = linear_setup()
        bb = baseline_box(dataset)
        expl = explain_global(bb, dataset, fast_config())
        for curve in expl.curves:
            assert np.max(np.abs(curve.values)) < 0.05

    def test_duplicated_dataset_same_result(self):
        _, dataset, _, oracle = linear_setup(n=60)
        doubled = SurvivalDataset(
            np.vstack([dataset.features, dataset.features]),
            np.concatenate([dataset.times, dataset.times]),
            np.concatenate([dataset.events, dataset.events]),
            dataset.feature_names, dataset.feature_kinds)
        cfg = fast_config(epochs=300)
        e1 = explain_global(oracle, dataset, cfg)
        e2 = explain_global(oracle, doubled, cfg)
        psi1 = predict_log_risk(e1.model, dataset.features)
        psi2 = predict_log_risk(e2.model, dataset.features)
        assert np.max(np.abs(psi1 - psi2)) < 0.01

    def test_no_admissible_pair_leaves_both_c_indices_empty(self):
        # Every row but the last is censored before the only event.
        n = 30
        events = np.zeros(n, dtype=int)
        events[-1] = 1
        dataset = SurvivalDataset(np.random.default_rng(2).normal(size=(n, 2)),
                                  np.arange(1.0, n + 1), events, ("x0", "x1"),
                                  (KIND_NUMERIC, KIND_NUMERIC))
        expl = explain_global(baseline_box(dataset), dataset, fast_config(epochs=5))
        assert expl.diagnostics.c_index is None
        assert expl.diagnostics.c_index_blackbox is None
        assert np.isfinite(expl.diagnostics.final_loss)

    def test_mixing_values_exposed(self):
        _, dataset, _, oracle = linear_setup()
        expl = explain_global(oracle, dataset, fast_config("shortcut", epochs=50),
                              lam=0.1, mu=0.01)
        assert set(expl.mixing) == {"alpha", "omega", "linear_weight"}
        assert np.allclose(expl.mixing["linear_weight"],
                           (1 - expl.mixing["alpha"]) * expl.mixing["omega"])

    def test_baseline_rescaling_shifts_bias_only(self):
        spec, dataset, _, oracle = linear_setup(n=80, seed=9)
        cfg = fast_config(epochs=500)
        grid = oracle.grid
        baseline = PiecewiseChf(grid, spec.baseline_chf(grid.times))

        # Rescale the baseline by hand through build_targets + train
        from survshape.nam import init_model, train
        pts = dataset.features
        w = np.ones(dataset.n)
        c = 3.0
        t1 = build_targets(oracle, baseline, pts, w)
        t2 = build_targets(oracle, PiecewiseChf(grid, baseline.values * c), pts, w)
        # Every log-ratio moves by -log c: the row means move, the floors stay.
        assert np.allclose(t2.b / t2.T, t1.b / t1.T - np.log(c), atol=1e-9)
        assert np.allclose(t2.c, t1.c, atol=1e-9)
        m1, _ = train(init_model(dataset.m, cfg, dataset.feature_names), t1, cfg)
        m2, _ = train(init_model(dataset.m, cfg, dataset.feature_names), t2, cfg)
        from survshape.nam import shape_curve
        for k in range(dataset.m):
            xs = np.linspace(-1, 1, 9)
            c1 = shape_curve(m1, k, xs, pts[:, k])
            c2 = shape_curve(m2, k, xs, pts[:, k])
            assert np.max(np.abs(c1.values - c2.values)) < 0.02
        shift = predict_log_risk(m2, pts).mean() - predict_log_risk(m1, pts).mean()
        assert shift == pytest.approx(-np.log(c), abs=0.02)


class TestSurrogateCIndex:
    def test_close_to_black_box_on_linear_data(self):
        spec, dataset, _, oracle = linear_setup(n=150, coef=(1.0, 0.5), seed=10)
        expl = explain_global(oracle, dataset, fast_config(epochs=600))
        spec_test = SyntheticSpec(n=100, m=2, coef=(1.0, 0.5), seed=11)
        test, _ = generate_cox_data(spec_test)
        c_bb, c_s = surrogate_c_index(expl, oracle, test)
        assert abs(c_s - c_bb) < 0.05
        assert type(c_bb) is float and type(c_s) is float

    def test_perfect_oracle_concordance_one(self):
        # No censoring and a noiseless monotone law: the exact predictor ranks perfectly.
        spec = SyntheticSpec(n=40, m=1, coef=(2.0,), seed=12)
        dataset, risk = generate_cox_data(spec)
        # Deterministic times: replace sampled times by the median of each law.
        times = spec.inverse_baseline_chf(np.log(2.0) / np.exp(risk))
        dataset = SurvivalDataset.from_arrays(dataset.features, times,
                                              np.ones(spec.n, dtype=int))
        oracle = ExactCoxPredictor.for_dataset(spec, dataset)
        expl = explain_global(oracle, dataset, fast_config(epochs=30))
        c_bb, _ = surrogate_c_index(expl, oracle, dataset)
        assert c_bb == 1.0


class TestBlackBoxProtocol:
    def assert_same_explanation(self, a, b):
        assert np.array_equal(a.model.flatten(), b.model.flatten())
        for ca, cb in zip(a.curves, b.curves):
            assert np.array_equal(ca.xs, cb.xs) and np.array_equal(ca.values, cb.values)
        assert a.diagnostics == b.diagnostics

    @pytest.mark.parametrize("make_box", ["oracle", "forest"])
    def test_two_attribute_box_explains_identically(self, make_box):
        # A box is read through grid and predict_chf_matrix and nothing else.
        spec = SyntheticSpec(n=80, m=4, shapes=("linear", "square", "sin3", "zero"),
                             censoring_rate=0.2, seed=13)
        dataset, _ = generate_cox_data(spec)
        box = ExactCoxPredictor.for_dataset(spec, dataset)
        if make_box == "forest":
            from survshape.forest import ForestConfig, fit_forest
            box = fit_forest(dataset, ForestConfig(n_trees=5, min_leaf_events=3, seed=2))
        bare = SimpleNamespace(grid=box.grid, predict_chf_matrix=box.predict_chf_matrix)
        cfg = fast_config(epochs=40)
        expl = explain_global(bare, dataset, cfg)
        self.assert_same_explanation(expl, explain_global(box, dataset, cfg))
        x = dataset.features[4]
        self.assert_same_explanation(
            explain_local(bare, dataset, x, cfg, n_points=30, seed=3),
            explain_local(box, dataset, x, cfg, n_points=30, seed=3))
        c_bare = surrogate_c_index(expl, bare, dataset)
        assert c_bare == surrogate_c_index(expl, box, dataset)
        assert c_bare[0] == expl.diagnostics.c_index_blackbox
