import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survshape.errors import (
    DataError,
    GridDegenerateError,
    MetricUndefinedError,
)
from survshape.survival import (
    SurvivalDataset,
    build_time_grid,
    concordance_index,
    nelson_aalen,
)


def make_dataset(times, events, features=None):
    times = np.asarray(times, dtype=float)
    if features is None:
        features = np.arange(len(times), dtype=float).reshape(-1, 1)
    return SurvivalDataset.from_arrays(features, times, events)


def brute_force_nelson_aalen(times, events, at):
    """Direct sum of d_i / n_i over sorted distinct times, for tiny n."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    total = 0.0
    for u in sorted(set(times.tolist())):
        if u > at:
            break
        d = int(events[times == u].sum())
        n = int((times >= u).sum())
        if d:
            total += d / n
    return total


class TestDatasetInvariants:
    def test_rejects_single_sample(self):
        with pytest.raises(DataError):
            make_dataset([1.0], [1])

    def test_rejects_no_events(self):
        with pytest.raises(DataError):
            make_dataset([1.0, 2.0], [0, 0])

    def test_rejects_negative_time(self):
        with pytest.raises(DataError):
            make_dataset([-1.0, 2.0], [1, 1])

    def test_rejects_bad_indicator(self):
        with pytest.raises(DataError):
            make_dataset([1.0, 2.0], [1, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values_naming_the_column(self, bad):
        features = np.zeros((3, 3))
        features[2, 1] = bad
        features[1, 2] = bad
        with pytest.raises(DataError, match="^feature 'x1' holds a non-finite value$"):
            make_dataset([1.0, 2.0, 3.0], [1, 0, 1], features)
        with pytest.raises(DataError, match="^observed times must be finite$"):
            make_dataset([1.0, bad, 3.0], [1, 0, 1])


class TestBuildTimeGrid:
    def test_three_events(self):
        ds = make_dataset([1.0, 2.0, 3.0], [1, 1, 1])
        grid = build_time_grid(ds, gamma_fraction=0.01)
        assert np.array_equal(grid.times, [1.0, 2.0, 3.0])
        assert grid.gamma == pytest.approx(0.02)
        assert np.allclose(grid.widths, [1.0, 1.0, 0.02])
        assert grid.horizon == pytest.approx(3.02)

    def test_single_distinct_time_degenerate(self):
        ds = make_dataset([5.0, 5.0, 5.0], [1, 1, 1])
        with pytest.raises(GridDegenerateError):
            build_time_grid(ds)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_gamma_fraction_refused(self, value):
        ds = make_dataset([1.0, 2.0, 4.0], [1, 1, 1])
        with pytest.raises(DataError, match=f"^gamma_fraction must be finite, got {value!r}$"):
            build_time_grid(ds, value)

    def test_duplicate_times_deduped(self):
        ds = make_dataset([1.0, 2.0, 2.0, 4.0], [1, 1, 1, 1])
        grid = build_time_grid(ds, gamma_fraction=0.5)
        assert np.array_equal(grid.times, [1.0, 2.0, 4.0])
        assert grid.gamma == pytest.approx(1.5)

    def test_fallback_to_all_times_when_one_event_time(self):
        ds = make_dataset([1.0, 2.0, 3.0], [0, 1, 0])
        grid = build_time_grid(ds)
        assert np.array_equal(grid.times, [1.0, 2.0, 3.0])


class TestNelsonAalen:
    def test_hand_case_with_censoring(self):
        ds = make_dataset([1.0, 2.0, 3.0], [1, 0, 1])
        grid = build_time_grid(ds)
        chf = nelson_aalen(ds, grid)
        assert np.array_equal(grid.times, [1.0, 3.0])
        assert chf.values == pytest.approx([1 / 3, 1 / 3 + 1.0], abs=1e-12)

    def test_single_event_at_first_time(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [1, 0, 0, 0])
        grid = build_time_grid(ds)
        chf = nelson_aalen(ds, grid)
        assert np.allclose(chf.values, 0.25, atol=1e-12)

    def test_two_samples_no_censoring(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        grid = build_time_grid(ds)
        chf = nelson_aalen(ds, grid)
        assert chf.values == pytest.approx([0.5, 1.5], abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(3, 20)
            times = np.round(rng.uniform(0.5, 10.0, n), 1)
            events = rng.integers(0, 2, n)
            if events.sum() == 0:
                events[0] = 1
            ds = make_dataset(times, events)
            try:
                grid = build_time_grid(ds)
            except GridDegenerateError:
                continue
            chf = nelson_aalen(ds, grid)
            expected = [brute_force_nelson_aalen(times, events, tj) for tj in grid.times]
            assert chf.values == pytest.approx(expected, abs=1e-12)
            assert np.all(np.diff(chf.values) >= -1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_off_its_grid_matches_sequential_sums_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        grid = build_time_grid(make_dataset(rng.uniform(2.0, 8.0, 12), np.ones(12, dtype=int)))
        g = grid.times
        on_grid = rng.choice(g, 6)
        between = rng.choice(g[:-1] + 0.5 * np.diff(g), 6)
        parts = [rng.uniform(0.0, g[0], 3),  # before the first grid time
                 np.append(on_grid, on_grid[:2]), np.append(between, between[:2]),  # tied
                 g[:-1] + 0.25 * np.diff(g),  # censored only
                 g[-1] + rng.uniform(0.1, 2.0, 3)]  # after the last grid time
        times = np.concatenate(parts)
        events = rng.integers(0, 2, len(times))
        starts = np.cumsum([0] + [len(part) for part in parts])
        events[starts[:-1]] = 1  # an event in each part ...
        events[starts[3]:starts[4]] = 0  # ... but the censored-only one
        chf = nelson_aalen(make_dataset(times, events), grid)
        expected = np.array([brute_force_nelson_aalen(times, events, tj) for tj in g])
        assert chf.values.tobytes() == expected.tobytes()


class TestConcordanceIndex:
    def test_perfect_ordering(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        assert concordance_index([4.0, 3.0, 2.0, 1.0], ds) == 1.0

    def test_all_tied_scores(self):
        ds = make_dataset([1.0, 2.0, 3.0], [1, 1, 1])
        assert concordance_index([5.0, 5.0, 5.0], ds) == 0.5

    def test_two_thirds_hand_case(self):
        ds = make_dataset([1.0, 2.0, 3.0], [1, 1, 1])
        assert concordance_index([3.0, 1.0, 2.0], ds) == pytest.approx(2 / 3)
        # A numpy scalar would print as np.float64(...) under numpy 2.
        assert type(concordance_index([3.0, 1.0, 2.0], ds)) is float

    def test_censored_pairs_inadmissible(self):
        # Only the (t=1, event) vs (t=2, censored) pair is admissible.
        ds = make_dataset([1.0, 2.0], [1, 0])
        assert concordance_index([2.0, 1.0], ds) == 1.0
        assert concordance_index([1.0, 2.0], ds) == 0.0

    def test_no_admissible_pairs(self):
        # Equal times, both events: inadmissible under the tie convention.
        ds = make_dataset([2.0, 2.0], [1, 1])
        with pytest.raises(MetricUndefinedError):
            concordance_index([1.0, 2.0], ds)

    def test_tied_time_event_vs_censored(self):
        ds = make_dataset([2.0, 2.0], [1, 0])
        assert concordance_index([2.0, 1.0], ds) == 1.0
        assert concordance_index([1.0, 2.0], ds) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rank_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        ds = make_dataset(np.round(rng.uniform(1, 9, n), 1), rng.integers(0, 2, n) | (np.arange(n) == 0))
        scores = rng.normal(size=n)
        try:
            base = concordance_index(scores, ds)
        except MetricUndefinedError:
            return
        transformed = np.exp(3.0 * scores) + 7.0
        assert concordance_index(transformed, ds) == pytest.approx(base)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reversal_complement(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        ds = make_dataset(np.round(rng.uniform(1, 9, n), 1), np.ones(n, dtype=int))
        scores = rng.permutation(n).astype(float)  # distinct, so no risk ties
        try:
            forward = concordance_index(scores, ds)
            backward = concordance_index(-scores, ds)
        except MetricUndefinedError:
            return
        assert forward + backward == pytest.approx(1.0)


def pairwise_concordance_index(risk_scores, dataset):
    """Reference C-index over the full n x n pair matrix (quadratic memory)."""
    r = np.asarray(risk_scores, dtype=float)
    if r.shape != (dataset.n,):
        raise DataError("need exactly one risk score per sample")
    if not np.all(np.isfinite(r)):
        raise DataError("risk scores must be finite")
    t = dataset.times
    e = dataset.events
    # i ranges over samples that can be the earlier, observed failure.
    ii, jj = np.where((e[:, None] == 1)
                      & ((t[:, None] < t[None, :])
                         | ((t[:, None] == t[None, :]) & (e[None, :] == 0))))
    if len(ii) == 0:
        raise MetricUndefinedError("no admissible pairs for the concordance index")
    correct = np.count_nonzero(r[ii] > r[jj])
    tied = np.count_nonzero(r[ii] == r[jj])
    return float((correct + 0.5 * tied) / len(ii))


@st.composite
def tied_survival_data(draw, max_n=30):
    """(scores, dataset) with few distinct times and scores, so ties are common."""
    n = draw(st.integers(2, max_n))
    time_values = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 7.0, 1e300]),
                                min_size=1, max_size=4, unique_by=float.hex))
    times = draw(st.lists(st.sampled_from(time_values), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    events[draw(st.integers(0, n - 1))] = 1  # a dataset needs one observed event
    score_values = draw(st.lists(st.floats(-1e6, 1e6, width=64), min_size=1, max_size=4))
    scores = draw(st.lists(st.sampled_from(score_values), min_size=n, max_size=n))
    return np.array(scores), make_dataset(times, events)


class TestConcordanceIndexOracle:
    """The O(n log n) C-index reproduces the pairwise definition bit for bit."""

    @staticmethod
    def assert_same(scores, ds):
        try:
            expected = pairwise_concordance_index(scores, ds)
        except MetricUndefinedError:
            with pytest.raises(MetricUndefinedError):
                concordance_index(scores, ds)
            return
        assert concordance_index(scores, ds).hex() == expected.hex()

    @given(tied_survival_data())
    @settings(max_examples=300, deadline=None)
    def test_heavy_ties_match_pairwise(self, data):
        self.assert_same(*data)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 400))
    @settings(max_examples=60, deadline=None)
    def test_continuous_data_match_pairwise(self, seed, n):
        rng = np.random.default_rng(seed)
        times = rng.exponential(size=n)
        events = (rng.uniform(size=n) < 0.55).astype(int)
        events[0] = 1
        self.assert_same(rng.normal(size=n), make_dataset(times, events))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_event_and_censored_tied_at_every_time(self, seed):
        # Each time holds both an event and a censored sample.
        rng = np.random.default_rng(seed)
        times = np.repeat(rng.permutation(6).astype(float), 4)
        events = np.tile([1, 0, 1, 0], 6)
        scores = rng.integers(0, 3, len(times)).astype(float)
        self.assert_same(scores, make_dataset(times, events))

    @pytest.mark.parametrize("times, events", [
        ([2.0, 2.0], [1, 1]),             # equal-time events
        ([1.0, 2.0], [0, 1]),             # the only event is the last time
        ([3.0, 3.0, 1.0], [1, 1, 0]),     # equal-time events, earlier censoring
    ])
    def test_no_admissible_pair_raises_in_both(self, times, events):
        ds = make_dataset(times, events)
        with pytest.raises(MetricUndefinedError):
            pairwise_concordance_index(np.zeros(ds.n), ds)
        with pytest.raises(MetricUndefinedError):
            concordance_index(np.zeros(ds.n), ds)
