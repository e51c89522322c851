import warnings

import numpy as np
import pytest
from scipy import stats

from survshape.errors import DataError
from survshape.synthetic import (
    ExactCoxPredictor,
    SyntheticSpec,
    finite_difference_gradient,
    generate_cox_data,
    oracle_psi_star,
)


class TestGenerateCoxData:
    def test_reproducible(self):
        spec = SyntheticSpec(n=50, m=2, coef=(1.0, 0.0), censoring_rate=0.3, seed=9)
        d1, r1 = generate_cox_data(spec)
        d2, r2 = generate_cox_data(spec)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.times, d2.times)
        assert np.array_equal(d1.events, d2.events)
        assert np.array_equal(r1, r2)

    def test_unit_exponential_when_flat_risk(self):
        # zero log-risk and H0(t) = t make event times Exp(1)
        spec = SyntheticSpec(n=2000, m=1, coef=(0.0,), scale=1.0, shape_param=1.0, seed=1)
        dataset, _ = generate_cox_data(spec)
        stat = stats.kstest(dataset.times, "expon").statistic
        critical_1pct = 1.6276 / np.sqrt(2000)
        assert stat < critical_1pct

    def test_normal_features_are_standard_normal(self):
        spec = SyntheticSpec(n=2000, m=2, coef=(1.0, 0.0), feature_distribution="normal",
                             censoring_rate=0.3, seed=5)
        dataset, risk = generate_cox_data(spec)
        for column in dataset.features.T:
            assert stats.kstest(column, "norm").statistic < 1.6276 / np.sqrt(2000)
        assert np.abs(dataset.features).max() > 1.0  # not the uniform [-1, 1] draws
        assert np.allclose(risk, spec.log_risk(dataset.features))
        assert abs((1 - dataset.events.mean()) - 0.3) <= 0.05

    def test_high_risk_fails_earlier(self):
        spec = SyntheticSpec(n=400, m=2, coef=(1.0, 0.0), seed=2)
        dataset, _ = generate_cox_data(spec)
        high = dataset.features[:, 0] > 0
        assert np.median(dataset.times[high]) < np.median(dataset.times[~high])

    def test_zero_censoring(self):
        spec = SyntheticSpec(n=100, m=1, coef=(0.5,), censoring_rate=0.0, seed=3)
        dataset, _ = generate_cox_data(spec)
        assert dataset.events.sum() == 100

    def test_censoring_rate_calibrated(self):
        for rate in (0.2, 0.5):
            spec = SyntheticSpec(n=500, m=2, coef=(1.0, -0.5), censoring_rate=rate, seed=4)
            dataset, _ = generate_cox_data(spec)
            realized = 1.0 - dataset.events.mean()
            assert abs(realized - rate) <= 0.05

    def test_risk_orders_event_times(self):
        spec = SyntheticSpec(n=500, m=3, coef=(1.0, 0.5, 0.0), seed=5)
        dataset, risk = generate_cox_data(spec)
        tau, _ = stats.kendalltau(risk, -dataset.times)
        assert tau > 0.3

    def test_gam_shapes(self):
        spec = SyntheticSpec(n=50, m=2, shapes=("linear", "sin3"), seed=6)
        dataset, risk = generate_cox_data(spec)
        x = dataset.features
        assert risk == pytest.approx(x[:, 0] + np.sin(3 * x[:, 1]))

    def test_rejects_bad_spec(self):
        with pytest.raises(DataError):
            SyntheticSpec(n=10, m=2, coef=(1.0,))
        with pytest.raises(DataError):
            SyntheticSpec(n=10, m=1, coef=(1.0,), shapes=("linear",))
        with pytest.raises(DataError):
            SyntheticSpec(n=10, m=1, shapes=("wiggle",))

    @pytest.mark.parametrize("field", ["scale", "shape_param", "censoring_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_reals(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be finite, got {value!r}$"):
            SyntheticSpec(n=10, m=1, coef=(1.0,), **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_coefficients(self, value):
        with pytest.raises(DataError, match=f"^coef must be finite, got {value!r}$"):
            SyntheticSpec(n=10, m=2, coef=(1.0, value))

    def test_rejects_coefficients_it_cannot_turn_into_times(self):
        # exp of the log-risk overflows, and -log(u) / 0 divides by zero, both silently
        spec = SyntheticSpec(n=20, m=1, coef=(1e308,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^the log-risk spans .* too wide for finite "
                                                "event times$"):
                generate_cox_data(spec)


class TestExactCoxPredictor:
    def test_prediction_matches_law(self):
        spec = SyntheticSpec(n=60, m=2, coef=(1.0, -1.0), scale=2.0, shape_param=1.5, seed=7)
        dataset, risk = generate_cox_data(spec)
        oracle = ExactCoxPredictor.for_dataset(spec, dataset)
        x = dataset.features[4]
        chf = oracle.predict_chf_matrix(x[None])[0]
        expected = (oracle.grid.times / 2.0) ** 1.5 * np.exp(risk[4])
        assert chf == pytest.approx(expected, rel=1e-12)


class TestOraclePsiStar:
    def test_constant_row(self):
        assert oracle_psi_star(np.full((1, 3), 4.2), np.array([1.0, 2.0, 0.5]))[0] == pytest.approx(4.2)

    def test_symmetric_mean(self):
        assert oracle_psi_star(np.array([[0.0, 2.0]]), np.ones(2))[0] == pytest.approx(1.0)

    def test_weighted_mean(self):
        assert oracle_psi_star(np.array([[0.0, 3.0]]), np.array([2.0, 1.0]))[0] == pytest.approx(1.0)

    def test_matches_scalar_minimization(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            phi = rng.normal(size=(1, 6))
            tau = rng.uniform(0.1, 2.0, 6)
            star = oracle_psi_star(phi, tau)[0]
            grid = np.linspace(star - 1, star + 1, 20001)
            losses = ((phi[0][None, :] - grid[:, None]) ** 2 * tau[None, :]).sum(axis=1)
            assert abs(grid[np.argmin(losses)] - star) < 1e-4


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        grad = finite_difference_gradient(lambda p: float(p[0] ** 2), np.array([3.0]), h=1e-4)
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        grad = finite_difference_gradient(lambda p: 1.0, np.array([1.0, -2.0]))
        assert np.array_equal(grad, [0.0, 0.0])
