"""Ground-truth data generation and the independent oracles the tests use.

Event times are drawn from a proportional-hazards law with a Weibull
baseline, whose inverse cumulative hazard is closed-form, so the sampled
times follow S(t|x) = exp(-H0(t) * exp(log_risk(x))) exactly. An exact
CHF predictor over the same law doubles as a noise-free batch black box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DataError, NumericError, _real
from .survival import SurvivalDataset, TimeGrid, build_time_grid

# Named univariate shapes usable as ground-truth per-feature effects.
SHAPE_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "zero": lambda x: np.zeros_like(x),
    "linear": lambda x: x,
    "half": lambda x: 0.5 * x,
    "square": lambda x: x * x,
    "abs": np.abs,
    "sin3": lambda x: np.sin(3.0 * x),
}
FEATURE_DISTRIBUTIONS = ("uniform", "normal")  # uniform on [-1, 1], standard normal


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a proportional-hazards dataset with a known log-risk.

    log_risk is either linear (coefficients `coef`) or additive with one
    named shape per feature (`shapes`, keys of SHAPE_FUNCTIONS). The
    Weibull baseline has H0(t) = (t / scale) ** shape_param.
    """

    n: int
    m: int
    coef: Optional[tuple[float, ...]] = None
    shapes: Optional[tuple[str, ...]] = None
    scale: float = 1.0
    shape_param: float = 1.0
    censoring_rate: float = 0.0
    feature_distribution: str = FEATURE_DISTRIBUTIONS[0]
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.m < 1:
            raise DataError("need n >= 2 samples and m >= 1 features")
        if (self.coef is None) == (self.shapes is None):
            raise DataError("specify exactly one of coef or shapes")
        if self.coef is not None and len(self.coef) != self.m:
            raise DataError("coef length must equal m")
        if self.shapes is not None:
            if len(self.shapes) != self.m:
                raise DataError("shapes length must equal m")
            unknown = [s for s in self.shapes if s not in SHAPE_FUNCTIONS]
            if unknown:
                raise DataError(f"unknown shape names: {unknown}")
        for name in ("scale", "shape_param", "censoring_rate"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not (self.scale > 0 and self.shape_param > 0):
            raise DataError("Weibull scale and shape must be positive")
        if not 0.0 <= self.censoring_rate < 1.0:
            raise DataError("censoring_rate must lie in [0, 1)")
        if self.feature_distribution not in FEATURE_DISTRIBUTIONS:
            raise DataError("feature_distribution must be 'uniform' or 'normal'")
        if self.coef is not None:
            object.__setattr__(self, "coef", tuple(float(c) for c in self.coef))
        if self.shapes is not None:
            object.__setattr__(self, "shapes", tuple(self.shapes))

    def log_risk(self, x: np.ndarray) -> np.ndarray:
        """Ground-truth additive log-risk for rows of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.coef is not None:
            return x @ np.asarray(self.coef)
        total = np.zeros(x.shape[0])
        for k, name in enumerate(self.shapes):
            total += SHAPE_FUNCTIONS[name](x[:, k])
        return total

    def baseline_chf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (np.maximum(t, 0.0) / self.scale) ** self.shape_param

    def inverse_baseline_chf(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        return self.scale * h ** (1.0 / self.shape_param)


def generate_cox_data(spec: SyntheticSpec):
    """Sample a dataset from the spec's law; returns (dataset, true log-risk).

    Event times use inverse-transform sampling T = H0^{-1}(-ln U / exp(r)).
    Censoring times are uniform on [0, c] with c bisected until the realized
    censored fraction is within 0.05 of the requested rate.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.feature_distribution == "uniform":
        x = rng.uniform(-1.0, 1.0, size=(spec.n, spec.m))
    else:
        x = rng.standard_normal(size=(spec.n, spec.m))
    risk = spec.log_risk(x)
    u = rng.uniform(size=spec.n)
    event_times = spec.inverse_baseline_chf(-np.log(u) / np.exp(risk))

    if spec.censoring_rate == 0.0:
        dataset = SurvivalDataset.from_arrays(x, event_times, np.ones(spec.n, dtype=int))
        return dataset, risk

    # Realized censored fraction is monotone nonincreasing in c for fixed
    # uniform draws, so bisection converges.
    draws = rng.uniform(size=spec.n)

    def censored_fraction(c):
        return float(np.mean(c * draws < event_times))

    lo, hi = 0.0, float(np.max(event_times))
    while censored_fraction(hi) > spec.censoring_rate and hi < 1e12:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if censored_fraction(mid) > spec.censoring_rate:
            lo = mid
        else:
            hi = mid
    c = hi
    achieved = censored_fraction(c)
    if abs(achieved - spec.censoring_rate) > 0.05:
        raise NumericError(
            f"censoring calibration failed: wanted {spec.censoring_rate}, got {achieved:.3f}")
    censor_times = c * draws
    events = (event_times <= censor_times).astype(int)
    times = np.minimum(event_times, censor_times)
    dataset = SurvivalDataset.from_arrays(x, times, events)
    return dataset, risk


class ExactCoxPredictor:
    """Noise-free CHF black box following the synthetic proportional-hazards law.

    Predictions live on a fixed TimeGrid: H_j(x) = H0(t_j) * exp(log_risk(x)).
    Exposes the same grid/predict_chf_matrix surface as the fitted forest,
    so the explanation pipeline can run against an oracle with known
    structure.
    """

    def __init__(self, spec: SyntheticSpec, grid: TimeGrid):
        self.spec = spec
        self.grid = grid
        self._baseline_values = spec.baseline_chf(grid.times)

    @classmethod
    def for_dataset(cls, spec, dataset):
        return cls(spec, build_time_grid(dataset))

    def predict_chf_matrix(self, x) -> np.ndarray:
        """CHF values for many rows at once; shape (n, s+1)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1:] != (self.spec.m,):
            raise DataError(f"expected rows of {self.spec.m} features")
        factors = np.exp(self.spec.log_risk(x))
        return factors[:, None] * self._baseline_values[None, :]


def oracle_psi_star(log_ratios, widths) -> np.ndarray:
    """Width-weighted row means: the per-example minimizer of the fit loss.

    For each row, the value psi minimizing sum_j (phi_j - psi)^2 * width_j
    is the weighted mean sum_j width_j * phi_j / sum_j width_j.
    """
    phi = np.atleast_2d(np.asarray(log_ratios, dtype=float))
    tau = np.asarray(widths, dtype=float)
    if phi.shape[1] != len(tau):
        raise DataError("log_ratios columns must match widths length")
    return phi @ tau / tau.sum()


def finite_difference_gradient(loss_fn: Callable[[np.ndarray], float],
                               params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar loss over a flat parameter vector."""
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + h
        up = loss_fn(bumped)
        bumped[i] = params[i] - h
        down = loss_fn(bumped)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError("loss not finite during finite differencing")
        grad[i] = (up - down) / (2.0 * h)
    return grad
