"""Explanation pipeline around a CHF-producing black box.

Local mode perturbs the explained point, weights neighbors by a distance
kernel, turns black-box hazards into log-ratio targets against the
Nelson-Aalen baseline, fits the additive surrogate and reports centered
shape curves. Global mode runs the same machinery with the training set
as the point cloud and unit weights.

The black box is read through one protocol: a `grid` (TimeGrid) and
`predict_chf_matrix(x) -> (n, s+1) array` of cumulative hazards on that
grid, which must be the baseline's grid. Its risk score is the
integrated CHF, `survival.risk_scores`. A box may also have
`integrated_chf(x) -> (n,) array`, that integral computed without the
(n, s+1) matrix (the forest does); a box without it gets
`predict_chf_matrix(x) @ grid.widths`. A per-row model is wrapped by its
caller into a box whose `predict_chf_matrix` stacks the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Union

import numpy as np

from .errors import AlignmentError, DataError, DiameterUndefinedError, MetricUndefinedError, _real
from .nam import (
    VARIANT_HEADS,
    NamConfig,
    NamModel,
    ShapeCurve,
    TargetBatch,
    default_mu,
    init_model,
    predict_log_risk,
    shape_curve,
    train,
)
from .survival import (
    KIND_NUMERIC,
    PiecewiseChf,
    SurvivalDataset,
    concordance_index,
    nelson_aalen,
    risk_scores,
)

# About how many squared distances dataset_diameter forms at a time (8 MB).
_DIAMETER_BLOCK_ELEMENTS = 1 << 20
# Points on the sampled curve of a numeric feature.
_CURVE_SAMPLES = 101
EPSILON = 1e-5  # the floor of both CHFs in a log-ratio target
N_POINTS = 100  # the perturbed points of a local explanation


@dataclass(frozen=True)
class Neighborhood:
    """Generated points around a center with their kernel weights."""

    center: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    radius: float


@dataclass(frozen=True)
class FitDiagnostics:
    """How well the surrogate fit: loss endpoints and the concordances.

    Both C-indices are computed on the explained dataset; None when no
    pair of its samples is admissible.
    """

    initial_loss: float
    final_loss: float
    epochs: int
    c_index: Optional[float]
    c_index_blackbox: Optional[float] = None


@dataclass(frozen=True)
class Explanation:
    """Centered shape curves plus mixing coefficients and fit diagnostics."""

    mode: str  # "local" | "global"
    variant: str
    feature_names: tuple[str, ...]
    curves: tuple[ShapeCurve, ...]
    mixing: dict
    diagnostics: FitDiagnostics
    model: NamModel
    reference_points: np.ndarray
    params: dict

    @property
    def m(self) -> int:
        return len(self.feature_names)


def dataset_diameter(dataset: SurvivalDataset) -> float:
    """Largest pairwise Euclidean distance over the dataset's feature rows.

    Only the rows that can end a longest pair are compared (Malandain &
    Boissonnat 2002). Let r_i be a row's distance from the centroid, R the
    largest r_i and L the length of a real pair, from a double
    farthest-point sweep. A pair at least L long has r_i + r_j >= L, so
    both of its rows have r >= L - R. That bound is widened by the
    rounding of the squared distances, which grows with the largest
    squared row norm, so every pair a scan of all rows could report as the
    longest is kept. Rows on a sphere around the centroid, or far from the
    origin, are all kept, at the cost of the full scan.

    The kept rows are scanned by _max_squared_distance. Its products have
    other shapes than a scan of all rows, and BLAS rounding depends on the
    shapes, so the result can differ from that scan's in the last bits.
    """
    x = dataset.features
    sq = np.sum(x * x, axis=1)
    r = np.linalg.norm(x - x.mean(axis=0), axis=1)
    radius = float(r.max())
    # The row farthest from the centroid's farthest row, then the row
    # farthest from that one: L is their distance.
    far = np.argmax(r)
    for _ in range(2):
        reached = np.linalg.norm(x - x[far], axis=1)
        far = np.argmax(reached)
    lower = float(reached[far])
    # A bound on the relative rounding of a norm, and on that of a squared
    # distance in units of the largest squared row norm.
    rounding = 8.0 * (x.shape[1] + 2) * np.finfo(float).eps
    d2_error = rounding * float(sq.max())
    reach = (np.sqrt(max(lower * lower - 2.0 * d2_error, 0.0)) - radius
             - rounding * (lower + 2.0 * radius))
    keep = r >= reach  # holds the two rows of every longest pair
    return float(np.sqrt(max(_max_squared_distance(x[keep], sq[keep]), 0.0)))


def _max_squared_distance(x: np.ndarray, sq: np.ndarray) -> float:
    """Largest sq_i + sq_j - 2 x_i.x_j over the pairs of rows of x; sq the squared row norms.

    One block of rows is compared with all rows at a time, so memory stays
    O(n). Every block has at least two rows: a one-row product goes
    through BLAS's matrix-vector kernel, whose rounding can differ from
    the full matrix product's.
    """
    n = x.shape[0]
    n_blocks = max(1, n // max(2, _DIAMETER_BLOCK_ELEMENTS // n))
    peaks = np.empty(n_blocks)
    for b, (xb, sqb) in enumerate(zip(np.array_split(x, n_blocks),
                                       np.array_split(sq, n_blocks))):
        d2 = np.add.outer(sqb, sq)
        gram = xb @ x.T
        gram *= 2.0
        d2 -= gram
        peaks[b] = d2.max()
    return float(peaks.max())


def generate_perturbations(x, dataset: SurvivalDataset, n_points: int = N_POINTS,
                           seed: int = 0) -> np.ndarray:
    """Normal perturbations of the numeric coordinates of x.

    Each numeric coordinate is drawn from a normal centered at x with a
    shared standard deviation of 10% of the dataset diameter; one-hot
    coordinates stay fixed at x's values.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (dataset.m,):
        raise DataError(f"expected a length-{dataset.m} feature vector")
    if n_points < 1:
        raise DataError("n_points must be >= 1")
    diameter = dataset_diameter(dataset)
    if diameter <= 0.0:
        raise DiameterUndefinedError("all dataset points coincide; perturbation scale is 0")
    std = 0.10 * diameter
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_points, dataset.m)) * std
    numeric = np.array([kind == KIND_NUMERIC for kind in dataset.feature_kinds])
    points = np.tile(x, (n_points, 1))
    points[:, numeric] += noise[:, numeric]
    return points


def neighborhood_weights(x, points, radius: float) -> np.ndarray:
    """Kernel weights 1 - sqrt(distance / radius), clamped to [0, 1]."""
    if not radius > 0:
        raise DataError("radius must be positive")
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dist = np.linalg.norm(points - x[None, :], axis=1)
    return np.clip(1.0 - np.sqrt(dist / radius), 0.0, 1.0)


def build_neighborhood(x, dataset: SurvivalDataset, n_points: int = N_POINTS,
                       seed: int = 0) -> Neighborhood:
    """Generate perturbations and weight them; radius = distance to the farthest.

    With that radius the weights span (0, 1], hitting exactly 0 at the
    farthest generated point. A radius of 0 (every coordinate categorical)
    degenerates to unit weights.
    """
    x = np.asarray(x, dtype=float)
    points = generate_perturbations(x, dataset, n_points, seed)
    radius = float(np.linalg.norm(points - x[None, :], axis=1).max())
    if radius > 0:
        weights = neighborhood_weights(x, points, radius)
    else:
        weights = np.ones(points.shape[0])
    return Neighborhood(x, points, weights, radius)


def build_targets(blackbox, baseline: PiecewiseChf, points, weights,
                  epsilon: float = EPSILON) -> TargetBatch:
    """Log-ratio targets ln H_j(x_i) - ln H_0j with both sides epsilon-floored."""
    if not _real(epsilon, "epsilon") > 0:
        raise DataError("epsilon must be positive")
    if blackbox.grid != baseline.grid:
        raise AlignmentError("black-box CHF grid differs from the baseline grid")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    log_baseline = np.log(np.maximum(baseline.values, epsilon))
    values = np.asarray(blackbox.predict_chf_matrix(points), dtype=float)
    rows = np.maximum(values, epsilon)  # a new array, so the box's matrix stays intact
    np.log(rows, out=rows)
    rows -= log_baseline[None, :]
    return TargetBatch(points, rows, baseline.grid.widths, weights)


def _curve_grid(values: np.ndarray, kind: str) -> np.ndarray:
    if kind != KIND_NUMERIC:
        return np.unique(values)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, _CURVE_SAMPLES)


def _read_black_box(mode, blackbox, dataset, points, weights, epsilon):
    """Log-ratio targets at the points, and the black-box risk of every dataset row.

    In global mode the points are the dataset's rows, so the box is read
    once. Its CHF matrix is dropped on return, before training.
    """
    baseline = nelson_aalen(dataset, blackbox.grid)
    if mode == "global":
        chf = blackbox.predict_chf_matrix(points)
        blackbox = SimpleNamespace(grid=blackbox.grid, predict_chf_matrix=lambda x: chf)
    return (build_targets(blackbox, baseline, points, weights, epsilon),
            risk_scores(blackbox, dataset.features))


def _fit_and_package(mode, blackbox, dataset, points, weights, config, lam, mu,
                     epsilon, seed, center):
    mu = default_mu(config.variant) if mu is None else mu
    targets, blackbox_risk = _read_black_box(mode, blackbox, dataset, points, weights,
                                             epsilon)
    model = init_model(dataset.m, config, dataset.feature_names)
    model, trace = train(model, targets, lam, mu)

    curves = []
    for k, kind in enumerate(dataset.feature_kinds):
        reference = points[:, k]
        xs = _curve_grid(reference, kind)
        curves.append(shape_curve(model, k, xs, reference))

    mixing = {name: getattr(model, name).copy() for name in VARIANT_HEADS[model.variant]}
    if model.variant == "shortcut":
        mixing["linear_weight"] = (1.0 - model.alpha) * model.omega

    try:
        c_index = concordance_index(predict_log_risk(model, dataset.features), dataset)
        c_blackbox = concordance_index(blackbox_risk, dataset)
    except MetricUndefinedError:
        c_index = None
        c_blackbox = None
    diagnostics = FitDiagnostics(initial_loss=trace[0], final_loss=trace[-1],
                                 epochs=config.epochs, c_index=c_index,
                                 c_index_blackbox=c_blackbox)
    params = {"mode": mode, "variant": config.variant, "lambda": lam, "mu": mu,
              "epsilon": epsilon, "n_points": len(points), "seed": seed, "center": center}
    return Explanation(mode, model.variant, dataset.feature_names, tuple(curves),
                       mixing, diagnostics, model, points, params)


def explain_local(blackbox, dataset: SurvivalDataset, x, config: NamConfig,
                  lam: float = 0.0, mu: Optional[float] = None, n_points: int = N_POINTS,
                  epsilon: float = EPSILON, seed: int = 0) -> Explanation:
    """Explain the black box around one point via a perturbation neighborhood.

    The kernel radius is the largest distance between x and a generated
    point, so the weights span (0, 1] with exactly 0 at the farthest point.
    The surrogate trains with config; mu=None means nam.default_mu(config.variant).
    Deterministic for fixed (seed, config).
    """
    x = np.asarray(x, dtype=float)
    nbhd = build_neighborhood(x, dataset, n_points, seed)
    return _fit_and_package("local", blackbox, dataset, nbhd.points, nbhd.weights,
                            config, lam, mu, epsilon, seed, x.tolist())


def explain_global(blackbox, dataset: SurvivalDataset, config: NamConfig,
                   lam: float = 0.0, mu: Optional[float] = None,
                   epsilon: float = EPSILON) -> Explanation:
    """Explain the black box over the training set, unit weights; mu as in explain_local."""
    return _fit_and_package("global", blackbox, dataset, dataset.features.copy(),
                            np.ones(dataset.n), config, lam, mu, epsilon, config.seed, None)


def surrogate_c_index(explanation: Union[Explanation, NamModel], blackbox,
                      test: SurvivalDataset) -> tuple[float, float]:
    """Concordance of the black box and of the surrogate on held-out data.

    Black-box risk is the integrated CHF; surrogate risk is the additive
    log-risk itself (exp is monotone, so the ordering is the Cox one).
    """
    model = explanation.model if isinstance(explanation, Explanation) else explanation
    c_blackbox = concordance_index(risk_scores(blackbox, test.features), test)
    c_surrogate = concordance_index(predict_log_risk(model, test.features), test)
    return c_blackbox, c_surrogate
