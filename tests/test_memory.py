"""Linear-memory guards for the metrics that scan all pairs of samples,
and for the forest's prediction and the two risk scores.

At n = 20 000 an n x n float64 array is 3.2 GB, so a quadratic
implementation would blow far past the bound below. numpy reports its
buffers to tracemalloc, so the traced peak covers the arrays as well as
the Python objects.
"""

import tracemalloc

import numpy as np

from survshape.explain import dataset_diameter
from survshape.forest import ForestConfig, fit_forest, predict_chf_matrix
from survshape.nam import NamConfig, init_model, predict_log_risk
from survshape.survival import SurvivalDataset, concordance_index, risk_scores
from survshape.synthetic import SyntheticSpec, generate_cox_data

N = 20_000
PEAK_BOUND_BYTES = 64 * 1024 * 1024


def large_dataset():
    rng = np.random.default_rng(0)
    times = rng.exponential(size=N)
    events = (rng.uniform(size=N) < 0.55).astype(int)
    return SurvivalDataset.from_arrays(rng.normal(size=(N, 8)), times, events)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_concordance_index_memory_is_linear():
    ds = large_dataset()
    scores = np.random.default_rng(1).normal(size=N)
    c, peak = traced_peak(concordance_index, scores, ds)
    assert 0.4 < c < 0.6
    assert peak < PEAK_BOUND_BYTES


def test_dataset_diameter_memory_is_linear():
    ds = large_dataset()
    diameter, peak = traced_peak(dataset_diameter, ds)
    assert diameter > 0.0
    assert peak < PEAK_BOUND_BYTES


def small_forest():
    spec = SyntheticSpec(n=300, m=8, coef=(1.0, -0.5, 0.3, 0.0, 0.8, 0.0, 0.2, 1.2),
                         censoring_rate=0.45, seed=3)
    return fit_forest(generate_cox_data(spec)[0], ForestConfig(n_trees=10, seed=1))


def test_predict_chf_matrix_holds_little_beyond_its_result():
    forest = small_forest()
    x = np.random.default_rng(2).uniform(-1.0, 1.0, (N, 8))
    chf, peak = traced_peak(predict_chf_matrix, forest, x)
    assert chf.shape == (N, forest.grid.n_intervals)
    assert peak <= chf.nbytes + 2 * 1024 * 1024


def test_forest_risk_builds_no_chf_matrix():
    forest = small_forest()
    x = np.random.default_rng(2).uniform(-1.0, 1.0, (N, 8))
    risk, peak = traced_peak(risk_scores, forest, x)
    assert risk.shape == (N,)
    # The (N, s+1) CHF matrix alone would be over ten times this bound.
    assert peak <= risk.nbytes + 2 * 1024 * 1024


def test_predict_log_risk_holds_one_block_of_activations():
    model = init_model(8, NamConfig())  # hidden (64, 32)
    x = np.random.default_rng(3).normal(size=(N, 8))
    log_risk, peak = traced_peak(predict_log_risk, model, x)
    assert log_risk.shape == (N,)
    # One unblocked pass would hold (8, N, 64) activations, 82 MB.
    assert peak <= log_risk.nbytes + 4 * 1024 * 1024
