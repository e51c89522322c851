"""Linear-memory guards for the metrics that scan all pairs of samples.

At n = 20 000 an n x n float64 array is 3.2 GB, so a quadratic
implementation would blow far past the bound below. numpy reports its
buffers to tracemalloc, so the traced peak covers the arrays as well as
the Python objects.
"""

import tracemalloc

import numpy as np

from survshape.explain import dataset_diameter
from survshape.survival import SurvivalDataset, concordance_index

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
