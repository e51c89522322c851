"""Linear-memory guards for the metrics that scan all pairs of samples,
for the forest's leaves, prediction and the two risk scores, and for the
surrogate's training passes, which must also reuse their memory from one
epoch to the next.

At n = 20 000 an n x n float64 array is 3.2 GB, so a quadratic
implementation would blow far past the bound below. numpy reports its
buffers to tracemalloc, so the traced peak covers the arrays as well as
the Python objects.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import survshape

from survshape.explain import dataset_diameter
from survshape.forest import ForestConfig, fit_forest, load_forest, predict_chf_matrix, save_forest
from survshape.nam import (NamConfig, TargetBatch, init_model, loss_and_gradient, loss_only,
                           predict_log_risk)
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


def test_loaded_forest_holds_its_leaves_as_runs(tmp_path):
    # Small leaves on 1200 rows: about 5300 leaves on an 840-point grid.
    spec = SyntheticSpec(n=1200, m=4, coef=(1.0, -0.5, 0.3, 0.0), censoring_rate=0.3, seed=2)
    forest = fit_forest(generate_cox_data(spec)[0],
                        ForestConfig(n_trees=10, min_leaf_events=1, seed=1))
    save_forest(forest, tmp_path / "forest.bin")
    del forest
    tracemalloc.start()
    try:
        loaded, _ = load_forest(tmp_path / "forest.bin")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    leaves = sum(len(tree["stored"]["leaf_events"]) for tree in loaded.trees)
    grid_length_leaves = leaves * loaded.grid.n_intervals * 8
    assert grid_length_leaves > 32 * 1024 * 1024
    # The runs, the routing dicts and the stored form together take about 4 MB.
    assert retained < 8 * 1024 * 1024


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


def large_target_batch():
    rng = np.random.default_rng(4)
    return TargetBatch(rng.normal(size=(N, 8)), rng.normal(size=(N, 5)),
                       rng.uniform(0.2, 1.0, 5), rng.uniform(0.1, 1.0, N))


def test_gradient_pass_holds_little_beyond_its_cache():
    model = init_model(8, NamConfig())  # hidden (64, 32), relu
    targets = large_target_batch()
    (loss, grads), peak = traced_peak(loss_and_gradient, model, targets)
    assert np.isfinite(loss) and len(grads) == len(model.param_arrays())
    # The forward cache: each row's (64 + 32) hidden activations per subnetwork.
    cache = model.m * N * (64 + 32) * 8
    # relu's derivative of the widest layer is a boolean array, one byte an
    # entry; it is taken before that layer's buffer receives the next delta.
    derivative = model.m * N * 64
    # A fresh delta per layer and a second forward temporary would come near
    # twice the cache.
    assert peak <= cache + derivative + 4 * 1024 * 1024


def test_forward_only_loss_holds_one_block_of_activations():
    model = init_model(8, NamConfig())
    targets = large_target_batch()
    loss, peak = traced_peak(loss_only, model, targets)
    assert np.isfinite(loss)
    block = model.m * 256 * (64 + 32) * 8
    # One unblocked pass would hold the whole (8, N, 96) forward, 123 MB.
    assert peak <= block + 4 * 1024 * 1024


# Trains a network of activation argv[3] on a 686 x 8 batch for argv[1] epochs
# (argv[2] rows a batch, 0 for the full batch) and prints the minor page
# faults of the training alone.
_FAULT_COUNTER = """
import resource, sys
import numpy as np
from survshape.nam import NamConfig, TargetBatch, init_model, train
rng = np.random.default_rng(0)
targets = TargetBatch(rng.normal(size=(686, 8)), rng.normal(size=(686, 5)),
                      rng.uniform(0.2, 1.0, 5), np.ones(686))
config = NamConfig(epochs=int(sys.argv[1]), batch=int(sys.argv[2]) or None,
                   activation=sys.argv[3])
model = init_model(8, config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(model, targets)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc and its page faults")
@pytest.mark.parametrize("batch, activation", [(0, "relu"), (64, "relu"), (0, "tanh")],
                         ids=["0", "64", "tanh"])
def test_training_epochs_do_not_page_fault(batch, activation):
    # Without the MALLOC_ settings glibc hands big temporaries back to the
    # kernel when they are freed, so an epoch that allocated them afresh
    # would fault their pages in again: about 2400 (full batch) and 1700
    # (batches of 64) minor faults an epoch. tanh's derivative, a float
    # array the size of a hidden layer, made about 1700 while it was taken
    # into a fresh array each epoch.
    env = {key: value for key, value in os.environ.items() if not key.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(survshape.__file__))
    faults = [int(subprocess.run([sys.executable, "-c", _FAULT_COUNTER, str(epochs), str(batch),
                                  activation],
                                 env=env, capture_output=True, text=True, check=True).stdout)
              for epochs in (50, 150)]
    assert (faults[1] - faults[0]) / 100 < 50
