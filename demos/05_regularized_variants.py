"""The two regularized surrogates: L1-scaled curves and the linear bypass.

The lasso variant multiplies each subnetwork by a coefficient beta_k and
penalizes sum|beta|, pruning irrelevant features as lambda grows. The
shortcut variant mixes each subnetwork with a trained linear term,
alpha_k * g_k(x) + (1 - alpha_k) * omega_k * x, so alpha_k reads as "how
nonlinear is this feature's contribution".
"""

import numpy as np

from survshape import (
    ExactCoxPredictor,
    NamConfig,
    SyntheticSpec,
    explain_global,
    generate_cox_data,
)

# Truth: strong linear effect, weaker sine effect, one dead feature.
spec = SyntheticSpec(n=400, m=3, shapes=("linear", "sin3", "zero"), seed=14)
dataset, _ = generate_cox_data(spec)
oracle = ExactCoxPredictor.for_dataset(spec, dataset)

print("== lasso: sweep the L1 strength ==")
for lam in (0.1, 1.0, 10.0, 100.0):
    cfg = NamConfig(hidden_sizes=(16, 8), learning_rate=1e-2, epochs=1200,
                    seed=0, variant="lasso", lam=lam)
    expl = explain_global(oracle, dataset, cfg)
    beta = expl.mixing["beta"]
    pruned = [n for n, b in zip(expl.feature_names, beta) if abs(b) < 1e-2]
    print(f"  lambda={lam:>6}: beta={np.round(beta, 4)} pruned={pruned or '-'}")

print("\n== shortcut: alpha separates linear from nonlinear features ==")
cfg = NamConfig(hidden_sizes=(32, 16), learning_rate=1e-2, epochs=3000,
                seed=0, variant="shortcut", lam=1.0, mu=0.01)
expl = explain_global(oracle, dataset, cfg)
print(f"  {'feature':<8} {'alpha':>7} {'1-alpha':>8} {'omega':>7} {'(1-a)*w':>8}")
for k, name in enumerate(expl.feature_names):
    a = expl.mixing["alpha"][k]
    w = expl.mixing["omega"][k]
    print(f"  {name:<8} {a:7.3f} {1 - a:8.3f} {w:7.3f} {(1 - a) * w:8.3f}")
print("  low alpha = the linear bypass suffices; high alpha = the subnetwork is needed")
