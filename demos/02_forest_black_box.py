"""The reference black box: a random survival forest with log-rank splits.

Generates proportional-hazards data with a known log-risk, fits the
forest, inspects its hazard predictions, checks ranking quality on a
held-out split, and cross-checks feature relevance with permutation
importance.
"""

import numpy as np

from survshape import (
    ForestConfig,
    SyntheticSpec,
    concordance_index,
    fit_forest,
    generate_cox_data,
    risk_scores,
    train_test_split,
)

# log-risk = 1.2*x0 + 0.6*x1 + 0*x2: feature 2 is pure noise.
spec = SyntheticSpec(n=400, m=3, coef=(1.2, 0.6, 0.0), censoring_rate=0.25, seed=8)
dataset, _ = generate_cox_data(spec)
train, test = train_test_split(dataset, 0.25, seed=1)
print(f"train n={train.n}, test n={test.n}")

forest = fit_forest(train, ForestConfig(n_trees=80, min_leaf_events=5, seed=2))
print(f"forest: {len(forest.trees)} trees on a grid of {forest.grid.n_intervals} intervals")

# Hazard curves react to the risky feature.
low = np.array([-0.8, 0.0, 0.0])
high = np.array([+0.8, 0.0, 0.0])
low_risk, high_risk = risk_scores(forest, np.array([low, high]))
print("\nintegrated CHF, low-risk profile :", round(low_risk, 3))
print("integrated CHF, high-risk profile:", round(high_risk, 3))

c_train = concordance_index(risk_scores(forest, train.features), train)
c_test = concordance_index(risk_scores(forest, test.features), test)
print(f"\nC-index train {c_train:.3f} / test {c_test:.3f}")

# Permutation importance: the mean drop in test concordance when one
# feature column is shuffled, over 10 shuffles per feature.
n_repeats = 10
rng = np.random.default_rng(3)
print("\npermutation importance (drop in C when a column is shuffled):")
for k, name in enumerate(forest.feature_names):
    drop = 0.0
    for _ in range(n_repeats):
        shuffled = test.features.copy()
        shuffled[:, k] = shuffled[rng.permutation(test.n), k]
        drop += c_test - concordance_index(risk_scores(forest, shuffled), test)
    print(f"  {name}: {drop / n_repeats:+.4f}")
print("the noise feature should sit near zero.")
