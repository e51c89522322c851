"""Survival primitives: datasets, the event-time grid, hazards and concordance.

Walks the core objects on a six-patient toy cohort: build the interval
partition from observed event times, estimate the cumulative hazard with
Nelson-Aalen, convert it to a survival curve, and score risk orderings
with Harrell's C-index.
"""

import numpy as np

from survshape import (
    SurvivalDataset,
    build_time_grid,
    concordance_index,
    nelson_aalen,
)

# Six patients: follow-up time in months, 1 = event observed, 0 = censored.
features = np.array([[61.0], [48.0], [70.0], [55.0], [66.0], [52.0]])
times = np.array([4.0, 12.0, 7.0, 12.0, 2.0, 9.0])
events = np.array([1, 0, 1, 1, 1, 0])
cohort = SurvivalDataset.from_arrays(features, times, events, feature_names=("age",))
print(f"cohort: n={cohort.n}, events={cohort.events.sum()}, censored="
      f"{cohort.n - cohort.events.sum()}")

# The grid partitions [first event time, last event time + gamma] at the
# distinct observed event times.
grid = build_time_grid(cohort, gamma_fraction=0.01)
print("\ngrid times :", grid.times)
print("widths     :", np.round(grid.widths, 3), "(last one is gamma)")
print("horizon    :", grid.horizon)

# Nelson-Aalen sums d/n over the distinct observed times.
chf = nelson_aalen(cohort, grid)
survival = np.exp(-chf.values)
print("\n t_j   H(t_j)  S(t_j)")
for t, h, s in zip(grid.times, chf.values, survival):
    print(f"{t:5.1f}  {h:6.3f}  {s:6.3f}")

# Step-function evaluation works at arbitrary times, 0 hazard before t_0.
print("\nH at t=1, 5, 100:", chf([1.0, 5.0, 100.0]))

# Concordance: higher risk should fail earlier. Age as a crude risk score:
c_age = concordance_index(cohort.features[:, 0], cohort)
print(f"\nC-index of 'older = riskier'  : {c_age:.3f}")
print(f"C-index of the reverse        : {concordance_index(-cohort.features[:, 0], cohort):.3f}")
print(f"C-index of a constant score   : {concordance_index(np.zeros(6), cohort):.3f}  (random)")
