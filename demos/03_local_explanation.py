"""Local explanation: perturb one patient, fit the additive surrogate.

Shows the pieces the pipeline is made of (perturbation cloud, distance
kernel, log-ratio targets) and then the one-call version, ending with the
CSV/SVG artifacts a run produces.
"""

import os
import tempfile

import numpy as np

from survshape import (
    ForestConfig,
    NamConfig,
    SyntheticSpec,
    build_neighborhood,
    build_targets,
    explain_local,
    fit_forest,
    generate_cox_data,
    nelson_aalen,
    write_explanation_csv,
    write_shapes_svg,
)

spec = SyntheticSpec(n=300, m=2, coef=(1.0, -0.8), censoring_rate=0.2, seed=4)
dataset, _ = generate_cox_data(spec)
forest = fit_forest(dataset, ForestConfig(n_trees=60, min_leaf_events=8, seed=5))

x = dataset.features[17]
print("explaining the point:", np.round(x, 3))

# Step by step: 100 normal perturbations, kernel weights, log-ratio targets.
nbhd = build_neighborhood(x, dataset, n_points=100, seed=6)
print(f"neighborhood radius {nbhd.radius:.3f}, weights in "
      f"[{nbhd.weights.min():.2f}, {nbhd.weights.max():.2f}]")
baseline = nelson_aalen(dataset, forest.grid)
targets = build_targets(forest, baseline, nbhd.points, nbhd.weights)
print(f"targets: {nbhd.points.shape[0]} points x {forest.grid.n_intervals} intervals")

# One call does all of the above plus surrogate training and centering.
config = NamConfig(hidden_sizes=(32, 16), learning_rate=1e-2, epochs=800, seed=0)
explanation = explain_local(forest, dataset, x, config, n_points=100, seed=6)
d = explanation.diagnostics
print(f"\nsurrogate loss {d.initial_loss:.1f} -> {d.final_loss:.1f}")
print(f"dataset-wide C: surrogate={d.c_index:.3f}, black box={d.c_index_blackbox:.3f}")
print("(a local surrogate is only trained near x, so its dataset-wide ordering")
print(" can be weak; judge local fits by the loss and the curves instead)")

for name, curve in zip(explanation.feature_names, explanation.curves):
    span = curve.values.max() - curve.values.min()
    print(f"  {name}: centered contribution range {span:.3f}")
print("(the larger range marks the locally more influential feature)")

with tempfile.TemporaryDirectory(prefix="survshape_demo_") as out:
    write_explanation_csv(explanation, os.path.join(out, "explanation.csv"))
    write_shapes_svg(explanation, os.path.join(out, "shapes.svg"))
    print(f"\nartifacts written to {out} (removed when the demo ends):")
    for name in ("explanation.csv", "shapes.svg"):
        print(f"  {name}: {os.path.getsize(os.path.join(out, name))} bytes")
