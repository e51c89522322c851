"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 7a/7b need real
dataset CSVs and are skipped unless SURVSHAPE_GBSG2_CSV / SURVSHAPE_VETERAN_CSV
point at local exports (see README for the expected columns).
"""

import json
import os
import time

import numpy as np
import pytest

from survshape.cli import main as cli_main
from survshape.data import DatasetSchema, load_and_split_csv
from survshape.explain import (
    build_targets,
    explain_global,
    generate_perturbations,
    surrogate_c_index,
)
from survshape.forest import ForestConfig, fit_forest, risk_scores
from survshape.nam import (
    NamConfig,
    TargetBatch,
    init_model,
    loss_and_gradient,
    loss_only,
    predict_log_risk,
    train,
)
from survshape.survival import (
    SurvivalDataset,
    build_time_grid,
    concordance_index,
    nelson_aalen,
)
from survshape.synthetic import (
    ExactCoxPredictor,
    SyntheticSpec,
    finite_difference_gradient,
    generate_cox_data,
    oracle_psi_star,
)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def linear_cox_world():
    """Criterion-3 materials, shared with criterion 5."""
    spec = SyntheticSpec(n=500, m=3, coef=(1.0, 0.5, 0.0), censoring_rate=0.2, seed=42)
    dataset, risk = generate_cox_data(spec)
    forest = fit_forest(dataset, ForestConfig(n_trees=100, min_leaf_events=35,
                                              features_per_split=3, seed=7))
    return spec, dataset, risk, forest


class TestCriterion1GradientOracle:
    def test_all_variants_match_finite_differences(self):
        t0 = time.time()
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            m = int(rng.integers(1, 5))  # m <= 4
            for variant in ("base", "lasso", "shortcut"):
                cfg = NamConfig(hidden_sizes=(8, 4), learning_rate=1e-3, epochs=1,
                                seed=seed, variant=variant,
                                lam=0.3 if variant != "base" else 0.0,
                                mu=0.05 if variant == "shortcut" else 0.0)
                model = init_model(m, cfg)
                for p in model.param_arrays():
                    p += 0.1 * rng.standard_normal(p.shape)
                if model.beta is not None:
                    model.beta[...] = rng.uniform(0.5, 1.5, m) * rng.choice([-1, 1], m)
                if model.alpha is not None:
                    model.alpha[...] = rng.uniform(0.2, 0.9, m)
                    model.omega[...] = rng.normal(size=m)
                targets = TargetBatch(
                    x=rng.uniform(-1, 1, size=(6, m)),
                    log_ratios=rng.normal(size=(6, 4)),
                    widths=rng.uniform(0.2, 1.5, size=4),
                    weights=rng.uniform(0.1, 1.0, size=6),
                )
                _, grads = loss_and_gradient(model, targets)
                analytic = np.concatenate([g.ravel() for g in grads])
                probe = model.copy()

                def flat_loss(vec, probe=probe, targets=targets):
                    probe.set_flat(vec)
                    return loss_only(probe, targets)

                numeric = finite_difference_gradient(flat_loss, model.flatten(), h=1e-6)
                denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-2)
                rel = float(np.max(np.abs(analytic - numeric) / denom))
                worst = max(worst, rel)
                assert rel < 1e-4, f"seed {seed} variant {variant}: rel err {rel:.2e}"
        elapsed = time.time() - t0
        assert elapsed < 30.0
        report(1, f"10 configs x 3 variants, worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2MinimizerOracle:
    def test_nam_reaches_per_example_minimizer(self):
        t0 = time.time()
        spec = SyntheticSpec(n=200, m=2, coef=(1.0, -0.5), censoring_rate=0.2, seed=21)
        dataset, _ = generate_cox_data(spec)
        forest = fit_forest(dataset, ForestConfig(n_trees=25, min_leaf_events=10, seed=3))
        points = generate_perturbations(dataset.features[0], dataset, 20, seed=4)
        baseline = nelson_aalen(dataset, forest.grid)
        targets = build_targets(forest, baseline, points, np.ones(20))
        log_ratios = (np.log(np.maximum(forest.predict_chf_matrix(points), 1e-5))
                      - np.log(np.maximum(baseline.values, 1e-5)))
        star = oracle_psi_star(log_ratios, forest.grid.widths)
        cfg = NamConfig(hidden_sizes=(64, 32), learning_rate=1e-2, epochs=4000, seed=0)
        model, _ = train(init_model(2, cfg), targets)
        rmse = float(np.sqrt(np.mean((predict_log_risk(model, points) - star) ** 2)))
        elapsed = time.time() - t0
        assert rmse < 0.05, f"RMSE {rmse:.4f}"
        assert elapsed < 120.0
        report(2, f"RMSE(psi, psi*) = {rmse:.4f} on 20 points, {elapsed:.1f}s")


class TestCriterion3LinearCoxRecovery:
    def test_global_explanation_recovers_linear_structure(self, linear_cox_world):
        t0 = time.time()
        _, dataset, _, forest = linear_cox_world
        cfg = NamConfig(hidden_sizes=(16, 8), activation="tanh", learning_rate=1e-2,
                        epochs=1500, seed=0)
        expl = explain_global(forest, dataset, cfg)
        curve1, curve3 = expl.curves[0], expl.curves[2]
        pearson = float(np.corrcoef(curve1.values, curve1.xs)[0, 1])
        range1 = float(curve1.values.max() - curve1.values.min())
        range3 = float(curve3.values.max() - curve3.values.min())
        elapsed = time.time() - t0
        assert pearson >= 0.95, f"pearson {pearson:.4f}"
        assert range3 <= 0.20 * range1, f"range ratio {range3 / range1:.3f}"
        assert elapsed < 300.0
        report(3, f"pearson={pearson:.4f}, range ratio={range3 / range1:.3f}, {elapsed:.1f}s")


class TestCriterion4NonlinearityDetection:
    def test_shortcut_alpha_orders_by_nonlinearity(self):
        t0 = time.time()
        spec = SyntheticSpec(n=300, m=2, shapes=("linear", "sin3"),
                             censoring_rate=0.0, seed=11)
        dataset, _ = generate_cox_data(spec)
        oracle = ExactCoxPredictor.for_dataset(spec, dataset)
        cfg = NamConfig(hidden_sizes=(32, 16), learning_rate=1e-2, epochs=5000,
                        seed=0, variant="shortcut", lam=1.0, mu=0.01)
        expl = explain_global(oracle, dataset, cfg)
        alpha = expl.mixing["alpha"]
        elapsed = time.time() - t0
        assert alpha[0] < alpha[1], f"alpha = {alpha}"
        assert elapsed < 300.0
        report(4, f"alpha_linear={alpha[0]:.3f} < alpha_sin={alpha[1]:.3f}, {elapsed:.1f}s")


class TestCriterion5LassoSparsity:
    def test_sparsity_nondecreasing_in_lambda(self, linear_cox_world):
        t0 = time.time()
        spec, dataset, _, _ = linear_cox_world
        oracle = ExactCoxPredictor.for_dataset(spec, dataset)
        counts = []
        beta_by_lam = {}
        for lam in (0.1, 1.0, 10.0, 100.0):
            cfg = NamConfig(hidden_sizes=(32, 16), learning_rate=1e-2, epochs=2000,
                            seed=0, variant="lasso", lam=lam)
            expl = explain_global(oracle, dataset, cfg)
            beta = expl.mixing["beta"]
            beta_by_lam[lam] = beta
            counts.append(int(np.sum(np.abs(beta) < 1e-2)))
        elapsed = time.time() - t0
        assert counts == sorted(counts), f"counts {counts}"
        assert abs(beta_by_lam[100.0][2]) < 1e-2, f"beta3 at lam=100: {beta_by_lam[100.0][2]}"
        report(5, f"small-beta counts over lambda grid = {counts}, "
                  f"beta3@100={beta_by_lam[100.0][2]:.5f}, {elapsed:.1f}s")


class TestCriterion6EstimatorHandCases:
    def test_hand_enumerated_examples(self):
        t0 = time.time()
        # Nelson-Aalen with censoring
        ds = SurvivalDataset.from_arrays(np.arange(3.0).reshape(-1, 1),
                                         np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]))
        chf = nelson_aalen(ds, build_time_grid(ds))
        assert abs(chf.values[0] - 1 / 3) < 1e-12
        assert abs(chf.values[1] - 4 / 3) < 1e-12
        # two samples no censoring
        ds2 = SurvivalDataset.from_arrays(np.arange(2.0).reshape(-1, 1),
                                          np.array([1.0, 2.0]), np.array([1, 1]))
        chf2 = nelson_aalen(ds2, build_time_grid(ds2))
        assert abs(chf2.values[0] - 0.5) < 1e-12
        assert abs(chf2.values[1] - 1.5) < 1e-12
        # single event at the first time among n=4
        ds3 = SurvivalDataset.from_arrays(np.arange(4.0).reshape(-1, 1),
                                          np.array([1.0, 2.0, 3.0, 4.0]),
                                          np.array([1, 0, 0, 0]))
        chf3 = nelson_aalen(ds3, build_time_grid(ds3))
        assert np.all(np.abs(chf3.values - 0.25) < 1e-12)
        # C-index hand cases are exact ratios
        ds4 = SurvivalDataset.from_arrays(np.arange(3.0).reshape(-1, 1),
                                          np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
        assert concordance_index(np.array([3.0, 2.0, 1.0]), ds4) == 1.0
        assert concordance_index(np.array([5.0, 5.0, 5.0]), ds4) == 0.5
        assert concordance_index(np.array([3.0, 1.0, 2.0]), ds4) == 2.0 / 3.0
        elapsed = time.time() - t0
        assert elapsed < 1.0
        report(6, f"Nelson-Aalen and C-index hand cases exact, {elapsed:.2f}s")


def _gbsg2_schema():
    return {"time": "time", "event": "cens",
            "features": {"horTh": "categorical", "age": "numeric",
                         "menostat": "categorical", "tsize": "numeric",
                         "tgrade": "categorical", "pnodes": "numeric",
                         "progrec": "numeric", "estrec": "numeric"}}


def _veteran_schema():
    return {"time": "time", "event": "status",
            "features": {"trt": "categorical", "celltype": "categorical",
                         "karno": "numeric", "diagtime": "numeric",
                         "age": "numeric", "prior": "categorical"}}


@pytest.mark.skipif("SURVSHAPE_GBSG2_CSV" not in os.environ,
                    reason="set SURVSHAPE_GBSG2_CSV to a GBSG2 export to run")
class TestCriterion7aGbsg2:
    def test_c_indices_and_pnodes_dominance(self):
        path = os.environ["SURVSHAPE_GBSG2_CSV"]
        schema = DatasetSchema.from_config(_gbsg2_schema())
        train_ds, test_ds = load_and_split_csv(path, schema, 0.25, seed=1)
        forest = fit_forest(train_ds, ForestConfig(n_trees=500, seed=1))
        c_forest = concordance_index(risk_scores(forest, test_ds.features), test_ds)
        assert abs(c_forest - 0.676) <= 0.05, f"forest C {c_forest:.3f}"
        cfg = NamConfig(hidden_sizes=(16, 8), activation="tanh", learning_rate=1e-2,
                        epochs=1500, seed=0)
        expl = explain_global(forest, train_ds, cfg)
        _, c_surr = surrogate_c_index(expl, forest, test_ds)
        assert abs(c_surr - 0.687) <= 0.05, f"surrogate C {c_surr:.3f}"
        ranges = {name: float(c.values.max() - c.values.min())
                  for name, c in zip(expl.feature_names, expl.curves)}
        assert max(ranges, key=ranges.get) == "pnodes", ranges
        report("7a", f"GBSG2: forest C={c_forest:.3f}, surrogate C={c_surr:.3f}, "
                     f"pnodes curve dominates")


@pytest.mark.skipif("SURVSHAPE_VETERAN_CSV" not in os.environ,
                    reason="set SURVSHAPE_VETERAN_CSV to a Veteran export to run")
class TestCriterion7bVeteran:
    def test_forest_c_index(self):
        path = os.environ["SURVSHAPE_VETERAN_CSV"]
        schema = DatasetSchema.from_config(_veteran_schema())
        train_ds, test_ds = load_and_split_csv(path, schema, 0.25, seed=1)
        forest = fit_forest(train_ds, ForestConfig(n_trees=500, seed=1))
        c_forest = concordance_index(risk_scores(forest, test_ds.features), test_ds)
        assert abs(c_forest - 0.725) <= 0.05, f"forest C {c_forest:.3f}"
        report("7b", f"Veteran: forest C={c_forest:.3f}")


class TestCriterion8CliDeterminism:
    def test_all_commands_byte_identical_on_rerun(self, tmp_path):
        t0 = time.time()

        synth = tmp_path / "synth"
        fit = tmp_path / "fit"
        expl = tmp_path / "expl"
        ev = tmp_path / "eval"

        def pipeline():
            """Same flags every time, including --out, per the criterion."""
            assert cli_main(["synth", "--n", "80", "--m", "2", "--coef", "1.0,0.0",
                             "--censoring", "0.2", "--seed", "13",
                             "--out", str(synth)]) == 0
            assert cli_main(["fit", "--data", str(synth / "dataset.csv"),
                             "--out", str(fit), "--trees", "10",
                             "--min-leaf-events", "3", "--seed", "2"]) == 0
            assert cli_main(["explain", "--forest", str(fit / "forest.bin"),
                             "--data", str(synth / "dataset.csv"),
                             "--mode", "local", "--center-row", "1",
                             "--n-points", "30", "--epochs", "80",
                             "--hidden", "8,4", "--seed", "6",
                             "--out", str(expl), "--svg"]) == 0
            assert cli_main(["eval", "--forest", str(fit / "forest.bin"),
                             "--model", str(expl / "nam.json"),
                             "--data", str(synth / "dataset.csv"),
                             "--out", str(ev)]) == 0
            files = [synth / "dataset.csv", synth / "log_risk.csv",
                     synth / "report.txt", fit / "forest.bin", fit / "report.txt",
                     expl / "explanation.csv", expl / "nam.json",
                     expl / "shapes.svg", expl / "report.txt", ev / "report.txt"]
            return {str(f.relative_to(tmp_path)): f.read_bytes() for f in files}

        first = pipeline()
        second = pipeline()
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"
        elapsed = time.time() - t0
        report(8, f"4 commands, {len(first)} artifacts byte-identical, {elapsed:.1f}s")
