from survshape.explain import explain_global
from survshape.nam import NamConfig
from survshape.report import explanation_summary, write_explanation_csv, write_shapes_svg
from survshape.survival import SurvivalDataset
from survshape.synthetic import ExactCoxPredictor, SyntheticSpec, generate_cox_data


def small_explanation(variant="base", lam=0.0, mu=0.0):
    spec = SyntheticSpec(n=50, m=2, coef=(1.0, 0.0), seed=0)
    dataset, _ = generate_cox_data(spec)
    oracle = ExactCoxPredictor.for_dataset(spec, dataset)
    cfg = NamConfig(hidden_sizes=(8, 4), learning_rate=1e-2, epochs=60, seed=0,
                    variant=variant, lam=lam, mu=mu)
    return explain_global(oracle, dataset, cfg)


class TestCsv:
    def test_structure(self, tmp_path):
        expl = small_explanation()
        path = tmp_path / "e.csv"
        write_explanation_csv(expl, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "key,value"
        blank = lines.index("")
        assert lines[blank + 1] == "feature,x,contribution"
        keys = {line.split(",", 1)[0] for line in lines[1:blank]}
        assert {"mode", "variant", "lambda", "mu", "final_loss"} <= keys
        # curve rows parse as floats and cover both features
        feats = set()
        for line in lines[blank + 2:]:
            name, x, y = line.split(",")
            float(x), float(y)
            feats.add(name)
        assert feats == set(expl.feature_names)

    def test_lasso_summary_has_beta(self, tmp_path):
        expl = small_explanation("lasso", lam=0.5)
        path = tmp_path / "e.csv"
        write_explanation_csv(expl, path)
        text = path.read_text()
        assert "beta.x0," in text and "beta.x1," in text

    def test_summary_reads_the_settings_from_the_model_config(self):
        expl = small_explanation("shortcut", lam=0.25, mu=0.5)
        assert set(expl.params) == {"mode", "epsilon", "n_points", "seed", "center"}
        summary = dict(explanation_summary(expl))
        assert [summary[key] for key in ("variant", "lambda", "mu")] == [
            "shortcut", "0.25", "0.5"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_explanation_csv(small_explanation(), a)
        write_explanation_csv(small_explanation(), b)
        assert a.read_bytes() == b.read_bytes()


class TestSvg:
    def test_constant_column_draws_a_one_point_curve(self, tmp_path):
        spec = SyntheticSpec(n=50, m=2, coef=(1.0, 0.0), seed=0)
        dataset, _ = generate_cox_data(spec)
        features = dataset.features.copy()
        features[:, 1] = 0.25
        flat = SurvivalDataset(features, dataset.times, dataset.events,
                               dataset.feature_names, dataset.feature_kinds)
        cfg = NamConfig(hidden_sizes=(8, 4), learning_rate=1e-2, epochs=20, seed=0)
        expl = explain_global(ExactCoxPredictor.for_dataset(spec, flat), flat, cfg)
        curve = expl.curves[1]
        assert curve.xs.tolist() == [0.25]
        assert curve.values.shape == (1,) and abs(curve.values[0]) < 1e-12  # centered
        assert len(expl.curves[0].xs) > 1
        path = tmp_path / "s.svg"
        write_shapes_svg(expl, path)
        text = path.read_text()
        assert text.count("<circle ") == 1 and text.count("<polyline ") == 1

    def test_well_formed_and_complete(self, tmp_path):
        import xml.etree.ElementTree as ET

        expl = small_explanation()
        path = tmp_path / "s.svg"
        write_shapes_svg(expl, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        text = path.read_text()
        for name in expl.feature_names:
            assert f">{name}</text>" in text
        assert "polyline" in text
        assert "fill-opacity" in text  # density strip bars
