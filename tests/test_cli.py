import csv
import json
import multiprocessing
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from survshape import forest as forest_module
from survshape.cli import main
from survshape.data import DatasetSchema


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small synthetic dataset generated through the CLI itself."""
    out = tmp_path_factory.mktemp("synth")
    code = run(["synth", "--n", "200", "--m", "2", "--coef", "1.5,0.0",
                "--censoring", "0.2", "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fitted_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run(["fit", "--data", str(synth_dir / "dataset.csv"), "--out", str(out),
                "--trees", "50", "--min-leaf-events", "5", "--seed", "5",
                "--test-fraction", "0.25"])
    assert code == 0
    return out


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "dataset.csv").is_file()
        assert (synth_dir / "log_risk.csv").is_file()
        assert (synth_dir / "report.txt").is_file()

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        out2 = tmp_path / "again"
        code = run(["synth", "--n", "200", "--m", "2", "--coef", "1.5,0.0",
                    "--censoring", "0.2", "--seed", "3", "--out", str(out2)])
        assert code == 0
        assert (out2 / "dataset.csv").read_bytes() == (synth_dir / "dataset.csv").read_bytes()
        assert (out2 / "log_risk.csv").read_bytes() == (synth_dir / "log_risk.csv").read_bytes()

    def test_usage_error_without_truth(self, tmp_path):
        assert run(["synth", "--n", "10", "--m", "1", "--out", str(tmp_path)]) == 2

    def test_gam_shapes(self, tmp_path):
        code = run(["synth", "--n", "30", "--m", "2", "--shapes", "linear,sin3",
                    "--seed", "1", "--out", str(tmp_path / "g")])
        assert code == 0


class TestFit:
    def test_outputs(self, fitted_dir):
        assert (fitted_dir / "forest.bin").is_file()
        report = (fitted_dir / "report.txt").read_text()
        assert "c_index_test" in report

    def test_synthetic_signal_learned(self, fitted_dir):
        report = (fitted_dir / "report.txt").read_text()
        c_test = float(report.split("c_index_test = ")[1].splitlines()[0])
        assert c_test > 0.6

    def test_forest_bytes_reproducible(self, synth_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run(["fit", "--data", str(synth_dir / "dataset.csv"),
                        "--out", str(out), "--trees", "5", "--min-leaf-events", "2",
                        "--seed", "9"])
            assert code == 0
        assert (a / "forest.bin").read_bytes() == (b / "forest.bin").read_bytes()

    def test_missing_schema_file(self, synth_dir, tmp_path):
        code = run(["fit", "--data", str(synth_dir / "dataset.csv"),
                    "--schema", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 3

    def test_missing_data_file(self, tmp_path):
        code = run(["fit", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert code == 3

    def test_with_schema_config(self, tmp_path):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        lines = ["age,grp,time,event"]
        for i in range(40):
            grp = "A" if rng.uniform() < 0.5 else "B"
            lines.append(f"{rng.uniform(20, 80):.2f},{grp},{rng.uniform(1, 9):.3f},"
                         f"{int(rng.uniform() < 0.7)}")
        data.write_text("\n".join(lines) + "\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"time": "time", "event": "event",
                                      "features": {"age": "numeric",
                                                   "grp": "categorical"}}))
        out = tmp_path / "out"
        code = run(["fit", "--data", str(data), "--schema", str(schema),
                    "--out", str(out), "--trees", "4", "--min-leaf-events", "2",
                    "--seed", "1"])
        assert code == 0
        payload = json.loads((out / "forest.bin").read_text())
        assert payload["extra"]["schema"]["stats"]["age"]
        assert payload["feature_names"] == ["age", "grp=B"]


class TestExplain:
    def test_global_explanation(self, synth_dir, fitted_dir, tmp_path):
        out = tmp_path / "g"
        code = run(["explain", "--forest", str(fitted_dir / "forest.bin"),
                    "--data", str(synth_dir / "dataset.csv"), "--mode", "global",
                    "--variant", "base", "--epochs", "150", "--hidden", "16,8",
                    "--learning-rate", "0.01", "--seed", "2", "--out", str(out),
                    "--svg"])
        assert code == 0
        text = (out / "explanation.csv").read_text()
        assert text.startswith("key,value\n")
        assert "variant,base" in text
        assert "lambda,0.0" in text and "mu,0.0" in text
        assert "feature,x,contribution" in text
        assert (out / "nam.json").is_file()
        assert (out / "shapes.svg").read_text().startswith("<?xml")

    def test_local_needs_center(self, synth_dir, fitted_dir, tmp_path):
        code = run(["explain", "--forest", str(fitted_dir / "forest.bin"),
                    "--data", str(synth_dir / "dataset.csv"), "--mode", "local",
                    "--out", str(tmp_path)])
        assert code == 2

    def test_local_with_center_row(self, synth_dir, fitted_dir, tmp_path):
        out = tmp_path / "l"
        code = run(["explain", "--forest", str(fitted_dir / "forest.bin"),
                    "--data", str(synth_dir / "dataset.csv"), "--mode", "local",
                    "--center-row", "3", "--n-points", "40", "--epochs", "100",
                    "--hidden", "8,4", "--seed", "4", "--out", str(out)])
        assert code == 0
        assert "mode,local" in (out / "explanation.csv").read_text()

    def test_rerun_byte_identical(self, synth_dir, fitted_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run(["explain", "--forest", str(fitted_dir / "forest.bin"),
                        "--data", str(synth_dir / "dataset.csv"), "--mode", "local",
                        "--center-row", "0", "--n-points", "25", "--epochs", "60",
                        "--hidden", "8,4", "--seed", "7", "--out", str(out), "--svg"])
            assert code == 0
            outs.append(out)
        for fname in ("explanation.csv", "nam.json", "shapes.svg"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_constant_blackbox_flat_csv(self, synth_dir, tmp_path):
        # single-leaf forest => constant CHF => every curve flat
        import survshape
        ds = survshape.load_prepared_csv(synth_dir / "dataset.csv")
        forest = None
        with pytest.warns(UserWarning):
            forest = survshape.fit_forest(
                ds, survshape.ForestConfig(n_trees=2, min_leaf_events=ds.events.sum(),
                                           seed=0))
        fpath = tmp_path / "flat.bin"
        survshape.save_forest(forest, fpath, extra={"schema": None})
        out = tmp_path / "flat"
        code = run(["explain", "--forest", str(fpath),
                    "--data", str(synth_dir / "dataset.csv"), "--mode", "global",
                    "--epochs", "200", "--hidden", "8,4", "--learning-rate", "0.01",
                    "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "explanation.csv").read_text().splitlines()
        start = lines.index("feature,x,contribution") + 1
        contributions = [abs(float(line.split(",")[2])) for line in lines[start:]]
        assert max(contributions) < 0.05

    def test_shortcut_summary_lists_mixing(self, synth_dir, fitted_dir, tmp_path):
        out = tmp_path / "s"
        code = run(["explain", "--forest", str(fitted_dir / "forest.bin"),
                    "--data", str(synth_dir / "dataset.csv"), "--mode", "global",
                    "--variant", "shortcut", "--lam", "0.5", "--mu", "0.01",
                    "--epochs", "80", "--hidden", "8,4", "--seed", "3",
                    "--out", str(out)])
        assert code == 0
        text = (out / "explanation.csv").read_text()
        assert "lambda,0.5" in text
        assert "alpha.x0," in text and "omega.x0," in text and "linear_weight.x0," in text


    def test_feature_names_escaped_in_csv_and_svg(self, tmp_path):
        # Levels holding a comma, '&' or '<' become one-hot column names.
        data = tmp_path / "raw.csv"
        rng = np.random.default_rng(2)
        levels = ["big", "small, cell", "a&b<c"]
        with data.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["age", "cell", "time", "event"])
            for i in range(60):
                writer.writerow([f"{rng.uniform(20, 80):.2f}", levels[i % 3],
                                 f"{rng.uniform(1, 9):.3f}", int(rng.uniform() < 0.7)])
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"time": "time", "event": "event",
                                      "features": {"age": "numeric",
                                                   "cell": "categorical"}}))
        fit_out, out = tmp_path / "fit", tmp_path / "explain"
        assert run(["fit", "--data", str(data), "--schema", str(schema),
                    "--out", str(fit_out), "--trees", "4", "--min-leaf-events", "2"]) == 0
        assert run(["explain", "--forest", str(fit_out / "forest.bin"), "--data", str(data),
                    "--epochs", "3", "--hidden", "4", "--out", str(out), "--svg"]) == 0
        with (out / "explanation.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        blank = rows.index([])
        assert all(len(row) == 2 for row in rows[:blank])
        assert rows[blank + 1] == ["feature", "x", "contribution"]
        assert all(len(row) == 3 for row in rows[blank + 2:])
        assert {row[0] for row in rows[blank + 2:]} == {"age", "cell=a&b<c", "cell=big",
                                                       "cell=small, cell"}
        titles = [el.text for el in ET.parse(out / "shapes.svg").iter()
                  if el.tag.endswith("text") and el.get("font-size") == "11"]
        assert sorted(titles) == ["age", "cell=a&b<c", "cell=big", "cell=small, cell"]


class TestConfigFile:
    def test_config_overrides_defaults_flags_override_config(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trees": 7, "min_leaf_events": 4, "seed": 21}))
        a, b = tmp_path / "a", tmp_path / "b"
        # config supplies trees=7
        code = run(["fit", "--data", str(synth_dir / "dataset.csv"), "--out", str(a),
                    "--config", str(cfg)])
        assert code == 0
        assert "trees = 7" in (a / "report.txt").read_text()
        # explicit flag beats the config value
        code = run(["fit", "--data", str(synth_dir / "dataset.csv"), "--out", str(b),
                    "--config", str(cfg), "--trees", "3"])
        assert code == 0
        assert "trees = 3" in (b / "report.txt").read_text()

    def test_config_can_supply_required_values(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "m": 1, "coef": "1.0", "out": str(out)}))
        assert run(["synth", "--config", str(cfg)]) == 0
        assert (out / "dataset.csv").is_file()

    def test_unknown_config_key_is_usage_error(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tres": 7}))
        code = run(["fit", "--data", str(synth_dir / "dataset.csv"),
                    "--out", str(tmp_path), "--config", str(cfg)])
        assert code == 2

    def test_banner_lists_flags_not_the_config_file(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trees": 4, "min_leaf_events": 2}))
        out = tmp_path / "o"
        common = ["fit", "--data", str(synth_dir / "dataset.csv"), "--out", str(out)]
        assert run(common + ["--trees", "4", "--min-leaf-events", "2"]) == 0
        from_flags = (out / "report.txt").read_text().split("\n\n")[0]
        assert run(common + ["--config", str(cfg)]) == 0
        from_config = (out / "report.txt").read_text().split("\n\n")[0]
        assert from_config == from_flags
        assert "  trees = 4\n" in from_config and "config" not in from_config

    def test_shortcut_mu_defaults_to_one(self, synth_dir, fitted_dir, tmp_path):
        out = tmp_path / "m"
        code = run(["explain", "--forest", str(fitted_dir / "forest.bin"),
                    "--data", str(synth_dir / "dataset.csv"), "--mode", "global",
                    "--variant", "shortcut", "--epochs", "40", "--hidden", "8,4",
                    "--seed", "0", "--out", str(out)])
        assert code == 0
        assert "mu,1.0" in (out / "explanation.csv").read_text()


class TestEval:
    def test_c_index_pair(self, synth_dir, fitted_dir, tmp_path):
        expl_out = tmp_path / "e"
        code = run(["explain", "--forest", str(fitted_dir / "forest.bin"),
                    "--data", str(synth_dir / "dataset.csv"), "--mode", "global",
                    "--epochs", "200", "--hidden", "16,8", "--learning-rate", "0.01",
                    "--seed", "5", "--out", str(expl_out)])
        assert code == 0
        out = tmp_path / "ev"
        code = run(["eval", "--forest", str(fitted_dir / "forest.bin"),
                    "--model", str(expl_out / "nam.json"),
                    "--data", str(synth_dir / "dataset.csv"), "--out", str(out)])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "c_index_blackbox" in report and "c_index_surrogate" in report
        c_bb = float(report.split("c_index_blackbox = ")[1].splitlines()[0])
        c_s = float(report.split("c_index_surrogate = ")[1].splitlines()[0])
        assert 0.0 <= c_bb <= 1.0 and 0.0 <= c_s <= 1.0

    def test_input_files_untouched(self, synth_dir, fitted_dir, tmp_path):
        before = (synth_dir / "dataset.csv").read_bytes()
        run(["eval", "--forest", str(fitted_dir / "forest.bin"),
             "--model", str(fitted_dir / "forest.bin"),  # wrong on purpose
             "--data", str(synth_dir / "dataset.csv"), "--out", str(tmp_path)])
        assert (synth_dir / "dataset.csv").read_bytes() == before

    def test_wrong_model_file_is_data_error(self, synth_dir, fitted_dir, tmp_path):
        code = run(["eval", "--forest", str(fitted_dir / "forest.bin"),
                    "--model", str(fitted_dir / "forest.bin"),
                    "--data", str(synth_dir / "dataset.csv"), "--out", str(tmp_path)])
        assert code == 3


def _forest_without_grid(payload):
    del payload["grid"]


def _forest_with_text_times(payload):
    payload["grid"]["times"] = "1.0,2.0"


def _forest_with_unknown_config_key(payload):
    payload["config"]["n_estimators"] = 10


def _forest_with_run_past_grid(payload):
    payload["trees"][0]["run_starts"][-1] = len(payload["grid"]["times"])


def _forest_of_version_1(payload):
    payload["version"] = 1


def _forest_of_version_2(payload):
    payload["version"] = 2


def _forest_with_first_run_at_1(payload):
    payload["trees"][0]["run_starts"][0] = 1


def _forest_with_runs_not_increasing(payload):
    starts = payload["trees"][0]["run_starts"]
    # the first run of a leaf with three runs or more; a 0 opens each leaf
    k = next(k for k in range(len(starts) - 2)
             if starts[k] == 0 and starts[k + 1] != 0 and starts[k + 2] != 0)
    starts[k + 2] = starts[k + 1]


def _forest_with_extra_threshold(payload):
    payload["trees"][0]["threshold"].append(0.5)


def _forest_with_feature_rotated(payload):
    feature = payload["trees"][0]["feature"]
    feature.insert(0, feature.pop())


def _forest_with_extra_split_flag(payload):
    tree = payload["trees"][0]
    tree["feature"].append(0)
    tree["threshold"].append(0.5)


def _forest_with_feature_out_of_range(payload):
    payload["trees"][0]["feature"][0] = len(payload["feature_names"])


def _forest_with_nan_chf(payload):
    payload["trees"][0]["run_values"][0] = float("nan")


def _forest_with_fractional_n_trees(payload):
    payload["config"]["n_trees"] = 2.7


def _forest_with_bool_n_trees(payload):
    payload["config"]["n_trees"] = True


def _forest_with_text_min_leaf_events(payload):
    payload["config"]["min_leaf_events"] = "4"


def _forest_with_text_gamma_fraction(payload):
    payload["config"]["gamma_fraction"] = "0.5"


def _forest_with_fractional_max_depth(payload):
    payload["config"]["max_depth"] = 2.5


def _forest_with_text_features_per_split(payload):
    payload["config"]["features_per_split"] = "2"


def _forest_with_null_seed(payload):
    payload["config"]["seed"] = None


def _forest_without_config_seed(payload):
    del payload["config"]["seed"]


def _forest_with_n_trees_off_by_one(payload):
    payload["config"]["n_trees"] = len(payload["trees"]) - 1


def _forest_without_trees(payload):
    payload["trees"] = []
    payload["config"]["n_trees"] = 0


class TestMalformedForestFile:
    """explain --forest on a broken forest.bin: exit 3 and one line on stderr."""

    def explain_with(self, forest_text, synth_dir, tmp_path, capsys):
        path = tmp_path / "forest.bin"
        path.write_text(forest_text, encoding="utf-8")
        code = run(["explain", "--forest", str(path),
                    "--data", str(synth_dir / "dataset.csv"), "--mode", "global",
                    "--epochs", "5", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "nam.json").exists()
        return err

    def test_truncated_file(self, synth_dir, fitted_dir, tmp_path, capsys):
        text = (fitted_dir / "forest.bin").read_text(encoding="utf-8")
        err = self.explain_with(text[:len(text) // 2], synth_dir, tmp_path, capsys)
        assert "not a valid forest file" in err

    @pytest.mark.parametrize("corrupt, message", [
        (_forest_without_grid, "has no 'grid'"),
        (_forest_with_text_times, "'times' has the wrong type"),
        (_forest_with_unknown_config_key, "unknown forest config key(s): n_estimators"),
        (_forest_with_run_past_grid, "outside 0.."),
        (_forest_of_version_1, "forest file version 1 is not supported"),
        (_forest_of_version_2, "forest file version 2 is not supported (this release reads "
                               "version 3); refit the forest"),
        (_forest_with_first_run_at_1, "'run_starts' must open each of its"),
        (_forest_with_runs_not_increasing, "run starts within a leaf must increase strictly"),
        (_forest_with_extra_threshold, "splits but"),
        (_forest_with_feature_rotated, "does not flag exactly one preorder tree"),
        (_forest_with_extra_split_flag, "does not flag exactly one preorder tree"),
        (_forest_with_feature_out_of_range, "split feature 2 outside 0..1"),
        (_forest_with_nan_chf, "non-finite threshold or CHF value"),
        (_forest_with_fractional_n_trees, "forest config's 'n_trees' has the wrong type"),
        (_forest_with_bool_n_trees, "forest config's 'n_trees' has the wrong type"),
        (_forest_with_text_min_leaf_events,
         "forest config's 'min_leaf_events' has the wrong type"),
        (_forest_with_text_gamma_fraction, "forest config's 'gamma_fraction' has the wrong type"),
        (_forest_with_fractional_max_depth, "forest config's 'max_depth' has the wrong type"),
        (_forest_with_text_features_per_split,
         "forest config's 'features_per_split' has the wrong type"),
        (_forest_with_null_seed, "forest config's 'seed' has the wrong type"),
        (_forest_without_config_seed, "forest config has no 'seed'"),
        (_forest_with_n_trees_off_by_one, "n_trees = 49, but the file holds 50 trees"),
        (_forest_without_trees, "n_trees must be >= 1"),
    ])
    def test_bad_content(self, corrupt, message, synth_dir, fitted_dir, tmp_path, capsys):
        payload = json.loads((fitted_dir / "forest.bin").read_text(encoding="utf-8"))
        corrupt(payload)
        err = self.explain_with(json.dumps(payload), synth_dir, tmp_path, capsys)
        assert message in err


class TestInterrupt:
    def test_interrupted_fit_exits_130_without_out_dir(self, synth_dir, tmp_path,
                                                       monkeypatch, capsys):
        def interrupt(*args):
            raise KeyboardInterrupt

        # forked workers inherit the patch, so the interrupt comes from a worker
        monkeypatch.setattr(forest_module, "_grow_tree", interrupt)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "out"
        code = run(["fit", "--data", str(synth_dir / "dataset.csv"), "--trees", "4",
                    "--out", str(out)])
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert not out.exists()
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def model_dir(synth_dir, fitted_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = run(["explain", "--forest", str(fitted_dir / "forest.bin"),
                "--data", str(synth_dir / "dataset.csv"), "--variant", "lasso",
                "--lam", "0.1", "--epochs", "5", "--hidden", "4,3", "--out", str(out)])
    assert code == 0
    return out


def _forest_with_list_extra(payload):
    payload["extra"] = [1]


def _forest_with_partial_schema(payload):
    payload["extra"] = {"schema": {"event": "e"}}


class TestMalformedForestExtra:
    """A forest.bin whose `extra` or embedded schema is broken: exit 3, one line."""

    @pytest.mark.parametrize("corrupt, message", [
        (_forest_with_list_extra, "'extra' must be an object or null"),
        (_forest_with_partial_schema, "fitted schema has no 'time'"),
    ])
    def test_explain_and_eval_exit_3(self, corrupt, message, synth_dir, fitted_dir,
                                     model_dir, tmp_path, capsys):
        payload = json.loads((fitted_dir / "forest.bin").read_text(encoding="utf-8"))
        corrupt(payload)
        forest = tmp_path / "forest.bin"
        forest.write_text(json.dumps(payload), encoding="utf-8")
        data = str(synth_dir / "dataset.csv")
        commands = [
            ["explain", "--forest", str(forest), "--data", data, "--epochs", "5",
             "--out", str(tmp_path / "explain")],
            ["eval", "--forest", str(forest), "--model", str(model_dir / "nam.json"),
             "--data", data, "--out", str(tmp_path / "eval")],
        ]
        for argv in commands:
            code = run(argv)
            err = capsys.readouterr().err
            assert code == 3
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err


def _model_config_rejected(payload):
    payload["config"]["activation"] = "sigmoid"


def _model_config_ill_typed(payload):
    payload["config"]["epochs"] = "5"


def _model_without_params(payload):
    del payload["params"]


def _model_layer_shape_off(payload):
    payload["config"]["hidden_sizes"] = [4, 4]


def _model_feature_count_off(payload):
    payload["features"] += 1
    payload["feature_names"].append("x2")


def _model_config_unknown_key(payload):
    payload["config"]["foo"] = 1


def _model_head_of_other_variant(payload):
    payload["config"]["variant"] = "shortcut"


def _model_of_version_1(payload):
    payload["version"] = 1


def _model_with_text_param(payload):
    payload["params"][0] = "0.5"


def _model_with_nan_param(payload):
    payload["params"][3] = float("nan")


class TestMalformedModelFile:
    """eval --model on a broken nam.json: exit 3 and one line on stderr."""

    def eval_with(self, model_bytes, synth_dir, fitted_dir, tmp_path, capsys):
        path = tmp_path / "nam.json"
        path.write_bytes(model_bytes)
        code = run(["eval", "--forest", str(fitted_dir / "forest.bin"),
                    "--model", str(path), "--data", str(synth_dir / "dataset.csv"),
                    "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_truncated_file(self, synth_dir, fitted_dir, model_dir, tmp_path, capsys):
        head = (model_dir / "nam.json").read_bytes()[:300]
        err = self.eval_with(head, synth_dir, fitted_dir, tmp_path, capsys)
        assert "not a valid model file" in err

    def test_invalid_utf8(self, synth_dir, fitted_dir, tmp_path, capsys):
        err = self.eval_with(b'{"format": "\xff"}', synth_dir, fitted_dir, tmp_path, capsys)
        assert "not a valid model file" in err

    def test_payload_not_an_object(self, synth_dir, fitted_dir, tmp_path, capsys):
        err = self.eval_with(b"[1, 2]", synth_dir, fitted_dir, tmp_path, capsys)
        assert "not a survshape model checkpoint" in err

    # The lasso model of model_dir: 2 features, hidden 4,3, so 2 * (27 + 1) + 1 = 57 params.
    @pytest.mark.parametrize("corrupt, message", [
        (_model_without_params, "model file has no 'params'"),
        (_model_config_ill_typed, "model file's 'epochs' has the wrong type"),
        (_model_config_rejected, "unknown activation 'sigmoid'"),
        (_model_layer_shape_off, "'params' has 57 values; 2 features with this config need 69"),
        (_model_feature_count_off,
         "'params' has 57 values; 3 features with this config need 85"),
        (_model_head_of_other_variant,
         "'params' has 57 values; 2 features with this config need 59"),
        (_model_config_unknown_key, "unknown model config key(s): foo"),
        (_model_of_version_1, "model file version 1 is not supported (this release reads "
                              "version 2); rerun explain"),
        (_model_with_text_param, "model file's 'params' must be a flat list of numbers"),
        (_model_with_nan_param, "model file's 'params' holds a non-finite value"),
    ])
    def test_bad_content(self, corrupt, message, synth_dir, fitted_dir, model_dir,
                         tmp_path, capsys):
        payload = json.loads((model_dir / "nam.json").read_text(encoding="utf-8"))
        corrupt(payload)
        err = self.eval_with(json.dumps(payload).encode(), synth_dir, fitted_dir,
                             tmp_path, capsys)
        assert message in err


class TestConfigValueTypes:
    """A --config value of the wrong type is a usage error: exit 2, one line."""

    @pytest.mark.parametrize("command, overrides, message", [
        ("fit", {"trees": [3]}, "trees must be int, not list"),
        ("fit", {"trees": "3"}, "trees must be int, not str"),
        ("fit", {"test_fraction": True}, "test_fraction must be float, not bool"),
        ("explain", {"mode": "both"}, "mode must be one of local, global"),
    ])
    def test_wrong_type_is_usage_error(self, command, overrides, message, synth_dir,
                                       fitted_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        argv = [command, "--data", str(synth_dir / "dataset.csv"),
                "--out", str(tmp_path / "out"), "--config", str(cfg)]
        if command == "explain":
            argv += ["--forest", str(fitted_dir / "forest.bin")]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_int_for_float_flag_runs_as_float(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "m": 1, "coef": "1.0", "scale": 2,
                                   "out": str(out)}))
        assert run(["synth", "--config", str(cfg)]) == 0
        assert "  scale = 2.0\n" in (out / "report.txt").read_text()


class TestCommaListFlags:
    """A bad element in a comma-separated flag is a usage error: exit 2, one line."""

    @pytest.mark.parametrize("argv, message", [
        (["explain", "--hidden", "8,x"], "--hidden needs comma-separated ints"),
        (["explain", "--hidden", ""], "--hidden needs comma-separated ints"),
        (["explain", "--mode", "local", "--center-values", "1,a,2"],
         "--center-values needs comma-separated floats"),
        (["synth", "--n", "20", "--m", "2", "--coef", "1,zz"],
         "--coef needs comma-separated floats"),
        (["explain", "--mode", "local", "--center-values", "0.5,nan"],
         "--center-values needs finite numbers, not 'nan'"),
        (["synth", "--n", "20", "--m", "2", "--coef", "1, -inf"],
         "--coef needs finite numbers, not '-inf'"),
    ], ids=["hidden-text", "hidden-empty", "center-values-text", "coef-text",
            "center-values-nan", "coef-inf"])
    def test_bad_element_exits_2(self, argv, message, synth_dir, fitted_dir, tmp_path,
                                 capsys):
        argv = argv + ["--out", str(tmp_path / "out")]
        if argv[0] == "explain":
            argv += ["--forest", str(fitted_dir / "forest.bin"),
                     "--data", str(synth_dir / "dataset.csv"), "--epochs", "5"]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()


# (case, exit code, stderr text) for test_failed_work_exits_without_out_dir
_FAILED_WORK = [
    ("synth-one-row", 3, ""),
    ("explain-diverges", 4, ""),
    ("eval-no-admissible-pairs", 4, ""),
    ("explain-columns-reordered", 3,
     "data columns ['x1', 'x0'] do not match the forest's features ['x0', 'x1']"),
    ("eval-columns-reordered", 3,
     "data columns ['x1', 'x0'] do not match the forest's features ['x0', 'x1']"),
    ("eval-model-of-other-features", 3,
     "model features ['a', 'b'] do not match the forest's features ['x0', 'x1']"),
    ("fit-nan-feature", 3, "feature 'x1' holds a non-finite value"),
    ("fit-inf-time", 3, "observed times must be finite"),
    ("explain-zero-weights", 3, "no weight is positive"),
]


class TestDataErrorLeavesNoOut:
    """No command creates --out until its work has succeeded.

    A missing input, data the command cannot use and a diverging fit each
    exit with their code and one stderr line, and leave no directory.
    """

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_missing_input_exits_3_without_out_dir(self, command, synth_dir, model_dir,
                                                   tmp_path, capsys):
        out = tmp_path / "out"
        if command == "fit":
            argv = ["fit", "--data", str(tmp_path / "missing.csv")]
        else:
            argv = ["eval", "--forest", str(tmp_path / "missing.bin"),
                    "--model", str(model_dir / "nam.json"),
                    "--data", str(synth_dir / "dataset.csv")]
        code = run(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def _edited_dataset(synth_dir, tmp_path, edit):
        """A copy of the synthetic dataset.csv whose header and rows (lists of cells)
        have gone through edit."""
        header, *lines = (synth_dir / "dataset.csv").read_text().splitlines()
        header = header.split(",")
        rows = [line.split(",") for line in lines]
        edit(header, rows)
        data = tmp_path / "edited.csv"
        data.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
        return str(data)

    @pytest.mark.parametrize("case, expected, message", _FAILED_WORK,
                             ids=[case for case, _, _ in _FAILED_WORK])
    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    def test_failed_work_exits_without_out_dir(self, case, expected, message, synth_dir,
                                               fitted_dir, model_dir, tmp_path, capsys):
        out = tmp_path / "out"
        forest = str(fitted_dir / "forest.bin")
        data = str(synth_dir / "dataset.csv")
        model = str(model_dir / "nam.json")
        if case == "synth-one-row":
            argv = ["synth", "--n", "1", "--m", "2", "--coef", "1,1"]
        elif case == "explain-diverges":
            argv = ["explain", "--forest", forest, "--data", data,
                    "--learning-rate", "1e300", "--epochs", "3"]
        elif case == "eval-no-admissible-pairs":
            def one_event_last(header, rows):
                last = max(range(len(rows)), key=lambda i: float(rows[i][2]))
                for i, row in enumerate(rows):
                    row[3] = "1" if i == last else "0"
            argv = ["eval", "--forest", forest, "--model", model,
                    "--data", self._edited_dataset(synth_dir, tmp_path, one_event_last)]
        elif case.endswith("-columns-reordered"):
            def swap(header, rows):
                header[0], header[1] = header[1], header[0]
            data = self._edited_dataset(synth_dir, tmp_path, swap)
            argv = (["explain", "--forest", forest, "--data", data, "--epochs", "3"]
                    if case.startswith("explain") else
                    ["eval", "--forest", forest, "--model", model, "--data", data])
        elif case == "eval-model-of-other-features":
            payload = json.loads((model_dir / "nam.json").read_text(encoding="utf-8"))
            payload["feature_names"] = ["a", "b"]
            other = tmp_path / "nam.json"
            other.write_text(json.dumps(payload), encoding="utf-8")
            argv = ["eval", "--forest", forest, "--model", str(other), "--data", data]
        elif case.startswith("fit-"):
            row, column, value = (5, 1, "nan") if case == "fit-nan-feature" else (7, 2, "inf")

            def poison(header, rows):
                rows[row][column] = value
            argv = ["fit", "--data", self._edited_dataset(synth_dir, tmp_path, poison),
                    "--trees", "2"]
        else:  # the only point is the farthest one, so its kernel weight is 0
            argv = ["explain", "--forest", forest, "--data", data, "--mode", "local",
                    "--center-row", "3", "--n-points", "1", "--epochs", "3"]
        code = run(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_error_no_split_can_fix_is_raised_on_the_first_split(
            self, synth_dir, tmp_path, monkeypatch, capsys):
        fits = []
        fit = DatasetSchema._fit  # fit and fit_transform both learn the encoding here
        monkeypatch.setattr(DatasetSchema, "_fit",
                            lambda schema, kept: fits.append(1) or fit(schema, kept))

        def poison(header, rows):
            rows[5][1] = "nan"
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"time": "time", "event": "event",
                                      "features": {"x0": "numeric", "x1": "numeric"}}))
        out = tmp_path / "out"
        code = run(["fit", "--data", self._edited_dataset(synth_dir, tmp_path, poison),
                    "--schema", str(schema), "--trees", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: feature 'x1' holds a non-finite value\n"
        assert len(fits) == 1
        assert not out.exists()


class TestUsageErrorLeavesNoOut:
    """A command that exits 2 on its own usage checks never creates --out."""

    @pytest.mark.parametrize("argv", [
        ["explain", "--hidden", "8,x"],
        ["explain", "--mode", "local"],
        ["explain", "--mode", "local", "--center-row", "1", "--center-values", "0,0"],
        ["explain", "--mode", "local", "--center-values", "0,0,0"],
        ["synth", "--n", "20", "--m", "2", "--coef", "1,zz"],
        ["synth", "--n", "20", "--m", "2"],
    ], ids=["hidden-text", "local-no-center", "two-centers", "center-values-count",
            "coef-text", "synth-no-truth"])
    def test_exit_2_without_out_dir(self, argv, synth_dir, fitted_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = argv + ["--out", str(out)]
        if argv[0] == "explain":
            argv += ["--forest", str(fitted_dir / "forest.bin"),
                     "--data", str(synth_dir / "dataset.csv"), "--epochs", "5"]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestMalformedConfigAndSchema:
    """fit with a broken --config or --schema file: exit 3 and one line on stderr."""

    @pytest.mark.parametrize("flag, content, message", [
        ("--config", b'{"trees": "\xff"}', "not a valid config file"),
        ("--schema", b'{"time": "\xff"}', "not a valid schema file"),
        ("--schema", b'{"time": "time", "event": "event", "features": [1]}',
         "'features' has the wrong type"),
    ], ids=["config-invalid-utf8", "schema-invalid-utf8", "schema-features-list"])
    def test_exit_3(self, flag, content, message, synth_dir, tmp_path, capsys):
        path = tmp_path / "file.json"
        path.write_bytes(content)
        code = run(["fit", "--data", str(synth_dir / "dataset.csv"), "--trees", "2",
                    "--out", str(tmp_path / "out"), flag, str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_config_not_an_object_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = run(["fit", "--data", str(synth_dir / "dataset.csv"),
                    "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert code == 2
        assert "must hold a JSON object" in capsys.readouterr().err
