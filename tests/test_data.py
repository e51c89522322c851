import csv
import warnings

import numpy as np
import pytest

from survshape.data import (
    DatasetSchema,
    export_csv,
    load_and_split_csv,
    load_prepared_csv,
    read_csv_rows,
    train_test_split,
)
from survshape.errors import DataError, SchemaError, TooFewRowsError, UnseenLevelError
from survshape.survival import KIND_NUMERIC, KIND_ONE_HOT, SurvivalDataset
from survshape.synthetic import SyntheticSpec, generate_cox_data


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


BASIC_SCHEMA = {"time": "time", "event": "event", "features": {"age": "numeric"}}


class TestLoadCsv:
    def test_numeric_standardization(self, tmp_path):
        p = write(tmp_path / "d.csv", "age,time,event\n1,5,1\n2,6,1\n3,7,0\n")
        ds = DatasetSchema.from_config(BASIC_SCHEMA).fit_transform(read_csv_rows(p))
        assert ds.features[:, 0] == pytest.approx([-1.224745, 0.0, 1.224745], abs=1e-6)
        assert np.array_equal(ds.times, [5.0, 6.0, 7.0])
        assert np.array_equal(ds.events, [1, 1, 0])

    def test_all_censored_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "age,time,event\n1,5,0\n2,6,0\n")
        with pytest.raises(DataError):
            DatasetSchema.from_config(BASIC_SCHEMA).fit_transform(read_csv_rows(p))

    def test_two_level_categorical_single_column(self, tmp_path):
        cfg = {"time": "t", "event": "e", "features": {"grp": "categorical"}}
        p = write(tmp_path / "d.csv", "grp,t,e\nA,1,1\nB,2,1\nA,3,0\n")
        ds = DatasetSchema.from_config(cfg).fit_transform(read_csv_rows(p))
        assert ds.feature_names == ("grp=B",)
        assert ds.feature_kinds == (KIND_ONE_HOT,)
        assert np.array_equal(ds.features[:, 0], [0.0, 1.0, 0.0])

    def test_multi_level_categorical_one_hot(self, tmp_path):
        cfg = {"time": "t", "event": "e", "features": {"cell": "categorical"}}
        p = write(tmp_path / "d.csv", "cell,t,e\nsquamous,1,1\nsmall,2,1\nadeno,3,0\n")
        ds = DatasetSchema.from_config(cfg).fit_transform(read_csv_rows(p))
        assert ds.feature_names == ("cell=adeno", "cell=small", "cell=squamous")
        assert np.array_equal(ds.features[0], [0.0, 0.0, 1.0])

    def test_missing_column_reported(self, tmp_path):
        p = write(tmp_path / "d.csv", "age,time\n1,5\n")
        with pytest.raises(SchemaError, match="event"):
            DatasetSchema.from_config(BASIC_SCHEMA).fit_transform(read_csv_rows(p))

    def test_bad_cell_reports_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "age,time,event\n1,5,1\nxx,6,1\n")
        with pytest.raises(SchemaError, match="row 1"):
            DatasetSchema.from_config(BASIC_SCHEMA).fit_transform(read_csv_rows(p))

    def test_missing_time_row_dropped_with_warning(self, tmp_path):
        p = write(tmp_path / "d.csv", "age,time,event\n1,5,1\n2,,1\n3,7,1\n")
        with pytest.warns(UserWarning, match="dropped 1 rows"):
            ds = DatasetSchema.from_config(BASIC_SCHEMA).fit_transform(read_csv_rows(p))
        assert ds.n == 2

    def test_fit_transform_warns_once_about_dropped_rows(self, tmp_path):
        p = write(tmp_path / "d.csv", "age,time,event\n1,5,1\n2,,1\n3,7,1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = DatasetSchema.from_config(BASIC_SCHEMA).fit_transform(read_csv_rows(p))
        assert [str(w.message) for w in caught] == ["dropped 1 rows with missing time/event"]
        assert ds.n == 2

    def test_missing_feature_is_error(self, tmp_path):
        p = write(tmp_path / "d.csv", "age,time,event\n1,5,1\n,6,1\n")
        with pytest.raises(SchemaError, match="missing value for feature"):
            DatasetSchema.from_config(BASIC_SCHEMA).fit_transform(read_csv_rows(p))

    def test_fitted_schema_does_not_refit(self, tmp_path):
        train = write(tmp_path / "train.csv", "age,time,event\n1,5,1\n2,6,1\n3,7,0\n")
        test = write(tmp_path / "test.csv", "age,time,event\n10,5,1\n20,6,1\n")
        schema = DatasetSchema.from_config(BASIC_SCHEMA)
        schema.fit_transform(read_csv_rows(train))
        stats_before = dict(schema.stats)
        ds_test = schema.transform(read_csv_rows(test))
        assert schema.stats == stats_before
        mean, std = schema.stats["age"]
        assert ds_test.features[:, 0] == pytest.approx([(10 - mean) / std,
                                                        (20 - mean) / std])

    def test_unseen_level_rejected(self, tmp_path):
        cfg = {"time": "t", "event": "e", "features": {"grp": "categorical"}}
        train = write(tmp_path / "train.csv", "grp,t,e\nA,1,1\nB,2,1\n")
        test = write(tmp_path / "test.csv", "grp,t,e\nC,1,1\nA,4,1\n")
        schema = DatasetSchema.from_config(cfg)
        schema.fit_transform(read_csv_rows(train))
        with pytest.raises(SchemaError, match="unseen level"):
            schema.transform(read_csv_rows(test))

    def test_schema_dict_roundtrip(self, tmp_path):
        cfg = {"time": "t", "event": "e",
               "features": {"age": "numeric", "grp": "categorical"}}
        p = write(tmp_path / "d.csv", "age,grp,t,e\n1,A,1,1\n2,B,2,1\n3,A,3,0\n")
        schema = DatasetSchema.from_config(cfg)
        ds = schema.fit_transform(read_csv_rows(p))
        clone = DatasetSchema.from_dict(schema.to_dict())
        ds2 = clone.transform([
            {"age": "1", "grp": "A", "t": "1", "e": "1"},
            {"age": "2", "grp": "B", "t": "2", "e": "1"},
            {"age": "3", "grp": "A", "t": "3", "e": "0"},
        ])
        assert np.array_equal(ds.features, ds2.features)

    @pytest.mark.parametrize("change, message", [
        ({"time": None}, "has no 'time'"),
        ({"features": ["age"]}, "'features' has the wrong type"),
        ({"stats": {"age": [0.0]}}, "'stats' must map features to [mean, std] pairs"),
        ({"levels": {"grp": "A"}}, "'levels' must map features to lists"),
        ({"levels": {}}, "no fitted encoding for 'grp'"),
    ])
    def test_schema_dict_malformed(self, change, message):
        payload = {"time": "t", "event": "e",
                   "features": {"age": "numeric", "grp": "categorical"},
                   "levels": {"grp": ["A", "B"]}, "stats": {"age": [2.0, 1.0]}}
        payload.update(change)
        payload = {k: v for k, v in payload.items() if v is not None}
        with pytest.raises(DataError) as info:
            DatasetSchema.from_dict(payload)
        assert message in str(info.value)


class TestTrainTestSplit:
    def make(self, n=100, seed=0):
        spec = SyntheticSpec(n=n, m=2, coef=(1.0, 0.0), censoring_rate=0.2, seed=seed)
        ds, _ = generate_cox_data(spec)
        return ds

    def test_sizes(self):
        train, test = train_test_split(self.make(), 0.25, seed=1)
        assert (train.n, test.n) == (75, 25)

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf")])
    def test_non_finite_fraction_refused(self, fraction):
        with pytest.raises(DataError, match=f"^test_fraction must be finite, got {fraction!r}$"):
            train_test_split(self.make(), fraction)

    def test_deterministic(self):
        ds = self.make()
        t1 = train_test_split(ds, 0.3, seed=2)
        t2 = train_test_split(ds, 0.3, seed=2)
        assert np.array_equal(t1[0].features, t2[0].features)
        assert np.array_equal(t1[1].times, t2[1].times)

    def test_partition_is_original_multiset(self):
        ds = self.make(n=40)
        train, test = train_test_split(ds, 0.25, seed=3)
        merged = np.sort(np.concatenate([train.times, test.times]))
        assert np.array_equal(merged, np.sort(ds.times))

    def test_event_starved_retries_then_fails(self):
        # 2 samples, one event: the single-event side always starves one part
        ds = SurvivalDataset.from_arrays(np.array([[0.0], [1.0]]),
                                         np.array([1.0, 2.0]), np.array([1, 0]))
        with pytest.raises(DataError):
            train_test_split(ds, 0.5, seed=0)

    def test_one_row_side_names_both_sizes(self, tmp_path):
        ds = SurvivalDataset.from_arrays(np.arange(5.0)[:, None], np.arange(1.0, 6.0),
                                         np.ones(5, dtype=int))
        with pytest.raises(DataError, match="4 train and 1 test rows"):
            train_test_split(ds, 0.25, seed=0)
        path = tmp_path / "d.csv"
        export_csv(ds, path)
        schema = DatasetSchema.from_config({"time": "time", "event": "event",
                                            "features": {"x0": "numeric"}})
        with pytest.raises(DataError, match="4 train and 1 test rows"):
            load_and_split_csv(path, schema, 0.25, seed=0)

    def test_single_event_exhausts_the_retries(self):
        # 6 rows, one event, 3 per side: every shuffle starves one side
        ds = SurvivalDataset.from_arrays(np.arange(6.0)[:, None], np.arange(1.0, 7.0),
                                         np.array([1, 0, 0, 0, 0, 0]))
        with pytest.raises(DataError, match="could not find a split"):
            train_test_split(ds, 0.5, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            train_test_split(self.make(), 1.5)


class TestExportRoundtrip:
    def test_roundtrip_identity(self, tmp_path):
        spec = SyntheticSpec(n=30, m=3, coef=(1.0, 0.5, 0.0), censoring_rate=0.3, seed=4)
        ds, _ = generate_cox_data(spec)
        path = tmp_path / "out.csv"
        export_csv(ds, path)
        back = load_prepared_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.times, ds.times)
        assert np.array_equal(back.events, ds.events)
        assert back.feature_names == ds.feature_names
        assert back.feature_kinds == ds.feature_kinds

    def test_one_hot_names_preserved(self, tmp_path):
        ds = SurvivalDataset(np.array([[1.0, 0.0], [0.5, 1.0]]),
                             np.array([1.0, 2.0]), np.array([1, 1]),
                             ("age", "grp=B"), (KIND_NUMERIC, KIND_ONE_HOT))
        path = tmp_path / "o.csv"
        export_csv(ds, path)
        back = load_prepared_csv(path)
        assert back.feature_kinds == (KIND_NUMERIC, KIND_ONE_HOT)

    def test_write_failing_midway_leaves_no_partial_or_temp_file(self, tmp_path, monkeypatch):
        ds, _ = generate_cox_data(SyntheticSpec(n=30, m=2, coef=(1.0, 0.5), seed=4))
        real_writer = csv.writer

        class FailsOnThirdRow:
            def __init__(self, fh):
                self.inner, self.rows = real_writer(fh), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 3:
                    raise RuntimeError("write failed")
                self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", FailsOnThirdRow)
        fresh, old = tmp_path / "fresh.csv", write(tmp_path / "old.csv", "old\n")
        for path in (fresh, old):
            with pytest.raises(RuntimeError, match="write failed"):
                export_csv(ds, path)
        assert old.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]


class TestLoadAndSplit:
    def test_stats_come_from_train_only(self, tmp_path):
        rows = ["age,time,event"]
        rng = np.random.default_rng(5)
        for i in range(40):
            rows.append(f"{rng.uniform(0, 50):.3f},{rng.uniform(1, 9):.3f},{int(rng.uniform() < 0.8)}")
        p = write(tmp_path / "d.csv", "\n".join(rows) + "\n")
        schema = DatasetSchema.from_config(BASIC_SCHEMA)
        train, test = load_and_split_csv(p, schema, 0.25, seed=6)
        assert train.n == 30 and test.n == 10
        # stats of the standardized training column are exactly (0, 1)
        assert train.features[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert train.features[:, 0].std() == pytest.approx(1.0, abs=1e-12)
        # test column generally is notexactly standardized
        assert abs(test.features[:, 0].mean()) > 1e-6

    def test_level_missing_from_train_is_retried(self, tmp_path, monkeypatch):
        # One row holds the only "C"; the first shuffle puts it on the test side.
        n = 40
        rare = np.random.default_rng([3, 0]).permutation(n)[0]
        lines = ["grp,time,event"] + [
            f"{'C' if i == rare else 'AB'[i % 2]},{i + 1},1" for i in range(n)]
        path = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        schema = DatasetSchema.from_config({"time": "time", "event": "event",
                                            "features": {"grp": "categorical"}})
        unseen = []
        transform = DatasetSchema.transform

        def recording_transform(trial, rows):
            try:
                return transform(trial, rows)
            except UnseenLevelError as exc:
                unseen.append(str(exc))
                raise
        monkeypatch.setattr(DatasetSchema, "transform", recording_transform)
        train, test = load_and_split_csv(path, schema, 0.25, seed=3)
        assert unseen[0] == "row 0: unseen level 'C' for feature 'grp'"
        assert schema.levels["grp"] == ("A", "B", "C")
        assert (train.n, test.n) == (30, 10)

    @pytest.mark.parametrize("kept_in_test, message", [
        (0, "no usable rows after dropping missing time/event"),
        (1, "a survival dataset needs at least 2 samples"),
    ])
    def test_part_emptied_by_dropped_rows_is_retried(self, kept_in_test, message, tmp_path,
                                                     monkeypatch):
        # 30 of 40 rows lack a time. The first shuffle's test part keeps
        # kept_in_test of the 10 usable rows; the others are on its train side.
        n = 40
        order = np.random.default_rng([3, 0]).permutation(n)
        usable = set(order[10:20 - kept_in_test]) | set(order[:kept_in_test])
        lines = ["age,time,event"] + [
            f"{i},{i + 1 if i in usable else ''},1" for i in range(n)]
        path = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        schema = DatasetSchema.from_config(BASIC_SCHEMA)
        too_few = []
        transform = DatasetSchema.transform

        def recording_transform(trial, rows):
            try:
                return transform(trial, rows)
            except TooFewRowsError as exc:
                too_few.append(str(exc))
                raise
        monkeypatch.setattr(DatasetSchema, "transform", recording_transform)
        with pytest.warns(UserWarning, match="rows with missing time/event"):
            train, test = load_and_split_csv(path, schema, 0.25, seed=3)
        assert too_few[0] == message
        assert train.n + test.n == 10 and min(train.n, test.n) >= 2

    def test_same_rows_as_train_test_split(self, tmp_path):
        spec = SyntheticSpec(n=60, m=2, coef=(1.0, 0.0), censoring_rate=0.3, seed=8)
        ds, _ = generate_cox_data(spec)
        path = tmp_path / "prepared.csv"
        export_csv(ds, path)
        schema = DatasetSchema.from_config({"time": "time", "event": "event",
                                            "features": {"x0": "numeric", "x1": "numeric"}})
        by_csv = load_and_split_csv(path, schema, 0.3, seed=4)
        by_dataset = train_test_split(load_prepared_csv(path), 0.3, seed=4)
        for a, b in zip(by_csv, by_dataset):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.events, b.events)
