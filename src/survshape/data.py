"""CSV ingestion, categorical encoding, normalization and splitting.

The schema config is a small JSON file::

    {"time": "time", "event": "cens",
     "features": {"age": "numeric", "horTh": "categorical"}}

Numeric columns are z-scored with statistics learned when the schema is
fitted (population standard deviation); categorical columns become one-hot
level columns named "col=level", except binary ones which collapse to a
single 0/1 column. A fitted schema applied to another file never re-fits,
which is what keeps test-set normalization honest.
"""

from __future__ import annotations

import csv
import warnings
from typing import Sequence

import numpy as np

from .errors import (
    DataError,
    SchemaError,
    TooFewRowsError,
    UnseenLevelError,
    _atomic_open,
    _field,
    _read_json,
    _real,
)
from .survival import KIND_NUMERIC, KIND_ONE_HOT, SurvivalDataset

_TRUE_WORDS = {"1", "1.0", "true", "yes", "y"}
_FALSE_WORDS = {"0", "0.0", "false", "no", "n"}
# Time and event column names of a prepared CSV (export_csv, load_prepared_csv).
_TIME, _EVENT = "time", "event"
# Shuffles a split tries before giving up on finding events on both sides.
_SPLIT_ATTEMPTS = 20


def read_csv_rows(path) -> list[dict]:
    """All rows of a headered CSV as dicts.

    SchemaError for an empty file, a column name the header repeats, or a
    row with more cells than the header (data row numbers count from 0).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            if header is None:
                raise SchemaError(f"{path}: empty file, expected a header row")
            repeated = [name for name in header if header.count(name) > 1]
            if repeated:
                raise SchemaError(f"{path}: column {repeated[0]!r} is repeated in the header")
            rows = list(reader)
            for idx, row in enumerate(rows):
                if None in row:  # DictReader's key for the cells past the header's
                    raise SchemaError(f"{path}: row {idx} has {len(header) + len(row[None])} "
                                      f"cells, the header has {len(header)}")
            return rows
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _parse_float(cell, column, row_idx):
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise SchemaError(
            f"row {row_idx}: cannot parse {column}={cell!r} as a number") from None


def _parse_event(cell, row_idx):
    word = str(cell).strip().lower()
    if word in _TRUE_WORDS:
        return 1
    if word in _FALSE_WORDS:
        return 0
    raise SchemaError(f"row {row_idx}: event value {cell!r} is not 0/1")


class DatasetSchema:
    """Column roles plus the encoders learned at fit time."""

    def __init__(self, time_column: str, event_column: str,
                 feature_specs: Sequence[tuple[str, str]]):
        if not feature_specs:
            raise SchemaError("schema needs at least one feature column")
        for name, kind in feature_specs:
            if kind not in ("numeric", "categorical"):
                raise SchemaError(f"feature {name}: unknown kind {kind!r}")
            if name in (time_column, event_column):
                raise SchemaError(f"{name} cannot be both a feature and time/event")
        self.time_column = time_column
        self.event_column = event_column
        self.feature_specs = tuple((str(n), str(k)) for n, k in feature_specs)
        self.levels: dict[str, tuple[str, ...]] = {}
        self.stats: dict[str, tuple[float, float]] = {}

    @classmethod
    def from_config(cls, source) -> "DatasetSchema":
        """Build from a JSON config file path or an equivalent dict."""
        if isinstance(source, dict):
            return cls.from_dict(source, "schema config")
        return cls.from_dict(_read_json(source, "schema"), f"schema {source}")

    @property
    def fitted(self) -> bool:
        return bool(self.stats) or bool(self.levels)

    def _clean_rows(self, rows):
        """Drop rows with missing time/event (warned); check feature presence."""
        required = [self.time_column, self.event_column] + [n for n, _ in self.feature_specs]
        kept, dropped = [], 0
        for idx, row in enumerate(rows):
            for col in required:
                if col not in row:
                    raise SchemaError(f"column {col!r} missing from the file")
            if _is_missing(row[self.time_column]) or _is_missing(row[self.event_column]):
                dropped += 1
                continue
            for name, _ in self.feature_specs:
                if _is_missing(row[name]):
                    raise SchemaError(f"row {idx}: missing value for feature {name!r}")
            kept.append((idx, row))
        if dropped:
            warnings.warn(f"dropped {dropped} rows with missing time/event",
                          stacklevel=3)
        if not kept:
            raise TooFewRowsError("no usable rows after dropping missing time/event")
        return kept

    def _fit(self, kept) -> "DatasetSchema":
        """Learn categorical levels and numeric standardization from these cleaned rows."""
        for name, kind in self.feature_specs:
            if kind == "categorical":
                self.levels[name] = tuple(sorted({str(row[name]).strip()
                                                  for _, row in kept}))
            else:
                values = np.array([_parse_float(row[name], name, idx)
                                   for idx, row in kept])
                std = float(values.std())
                self.stats[name] = (float(values.mean()), std if std > 0 else 1.0)
        return self

    def transform(self, rows) -> SurvivalDataset:
        """Encode rows with the fitted schema; unseen levels are an error."""
        if not self.fitted:
            raise SchemaError("fit the schema before transforming")
        return self._encode(self._clean_rows(rows))

    def _encode(self, kept) -> SurvivalDataset:
        times = np.array([_parse_float(row[self.time_column], self.time_column, idx)
                          for idx, row in kept])
        events = np.array([_parse_event(row[self.event_column], idx)
                           for idx, row in kept], dtype=int)
        encoded = []  # (column, name, kind) per encoded column
        for name, kind in self.feature_specs:
            if kind == "numeric":
                mean, std = self.stats[name]
                raw = np.array([_parse_float(row[name], name, idx) for idx, row in kept])
                encoded.append(((raw - mean) / std, name, KIND_NUMERIC))
                continue
            levels = self.levels[name]
            seen = [str(row[name]).strip() for _, row in kept]
            for idx, value in zip((i for i, _ in kept), seen):
                if value not in levels:
                    raise UnseenLevelError(
                        f"row {idx}: unseen level {value!r} for feature {name!r}")
            # A binary feature collapses to one 0/1 column, for its second level.
            for level in levels[1:] if len(levels) == 2 else levels:
                encoded.append((np.array([1.0 if v == level else 0.0 for v in seen]),
                                f"{name}={level}", KIND_ONE_HOT))
        columns, names, kinds = zip(*encoded)
        return SurvivalDataset(np.column_stack(columns), times, events, names, kinds)

    def fit_transform(self, rows) -> SurvivalDataset:
        """Learn the encoding from these rows and encode them, cleaned (and warned about) once."""
        kept = self._clean_rows(rows)
        return self._fit(kept)._encode(kept)

    def to_dict(self) -> dict:
        return {
            "time": self.time_column,
            "event": self.event_column,
            "features": {n: k for n, k in self.feature_specs},
            "levels": {n: list(v) for n, v in self.levels.items()},
            "stats": {n: list(v) for n, v in self.stats.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict, where: str = "fitted schema") -> "DatasetSchema":
        """Inverse of to_dict; DataError for a missing or ill-typed key.

        `where` names the payload in the message.
        """
        if not isinstance(payload, dict):
            raise SchemaError(f"{where} must be a JSON object")
        schema = cls(_field(payload, "time", str, where), _field(payload, "event", str, where),
                     list(_field(payload, "features", dict, where).items()))
        levels = payload.get("levels", {})
        stats = payload.get("stats", {})
        if not isinstance(levels, dict) or not all(isinstance(v, list)
                                                   for v in levels.values()):
            raise SchemaError(f"{where}'s 'levels' must map features to lists")
        if not isinstance(stats, dict) or not all(
                isinstance(v, list) and len(v) == 2
                and all(isinstance(s, (int, float)) for s in v) for v in stats.values()):
            raise SchemaError(f"{where}'s 'stats' must map features to [mean, std] pairs")
        schema.levels = {n: tuple(v) for n, v in levels.items()}
        schema.stats = {n: (float(v[0]), float(v[1])) for n, v in stats.items()}
        if schema.fitted:
            for name, kind in schema.feature_specs:
                if name not in (schema.stats if kind == "numeric" else schema.levels):
                    raise SchemaError(f"{where} has no fitted encoding for {name!r}")
        return schema


def _split_indices(n: int, test_fraction: float, seed: int):
    """Candidate (train, test) row indices of n rows, one seeded shuffle each.

    The test side takes round(n * test_fraction) rows, clamped to 1..n-1;
    attempt a shuffles with default_rng([seed, a]). A side of fewer than
    2 rows can never hold a dataset, so it is a DataError at once.
    """
    if not 0.0 < _real(test_fraction, "test_fraction") < 1.0:
        raise DataError("test_fraction must lie strictly between 0 and 1")
    n_test = min(max(int(round(n * test_fraction)), 1), n - 1)
    if min(n_test, n - n_test) < 2:
        raise DataError(f"a split of {n} rows at test fraction {test_fraction} gives "
                        f"{n - n_test} train and {n_test} test rows; each side needs "
                        f"at least 2")
    for attempt in range(_SPLIT_ATTEMPTS):
        order = np.random.default_rng([seed, attempt]).permutation(n)
        yield order[n_test:], order[:n_test]


def train_test_split(dataset: SurvivalDataset, test_fraction: float, seed: int = 0):
    """Seeded shuffle into (train, test); both parts must keep >= 1 event.

    Event-starved shuffles are retried with fresh derived seeds a bounded
    number of times before giving up with a DataError.
    """
    for train_idx, test_idx in _split_indices(dataset.n, test_fraction, seed):
        try:
            return dataset.subset(train_idx), dataset.subset(test_idx)
        except TooFewRowsError:
            continue
    raise DataError(f"could not find a split with events on both sides "
                    f"in {_SPLIT_ATTEMPTS} tries")


def export_csv(dataset: SurvivalDataset, path) -> None:
    """Write the prepared matrix as CSV; floats use repr so reload is exact."""
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [_TIME, _EVENT])
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(repr(float(dataset.times[i])))
            row.append(str(int(dataset.events[i])))
            writer.writerow(row)


def load_prepared_csv(path) -> SurvivalDataset:
    """Read a CSV written by export_csv (or any already-encoded file) verbatim.

    Every non-time/event column is a feature taken as-is, no re-fitting;
    names containing '=' are treated as one-hot level columns.
    """
    rows = read_csv_rows(path)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    header = list(rows[0].keys())
    for col in (_TIME, _EVENT):
        if col not in header:
            raise SchemaError(f"column {col!r} missing from {path}")
    feature_names = [c for c in header if c not in (_TIME, _EVENT)]
    if not feature_names:
        raise SchemaError(f"{path}: no feature columns")
    times = np.array([_parse_float(r[_TIME], _TIME, i)
                      for i, r in enumerate(rows)])
    events = np.array([_parse_event(r[_EVENT], i) for i, r in enumerate(rows)],
                      dtype=int)
    features = np.column_stack([
        np.array([_parse_float(r[name], name, i) for i, r in enumerate(rows)])
        for name in feature_names])
    kinds = tuple(KIND_ONE_HOT if "=" in name else KIND_NUMERIC
                  for name in feature_names)
    return SurvivalDataset(features, times, events, tuple(feature_names), kinds)


def _is_missing(cell) -> bool:
    return cell is None or str(cell).strip() == ""


def load_and_split_csv(path, schema: DatasetSchema, test_fraction: float,
                       seed: int = 0):
    """Row-level split, then fit the schema on the training rows only.

    Returns (train, test) and fills the passed schema's `levels` and `stats`
    with the encoding learned on the training rows, so the caller can store
    it (cmd_fit writes it into forest.bin); normalization statistics never
    see the test rows.
    The rows are split as train_test_split splits a dataset of that size.
    Another shuffle is tried only when a part has no event or too few rows
    once rows missing time/event are dropped, or the test part holds a level
    the training part lacks; any other error is raised at once.
    """
    rows = read_csv_rows(path)
    if len(rows) < 2:
        raise SchemaError(f"{path}: need at least 2 data rows")
    last_error = None
    for train_idx, test_idx in _split_indices(len(rows), test_fraction, seed):
        trial = DatasetSchema(schema.time_column, schema.event_column,
                              schema.feature_specs)
        try:
            train = trial.fit_transform([rows[i] for i in train_idx])
            test = trial.transform([rows[i] for i in test_idx])
        except (TooFewRowsError, UnseenLevelError) as exc:
            last_error = exc
            continue
        schema.levels = trial.levels
        schema.stats = trial.stats
        return train, test
    raise DataError(f"could not split {path} into usable train/test parts: {last_error}")
