"""Labeled segment data: CSV ingestion, screening, standardization, splitting.

A dataset is a flat table of feature vectors (segments), each tagged with a
class id in 1..r and a record id. All segments of one record share one
class. Arrays are frozen after construction, so datasets can be shared
freely across threads.
"""

import csv
import io
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import EmptyInputError, ParameterError, ParseError, SchemaError

RESERVED_COLUMNS = ("class", "record")
_CSV_CHUNK_ROWS = 64


class Example(NamedTuple):
    features: np.ndarray
    class_id: int
    record_id: int


@dataclass(frozen=True)
class Dataset:
    """Immutable table of labeled segments.

    X is (n, m) float64; y holds class ids 1..r; records holds the record
    id of each row. feature_names has one entry per column and class_labels
    one entry per class (the original label before remapping to 1..r).
    """

    X: np.ndarray
    y: np.ndarray
    records: np.ndarray
    feature_names: tuple[str, ...]
    class_labels: tuple[str, ...]

    def __post_init__(self):
        # Copy on construction so freezing never mutates a caller's array.
        X = np.array(self.X, dtype=np.float64, order="C")
        y = np.array(self.y, dtype=np.int64)
        records = np.array(self.records, dtype=np.int64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_labels", tuple(self.class_labels))

        if X.ndim != 2:
            raise SchemaError("X must be 2-dimensional")
        n, m = X.shape
        r = len(self.class_labels)
        if m < 1:
            raise SchemaError("at least one feature column is required (m >= 1)")
        if r < 2:
            raise SchemaError(f"r >= 2 required, got r={r}")
        if len(self.feature_names) != m:
            raise SchemaError(
                f"{len(self.feature_names)} feature names for {m} columns"
            )
        if y.shape != (n,) or records.shape != (n,):
            raise SchemaError("y and records must have one entry per row of X")
        if n and not np.all(np.isfinite(X)):
            raise SchemaError("all feature values must be finite")
        if n and (y.min() < 1 or y.max() > r):
            raise SchemaError(f"class ids must lie in 1..{r}")
        if n and records.min() < 1:
            raise SchemaError("record ids must be >= 1")
        for rec in np.unique(records):
            classes = np.unique(y[records == rec])
            if classes.size > 1:
                raise SchemaError(
                    f"record {rec} appears in classes {classes.tolist()}; "
                    "a record must belong to exactly one class"
                )
        X.flags.writeable = False
        y.flags.writeable = False
        records.flags.writeable = False

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def r(self) -> int:
        return len(self.class_labels)

    def __len__(self) -> int:
        return self.X.shape[0]

    def example(self, i: int) -> Example:
        return Example(self.X[i], int(self.y[i]), int(self.records[i]))

    def __iter__(self) -> Iterator[Example]:
        return (self.example(i) for i in range(len(self)))

    def record_ids(self) -> np.ndarray:
        return np.unique(self.records)

    def subset(self, mask: np.ndarray) -> "Dataset":
        """New dataset keeping rows where mask is True; metadata is shared."""
        return Dataset(
            self.X[mask], self.y[mask], self.records[mask],
            self.feature_names, self.class_labels,
        )


@dataclass(frozen=True)
class ScreeningReport:
    """Summary of one outlier-screening pass."""

    removed_count: int
    total_count: int
    rate: float
    per_record_rates: dict[int, float]
    skipped_records: tuple[int, ...] = ()


@dataclass(frozen=True)
class Standardization:
    """Per-feature shift and scale; invertible within 1e-12 relative."""

    means: np.ndarray
    stds: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.means) / self.stds

    def invert(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) * self.stds + self.means


def _parse_labels(raw: list[str]) -> list[str]:
    """Distinct class labels in deterministic order: numeric when possible."""
    distinct = sorted(set(raw))
    try:
        distinct.sort(key=float)
    except ValueError:
        pass
    return distinct


def load_csv(path) -> Dataset:
    """Read the standard CSV schema: feature columns plus `class` and `record`.

    Class labels are remapped to contiguous ids 1..r (sorted numerically
    when all labels are numeric); the original labels are preserved in
    class_labels. Row order is preserved.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _load_csv_stream(fh, str(path))


def loads_csv(text: str) -> Dataset:
    """load_csv over an in-memory string (used by tests)."""
    return _load_csv_stream(io.StringIO(text), "<string>")


def _load_csv_stream(fh, name: str) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"{name}: file is empty") from None
    header = [h.strip() for h in header]
    for col in RESERVED_COLUMNS:
        if header.count(col) == 0:
            raise SchemaError(f"{name}: missing mandatory column '{col}'")
        if header.count(col) > 1:
            raise SchemaError(f"{name}: duplicate column '{col}'")
    class_idx = header.index("class")
    record_idx = header.index("record")
    feature_idx = [i for i in range(len(header)) if i not in (class_idx, record_idx)]
    feature_names = [header[i] for i in feature_idx]
    if not feature_names:
        raise SchemaError(f"{name}: no feature columns found")
    if len(set(feature_names)) != len(feature_names):
        raise SchemaError(f"{name}: duplicate feature column names")

    rows: list[list[str]] = []
    class_raw: list[str] = []
    record_raw: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, found {len(row)}", line=lineno
            )
        rows.append([row[i] for i in feature_idx])
        class_raw.append(row[class_idx].strip())
        record_raw.append(row[record_idx].strip())
    if not rows:
        raise EmptyInputError(f"{name}: no data rows")

    try:
        X = np.asarray(rows, dtype=np.float64)
    except ValueError:
        X = _parse_cells_slow(rows, feature_names)
    if not np.all(np.isfinite(X)):
        bad = np.argwhere(~np.isfinite(X))[0]
        raise ParseError(
            f"non-finite value in column '{feature_names[bad[1]]}'",
            line=int(bad[0]) + 2,
        )

    labels = _parse_labels(class_raw)
    if len(labels) < 2:
        raise SchemaError(f"{name}: r >= 2 required, found {len(labels)} class(es)")
    label_to_id = {lab: k + 1 for k, lab in enumerate(labels)}
    y = np.asarray([label_to_id[c] for c in class_raw], dtype=np.int64)

    records = np.empty(len(record_raw), dtype=np.int64)
    for i, rec in enumerate(record_raw):
        try:
            records[i] = int(rec)
        except ValueError:
            raise ParseError(f"record id '{rec}' is not an integer", line=i + 2) from None
        if records[i] < 1:
            raise ParseError(f"record id must be >= 1, got {rec}", line=i + 2)

    return Dataset(X, y, records, tuple(feature_names), tuple(labels))


def _parse_cells_slow(rows: list[list[str]], feature_names: list[str]) -> np.ndarray:
    """Per-cell fallback that pins a parse failure to its row and column."""
    X = np.empty((len(rows), len(feature_names)))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                X[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric value '{cell}' in column '{feature_names[j]}'",
                    line=i + 2,
                ) from None
    return X


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset back out in the standard schema (full float precision)."""
    # csv formats a float cell with repr, the shortest round-trip form.
    # tolist() hands it Python floats a few rows at a time: larger chunks
    # were no faster and raised peak memory by the chunk's Python objects.
    labels = ds.class_labels
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["class", "record"])
        for s in range(0, len(ds), _CSV_CHUNK_ROWS):
            rows = ds.X[s : s + _CSV_CHUNK_ROWS].tolist()
            ys = ds.y[s : s + _CSV_CHUNK_ROWS].tolist()
            recs = ds.records[s : s + _CSV_CHUNK_ROWS].tolist()
            for row, y, rec in zip(rows, ys, recs):
                row.append(labels[y - 1])
                row.append(rec)
            writer.writerows(rows)


def screen_outliers(ds: Dataset, k: float = 3.0) -> tuple[Dataset, ScreeningReport]:
    """Drop segments deviating more than k record-standard-deviations.

    The mean and standard deviation are computed per record and per feature
    over that record's segments; a segment is removed when ANY feature
    deviates from its record mean by more than k times the record's std for
    that feature. Features with zero record std never trigger removal.
    Records with fewer than 2 segments are passed through unscreened and
    listed in the report's skipped_records.
    """
    if not (isinstance(k, numbers.Real) and math.isfinite(k) and k > 0):
        raise ParameterError(f"screening threshold k must be a finite number > 0, got {k}")
    if len(ds) == 0:
        raise EmptyInputError("cannot screen an empty dataset")

    keep = np.ones(len(ds), dtype=bool)
    per_record_rates: dict[int, float] = {}
    skipped: list[int] = []
    for rec in ds.record_ids():
        mask = ds.records == rec
        n_rec = int(mask.sum())
        if n_rec < 2:
            skipped.append(int(rec))
            per_record_rates[int(rec)] = 0.0
            continue
        block = ds.X[mask]
        mu = block.mean(axis=0)
        sd = block.std(axis=0)
        over = (np.abs(block - mu) > k * sd) & (sd > 0.0)
        flagged = over.any(axis=1)
        keep[np.flatnonzero(mask)[flagged]] = False
        per_record_rates[int(rec)] = float(flagged.sum()) / n_rec

    removed = int(len(ds) - keep.sum())
    report = ScreeningReport(
        removed_count=removed,
        total_count=len(ds),
        rate=removed / len(ds),
        per_record_rates=per_record_rates,
        skipped_records=tuple(skipped),
    )
    return ds.subset(keep), report


def standardize(ds: Dataset) -> tuple[Dataset, Standardization]:
    """Shift each feature to mean 0 and scale to std 1 over the dataset.

    Features with std below 1e-12 are only shifted; their std is recorded
    as 1 so the transform stays invertible.
    """
    if len(ds) == 0:
        raise EmptyInputError("cannot standardize an empty dataset")
    means = ds.X.mean(axis=0)
    stds = ds.X.std(axis=0)
    stds = np.where(stds < 1e-12, 1.0, stds)
    st = Standardization(means=means, stds=stds)
    out = Dataset(st.apply(ds.X), ds.y, ds.records, ds.feature_names, ds.class_labels)
    return out, st


def split_by_record(
    ds: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Record-granular train/test split, stratified by class.

    Within each class the records are shuffled with the seeded generator
    and roughly test_fraction of them go to the test split (at least one
    per side whenever the class has two or more records). A class with a
    single record contributes it to training and triggers a warning.
    No record straddles the boundary.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ParameterError(
            f"test_fraction must be in (0, 1), got {test_fraction}"
        )
    rng = np.random.default_rng([seed, 101])
    test_records: set[int] = set()
    for class_id in range(1, ds.r + 1):
        recs = np.unique(ds.records[ds.y == class_id])
        if recs.size == 0:
            continue
        if recs.size == 1:
            warnings.warn(
                f"class {class_id} has a single record; assigning it to training",
                stacklevel=2,
            )
            continue
        recs = recs[rng.permutation(recs.size)]
        n_test = int(round(test_fraction * recs.size))
        n_test = min(max(n_test, 1), recs.size - 1)
        test_records.update(int(x) for x in recs[:n_test])

    in_test = np.isin(ds.records, sorted(test_records))
    return ds.subset(~in_test), ds.subset(in_test)
