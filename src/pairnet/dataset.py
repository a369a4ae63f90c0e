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

from . import _kernels
from .errors import EmptyInputError, ParameterError, ParseError, SchemaError, check_seed, open_utf8

RESERVED_COLUMNS = ("class", "record")
_CSV_CHUNK_ROWS = 64
# The fast CSV path reads class and record cells into this many bytes; a
# cell that fills them may have been cut short and goes to the csv path.
_TEXT_CELL_WIDTH = 32
_INT64_MAX = int(np.iinfo(np.int64).max)
# The parser that read the file load_csv returned last: "scanner" (the
# compiled one), "loadtxt" or "csv"; None before the first.
CSV_PARSER = None
# The writer of the rows of the file save_csv wrote last: "compiled" or
# "python"; None before the first.
CSV_WRITER = None


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
        # Sorted by record, then class: a record whose class changes is
        # mixed, and the first such is the smallest.
        order = np.lexsort((y, records))
        by_record, by_class = records[order], y[order]
        mixed = np.flatnonzero((by_record[1:] == by_record[:-1])
                               & (by_class[1:] != by_class[:-1]))
        if mixed.size:
            rec = by_record[mixed[0]]
            classes = _distinct(by_class[by_record == rec])
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

    def record_ids(self) -> np.ndarray:
        return _distinct(self.records)

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
        out = np.asarray(X, dtype=np.float64) - self.means
        out /= self.stds
        return out

    def invert(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) * self.stds + self.means


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, as np.unique(a) gives them.
    On numpy 2.x the first np.unique call imports numpy.ma, which costs a
    command 15-17 ms; sorting does not."""
    a = np.sort(a)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _class_ids(raw) -> tuple[list[str], np.ndarray]:
    """The distinct class labels in deterministic order (numeric when every
    label is a number) and the class id in 1..r of each label in raw."""
    distinct = sorted(set(raw))
    try:
        distinct.sort(key=float)
    except ValueError:
        pass
    rank = {lab: k + 1 for k, lab in enumerate(distinct)}
    return distinct, np.array([rank[lab] for lab in raw], dtype=np.int64)


def _loadtxt(lines, **kw) -> np.ndarray | None:
    """np.loadtxt over lines, or None where it raises ValueError, which
    leaves the input to the caller's line-by-line parser."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(lines, comments=None, **kw)
    except ValueError:
        return None


def load_csv(path) -> Dataset:
    """Read the standard CSV schema: feature columns plus `class` and `record`.

    Class labels are remapped to contiguous ids 1..r (sorted numerically
    when all labels are numeric); the original labels are preserved in
    class_labels. Row order is preserved. The file is UTF-8, with an
    optional byte-order mark. The body is parsed by the compiled scanner
    (``_kernels.scan_csv``), or where it is not loaded or refuses the file,
    in one ``np.loadtxt`` call; when neither takes a file or fails on it,
    the csv module parses the file again and returns the same Dataset or
    names the bad line.
    """
    with open_utf8(path, newline="") as fh:
        return _load_csv_stream(fh, str(path))


def loads_csv(text: str) -> Dataset:
    """load_csv over an in-memory string (used by tests)."""
    return _load_csv_stream(io.StringIO(text, newline=""), "<string>")


def _load_csv_stream(fh, name: str) -> Dataset:
    global CSV_PARSER
    # The csv path reads the text again from the start, which a pipe cannot.
    if fh.seekable():
        ds = _load_csv_fast(fh, name)
        if ds is not None:
            return ds
        fh.seek(0)
    ds = _load_csv_rows(fh, name)
    CSV_PARSER = "csv"
    return ds


class _Header(NamedTuple):
    width: int
    # The column index of each cell both parsers take from a row: the
    # feature columns, then class, then record.
    order: list[int]
    feature_names: list[str]


def _csv_rows(reader) -> Iterator[list[str]]:
    """The rows of a csv.reader; its errors (such as a cell over the csv
    module's field size limit) become a ParseError that names the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def _read_header(rows: Iterator[list[str]], name: str) -> _Header:
    try:
        header = next(rows)
    except StopIteration:
        raise EmptyInputError(f"{name}: file is empty") from None
    header = [h.strip() for h in header]
    for col in RESERVED_COLUMNS:
        if header.count(col) == 0:
            raise SchemaError(f"{name}: missing mandatory column '{col}'")
        if header.count(col) > 1:
            raise SchemaError(f"{name}: duplicate column '{col}'")
    order = [i for i, h in enumerate(header) if h not in RESERVED_COLUMNS]
    feature_names = [header[i] for i in order]
    if not feature_names:
        raise SchemaError(f"{name}: no feature columns found")
    if len(set(feature_names)) != len(feature_names):
        raise SchemaError(f"{name}: duplicate feature column names")
    order += [header.index(col) for col in RESERVED_COLUMNS]
    return _Header(len(header), order, feature_names)


def _load_csv_fast(fh, name: str) -> Dataset | None:
    """The body read by the compiled scanner or one np.loadtxt call, or None
    when the csv module must decide.

    Feature cells are read straight into float64 and class and record cells
    into fixed-width bytes, so no line is split into Python strings (only
    the record ids pass through Python ints on their way to int64). The
    scanner takes only files on which every parser agrees, and leaves any
    other to np.loadtxt. Only lines that _plain_lines passes reach
    np.loadtxt: on those it splits rows and cells, skips blank lines and
    parses numbers as the csv path does. Every other doubt (a cell that may
    have been cut to the width, a non-finite value, a record id that is 0 or
    not 1 to 18 digits, fewer than two classes) returns None, so that the
    csv path raises its own error.
    """
    global CSV_PARSER
    hd = _read_header(_csv_rows(csv.reader(fh)), name)
    width = _TEXT_CELL_WIDTH
    row = np.dtype([("X", np.float64, (len(hd.feature_names),))]
                   + [(col, f"S{width}") for col in RESERVED_COLUMNS])
    table, parser = _scan(fh, hd, row), "scanner"
    if table is None:
        table, parser = _loadtxt(
            _plain_lines(fh, hd.width), dtype=row, delimiter=",", usecols=hd.order, ndmin=1
        ), "loadtxt"
    if table is None:
        return None
    X = table["X"]
    if len(X) == 0 or not np.isfinite(X).all():
        return None
    if max(np.char.str_len(table[col]).max() for col in RESERVED_COLUMNS) >= width:
        return None
    records = np.char.strip(table["record"])
    if not (np.char.isdigit(records).all() and np.char.str_len(records).max() <= 18):
        return None
    records = records.astype(np.int64)
    if records.min() < 1:
        return None
    classes = np.char.strip(table["class"])
    names = _distinct(classes)
    labels, ids = _class_ids([c.decode("ascii") for c in names])
    if len(labels) < 2:
        return None
    y = ids[np.searchsorted(names, classes)]
    ds = Dataset(X, y, records, tuple(hd.feature_names), tuple(labels))
    CSV_PARSER = parser
    return ds


def _scan(fh, hd: _Header, row: np.dtype) -> np.ndarray | None:
    """The body as an array of row from the compiled scanner, or None where
    fh has no file descriptor or the scanner does not take the file."""
    try:
        fd = fh.fileno()
    except (OSError, ValueError):
        return None
    # Cell hd.order[j] of a line fills feature j, then class, then record.
    features, texts = hd.order[:-2], hd.order[-2:]
    offset = np.empty(hd.width, dtype=np.int64)
    size = np.zeros(hd.width, dtype=np.int64)
    offset[features] = row.fields["X"][1] + 8 * np.arange(len(features))
    for col, name in zip(texts, RESERVED_COLUMNS):
        field, at = row.fields[name][:2]
        offset[col], size[col] = at, field.itemsize
    # Read, never set: the limit is process-wide.
    return _kernels.scan_csv(fd, row, offset, size, csv.field_size_limit())


def _plain_lines(fh, width: int):
    """The lines of fh, with a ValueError at the first one the fast path must
    leave to the csv module: non-ASCII text, a quote, NUL (a bytes cell
    drops it), one of the ASCII separators \\x1c-\\x1f (np.loadtxt and
    str.strip read them as blanks, float() does not), more than width cells
    (np.loadtxt drops the cells after its last usecols column), or a line
    longer than the csv module's field limit (it may hold a cell that the
    csv module rejects). Both parsers end a line at '\\n', '\\r\\n' or a
    lone '\\r'."""
    # Read, never set: the limit is process-wide.
    limit = csv.field_size_limit()
    for line in fh:
        if (not line.isascii() or '"' in line or "\x00" in line or len(line) > limit
                or line.count(",") >= width
                or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line):
            raise ValueError("line left to the csv module")
        yield line


def _load_csv_rows(fh, name: str) -> Dataset:
    """The csv-module parser: one Python string per cell, and an error that
    names the file line and the column of the first bad cell."""
    reader = csv.reader(fh)
    rows_in = _csv_rows(reader)
    hd = _read_header(rows_in, name)
    rows: list[list[str]] = []
    class_raw: list[str] = []
    record_raw: list[str] = []
    # The file line of each kept row: blank rows and cells that span lines
    # make it differ from the row's index.
    line_nums: list[int] = []
    for row in rows_in:
        if not row:
            continue
        if len(row) != hd.width:
            raise ParseError(
                f"expected {hd.width} cells, found {len(row)}", line=reader.line_num
            )
        *cells, label, rec = (row[i] for i in hd.order)
        rows.append(cells)
        class_raw.append(label.strip())
        record_raw.append(rec.strip())
        line_nums.append(reader.line_num)
    if not rows:
        raise EmptyInputError(f"{name}: no data rows")

    feature_names = hd.feature_names
    try:
        X = np.asarray(rows, dtype=np.float64)
    except ValueError:
        X = _parse_cells_slow(rows, feature_names, line_nums)
    if not np.all(np.isfinite(X)):
        bad = np.argwhere(~np.isfinite(X))[0]
        raise ParseError(
            f"non-finite value in column '{feature_names[bad[1]]}'",
            line=line_nums[bad[0]],
        )

    labels, y = _class_ids(class_raw)
    if len(labels) < 2:
        raise SchemaError(f"{name}: r >= 2 required, found {len(labels)} class(es)")

    records = np.empty(len(record_raw), dtype=np.int64)
    for i, (rec, line) in enumerate(zip(record_raw, line_nums)):
        try:
            value = int(rec)
        except ValueError:
            raise ParseError(f"record id '{rec}' is not an integer", line=line) from None
        if value < 1:
            raise ParseError(f"record id must be >= 1, got {rec}", line=line)
        if value > _INT64_MAX:
            raise ParseError(f"record id {rec} exceeds the limit {_INT64_MAX}", line=line)
        records[i] = value

    return Dataset(X, y, records, tuple(feature_names), tuple(labels))


def _parse_cells_slow(
    rows: list[list[str]], feature_names: list[str], line_nums: list[int]
) -> np.ndarray:
    """Per-cell fallback that pins a parse failure to its line and column."""
    X = np.empty((len(rows), len(feature_names)))
    for i, (row, line) in enumerate(zip(rows, line_nums)):
        for j, cell in enumerate(row):
            try:
                X[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric value '{cell}' in column '{feature_names[j]}'",
                    line=line,
                ) from None
    return X


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it in a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset back out in the standard schema (full float precision).

    The bytes are those csv.writer writes: each float as repr writes it, the
    shortest form that reads back as the same float, each int with str, and
    "\r\n" after each row. The compiled writer (``_kernels.write_csv``)
    writes the rows where the compiled library is loaded, else Python does.
    """
    global CSV_WRITER
    # Only the class labels can need quoting, so each is quoted once.
    labels = [_csv_cell(label) for label in ds.class_labels]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(ds.feature_names) + ["class", "record"])
        fh.flush()
        if _kernels.write_csv(fh.fileno(), ds.X, ds.y, ds.records, labels):
            writer = "compiled"
        else:
            # tolist() hands over Python floats a few rows at a time: larger
            # chunks were no faster and raised peak memory by the chunk's
            # Python objects.
            writer = "python"
            for s in range(0, len(ds), _CSV_CHUNK_ROWS):
                rows = ds.X[s : s + _CSV_CHUNK_ROWS].tolist()
                ys = ds.y[s : s + _CSV_CHUNK_ROWS].tolist()
                recs = ds.records[s : s + _CSV_CHUNK_ROWS].tolist()
                fh.write("".join(
                    f"{','.join(map(repr, row))},{labels[y - 1]},{rec}\r\n"
                    for row, y, rec in zip(rows, ys, recs)
                ))
    CSV_WRITER = writer


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
    as 1 so the transform stays invertible. A feature whose mean or std
    overflows float64 raises SchemaError: a model standardized with it
    could not be saved and loaded again.
    """
    if len(ds) == 0:
        raise EmptyInputError("cannot standardize an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        means = ds.X.mean(axis=0)
        stds = ds.X.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)))
    if bad.size:
        k = bad[0]
        raise SchemaError(
            f"feature '{ds.feature_names[k]}' is too large to standardize: "
            f"mean {means[k]}, std {stds[k]}"
        )
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
    train, test, singles = _split_by_record(ds, test_fraction, seed)
    for class_id in singles:
        warnings.warn(
            f"class {class_id} has a single record; assigning it to training",
            stacklevel=2,
        )
    return train, test


def _split_by_record(
    ds: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset, list[int]]:
    """split_by_record without the warnings: also returns the ids of the
    single-record classes, in increasing order."""
    if not (0.0 < test_fraction < 1.0):
        raise ParameterError(
            f"test_fraction must be in (0, 1), got {test_fraction}"
        )
    check_seed(seed)
    rng = np.random.default_rng([seed, 101])
    test_records: set[int] = set()
    singles: list[int] = []
    for class_id in range(1, ds.r + 1):
        recs = _distinct(ds.records[ds.y == class_id])
        if recs.size == 0:
            continue
        if recs.size == 1:
            singles.append(class_id)
            continue
        recs = recs[rng.permutation(recs.size)]
        n_test = int(round(test_fraction * recs.size))
        n_test = min(max(n_test, 1), recs.size - 1)
        test_records.update(int(x) for x in recs[:n_test])

    in_test = np.isin(ds.records, sorted(test_records))
    return ds.subset(~in_test), ds.subset(in_test), singles
