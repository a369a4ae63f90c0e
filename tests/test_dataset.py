import csv
import errno
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairnet import (
    Dataset,
    EmptyInputError,
    ParameterError,
    ParseError,
    SchemaError,
    load_csv,
    save_csv,
    screen_outliers,
    split_by_record,
    standardize,
)
from pairnet import _kernels, dataset
from pairnet.dataset import loads_csv
from pairnet.synthgen import default_config, generate

SMALL_CSV = """a,b,class,record
1.0,2.0,35,1
3.5,-1.0,35,1
0.25,4.0,37,2
"""


def make_dataset(X, y, records, r=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    r = r or int(y.max())
    return Dataset(
        X, y, records,
        tuple(f"f{i + 1}" for i in range(X.shape[1])),
        tuple(str(k) for k in range(1, r + 1)),
    )


class TestDataset:
    @pytest.mark.parametrize("change,message", [
        ({"X": np.zeros(2)}, "X must be 2-dimensional"),
        ({"X": np.zeros((2, 0)), "feature_names": ()},
         "at least one feature column is required (m >= 1)"),
        ({"class_labels": ("a",)}, "r >= 2 required, got r=1"),
        ({"feature_names": ("f", "g")}, "2 feature names for 1 columns"),
        ({"y": [1, 2, 1]}, "y and records must have one entry per row of X"),
        ({"records": [1]}, "y and records must have one entry per row of X"),
        ({"y": [0, 2]}, "class ids must lie in 1..2"),
        ({"y": [1, 3]}, "class ids must lie in 1..2"),
        ({"records": [0, 2]}, "record ids must be >= 1"),
    ])
    def test_constructor_refusals(self, change, message):
        args = {"X": np.zeros((2, 1)), "y": [1, 2], "records": [1, 2],
                "feature_names": ("f",), "class_labels": ("a", "b")}
        with pytest.raises(SchemaError) as exc:
            Dataset(**{**args, **change})
        assert str(exc.value) == message

    def test_smallest_mixed_record_is_named(self):
        # Records 5 and 3 both span two classes; record 5 comes first in
        # row order, record 3 is named.
        with pytest.raises(SchemaError) as exc:
            make_dataset(np.zeros((6, 1)), [3, 2, 1, 2, 1, 3], [5, 5, 1, 3, 3, 6])
        assert str(exc.value) == (
            "record 3 appears in classes [1, 2]; a record must belong to exactly one class"
        )


class TestLoadCsv:
    def test_smallest_well_formed(self):
        ds = loads_csv(SMALL_CSV)
        assert ds.m == 2
        assert ds.r == 2
        assert ds.class_labels == ("35", "37")
        assert ds.y.tolist() == [1, 1, 2]
        assert ds.records.tolist() == [1, 1, 2]
        np.testing.assert_array_equal(ds.X[0], [1.0, 2.0])

    def test_single_class_rejected(self):
        text = "a,class,record\n1.0,35,1\n2.0,35,1\n"
        with pytest.raises(SchemaError, match="r >= 2"):
            loads_csv(text)

    def test_missing_column(self):
        with pytest.raises(SchemaError, match="missing mandatory column 'record'"):
            loads_csv("a,class\n1.0,35\n")

    def test_duplicate_reserved_column(self):
        with pytest.raises(SchemaError, match="duplicate column 'class'"):
            loads_csv("a,class,class,record\n1.0,35,36,1\n")

    def test_no_feature_columns(self):
        with pytest.raises(SchemaError, match="no feature columns"):
            loads_csv("class,record\n35,1\n")

    def test_non_numeric_cell_reports_row(self):
        text = "a,b,class,record\n1.0,2.0,35,1\n1.0,oops,37,2\n"
        with pytest.raises(ParseError, match="line 3") as exc:
            loads_csv(text)
        assert exc.value.line == 3

    def test_non_finite_cell_rejected(self):
        text = "a,class,record\nnan,35,1\n1.0,37,2\n"
        with pytest.raises(ParseError, match="line 2"):
            loads_csv(text)

    def test_empty_file(self):
        with pytest.raises(EmptyInputError):
            loads_csv("")

    def test_header_only(self):
        with pytest.raises(EmptyInputError):
            loads_csv("a,class,record\n")

    def test_record_in_two_classes_rejected(self):
        text = "a,class,record\n1.0,35,1\n2.0,37,1\n"
        with pytest.raises(SchemaError, match="record 1"):
            loads_csv(text)

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = make_dataset(
            rng.normal(size=(40, 3)),
            np.repeat([1, 2], 20),
            np.repeat([1, 2, 3, 4], 10),
        )
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.records, ds.records)
        assert back.feature_names == ds.feature_names
        assert back.class_labels == ds.class_labels

    def test_bom_is_not_part_of_the_first_column(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfclass,f1,record\r\n35,1.0,1\r\n37,2.0,2\r\n")
        ds = load_csv(path)
        assert ds.feature_names == ("f1",)
        assert ds.class_labels == ("35", "37")
        path.write_bytes(b"\xef\xbb\xbff1,class,record\n1.0,35,1\n2.0,37,2\n")
        assert load_csv(path).feature_names == ("f1",)

    def test_non_utf8_offset_counts_the_bom(self, tmp_path):
        path = tmp_path / "bad.csv"
        head = b"\xef\xbb\xbfa,class,record\n1.0,35,1\n"
        path.write_bytes(head + b"\xff,37,2\n")
        with pytest.raises(ParseError, match=f"invalid start byte at byte {len(head)}$"):
            load_csv(path)

    @pytest.mark.parametrize("rec", ["99999999999999999999", "9223372036854775808"])
    def test_record_id_beyond_int64(self, tmp_path, rec):
        path = tmp_path / "huge.csv"
        path.write_text(f"f1,class,record\n1.0,35,1\n2.0,37,{rec}\n")
        message = f"line 3: record id {rec} exceeds the limit 9223372036854775807"
        with pytest.raises(ParseError, match=message):
            load_csv(path)
        with pytest.raises(ParseError, match=message):
            with open(path, encoding="utf-8-sig", newline="") as fh:
                dataset._load_csv_rows(fh, str(path))

    @pytest.mark.parametrize("text,line", [
        ("a,class,record\n\n1.0,35,1\nnan,37,2\n", 4),
        ('a,class,record\n\n1.0,"3\n5",1\n2.0,37,2\nnan,37,2\n', 6),
        ('a,class,record\n\n1.0,"3\n5",1\n\n2.0,37,x\n', 6),
        ('a,class,record\n\n1.0,"3\n5",1\n\nx,37,2\n', 6),
        ('a,class,record\n\n1.0,"3\n5",1\n\n2.0,37\n', 6),
    ], ids=["non-finite", "non-finite-after-quoted", "record", "non-numeric", "cell-count"])
    def test_errors_name_the_file_line(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: ") as exc:
            loads_csv(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text,line", [
        ("a" * 140_000 + ",class,record\n1.0,35,1\n2.0,37,2\n", 1),
        ("a,class,record\n1.0,35,1\n\n2.0," + "c" * 140_000 + ",2\n", 4),
        ('a,class,record\n1.0,35,1\n2.0,"x\n' + "c" * 140_000 + '",2\n', 4),
        ("a,class,record\n0." + "0" * 139_998 + "1,35,1\n2.0,37,2\n", 2),
    ], ids=["header", "body", "quoted", "number"])
    def test_cell_over_the_field_limit(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: field larger than field limit"):
            loads_csv(text)

    def test_largest_record_id_loads(self):
        ds = loads_csv("f1,class,record\n1.0,35,1\n2.0,37,9223372036854775807\n")
        assert ds.records.tolist() == [1, 9223372036854775807]

    def test_default_synthetic_shape(self, tmp_path):
        ds = generate(default_config(seed=5))
        path = tmp_path / "big.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.m == 72
        assert back.r == 16
        assert abs(len(back) - 59069) / 59069 < 0.10


def csv_outcome(load):
    """A Dataset's arrays and metadata (X as bits), or the error raised."""
    try:
        ds = load()
    except Exception as exc:
        return type(exc), str(exc)
    return (ds.X.view(np.int64).tolist(), ds.X.shape, ds.y.tolist(),
            ds.records.tolist(), ds.feature_names, ds.class_labels)


def assert_paths_agree(path, text):
    """load_csv and the csv-module path give the same result for text."""
    path.write_bytes(text.encode("utf-8"))

    def csv_module_path():
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return dataset._load_csv_rows(fh, str(path))

    assert csv_outcome(lambda: load_csv(path)) == csv_outcome(csv_module_path)


CLEAN_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(str),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0.0", "5e-324", "1e308", "-1.7976931348623157e308",
                     "1E5", "2.5e-10", "1.e3", ".5", "+7", " 1.5", "2.5 "]),
)
ROUGH_FLOATS = st.sampled_from([
    "1e309", "1_0", "nan", "-inf", "Infinity", "NaN", "", " ", "abc", "0x10",
    '"1.0"', '"1,5"', "\t4", "4\t", "\x0b6", "\x1c1", "1\x1f", "1\x00",
    "\xa01", "١", "1e", "--1",
])
CLEAN_CLASSES = st.sampled_from(
    ["1", "2", "3.0", "10", "35", "37", "a", "b", " a ", "sp ace", "\xe9", "x" * 31]
)
ROUGH_CLASSES = st.one_of(
    st.sampled_from([
        "", '"c,d"', '"e"', 'e"', "\x1cx", "x\x1d", "x\x00", "\tt", "x" * 32, "y" * 40,
    ]),
    st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=4),
)
ROUGH_RECORDS = st.sampled_from([
    "0", "-1", "+3", " 4 ", "1_0", "", "x", '"5"', "٣", "1.5", "1e3", "007",
    "99999999999999999999", "9223372036854775807", "9223372036854775808",
    "1234567890123456789", " " * 30 + "8", "9\x00", "\x1e9",
])


@st.composite
def csv_texts(draw):
    """CSV text near the schema. A clean text has only valid rows, though
    with any line ending, a BOM, blank lines and spaces around cells; a rough
    one also has bad cells and rows of the wrong length."""
    rough = draw(st.integers(0, 2)) == 0

    def cell(clean, bad):
        return draw(bad if rough and draw(st.integers(0, 7)) == 0 else clean)

    m = draw(st.integers(1, 3))
    order = draw(st.permutations([f"f{k}" for k in range(m)] + ["class", "record"]))
    labels = [cell(CLEAN_CLASSES, ROUGH_CLASSES) for _ in range(draw(st.integers(2, 3)))]
    lines = [",".join(order)]
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, len(labels) - 1))
        cells = {f"f{j}": cell(CLEAN_FLOATS, ROUGH_FLOATS) for j in range(m)}
        cells["class"] = labels[k]
        # Ids that keep each record in one class: 1 + k modulo 10.
        tens = draw(st.one_of(st.integers(0, 2), st.integers(0, 10**17 - 1)))
        cells["record"] = cell(st.just(str(10 * tens + k + 1)), ROUGH_RECORDS)
        row = [cells[c] for c in order]
        shapes = ["row"] * 6 + ["blank"] + (["short", "long", "spaces"] if rough else [])
        shape = draw(st.sampled_from(shapes))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row = row + ["1"]
        elif shape == "blank":
            lines.append("")
        elif shape == "spaces":
            lines.append("  ")
        lines.append(",".join(row))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@pytest.fixture(params=["scanner", "loadtxt"])
def fast_parser(request, monkeypatch):
    """The parser load_csv tries first: the compiled scanner, or np.loadtxt,
    which runs where the compiled library does not load."""
    if request.param == "scanner":
        if _kernels.load() is None:
            pytest.skip(f"compiled library unavailable: {_kernels.FALLBACK_REASON}")
    else:
        monkeypatch.setattr(_kernels, "_loaded", False)
    return request.param


@pytest.mark.usefixtures("fast_parser")
class TestCsvPaths:
    """load_csv parses the body with the compiled scanner or np.loadtxt and
    hands anything they do not take to the csv-module parser; every path
    must give the same result."""

    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_fast_path_matches_csv_module(self, tmp_path, text):
        assert_paths_agree(tmp_path / "gen.csv", text)

    @pytest.mark.parametrize("body", [
        "1.0,35,1\r\n2.0,37,2\r\n",
        "1.0,35,1\r2.0,37,2\r",
        "1.0,35,1\n\n\n2.0,37,2\n",
        "1.0,35,1\n  \n2.0,37,2\n",
        "1.0, 35 ,1\n2.0,37, 2\n",
        "\x1c1.0,35,1\n2.0,37,2\n",
        "1.0,35\x1c,1\n2.0,37,2\n",
        "1.0,35\x00,1\n2.0,37,2\n",
        "1.0,35,1\x00\n2.0,37,2\n",
        '1.0,"35",1\n2.0,37,2\n',
        '1.0,"3,5",1\n2.0,37,2\n',
        "1.0,\xe9,1\n2.0,37,2\n",
        "1.0," + "c" * 32 + ",1\n2.0," + "c" * 33 + ",2\n",
        "1.0," + "c" * 40 + ",1\n2.0,37,2\n",
        "1.0,35,1234567890123456789\n2.0,37,2\n",
        "1.0,35,99999999999999999999\n2.0,37,2\n",
        "1.0,35,-1\n2.0,37,2\n",
        "1.0,35,000\n2.0,37,2\n",
        "1_0,35,1\n2.0,37,2\n",
        "nan,35,1\n2.0,37,2\n",
        "1.0,35,1\n2.0,35,2\n",
        "1.0,35,1\n2.0,37,1\n",
        "1.0,35,1,\n2.0,37,2\n",
        "1.0,35\n2.0,37,2\n",
        "1.,35,1\n.5,37,2\n",
        "+1,35,1\n-0.0,37,2\n",
        "1e999,35,1\n2.0,37,2\n",
        "5e-324,35,1\n-5E-324,37,2\n",
        "12345678901234567890,35,1\n0.12345678901234567890123e-3,37,2\n",
        " 1.5,35,1\n2.5 ,37,2\n",
        "1.0,35,1\n2.0,37,2",
        "1.0,35,1\r\n2.0,37,2\r",
        "\n1.0,35,1\r\n\r\n\n2.0,37,2\n\n",
        ".,35,1\n2.0,37,2\n",
        "1e,35,1\n2.0,37,2\n",
        pytest.param("0." + "0" * 139_998 + "1,35,1\n2.0,37,2\n", id="long-cell"),
    ])
    def test_edge_cases_match_csv_module(self, tmp_path, body):
        assert_paths_agree(tmp_path / "edge.csv", "f1,class,record\n" + body)

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_line_across_a_block_matches_csv_module(self, tmp_path, bom, eol):
        # The scanner reads 64 KiB blocks; a line that runs from one block
        # into the next is carried over whole.
        rows = [f"{k * 0.1!r},{35 + k % 2},{k % 2 + 1}{eol}" for k in range(9000)]
        for name in ("f1", "f_1", "f__1"):  # a header after which no line ends at a block end
            head = bom + f"{name},class,record{eol}"
            ends = set(np.cumsum([len(line.encode()) for line in [head] + rows]).tolist())
            if not {1 << 16, 2 << 16} & ends:
                break
        assert max(ends) > 2 << 16 and not {1 << 16, 2 << 16} & ends
        path = tmp_path / "blocks.csv"
        assert_paths_agree(path, head + "".join(rows))
        assert load_csv(path).X[:, 0].tolist() == [k * 0.1 for k in range(9000)]

    def test_row_longer_than_the_field_limit_matches_csv_module(self, tmp_path):
        # 40,000 short cells make lines longer than the csv module's field
        # limit, though no cell is.
        m = 40_000
        rng = np.random.default_rng(4)
        header = ",".join(f"f{k}" for k in range(m)) + ",class,record\n"
        rows = [",".join(map(repr, rng.normal(size=m).tolist())) + f",{c},{c}\n"
                for c in (35, 37)]
        path = tmp_path / "wide.csv"
        assert_paths_agree(path, header + "".join(rows))
        assert load_csv(path).X.shape == (2, m)

    @pytest.mark.parametrize("at", [None, 0, 20], ids=["save_csv", "first", "between"])
    def test_fast_path_holds_one_copy_of_the_features(self, tmp_path, at):
        # numpy reports its buffers to tracemalloc. The structured table read
        # by np.loadtxt, plus the C-ordered X that Dataset copies out of it,
        # bound the peak: the features are taken from the table as a view,
        # and a second copy would add another X.nbytes. at is the column
        # before which class and record sit (None: last, as save_csv writes).
        n, m = 4000, 40
        y = np.arange(n) % 4 + 1
        ds = make_dataset(np.random.default_rng(6).normal(size=(n, m)), y, y)
        path = tmp_path / "saved.csv"
        save_csv(ds, path)
        if at is not None:
            moved = []
            for line in path.read_text().splitlines():
                cells = line.split(",")
                cells[at:at] = cells[-2:]
                moved.append(",".join(cells[:-2]) + "\r\n")
            path.write_text("".join(moved))
        load_csv(path)  # np.unique imports numpy.ma on its first call
        tracemalloc.start()
        try:
            loaded = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.X, ds.X) and np.array_equal(loaded.records, ds.records)
        table_bytes = n * (8 * m + 2 * dataset._TEXT_CELL_WIDTH)
        assert peak < table_bytes + ds.X.nbytes + ds.X.nbytes // 2

    def test_pipe_is_read_by_the_csv_module(self, tmp_path):
        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)
        text = 'f1,class,record\r\n1.0,"3,5",1\r\n2.0,37,2\r\n'
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            ds = load_csv(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert ds.class_labels == ("3,5", "37")
        assert ds.X[:, 0].tolist() == [1.0, 2.0]

    def test_save_csv_output_takes_the_fast_path(self, tmp_path, monkeypatch):
        ds = generate(default_config(seed=3, scale=0.02))
        path = tmp_path / "data.csv"
        save_csv(ds, path)

        def no_csv_module(fh, name):
            raise AssertionError(f"{name} took the csv-module path")

        monkeypatch.setattr(dataset, "_load_csv_rows", no_csv_module)
        back = load_csv(path)
        assert back.X.shape == ds.X.shape and back.class_labels == ds.class_labels

    def test_save_load_round_trip_is_bit_exact(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        n = 300
        X = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-300, 300, size=(n, 5))
        X[0] = [-0.0, 5e-324, 1e308, -1.7976931348623157e308, 2.2250738585072014e-308]
        X[1] = [0.1, 1e16, 123456789.0, 2.0**-1074, -5e-324]
        y = rng.integers(1, 4, size=n)
        y[:3] = [1, 2, 3]
        records = y + 3 * rng.integers(0, 10**17 // 3, size=n)
        ds = Dataset(X, y, records, ("a", "b", "c", "d", "e"), ("1.5", "2", "wake"))
        path = tmp_path / "exact.csv"
        save_csv(ds, path)
        monkeypatch.setattr(dataset, "_load_csv_rows", None)  # fast path only
        back = load_csv(path)
        assert back.X.view(np.int64).tolist() == ds.X.view(np.int64).tolist()
        assert back.y.tolist() == ds.y.tolist()
        assert back.records.tolist() == ds.records.tolist()
        assert back.feature_names == ds.feature_names
        assert back.class_labels == ds.class_labels


class TestCsvScanner:
    """The compiled scanner takes the files on which every parser agrees and
    leaves each other file to np.loadtxt, which then decides as before."""

    @pytest.fixture(autouse=True)
    def scanner(self):
        if _kernels.load() is None:
            pytest.skip(f"compiled library unavailable: {_kernels.FALLBACK_REASON}")

    @pytest.mark.parametrize("text", [
        "f1,class,record\n1.,35,1\n.5,37,2\n",
        "f1,class,record\n+1,35,1\n-0.0,37,2\n",
        "f1,class,record\n5e-324,35,1\n1E+308,37,2\n",
        "f1,class,record\n12345678901234567890,35,1\n9007199254740993,37,2\n",
        "f1,class,record\n1.0, 35 ,1\n2.0,37, 2\n",
        "f1,class,record\n1.0,35,1\n2.0,37,2",
        "f1,class,record\r\n\r\n1.0,35,1\r\n\n2.0,37,2\r\n\r\n",
        "\ufeffrecord,f1,class\n1,1.0,35\n2,2.0,37\n",
        "f\xe9,class,record\n1.0,35,1\n2.0,37,2\n",
    ], ids=["point", "sign", "range", "digits", "text-spaces", "no-final-newline",
            "blank-lines", "bom", "non-ascii-header"])
    def test_takes_plain_files(self, tmp_path, text):
        assert_paths_agree(tmp_path / "plain.csv", text)
        assert dataset.CSV_PARSER == "scanner"

    @pytest.mark.parametrize("text", [
        "f1,class,record\n 1.5,35,1\n2.5 ,37,2\n",
        "f1,class,record\r1.0,35,1\r2.0,37,2\r",
        "f1,class,record\n1.0,35,1\n2.0,37,2\r",
        "f1,class,record\n1.0,\tt,1\n2.0,37,2\n",
        "f1,class,record\n1.0,35,1\n2.0,\xe9,2\n",
        "f1,class,record\n1_0,35,1\n2.0,37,2\n",
        "f1,class,record\n1.0,35,1\n2.0,37,2\n\n  \n",
        '"f1",class,record\n1.0,35,1\n2.0,37,2\n',
    ], ids=["number-spaces", "cr", "final-cr", "tab", "non-ascii", "underscore",
            "spaces-line", "quoted-header"])
    def test_leaves_other_files_to_the_next_parser(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(dataset, "CSV_PARSER", None)
        assert_paths_agree(tmp_path / "other.csv", text)
        assert dataset.CSV_PARSER in (None, "loadtxt", "csv")  # None: load_csv raised

    def test_save_csv_output_takes_the_scanner(self, tmp_path, monkeypatch):
        ds = generate(default_config(seed=3, scale=0.02))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        monkeypatch.setattr(dataset, "_loadtxt", None)
        monkeypatch.setattr(dataset, "_load_csv_rows", None)
        assert load_csv(path).X.tobytes() == ds.X.tobytes()
        assert dataset.CSV_PARSER == "scanner"

    def test_file_offset_does_not_move(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,class,record\n1.0,35,1\n2.0,37,2\n")
        row = np.dtype([("x", "f8"), ("c", "S4"), ("r", "S4")])
        with open(path, "rb") as fh:
            fh.seek(5)
            table = _kernels.scan_csv(fh.fileno(), row, [0, 8, 12], [0, 4, 4], 1000)
            assert os.lseek(fh.fileno(), 0, os.SEEK_CUR) == 5
        assert table.tolist() == [(1.0, b"35", b"1"), (2.0, b"37", b"2")]


def reference_save_csv(ds, path):
    """save_csv as csv.writer wrote it, a 64-row chunk at a time: the bytes
    save_csv's joined rows must reproduce."""
    labels = ds.class_labels
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["class", "record"])
        for s in range(0, len(ds), 64):
            rows = ds.X[s : s + 64].tolist()
            ys = ds.y[s : s + 64].tolist()
            recs = ds.records[s : s + 64].tolist()
            for row, y, rec in zip(rows, ys, recs):
                row.append(labels[y - 1])
                row.append(rec)
            writer.writerows(rows)


_labels = st.text(alphabet=st.sampled_from(list('ab7 ,"\t\r\n.é中ß-')), max_size=6)
_features = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**60, 2**60).map(float),
    st.sampled_from([-0.0, 5e-324, 1e308, -1.7976931348623157e308]),
)


@st.composite
def saved_datasets(draw):
    """Datasets whose rows use at least two classes, with labels distinct
    after the strip that load_csv applies."""
    labels = draw(st.lists(_labels, min_size=2, max_size=4, unique_by=str.strip))
    recs = draw(st.lists(st.integers(1, 2**63 - 1), min_size=2, max_size=6, unique=True))
    rec_class = [1, 2] + [draw(st.integers(1, len(labels))) for _ in recs[2:]]
    which = [0, 1] + draw(st.lists(st.integers(0, len(recs) - 1), max_size=150))
    m = draw(st.integers(1, 3))
    X = draw(st.lists(st.lists(_features, min_size=m, max_size=m),
                      min_size=len(which), max_size=len(which)))
    return Dataset(X, [rec_class[k] for k in which], [recs[k] for k in which],
                   ("a", "b c", 'q"x,é')[:m], labels)


@pytest.fixture(params=["compiled", "python"])
def writer(request, monkeypatch):
    """The writer of save_csv's rows: the compiled one, or Python's, which
    runs where the compiled library does not load."""
    if request.param == "compiled":
        if _kernels.load() is None:
            pytest.skip(f"compiled library unavailable: {_kernels.FALLBACK_REASON}")
    else:
        monkeypatch.setattr(_kernels, "_loaded", False)
    return request.param


class TestSaveCsv:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ds=saved_datasets())
    def test_bytes_match_csv_writer_and_load_round_trips(self, tmp_path, writer, ds):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_csv(ds, new)
        reference_save_csv(ds, old)
        assert new.read_bytes() == old.read_bytes()
        assert dataset.CSV_WRITER == writer
        back = load_csv(new)
        assert back.X.view(np.int64).tolist() == ds.X.view(np.int64).tolist()
        assert back.records.tolist() == ds.records.tolist()
        assert back.feature_names == ds.feature_names
        assert [back.class_labels[c - 1] for c in back.y] == [
            ds.class_labels[c - 1].strip() for c in ds.y]

    def test_writer_bytes_match_per_cell_repr(self, tmp_path, writer):
        # The per-row writer that save_csv replaced: one repr per cell.
        def reference_save_csv(ds, path):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(list(ds.feature_names) + ["class", "record"])
                for i in range(len(ds)):
                    row = [repr(float(v)) for v in ds.X[i]]
                    row.append(ds.class_labels[ds.y[i] - 1])
                    row.append(str(int(ds.records[i])))
                    writer.writerow(row)

        rng = np.random.default_rng(3)
        n = 2 * 1024 + 5  # crosses chunk boundaries
        X = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-300, 300, size=(n, 4))
        X[0] = [-0.0, 5e-324, 1e308, -1.7976931348623157e308]
        X[1] = [0.1, 1e16, 123456789.0, 2.0**-1074]
        y = rng.integers(1, 4, size=n)
        y[:3] = [1, 2, 3]
        ds = Dataset(X, y, y * 1000 + 7, ("a", "b c", 'q"x', "d,e"), ('a,"b', "7", " sp "))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_csv(ds, new)
        reference_save_csv(ds, old)
        assert new.read_bytes() == old.read_bytes()
        assert dataset.CSV_WRITER == writer
        back = load_csv(new)
        np.testing.assert_array_equal(back.X, ds.X)

    def test_no_rows_writes_the_header_alone(self, tmp_path, writer):
        ds = Dataset(np.empty((0, 2)), [], [], ("a", "b"), ("x", "y"))
        save_csv(ds, tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b,class,record\r\n"
        assert dataset.CSV_WRITER == writer

    def test_rows_and_labels_longer_than_a_block(self, tmp_path, writer):
        # 3,000 features of 18-24 bytes each, and a label of 70,000: each
        # row spans two 64 KiB blocks or more.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 3000)) * 10.0 ** rng.integers(-300, 300, size=(5, 3000))
        ds = Dataset(X, [1, 2, 1, 2, 2], [1, 2, 3, 4, 4],
                     tuple(f"f{k}" for k in range(3000)), ("a" * 70_000, 'b"'))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_csv(ds, new)
        reference_save_csv(ds, old)
        assert new.stat().st_size > 2 * 70_000
        assert new.read_bytes() == old.read_bytes()
        assert dataset.CSV_WRITER == writer

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_raises_the_same_error_on_both_paths(self, monkeypatch):
        ds = make_dataset(np.ones((300, 40)), np.repeat([1, 2], 150), np.repeat([1, 2], 150))

        def error():
            with pytest.raises(OSError) as raised:
                save_csv(ds, "/dev/full")
            return type(raised.value), raised.value.errno, str(raised.value)

        if _kernels.load() is None:
            pytest.skip(f"compiled library unavailable: {_kernels.FALLBACK_REASON}")
        compiled = error()
        # The compiled writer's own failure, past a header that fitted.
        fd = os.open("/dev/full", os.O_WRONLY)
        try:
            with pytest.raises(OSError) as raised:
                _kernels.write_csv(fd, ds.X, ds.y, ds.records, ["1", "2"])
        finally:
            os.close(fd)
        assert (type(raised.value), raised.value.errno, str(raised.value)) == compiled
        monkeypatch.setattr(_kernels, "_loaded", False)
        assert error() == compiled == (OSError, errno.ENOSPC,
                                       f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")


class TestScreenOutliers:
    def test_identical_segments_nothing_removed(self):
        X = np.tile([1.0, 2.0], (10, 1))
        ds = make_dataset(
            np.vstack([X, X + 5]),
            [1] * 10 + [2] * 10,
            [1] * 10 + [2] * 10,
        )
        kept, report = screen_outliers(ds)
        assert report.removed_count == 0
        assert report.rate == 0.0
        assert len(kept) == len(ds)

    def test_single_big_deviation_removed(self):
        # uniform noise cannot deviate 3 stds from its mean, so the single
        # injected spike is the only possible flag
        rng = np.random.default_rng(42)
        block = rng.uniform(-1.0, 1.0, size=(100, 3))
        block[99, 1] = 30.0  # far beyond 3 record stds even after inflation
        other = rng.uniform(-1.0, 1.0, size=(100, 3))
        ds = make_dataset(
            np.vstack([block, other]),
            [1] * 100 + [2] * 100,
            [1] * 100 + [2] * 100,
        )
        kept, report = screen_outliers(ds, k=3.0)

        # independent oracle: recompute per-record stats with plain loops
        flagged = []
        for i in range(100):
            for j in range(3):
                col = block[:, j]
                mu = sum(col) / len(col)
                sd = (sum((v - mu) ** 2 for v in col) / len(col)) ** 0.5
                if sd > 0 and abs(block[i, j] - mu) > 3.0 * sd:
                    flagged.append(i)
                    break
        assert flagged == [99]
        assert report.removed_count == 1
        assert report.per_record_rates[1] == pytest.approx(0.01)
        assert report.per_record_rates[2] == 0.0
        assert len(kept) == 199

    def test_survivors_within_bounds_bruteforce(self):
        rng = np.random.default_rng(3)
        n_per = 50
        X = np.vstack([rng.normal(0, 1, (n_per, 4)), rng.standard_t(2, (n_per, 4))])
        y = np.repeat([1, 2], n_per)
        recs = np.repeat([1, 2], n_per)
        ds = make_dataset(X, y, recs)
        kept, report = screen_outliers(ds, k=2.5)
        for rec in (1, 2):
            block = ds.X[ds.records == rec]
            mu = block.mean(axis=0)
            sd = block.std(axis=0)
            surv = kept.X[kept.records == rec]
            for row in surv:
                assert not np.any((np.abs(row - mu) > 2.5 * sd) & (sd > 0))
        assert report.removed_count == len(ds) - len(kept)

    def test_small_record_skipped(self):
        ds = make_dataset(
            [[0.0], [1.0], [2.0], [100.0]],
            [1, 1, 1, 2],
            [1, 1, 1, 2],
        )
        kept, report = screen_outliers(ds)
        assert report.skipped_records == (2,)
        assert 2 in kept.records  # passed through unscreened

    def test_bad_k(self):
        ds = make_dataset([[0.0], [1.0]], [1, 2], [1, 2])
        with pytest.raises(ParameterError):
            screen_outliers(ds, k=0.0)

    @pytest.mark.parametrize("k", [-3.0, float("nan"), float("inf"), np.float64("nan"), "3", None])
    def test_k_must_be_finite_and_positive(self, k):
        ds = make_dataset([[0.0], [1.0]], [1, 2], [1, 2])
        with pytest.raises(ParameterError, match="finite number > 0"):
            screen_outliers(ds, k=k)

    def test_default_generator_rate_below_six_percent(self):
        ds = generate(default_config(seed=11, scale=0.1))
        _, report = screen_outliers(ds, k=3.0)
        assert report.rate < 0.06


class TestStandardize:
    def test_constant_feature(self):
        ds = make_dataset([[1.0, 0.0], [1.0, 2.0]], [1, 2], [1, 2])
        out, st = standardize(ds)
        np.testing.assert_array_equal(out.X[:, 0], [0.0, 0.0])
        assert st.stds[0] == 1.0

    def test_two_point_symmetry(self):
        ds = make_dataset([[0.0], [2.0]], [1, 2], [1, 2])
        out, _ = standardize(ds)
        np.testing.assert_allclose(out.X[:, 0], [-1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng.normal(2, 5, (30, 4)), np.repeat([1, 2], 15), np.repeat([1, 2], 15))
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-12)

    def test_invert_recovers(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(rng.normal(-3, 10, (25, 3)), np.repeat([1, 2], [12, 13]), np.repeat([1, 2], [12, 13]))
        out, st = standardize(ds)
        np.testing.assert_allclose(st.invert(out.X), ds.X, rtol=1e-12, atol=1e-12)

    def test_overflowing_feature_is_a_schema_error(self):
        # Finite values whose squares overflow: the std would be inf.
        X = [[1.0, 1e200], [2.0, -1e200], [3.0, 3e200], [4.0, 2e200]]
        ds = make_dataset(X, [1, 1, 2, 2], [1, 2, 3, 4])
        with pytest.raises(SchemaError, match="^feature 'f2' is too large to standardize"):
            standardize(ds)


class TestSplitByRecord:
    def two_records_per_class(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        y = np.repeat([1, 2], 20)
        recs = np.repeat([1, 2, 3, 4], 10)
        return make_dataset(X, y, recs)

    def test_forced_one_one_split(self):
        ds = self.two_records_per_class()
        train, test = split_by_record(ds, 0.5, seed=0)
        for class_id in (1, 2):
            assert len(np.unique(train.records[train.y == class_id])) == 1
            assert len(np.unique(test.records[test.y == class_id])) == 1

    def test_deterministic(self):
        ds = self.two_records_per_class()
        a = split_by_record(ds, 0.5, seed=9)
        b = split_by_record(ds, 0.5, seed=9)
        np.testing.assert_array_equal(a[0].records, b[0].records)
        np.testing.assert_array_equal(a[1].records, b[1].records)

    def test_partition(self):
        ds = self.two_records_per_class()
        train, test = split_by_record(ds, 0.5, seed=4)
        assert len(train) + len(test) == len(ds)
        assert not set(train.records.tolist()) & set(test.records.tolist())

    def test_negative_seed_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            split_by_record(self.two_records_per_class(), 0.5, seed=-1)

    def test_single_record_class_warns(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.repeat([1, 2], [10, 20])
        recs = np.repeat([1, 2, 3], 10)
        ds = make_dataset(X, y, recs)
        with pytest.warns(UserWarning, match="class 1 has a single record"):
            train, test = split_by_record(ds, 0.5, seed=0)
        assert 1 in train.records and 1 not in test.records

    def test_bad_fraction(self):
        ds = self.two_records_per_class()
        with pytest.raises(ParameterError):
            split_by_record(ds, 1.5, seed=0)

    def test_default_synthetic_share(self):
        ds = generate(default_config(seed=2, scale=0.1))
        with pytest.warns(UserWarning):
            _, test = split_by_record(ds, 0.33, seed=2)
        share = len(test) / len(ds)
        assert 0.23 <= share <= 0.43
