import csv

import numpy as np
import pytest

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

    def test_writer_bytes_match_per_cell_repr(self, tmp_path):
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
        back = load_csv(new)
        np.testing.assert_array_equal(back.X, ds.X)

    def test_default_synthetic_shape(self, tmp_path):
        ds = generate(default_config(seed=5))
        path = tmp_path / "big.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.m == 72
        assert back.r == 16
        assert abs(len(back) - 59069) / 59069 < 0.10


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
