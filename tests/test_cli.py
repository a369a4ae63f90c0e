import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pairnet
from pairnet.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv):
    """The CLI in its own interpreter, so an uncaught exception shows as a
    traceback on stderr and exit code 1."""
    pythonpath = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(pairnet.__file__)),
                    os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", "from pairnet.cli import entry; entry()", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def small_csv(tmp_path, capsys):
    """A generated 16-class dataset small enough for fast CLI runs."""
    path = tmp_path / "data.csv"
    code = main(["gen", "--out", str(path), "--scale", "0.02", "--seed", "5"])
    assert code == 0
    capsys.readouterr()
    return path


class TestGen:
    def test_writes_csv_sidecar_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code, stdout, _ = run(capsys, "gen", "--out", str(out), "--scale", "0.02", "--seed", "1")
        assert code == 0
        assert "16 classes" in stdout and "65 records" in stdout
        assert out.exists()
        sidecar = tmp_path / "synth.csv.config.txt"
        assert "separation = 0.9" in sidecar.read_text()
        manifest = json.loads((tmp_path / "synth.csv.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 1
        assert manifest["version"]

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen", "--out", str(a), "--scale", "0.02", "--seed", "9")
        run(capsys, "gen", "--out", str(b), "--scale", "0.02", "--seed", "9")
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_exits_2(self, tmp_path, scale):
        code, _, err = run_child("gen", "--out", tmp_path / "x.csv", "--scale", scale)
        assert code == 2, err
        assert "scale must be finite" in err and "Traceback" not in err


class TestTrain:
    def test_pairnet_prints_120_tests(self, tmp_path, capsys, small_csv):
        model = tmp_path / "model.txt"
        code, stdout, _ = run(
            capsys, "train", str(small_csv), "--out", str(model),
            "--max-iters", "2000", "--seed", "0",
        )
        assert code == 0
        assert "trained 120 pairwise tests" in stdout
        assert "train: segment_accuracy=" in stdout
        assert "test: segment_accuracy=" in stdout
        assert model.exists()
        assert model.read_text().startswith("PAIRNET v1\n")
        assert (tmp_path / "model.txt.manifest.json").exists()

    def test_lm_model_kind(self, tmp_path, capsys, small_csv):
        model = tmp_path / "lm.txt"
        code, stdout, _ = run(
            capsys, "train", str(small_csv), "--model", "lm", "--out", str(model),
            "--max-iters", "5000", "--seed", "0",
        )
        assert code == 0
        assert "linear machine" in stdout
        assert model.read_text().startswith("LM v1\n")

    def test_missing_input_exits_3(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "nope.csv" in stderr

    def test_bad_fraction_exits_2(self, tmp_path, capsys, small_csv):
        code, _, _ = run(
            capsys, "train", str(small_csv), "--test-fraction", "1.5",
            "--out", str(tmp_path / "m.txt"),
        )
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "x.csv", "--bogus"])
        assert exc.value.code == 2

    def test_jobs_do_not_change_model_file(self, tmp_path, capsys, small_csv):
        m1, m4 = tmp_path / "m1.txt", tmp_path / "m4.txt"
        run(capsys, "train", str(small_csv), "--out", str(m1),
            "--max-iters", "1000", "--seed", "3", "--jobs", "1")
        run(capsys, "train", str(small_csv), "--out", str(m4),
            "--max-iters", "1000", "--seed", "3", "--jobs", "4")
        assert m1.read_text() == m4.read_text()

    def test_env_seed_fallback(self, tmp_path, capsys, small_csv, monkeypatch):
        monkeypatch.setenv("PAIRNET_SEED", "31")
        model = tmp_path / "m.txt"
        run(capsys, "train", str(small_csv), "--out", str(model), "--max-iters", "500")
        manifest = json.loads((tmp_path / "m.txt.manifest.json").read_text())
        assert manifest["seed"] == 31

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_c_exits_2(self, tmp_path, small_csv, c):
        model = tmp_path / "m.txt"
        code, _, err = run_child("train", small_csv, "--out", model, "--c", c)
        assert code == 2, err
        assert "finite number > 0" in err and "Traceback" not in err
        assert not model.exists()

    def test_malformed_env_seed_exits_2(self, capsys, small_csv, monkeypatch):
        monkeypatch.setenv("PAIRNET_SEED", "not-a-number")
        code, _, stderr = run(capsys, "train", str(small_csv))
        assert code == 2
        assert "PAIRNET_SEED" in stderr


class TestEvaluate:
    @pytest.fixture
    def trained(self, tmp_path, capsys, small_csv):
        model = tmp_path / "model.txt"
        run(capsys, "train", str(small_csv), "--out", str(model),
            "--max-iters", "2000", "--seed", "0")
        return model

    def test_report_structure(self, capsys, small_csv, trained):
        code, stdout, _ = run(capsys, "evaluate", str(trained), str(small_csv))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("# segment_accuracy\t")
        header_idx = lines.index(
            "record\tn_segments\tn_correct\tmodal_class\ttrue_class\tconfidence"
        )
        rows = []
        for line in lines[header_idx + 1:]:
            if line.startswith("#"):
                break
            rows.append(line.split("\t"))
        assert len(rows) == 65
        # stable sort by record id
        assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
        for r in rows:
            assert 0.0 <= float(r[5]) <= 1.0
        # reported misclassification count matches a recount of the rows
        reported = int(next(l for l in lines if l.startswith("# misclassified_records")).split("\t")[1])
        assert reported == sum(1 for r in rows if r[3] != r[4])

    def test_confusion_and_distributions(self, capsys, small_csv, trained):
        _, stdout, _ = run(capsys, "evaluate", str(trained), str(small_csv))
        lines = stdout.splitlines()
        conf_start = lines.index("# confusion matrix: rows=true class, cols=predicted class") + 1
        conf = [list(map(int, lines[conf_start + k].split("\t"))) for k in range(16)]
        n_total = sum(sum(row) for row in conf)
        dist_start = next(i for i, l in enumerate(lines) if l.startswith("# distributions")) + 1
        n_rows = 0
        for line in lines[dist_start:]:
            parts = line.split("\t")
            shares = list(map(float, parts[2:]))
            assert len(shares) == 16
            # each share is rounded to 6 decimals in the report
            assert sum(shares) == pytest.approx(1.0, abs=2e-5)
            n_rows += 1
        assert n_rows == 65
        seg_acc = float(lines[0].split("\t")[1])
        assert sum(conf[k][k] for k in range(16)) / n_total == pytest.approx(seg_acc, abs=1e-6)

    def test_dimension_mismatch_exits_4(self, tmp_path, capsys, trained):
        other = tmp_path / "narrow.csv"
        other.write_text("a,class,record\n1.0,1,1\n2.0,2,2\n")
        code, _, stderr = run(capsys, "evaluate", str(trained), str(other))
        assert code == 4
        assert "features" in stderr or "r=" in stderr

    def test_non_finite_weight_exits_3(self, tmp_path, capsys, small_csv, trained):
        lines = trained.read_text().splitlines()
        k = lines.index("PAIR 1 2") + 1
        lines[k] = " ".join(["nan"] + lines[k].split()[1:])
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_child("evaluate", bad, small_csv)
        assert code == 3, err
        assert f"line {k + 1}: PAIR 1 2: value 1 is not finite" in err
        assert "Traceback" not in err

    def test_out_file_and_manifest(self, tmp_path, capsys, small_csv, trained):
        out = tmp_path / "report.tsv"
        code, stdout, _ = run(capsys, "evaluate", str(trained), str(small_csv), "--out", str(out))
        assert code == 0
        assert stdout == ""
        assert out.read_text().startswith("# segment_accuracy")
        assert (tmp_path / "report.tsv.manifest.json").exists()


class TestReports:
    def test_significance_deterministic_and_ranked(self, tmp_path, capsys, small_csv):
        code, out1, _ = run(capsys, "significance", str(small_csv))
        code2, out2, _ = run(capsys, "significance", str(small_csv))
        assert code == code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0] == "feature\tv\ts_sum\td\trank"
        assert len(lines) == 1 + 72
        ranks = [int(l.split("\t")[4]) for l in lines[1:]]
        assert sorted(ranks) == list(range(1, 73))
        # informative features (f1..f12) occupy the top 12 ranks
        top = {l.split("\t")[0] for l in lines[1:] if int(l.split("\t")[4]) <= 12}
        assert top == {f"f{k}" for k in range(1, 13)}

    def test_constant_feature_ranked_last(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "a,b,class,record\n"
            "1.0,0.5,1,1\n1.0,1.5,1,1\n1.0,3.0,2,2\n1.0,4.0,2,2\n"
        )
        _, stdout, _ = run(capsys, "significance", str(path))
        row_a = next(l for l in stdout.splitlines() if l.startswith("a\t"))
        assert row_a.split("\t")[3] == "0"  # d
        assert row_a.split("\t")[4] == "2"  # rank: last of two

    def test_intervals_by_name_and_index(self, capsys, small_csv):
        _, by_name, _ = run(capsys, "intervals", str(small_csv), "--feature", "f3")
        _, by_index, _ = run(capsys, "intervals", str(small_csv), "--feature", "3")
        assert by_name == by_index
        lines = by_name.splitlines()
        assert lines[0] == "class\tlabel\tmean\tlo\thi"
        assert len(lines) == 17
        assert lines[1].split("\t")[1] == "35"
        for line in lines[1:]:
            _, _, mean, lo, hi = line.split("\t")
            assert float(lo) <= float(mean) <= float(hi)

    def test_intervals_unknown_feature_exits_2(self, capsys, small_csv):
        code, _, _ = run(capsys, "intervals", str(small_csv), "--feature", "nope")
        assert code == 2

    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_intervals_non_finite_k_exits_2(self, small_csv, k):
        code, out, err = run_child("intervals", small_csv, "--feature", "f3", "--k", k)
        assert code == 2, err
        assert "finite number >= 0" in err and "Traceback" not in err
        assert out == ""


class TestExtract:
    def test_end_to_end(self, tmp_path, capsys):
        fs = 100.0
        t = np.arange(3000) / fs
        for name, freq in (("one.txt", 10.0), ("two.txt", 3.0)):
            sig = np.sin(2 * np.pi * freq * t)
            lines = ["fs=100"] + [f"{float(a)!r} {float(b)!r}" for a, b in zip(sig, -sig)]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "features.csv"
        code, stdout, _ = run(
            capsys, "extract", str(tmp_path / "one.txt"), str(tmp_path / "two.txt"),
            "--classes", "37,35", "--out", str(out),
        )
        assert code == 0
        assert "6 segments x 72 features" in stdout
        header = out.read_text().splitlines()[0]
        assert header.startswith("c3.subdelta.abspow,")
        assert header.endswith(",class,record")
        assert (tmp_path / "features.csv.manifest.json").exists()

    def test_class_count_mismatch_exits_2(self, tmp_path, capsys):
        (tmp_path / "sig.txt").write_text("fs=100\n" + "0.0 0.0\n" * 1000)
        code, _, _ = run(
            capsys, "extract", str(tmp_path / "sig.txt"), "--classes", "1,2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("head", ["fs=nan", "fs=inf"])
    def test_non_finite_rate_exits_3(self, tmp_path, head):
        (tmp_path / "sig.txt").write_text(f"{head}\n" + "0.5 1.5\n" * 1000)
        code, _, err = run_child(
            "extract", tmp_path / "sig.txt", "--classes", "1", "--out", tmp_path / "x.csv"
        )
        assert code == 3, err
        assert "line 1: sampling rate" in err and "Traceback" not in err

    @pytest.mark.parametrize("slow_first,code,message", [
        (True, 2, "sampling rate 40.0 Hz unusable"),
        (False, 3, "No such file"),
    ])
    def test_first_bad_recording_decides_the_error(self, tmp_path, capsys,
                                                    slow_first, code, message):
        # Recordings are read and featurized one at a time, in argument order.
        slow = tmp_path / "slow.txt"
        slow.write_text("fs=40\n" + "0.5 1.5\n" * 400)
        paths = [slow, tmp_path / "missing.txt"]
        if not slow_first:
            paths.reverse()
        out = tmp_path / "x.csv"
        got, _, err = run(capsys, "extract", *map(str, paths), "--classes", "1,2",
                          "--out", str(out))
        assert got == code, err
        assert message in err
        assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()

    def test_nan_sample_exits_3_naming_the_line(self, tmp_path):
        body = ["0.5 1.5"] * 1000
        body[41] = "nan 1.5"
        (tmp_path / "sig.txt").write_text("fs=100\n" + "\n".join(body) + "\n")
        code, _, err = run_child(
            "extract", tmp_path / "sig.txt", "--classes", "1", "--out", tmp_path / "x.csv"
        )
        assert code == 3, err
        assert "line 43: non-finite sample" in err and "Traceback" not in err


class TestBench:
    def test_zero_seeds_exits_2(self, capsys):
        code, _, _ = run(capsys, "bench", "--seeds", "0", "--scale", "0.02")
        assert code == 2

    def test_small_bench_report(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        code, stdout, _ = run(
            capsys, "bench", "--seeds", "2", "--scale", "0.02",
            "--max-iters", "1500", "--lm-max-iters", "4000",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        assert "median test segment accuracy" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "seed\tmodel\ttrain_seg\ttest_seg\ttrain_rec\ttest_rec\tfit_seconds"
        body = [l for l in lines[1:] if not l.startswith("#")]
        assert len(body) == 2 * 2 + 2  # per-seed rows plus two median rows
        assert lines[-1].startswith("# test_segment_gap_points\t")
        manifest = json.loads((tmp_path / "bench.tsv.manifest.json").read_text())
        assert manifest["config"]["seeds"] == 2
        assert manifest["config"]["max_iters"] == 1500
        assert manifest["config"]["scale"] == 0.02
