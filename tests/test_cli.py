import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import _alive, _children, _wait_for, fails_on_call
from hypothesis import given, settings
from hypothesis import strategies as st

import pairnet
from pairnet import cli, pairwise_net
from pairnet.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, boot=("-c", "from pairnet.cli import entry; entry()"), cwd=None):
    """The CLI in its own interpreter, so an uncaught exception shows as a
    traceback on stderr and exit code 1."""
    pythonpath = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(pairnet.__file__)),
                    os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *boot, *map(str, argv)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


# The CLI in a child that caps its own address space at 2 GiB, so that what
# it asks for beyond that cannot be allocated whatever this host's memory.
CAPPED_BOOT = ("-c", "import resource; resource.setrlimit(resource.RLIMIT_AS, "
               "(1 << 31, 1 << 31)); from pairnet.cli import entry; entry()")


@pytest.fixture
def small_csv(tmp_path, capsys):
    """A generated 16-class dataset small enough for fast CLI runs."""
    path = tmp_path / "data.csv"
    code = main(["gen", "--out", str(path), "--scale", "0.02", "--seed", "5"])
    assert code == 0
    capsys.readouterr()
    return path


# Finite floats at the edges of float64's range and of the flags' ranges.
_EXTREME_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1.0000000000000002, 1e306,
                                   2e307, 1e308, 1.7976931348623157e308,
                                   -1.7976931348623157e308])


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

    def test_scale_with_infinite_segment_counts_exits_2(self, tmp_path):
        code, _, err = run_child("gen", "--out", tmp_path / "x.csv", "--scale", "1e308")
        assert code == 2, err
        assert "segment counts infinite" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_scale_beyond_memory_exits_2(self, tmp_path):
        code, _, err = run_child("gen", "--out", tmp_path / "x.csv", "--scale", "1e10",
                                 boot=CAPPED_BOOT)
        assert code == 2, err
        assert "scale 10000000000.0: the dataset does not fit in memory" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    # gen and bench read no input file: values that push the generated data
    # past float64's range are bad flags.
    @pytest.mark.parametrize("argv,message", [
        (["gen", "--separation", "2e307"], "--separation or --record-effect too large"),
        (["gen", "--record-effect", "1e308"], "--separation or --record-effect too large"),
        (["bench", "--seeds", "1", "--max-iters", "200", "--record-effect", "1e200"],
         "--separation or --record-effect too large"),
        (["gen", "--artifact-rate", "5"], "artifact_rate must lie in [0, 1], got 5.0"),
    ])
    def test_generator_flag_values_exit_2(self, tmp_path, argv, message):
        out = tmp_path / "x.out"
        code, _, err = run_child(*argv, "--scale", "0.02", "--out", out)
        assert code == 2, err
        assert message in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @settings(max_examples=40, deadline=None)
    @given(flags=st.fixed_dictionaries({}, optional={
        "--separation": st.one_of(_EXTREME_FLOATS, st.floats(allow_nan=False,
                                                             allow_infinity=False)),
        "--record-effect": st.one_of(_EXTREME_FLOATS, st.floats(allow_nan=False,
                                                                allow_infinity=False)),
        "--artifact-rate": st.one_of(_EXTREME_FLOATS, st.floats(0.0, 1.0)),
        "--informative": st.one_of(st.sampled_from([0, 72, 73]), st.integers(-2**70, 2**70)),
    }))
    def test_fuzzed_generator_flags_exit_0_or_2(self, flags):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["gen", "--out", os.path.join(tmp, "x.csv"), "--scale", "0.02"]
            argv += [f"{flag}={value!r}" for flag, value in flags.items()]
            code = main(argv)
            assert code in (0, 2)
            if code:
                assert os.listdir(tmp) == []


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

    @pytest.mark.parametrize("model_kind", ["pairnet", "lm"])
    def test_bad_jobs_exits_2_for_every_model(self, tmp_path, small_csv, model_kind):
        model = tmp_path / "m.txt"
        code, _, err = run_child("train", small_csv, "--model", model_kind,
                                 "--out", model, "--jobs", "0")
        assert code == 2, err
        assert "jobs must be >= 1, got 0" in err and "Traceback" not in err
        assert not model.exists()
        assert not (tmp_path / "m.txt.manifest.json").exists()

    @pytest.mark.parametrize("model_kind", ["pairnet", "lm"])
    def test_budget_beyond_islice_exits_2(self, tmp_path, small_csv, model_kind):
        model = tmp_path / "m.txt"
        code, _, err = run_child("train", small_csv, "--model", model_kind,
                                 "--out", model, "--max-iters", 10**400)
        assert code == 2, err
        assert "< 2**63, got 1000" in err and "Traceback" not in err
        assert not model.exists()

    def test_malformed_env_seed_exits_2(self, capsys, small_csv, monkeypatch):
        monkeypatch.setenv("PAIRNET_SEED", "not-a-number")
        code, _, stderr = run(capsys, "train", str(small_csv))
        assert code == 2
        assert "PAIRNET_SEED" in stderr

    def test_seed_flag_wins_over_malformed_env_seed(self, tmp_path, capsys, small_csv,
                                                    monkeypatch):
        monkeypatch.setenv("PAIRNET_SEED", "abc")
        model = tmp_path / "m.txt"
        code, _, err = run(capsys, "train", str(small_csv), "--out", str(model),
                           "--max-iters", "200", "--seed", "5")
        assert code == 0, err
        assert json.loads((tmp_path / "m.txt.manifest.json").read_text())["seed"] == 5

    def test_malformed_env_seed_ignored_without_seed_flag(self, capsys, small_csv,
                                                          monkeypatch):
        monkeypatch.setenv("PAIRNET_SEED", "abc")
        code, out, err = run(capsys, "significance", str(small_csv))
        assert code == 0, err
        assert out.startswith("feature\tv\ts_sum\td\trank\n")

    def test_bad_seed_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", "x.csv", "--seed", "abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "pairnet gen: error: argument --seed: invalid int value: 'abc'\n")


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

    @pytest.mark.parametrize("index", ["0", "73"])
    def test_intervals_index_out_of_range_exits_2(self, capsys, small_csv, index):
        code, out, err = run(capsys, "intervals", str(small_csv), "--feature", index)
        assert code == 2
        assert err == f"pairnet: feature index {index} out of range 1..72\n" and out == ""

    def test_duplicate_feature_names_exit_3(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a,class,record\n1.0,2.0,1,1\n3.0,4.0,2,2\n")
        code, out, err = run_child("significance", path)
        assert code == 3, err
        assert f"{path}: duplicate feature column names" in err
        assert "Traceback" not in err and out == ""

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

    def test_empty_signal_file_exits_3(self, tmp_path):
        (tmp_path / "sig.txt").write_text("")
        code, out, err = run_child(
            "extract", tmp_path / "sig.txt", "--classes", "1", "--out", tmp_path / "x.csv"
        )
        assert code == 3, err
        assert "line 1: signal file is empty" in err
        assert "Traceback" not in err and out == ""
        assert os.listdir(tmp_path) == ["sig.txt"]

    @pytest.mark.parametrize("head,rows", [("fs=0.04", 1000), ("fs=40", 10)])
    def test_unusable_rate_exits_2_whatever_the_length(self, tmp_path, head, rows):
        (tmp_path / "sig.txt").write_text(f"{head}\n" + "0.5 1.5\n" * rows)
        code, _, err = run_child(
            "extract", tmp_path / "sig.txt", "--classes", "1", "--out", tmp_path / "x.csv"
        )
        assert code == 2, err
        assert "Hz unusable" in err and "Traceback" not in err

    @pytest.mark.parametrize("head", ["fs=1e20", "fs=1e308"])
    def test_window_beyond_any_array_exits_3(self, tmp_path, head):
        # fs * 10 exceeds numpy's largest dimension, or overflows to inf.
        (tmp_path / "sig.txt").write_text(f"{head}\n1 2\n3 4\n")
        code, _, err = run_child(
            "extract", tmp_path / "sig.txt", "--classes", "1", "--out", tmp_path / "x.csv"
        )
        assert code == 3, err
        assert "recording 1 is shorter than one 10-second segment" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["sig.txt"]

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

    @pytest.mark.parametrize("slow_first,code,message", [
        (True, 2, "sampling rate 40.0 Hz unusable"),
        (False, 3, "No such file"),
        (None, 3, "line 60002: non-numeric sample in '0.5 x'"),
    ])
    def test_first_bad_recording_decides_the_error_in_workers(
            self, tmp_path, capsys, monkeypatch, slow_first, code, message):
        # With two workers the missing file fails at once, whatever its
        # position; the error is still that of the first bad file in
        # argument order. slow_first=None puts first a file that fails only
        # at its last line, after its whole body has been parsed.
        monkeypatch.setattr(cli, "default_jobs", lambda: 2)
        slow = tmp_path / "slow.txt"
        if slow_first is None:
            slow.write_text("fs=100\n" + "0.5 1.5\n" * 60_000 + "0.5 x\n")
        else:
            slow.write_text("fs=40\n" + "0.5 1.5\n" * 400)
        paths = [slow, tmp_path / "missing.txt"]
        if slow_first is False:
            paths.reverse()
        out = tmp_path / "x.csv"
        got, _, err = run(capsys, "extract", *map(str, paths), "--classes", "1,2",
                          "--out", str(out))
        assert got == code, err
        assert message in err
        assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()

    @staticmethod
    def _recordings(tmp_path):
        """Four 30-second recordings at 100, 128, 256 and 100 Hz."""
        rng = np.random.default_rng(3)
        paths = []
        for k, fs in enumerate((100, 128, 256, 100)):
            x = rng.normal(size=(30 * fs, 2)) + np.sin(0.2 * (k + 1) * np.arange(30 * fs))[:, None]
            path = tmp_path / f"rec{k}.txt"
            path.write_text(f"fs={fs}\n" + "".join(f"{a!r} {b!r}\n" for a, b in x.tolist()))
            paths.append(str(path))
        return paths

    def test_workers_do_not_change_feats_csv(self, tmp_path, capsys, monkeypatch):
        paths = self._recordings(tmp_path)
        outs = []
        for jobs in (1, 2):
            monkeypatch.setattr(cli, "default_jobs", lambda: jobs)
            out = tmp_path / f"feats{jobs}.csv"
            code, stdout, err = run(capsys, "extract", *paths, "--classes", "35,39,43,35",
                                    "--out", str(out))
            assert code == 0, err
            assert "12 segments x 72 features from 4 recording(s)" in stdout
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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

    @pytest.mark.parametrize("flags", [
        ["--no-standardize", "--record-effect", "1e200"],
        ["--c", "1e300"],
    ])
    def test_training_overflow_from_flags_exits_2(self, tmp_path, flags):
        # bench reads no file, so only its flags can make training overflow.
        code, _, err = run_child(
            "bench", "--scale", "0.02", "--max-iters", "200", "--lm-max-iters", "200",
            "--seeds", "1", *flags, "--out", tmp_path / "r.tsv",
        )
        assert code == 2, err
        assert "--c, --max-iters, --lm-max-iters, --separation or --record-effect too large: " \
            "training could overflow float64" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []


SINGLE_RECORD_NOTE = (
    "note: class(es) 1, 2, 13, 16 have a single record each; assigned to training\n"
)
MANIFEST_KEYS = {"command", "config", "seed", "inputs", "outputs",
                 "duration_seconds", "version"}

# argv, inputs and outputs of each command that writes files; "{out}" is a
# fresh path stem, the other fields come from the `workspace` fixture.
WRITING_COMMANDS = {
    "gen": (["gen", "--out", "{out}.csv", "--scale", "0.02", "--seed", "2"],
            [], ["{out}.csv", "{out}.csv.config.txt"]),
    "train-pairnet": (["train", "{data}", "--out", "{out}.txt", "--max-iters", "200"],
                      ["{data}"], ["{out}.txt"]),
    "train-lm": (["train", "{data}", "--model", "lm", "--out", "{out}.txt",
                  "--max-iters", "500"], ["{data}"], ["{out}.txt"]),
    "extract": (["extract", "{sig}", "{sig}", "--classes", "1,2", "--out", "{out}.csv"],
                ["{sig}", "{sig}"], ["{out}.csv"]),
    "evaluate": (["evaluate", "{model}", "{data}", "--out", "{out}.tsv"],
                 ["{model}", "{data}"], ["{out}.tsv"]),
    "significance": (["significance", "{data}", "--out", "{out}.tsv"],
                     ["{data}"], ["{out}.tsv"]),
    "intervals": (["intervals", "{data}", "--feature", "f3", "--out", "{out}.tsv"],
                  ["{data}"], ["{out}.tsv"]),
    "bench": (["bench", "--seeds", "1", "--scale", "0.02", "--max-iters", "200",
               "--lm-max-iters", "500", "--out", "{out}.tsv"], [], ["{out}.tsv"]),
}

STDOUT_COMMANDS = {
    "evaluate": ["evaluate", "{model}", "{data}"],
    "significance": ["significance", "{data}"],
    "intervals": ["intervals", "{data}", "--feature", "2"],
    "bench": ["bench", "--seeds", "1", "--scale", "0.02", "--max-iters", "200",
              "--lm-max-iters", "500"],
}

# The modules of pairnet each command in WRITING_COMMANDS imports.
_CORE = ["_kernels", "_parallel", "cli", "dataset", "errors"]
_MODELS = ["linear_machine", "pairwise_net", "tlu"]
COMMAND_MODULES = {
    "gen": [*_CORE, "synthgen"],
    "train-pairnet": [*_CORE, *_MODELS, "model_io"],
    "train-lm": [*_CORE, *_MODELS, "model_io"],
    "extract": [*_CORE, "eeg_features"],
    "evaluate": [*_CORE, *_MODELS, "model_io"],
    "significance": [*_CORE, "feature_stats"],
    "intervals": [*_CORE, "feature_stats"],
    "bench": [*_CORE, *_MODELS, "synthgen"],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A dataset, a model trained on it and one signal recording."""
    base = tmp_path_factory.mktemp("workspace")
    data, model, sig = base / "data.csv", base / "model.txt", base / "sig.txt"
    assert main(["gen", "--out", str(data), "--scale", "0.02", "--seed", "5"]) == 0
    assert main(["train", str(data), "--out", str(model), "--max-iters", "200"]) == 0
    t = np.arange(1000)
    sig.write_text("fs=100\n" + "".join(
        f"{a!r} {b!r}\n" for a, b in zip(np.sin(0.3 * t).tolist(), np.cos(0.7 * t).tolist())
    ))
    return {"data": str(data), "model": str(model), "sig": str(sig)}


class TestRunner:
    """main times each command and writes <first output>.manifest.json when
    the command wrote files; a report sent to stdout gets no manifest."""

    @pytest.mark.parametrize("case", sorted(WRITING_COMMANDS))
    def test_command_imports_only_what_it_runs(self, tmp_path, workspace, case):
        # Each command imports the pairnet modules it runs and no others.
        # None imports numpy.ma: on numpy 2.x the first np.unique call, or
        # np.median of floats, imports it, 15-17 ms and 1.5 MB a process;
        # the commands find distinct values and medians by sorting.
        argv = [a.format(**workspace, out=str(tmp_path / case)) for a in WRITING_COMMANDS[case][0]]
        script = """if True:
            import json, sys
            from pairnet.cli import main
            assert main(sys.argv[1:]) == 0
            print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "pairnet"
                                    or m in ("numpy.ma", "numpy.random"))))
        """
        code, out, err = run_child(*argv, boot=("-c", script))
        assert code == 0, err
        loaded = json.loads(out.splitlines()[-1])
        assert "numpy.ma" not in loaded
        assert ("numpy.random" in loaded) == (case in {"gen", "train-pairnet", "train-lm",
                                                        "bench"})
        assert [m for m in loaded if m.startswith("pairnet")] == sorted(
            ["pairnet", *(f"pairnet.{m}" for m in COMMAND_MODULES[case])])

    @pytest.mark.parametrize("case", sorted(WRITING_COMMANDS))
    def test_manifest_lists_inputs_outputs_and_config(self, tmp_path, capsys, monkeypatch,
                                                      workspace, case):
        argv, inputs, outputs = WRITING_COMMANDS[case]
        fields = {**workspace, "out": str(tmp_path / case)}
        argv, inputs, outputs = ([a.format(**fields) for a in lst]
                                 for lst in (argv, inputs, outputs))
        # A process that has not yet loaded the compiled library; the
        # module's pick comes back after the test.
        for name in ("_loaded", "ACTIVE_PATH", "FALLBACK_REASON"):
            monkeypatch.setattr(pairnet._kernels, name, getattr(pairnet._kernels, name))
        monkeypatch.setattr(pairnet._kernels, "_loaded", None)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        manifest = json.loads((tmp_path / (outputs[0] + ".manifest.json")).read_text())
        # Every command that writes files loads the compiled library, to
        # train, to parse its inputs or to write a CSV: the path that ran,
        # and why, when it is the fallback.
        fallback = {"kernel_fallback"} if manifest["kernel_path"] == "numpy" else set()
        assert set(manifest) == MANIFEST_KEYS | {"kernel_path"} | fallback
        assert manifest["kernel_path"] == pairnet._kernels.ACTIVE_PATH
        assert manifest["command"] == argv[0]
        assert manifest["inputs"] == inputs
        assert manifest["outputs"] == outputs
        parsed = vars(build_parser().parse_args(argv))
        assert set(manifest["config"]) == set(parsed) - {"func"}
        assert manifest["seed"] == parsed.get("seed")
        assert manifest["version"] == pairnet.__version__
        assert sorted(p.name for p in tmp_path.glob("*.manifest.json")) == [
            os.path.basename(outputs[0]) + ".manifest.json"
        ]

    @pytest.mark.parametrize("case", sorted(STDOUT_COMMANDS))
    def test_stdout_report_writes_no_manifest(self, tmp_path, capsys, monkeypatch,
                                              workspace, case):
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(os.path.dirname(workspace["data"])))
        code, out, err = run(capsys, *(a.format(**workspace) for a in STDOUT_COMMANDS[case]))
        assert code == 0, err
        assert out
        assert os.listdir(tmp_path) == []
        assert sorted(os.listdir(os.path.dirname(workspace["data"]))) == before

    def test_train_notes_single_record_classes(self, tmp_path, capsys, workspace):
        code, _, err = run(capsys, "train", workspace["data"], "--max-iters", "200",
                           "--out", str(tmp_path / "m.txt"))
        assert code == 0
        assert err == SINGLE_RECORD_NOTE

    def test_bench_notes_once_per_seed(self, capsys):
        code, _, err = run(capsys, "bench", "--seeds", "2", "--scale", "0.02",
                           "--max-iters", "200", "--lm-max-iters", "500")
        assert code == 0
        assert err == SINGLE_RECORD_NOTE * 2

    def test_python_m_runs_the_cli(self, tmp_path):
        code, out, err = run_child("gen", "--out", "x.csv", "--scale", "0.02",
                                   boot=("-m", "pairnet.cli"), cwd=tmp_path)
        assert code == 0, err
        assert "-> x.csv" in out
        assert (tmp_path / "x.csv").exists()
        assert (tmp_path / "x.csv.manifest.json").exists()

    def test_no_worker_outlives_its_command(self, tmp_path, capsys, monkeypatch, workspace):
        # The no_child_left fixture fails the test if a worker is left.
        code, _, err = run(capsys, "train", workspace["data"], "--max-iters", "200",
                           "--out", str(tmp_path / "m.txt"), "--jobs", "2")
        assert code == 0, err
        monkeypatch.setattr(cli, "default_jobs", lambda: 2)
        code, _, err = run(capsys, "extract", workspace["sig"], str(tmp_path / "missing.txt"),
                           "--classes", "1,2", "--out", str(tmp_path / "x.csv"))
        assert code == 3, err

    def test_failed_fork_trains_in_process(self, tmp_path, capsys, monkeypatch, workspace):
        # A process limit met at the second fork is no data error: the pairs
        # are trained in this process, into the network jobs=1 trains.
        one, two = tmp_path / "one.txt", tmp_path / "two.txt"
        code, _, err = run(capsys, "train", workspace["data"], "--max-iters", "200",
                           "--out", str(one), "--jobs", "1")
        assert code == 0, err
        fork = fails_on_call(os.fork, 2)
        monkeypatch.setattr(os, "fork", fork)
        code, _, err = run(capsys, "train", workspace["data"], "--max-iters", "200",
                           "--out", str(two), "--jobs", "2")
        assert code == 0, err
        assert fork.calls == 2 and two.read_text() == one.read_text()

    def test_dead_worker_exits_2_naming_jobs(self, tmp_path, capsys, monkeypatch, workspace):
        # A worker killed from outside (say, for memory) ends the command
        # with a message, not a traceback or a wait for its result.
        train_one = pairwise_net._train_one_pair
        monkeypatch.setattr(pairwise_net, "_train_one_pair", lambda ds, cfg, i, j: (
            os._exit(1) if (i, j) == (1, 3) else train_one(ds, cfg, i, j)))
        out = tmp_path / "m.txt"
        code, _, err = run(capsys, "train", workspace["data"], "--max-iters", "200",
                           "--out", str(out), "--jobs", "2")
        assert code == 2, err
        assert "a worker process died before finishing its task (jobs=2)" in err
        assert "Traceback" not in err
        assert not out.exists() and not (tmp_path / "m.txt.manifest.json").exists()

    def test_no_worker_outlives_a_killed_command(self, tmp_path, small_csv):
        # SIGKILL leaves the command no chance to kill its workers; they
        # notice that their parent is gone and exit before their next pair.
        # Each pair is slowed down so that the kill lands partway through
        # training: 120 pairs over 2 workers leave each a share of 60 pairs,
        # 6 s at least, so a worker that ran on to its final write would
        # outlast the bound below.
        share_s = 60 * 0.1
        boot = ("-c", "import time; from pairnet import pairwise_net as pw; "
                "f = pw._train_one_pair; "
                "pw._train_one_pair = lambda *a: (time.sleep(0.1), f(*a))[1]; "
                "from pairnet.cli import entry; entry()")
        pythonpath = os.path.dirname(os.path.dirname(pairnet.__file__))
        proc = subprocess.Popen(
            [sys.executable, *boot, "train", str(small_csv), "--max-iters", "200",
             "--out", str(tmp_path / "m.txt"), "--jobs", "2"],
            env={**os.environ, "PYTHONPATH": pythonpath},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

        def two_workers():
            pids = _children(proc.pid)
            return pids if len(pids) == 2 else None

        try:
            workers = _wait_for(two_workers, "two workers")
            time.sleep(0.3)
        finally:
            proc.kill()
            proc.wait()
        try:
            _wait_for(lambda: not any(map(_alive, workers)), "exit of the workers",
                      timeout=share_s / 2)
        finally:
            for pid in filter(_alive, workers):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("from_env", [False, True])
    @pytest.mark.parametrize("command", ["gen", "train", "bench"])
    def test_negative_seed_exits_2(self, tmp_path, small_csv, monkeypatch, command, from_env):
        argv = {"gen": ["gen", "--out", tmp_path / "x.csv", "--scale", "0.02"],
                "train": ["train", small_csv, "--out", tmp_path / "m.txt"],
                "bench": ["bench", "--seeds", "1", "--scale", "0.02"]}[command]
        if from_env:
            monkeypatch.setenv("PAIRNET_SEED", "-1")
        else:
            argv += ["--seed", "-1"]
        code, out, err = run_child(*argv)
        assert code == 2, err
        assert "seed must be an integer >= 0, got -1" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "m.txt").exists()
        assert out == ""


class TestOutOfMemory:
    def test_stage_out_of_memory_exits_4(self, capsys, monkeypatch, workspace):
        def no_memory(path):
            raise MemoryError

        monkeypatch.setattr(cli, "load_csv", no_memory)
        code, out, err = run(capsys, "significance", workspace["data"])
        assert (code, out, err) == (4, "", "pairnet: significance: out of memory\n")

    def test_allocation_beyond_the_address_space_exits_4(self, tmp_path):
        # evaluate tallies the predicted classes of each record in one
        # records x r table: 100,000 one-segment records of 3,000 classes,
        # a 1.4 MB file, ask for 2.2 GiB.
        r, n = 3000, 100_000
        model, data, out = tmp_path / "lm.txt", tmp_path / "big.csv", tmp_path / "r.tsv"
        model.write_text(f"LM v1\nr={r} m=1\nstandardization=none\n"
                         + "".join(f"CLASS {j}\n0.0 {j}.0\n" for j in range(1, r + 1)))
        data.write_text("f1,class,record\n"
                        + "".join(f"1.0,{k % r + 1},{k + 1}\n" for k in range(n)))
        code, _, err = run_child("evaluate", model, data, "--out", out, boot=CAPPED_BOOT)
        assert (code, err) == (4, "pairnet: evaluate: out of memory\n")
        assert not out.exists()


def test_export_table():
    # import pairnet loads no submodule, though dir() lists every name; each
    # name of __all__ is imported from the module that defines it when
    # first used; a star import binds exactly __all__; unknown names,
    # submodules among them, stay AttributeErrors, so that
    # from pairnet import <submodule> still works.
    script = """if True:
        import sys
        import pairnet
        assert [m for m in sys.modules if m.startswith("pairnet")] == ["pairnet"]
        assert set(pairnet.__all__) <= set(dir(pairnet))
        for name in pairnet.__all__[:-1]:
            value = getattr(pairnet, name)
            assert value.__module__.startswith("pairnet."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert pairnet.__all__[-1] == "__version__"
        namespace = {}
        exec("from pairnet import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(pairnet.__all__)
        assert not hasattr(pairnet, "lm_classify")
        from pairnet import eeg_features
        assert eeg_features is sys.modules["pairnet.eeg_features"]
        print("ok")
    """
    code, out, err = run_child(boot=("-c", script))
    assert (code, out) == (0, "ok\n"), err


class TestBadHeaderValues:
    def test_record_id_beyond_int64_exits_3(self, tmp_path):
        bad = tmp_path / "huge.csv"
        bad.write_text("f1,class,record\n1.0,1,1\n2.0,2,99999999999999999999\n")
        code, out, err = run_child("significance", bad)
        assert code == 3, err
        assert "line 3: record id 99999999999999999999 exceeds the limit" in err
        assert "Traceback" not in err and out == ""

    def test_cell_over_the_field_limit_exits_3(self, tmp_path):
        bad = tmp_path / "long.csv"
        bad.write_text("f1,class,record\n1.0,1,1\n2.0," + "c" * 140_000 + ",2\n")
        code, out, err = run_child("significance", bad)
        assert code == 3, err
        assert "line 3: field larger than field limit" in err
        assert "Traceback" not in err and out == ""

    @staticmethod
    def huge_csv(tmp_path):
        """Two classes of 8 records whose finite features near 1e200 square
        past float64's range."""
        rng = np.random.default_rng(0)
        data = tmp_path / "huge.csv"
        lines = ["a,b,class,record"]
        for k in range(160):
            rec = k % 8 + 1
            a, b = (rng.uniform(1.0, 2.0, size=2) * 1e200).tolist()
            lines.append(f"{a!r},{b!r},{rec % 2 + 1},{rec}")
        data.write_text("\n".join(lines) + "\n")
        return data

    @pytest.mark.parametrize("model", ["pairnet", "lm"])
    def test_feature_too_large_to_standardize_exits_3(self, tmp_path, model):
        out_path = tmp_path / "model.txt"
        code, out, err = run_child("train", self.huge_csv(tmp_path), "--model", model,
                                   "--out", out_path)
        assert code == 3, err
        assert "feature 'a' is too large to standardize" in err
        assert "Traceback" not in err and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("argv,message", [
        (("significance",), "feature 'a' is too large for significance: v inf, s_sum inf"),
        (("intervals", "--feature", "a"), "feature 'a' is too large for intervals: class 1"),
    ])
    def test_feature_too_large_for_the_report_exits_3(self, tmp_path, argv, message):
        code, out, err = run_child(argv[0], self.huge_csv(tmp_path), *argv[1:])
        assert code == 3, err
        assert message in err
        assert "Traceback" not in err and "RuntimeWarning" not in err and out == ""

    @pytest.mark.parametrize("model", ["pairnet", "lm"])
    def test_raw_training_that_could_overflow_exits_4(self, tmp_path, model):
        out_path = tmp_path / "model.txt"
        code, out, err = run_child("train", self.huge_csv(tmp_path), "--model", model,
                                   "--no-standardize", "--out", out_path)
        assert code == 4, err
        assert "training could overflow float64" in err and "2**1000" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("model", ["pairnet", "lm"])
    def test_huge_correction_exits_4(self, tmp_path, small_csv, model):
        out_path = tmp_path / "model.txt"
        code, out, err = run_child("train", small_csv, "--model", model, "--c", "1e300",
                                   "--out", out_path)
        assert code == 4, err
        assert "training could overflow float64" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("dims", ["r=99999999999999999999 m=72", "r=1 m=72",
                                      "r=16 m=0", "r=16 m=-1"])
    def test_model_dimension_out_of_range_exits_3(self, tmp_path, workspace, dims):
        lines = Path(workspace["model"]).read_text().splitlines()
        lines[1] = dims
        bad = tmp_path / "badm.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run_child("evaluate", bad, workspace["data"])
        assert code == 3, err
        assert f"line 2: PAIRNET v1: dimension line '{dims}' needs r in 2" in err
        assert "Traceback" not in err and out == ""


class TestNonUtf8Input:
    @pytest.mark.parametrize("rows_before", [1, 2000])
    def test_csv_exits_3_naming_the_byte(self, tmp_path, rows_before):
        # 2000 rows put the bad cell past the reader's first decoded chunk.
        head = ("a,b,class,record\n" + "1.0,2.0,1,1\n2.0,1.0,2,2\n" * rows_before).encode()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(head + b"\xff\xfe,1.0,1,1\n")
        code, out, err = run_child("significance", bad)
        assert code == 3, err
        assert f"not UTF-8 text: invalid start byte at byte {len(head)}" in err
        assert "Traceback" not in err and out == ""

    def test_model_file_exits_3(self, tmp_path, workspace):
        text = Path(workspace["model"]).read_bytes()
        k = text.index(b"PAIR 1 2")
        bad = tmp_path / "badm.txt"
        bad.write_bytes(text[:k] + b"\xff" + text[k:])
        code, out, err = run_child("evaluate", bad, workspace["data"])
        assert code == 3, err
        assert f"not UTF-8 text: invalid start byte at byte {k}" in err
        assert "Traceback" not in err and out == ""
