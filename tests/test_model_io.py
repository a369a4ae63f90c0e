import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairnet
from pairnet import (
    LinearMachine,
    PairwiseNetwork,
    PairwiseTest,
    ParseError,
    SchemaError,
    Standardization,
    TrainingError,
    enumerate_pairs,
    load_model,
    save_model,
)


def random_net(r=4, m=3, seed=0, with_std=False):
    rng = np.random.default_rng(seed)
    tests = tuple(
        PairwiseTest(i=i, j=j, weights=rng.normal(size=m + 1))
        for i, j in enumerate_pairs(r)
    )
    st = None
    if with_std:
        st = Standardization(means=rng.normal(size=m), stds=rng.uniform(0.5, 2.0, m))
    return PairwiseNetwork(r=r, m=m, tests=tests, standardization=st)


def random_lm(r=3, m=4, seed=1, with_std=False):
    rng = np.random.default_rng(seed)
    st = None
    if with_std:
        st = Standardization(means=rng.normal(size=m), stds=rng.uniform(0.5, 2.0, m))
    return LinearMachine(r=r, m=m, weights=rng.normal(size=(r, m + 1)), standardization=st)


class TestRoundTrip:
    @pytest.mark.parametrize("with_std", [False, True])
    def test_network_bit_exact(self, tmp_path, with_std):
        net = random_net(with_std=with_std)
        path = tmp_path / "net.txt"
        save_model(net, path)
        back = load_model(path)
        assert isinstance(back, PairwiseNetwork)
        assert (back.r, back.m) == (net.r, net.m)
        for a, b in zip(net.tests, back.tests):
            assert (a.i, a.j) == (b.i, b.j)
            np.testing.assert_array_equal(a.weights, b.weights)
        if with_std:
            np.testing.assert_array_equal(back.standardization.means, net.standardization.means)
            np.testing.assert_array_equal(back.standardization.stds, net.standardization.stds)
        else:
            assert back.standardization is None

    @pytest.mark.parametrize("with_std", [False, True])
    def test_lm_bit_exact(self, tmp_path, with_std):
        lm = random_lm(with_std=with_std)
        path = tmp_path / "lm.txt"
        save_model(lm, path)
        back = load_model(path)
        assert isinstance(back, LinearMachine)
        np.testing.assert_array_equal(back.weights, lm.weights)

    def test_classifications_preserved_on_probes(self, tmp_path):
        net = random_net(r=5, m=4, seed=3, with_std=True)
        path = tmp_path / "net.txt"
        save_model(net, path)
        back = load_model(path)
        probes = np.random.default_rng(4).normal(size=(1000, 4))
        np.testing.assert_array_equal(back.classify_batch(probes), net.classify_batch(probes))

    def test_double_roundtrip_stable(self, tmp_path):
        net = random_net(seed=9)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(net, p1)
        save_model(load_model(p1), p2)
        assert p1.read_text() == p2.read_text()


class TestMalformedFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "model.txt"
        path.write_text(text)
        return path

    def test_wrong_magic(self, tmp_path):
        path = self.write(tmp_path, "SOMETHING v9\nr=2 m=1\n")
        with pytest.raises(ParseError, match="magic"):
            load_model(path)

    def test_truncated_names_missing_section(self, tmp_path):
        net = random_net(r=3, m=2, seed=5)
        path = tmp_path / "net.txt"
        save_model(net, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop the last PAIR section
        with pytest.raises(ParseError, match="PAIR 2 3"):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ParseError, match="magic"):
            load_model(path)

    def test_bad_dimension_line(self, tmp_path):
        path = self.write(tmp_path, "PAIRNET v1\nrows=2 cols=1\n")
        with pytest.raises(ParseError, match="dimension"):
            load_model(path)

    @pytest.mark.parametrize("magic", ["PAIRNET v1", "LM v1"])
    @pytest.mark.parametrize("dims", [
        "r=99999999999999999999 m=1", "r=9223372036854775808 m=1", "r=1 m=1",
        "r=0 m=1", "r=-3 m=1", "r=2 m=0", "r=2 m=-1", "r=2 m=99999999999999999999",
    ])
    def test_dimension_out_of_range_rejected_on_line_2(self, tmp_path, magic, dims):
        path = self.write(tmp_path, f"{magic}\n{dims}\nstandardization=none\n")
        with pytest.raises(ParseError, match=f"line 2: {magic}: dimension line '{dims}' needs r in 2"):
            load_model(path)

    def test_bad_standardization_line(self, tmp_path):
        path = self.write(tmp_path, "PAIRNET v1\nr=2 m=1\nstandardization=maybe\n")
        with pytest.raises(ParseError, match="standardization"):
            load_model(path)

    def test_wrong_weight_count(self, tmp_path):
        path = self.write(
            tmp_path,
            "PAIRNET v1\nr=2 m=2\nstandardization=none\nPAIR 1 2\n1.0 2.0\n",
        )
        with pytest.raises(ParseError, match="expected 3 values"):
            load_model(path)

    def test_non_numeric_weight(self, tmp_path):
        path = self.write(
            tmp_path,
            "PAIRNET v1\nr=2 m=1\nstandardization=none\nPAIR 1 2\n1.0 oops\n",
        )
        with pytest.raises(ParseError):
            load_model(path)

    def test_out_of_order_pairs(self, tmp_path):
        path = self.write(
            tmp_path,
            "PAIRNET v1\nr=3 m=1\nstandardization=none\n"
            "PAIR 1 3\n0.0 1.0\nPAIR 1 2\n0.0 1.0\nPAIR 2 3\n0.0 1.0\n",
        )
        with pytest.raises(ParseError, match="PAIR 1 2"):
            load_model(path)

    def test_lines_after_the_last_section_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        save_model(random_net(r=3, m=2, seed=5), path)
        text = path.read_text()
        path.write_text(text + "\n  \njunk\n")
        with pytest.raises(ParseError, match="line 12: PAIRNET v1: unexpected line "
                                             "after the last section 'PAIR 2 3'"):
            load_model(path)
        path.write_text(text + "\n  \n")  # trailing blank lines are fine
        assert load_model(path).r == 3

    def test_lm_with_a_lowered_r_rejected(self, tmp_path):
        path = tmp_path / "lm.txt"
        save_model(random_lm(r=4, m=2), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "r=4 m=2"
        lines[1] = "r=3 m=2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 10: LM v1: unexpected line "
                                             "after the last section 'CLASS 3'"):
            load_model(path)

    def test_byte_order_mark_loads_bit_identically(self, tmp_path):
        net = random_net(with_std=True)
        path = tmp_path / "net.txt"
        save_model(net, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = load_model(path)
        assert [t.weights.tobytes() for t in back.tests] == [t.weights.tobytes() for t in net.tests]
        assert back.standardization.stds.tobytes() == net.standardization.stds.tobytes()

    def test_non_utf8_offset_counts_the_bom(self, tmp_path):
        path = tmp_path / "net.txt"
        save_model(random_net(), path)
        text = b"\xef\xbb\xbf" + path.read_bytes()
        k = text.index(b"PAIR 1 2")
        path.write_bytes(text[:k] + b"\xff" + text[k:])
        with pytest.raises(ParseError, match=f"invalid start byte at byte {k}$"):
            load_model(path)

    def test_reported_line_numbers(self, tmp_path):
        path = self.write(
            tmp_path,
            "PAIRNET v1\nr=2 m=1\nstandardization=none\nPAIR 1 2\nbad bad\n",
        )
        with pytest.raises(ParseError) as exc:
            load_model(path)
        assert exc.value.line == 5


class TestNonFiniteValues:
    """Values that would classify as garbage are refused at load, naming
    the line, instead of loading silently."""

    def lines(self, tmp_path, model):
        path = tmp_path / "model.txt"
        save_model(model, path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize("row,what", [(3, "means"), (4, "stds"), (6, "PAIR 1 2"), (-1, "PAIR 3 4")])
    def test_network_values(self, tmp_path, token, row, what):
        path, lines = self.lines(tmp_path, random_net(with_std=True))
        parts = lines[row].split()
        parts[1] = token
        lines[row] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"{what}: value 2 is not finite") as exc:
            load_model(path)
        assert exc.value.line == (len(lines) if row == -1 else row + 1)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_lm_weights(self, tmp_path, token):
        path, lines = self.lines(tmp_path, random_lm())
        lines[-1] = token + " " + " ".join(lines[-1].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="CLASS 3: value 1 is not finite") as exc:
            load_model(path)
        assert exc.value.line == len(lines)

    @pytest.mark.parametrize("token", ["0.0", "-0.0", "-1.5", "-5e-324"])
    def test_stds_must_be_positive(self, tmp_path, token):
        path, lines = self.lines(tmp_path, random_lm(with_std=True))
        parts = lines[4].split()
        parts[2] = token
        lines[4] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="stds: value 3 must be > 0") as exc:
            load_model(path)
        assert exc.value.line == 5

    @pytest.mark.parametrize("field,value,match", [
        ("means", np.nan, "means: value 2 is not finite"),
        ("stds", np.inf, "stds: value 2 is not finite"),
        ("stds", 0.0, "stds: value 2 must be > 0"),
        ("weights", -np.inf, "PAIR 1 2: value 2 is not finite"),
    ])
    def test_save_refuses_what_load_rejects(self, tmp_path, field, value, match):
        net = random_net(with_std=True)
        st, first = net.standardization, net.tests[0]
        bad = getattr(first if field == "weights" else st, field).copy()
        bad[1] = value
        if field == "weights":
            net = replace(net, tests=(replace(first, weights=bad), *net.tests[1:]))
        else:
            net = replace(net, standardization=replace(st, **{field: bad}))
        path = tmp_path / "model.txt"
        with pytest.raises(TrainingError, match=f"cannot save the model: {match}"):
            save_model(net, path)
        assert not path.exists()

    def test_tiny_positive_std_loads(self, tmp_path):
        path, lines = self.lines(tmp_path, random_lm(with_std=True))
        lines[4] = " ".join(["5e-324"] + lines[4].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        assert load_model(path).standardization.stds[0] == 5e-324


class TestDimensionBound:
    """Nothing is sized by a header's r before the file shows its sections:
    r=100000 once made load_model build ~5e9 pair tuples."""

    @pytest.mark.parametrize("magic,r", [
        ("PAIRNET v1", 100_000), ("LM v1", 10**12), ("PAIRNET v1", 10**9),
    ])
    def test_huge_r_fails_fast_under_a_memory_cap(self, tmp_path, magic, r):
        path = tmp_path / "model.txt"
        path.write_text(f"{magic}\nr={r} m=1\nstandardization=none\n")
        # The child caps its own address space, so a regression ends in a
        # MemoryError there instead of exhausting this process's host.
        code = textwrap.dedent(f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from pairnet.errors import ParseError
            from pairnet.model_io import load_model
            try:
                load_model({str(path)!r})
            except ParseError as exc:
                print("ParseError:", exc)
        """)
        pythonpath = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(pairnet.__file__)),
                        os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "file truncated: missing section" in proc.stdout


class TestCorruptedModelFiles:
    """A valid model file cut at any line, or with any one token replaced
    by a bad value or dropped, is refused with a data error only."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), lm=st.booleans(), with_std=st.booleans(), cut=st.booleans())
    def test_load_raises_parse_or_schema_error(self, tmp_path, data, lm, with_std, cut):
        model = random_lm(m=2, with_std=with_std) if lm else random_net(r=3, m=2, with_std=with_std)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        if cut:
            k = data.draw(st.integers(0, len(lines) - 1), label="lines kept")
            lines = lines[:k]
        else:
            k = data.draw(st.integers(0, len(lines) - 1), label="line")
            tokens = lines[k].split()
            t = data.draw(st.integers(0, len(tokens) - 1), label="token")
            tokens[t] = data.draw(st.sampled_from(["nan", "inf", "1e999", "x", ""]), label="value")
            lines[k] = " ".join(tokens)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises((ParseError, SchemaError)):
            load_model(path)
