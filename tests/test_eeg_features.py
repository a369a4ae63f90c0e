import gc
import math
import os
import threading
import urllib.request
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairnet import _kernels, eeg_features
from pairnet.cli import main
from pairnet.eeg_features import (
    DEFAULT_BANDS,
    BandSpec,
    SegmentSignal,
    band_power,
    extract_features,
    feature_names,
    periodogram,
    read_signal_file,
    segment_signal,
    signal_files_to_dataset,
    signals_to_dataset,
)
from pairnet.errors import DimensionError, EmptyInputError, ParameterError, ParseError

FS = 100.0
N = 1000  # 10 seconds at 100 Hz
ORACLE_RTOL, ORACLE_ATOL = 1e-9, 1e-15


def _band_limited_variance(signal, fs, band):
    """Variance of the band's reconstructed component, via inverse DFT."""
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    spec = np.fft.rfft(x - x.mean())
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    keep = (freqs > band.lo_hz) & (freqs <= band.hi_hz)
    return float(np.var(np.fft.irfft(np.where(keep, spec, 0.0), n=n)))


def oracle_features(seg):
    """The 72 features one segment at a time, each band sum taken over its
    own masked bins and each variance column by inverse transform."""
    def masked_sum(psd, band):
        return float(psd.power[(psd.freqs > band.lo_hz) & (psd.freqs <= band.hi_hz)].sum())

    total_band = BandSpec("total", 0.0, 25.0)
    out = []
    for ch in (seg.c3, seg.c4, seg.c3 + seg.c4):
        psd = periodogram(ch, seg.fs)
        total_pow = masked_sum(psd, total_band)
        total_var = _band_limited_variance(ch, seg.fs, total_band)
        for band in DEFAULT_BANDS:
            p = masked_sum(psd, band)
            v = _band_limited_variance(ch, seg.fs, band)
            out += [
                p,
                p / total_pow if total_pow > 1e-15 else 0.0,
                v,
                v / total_var if total_var > 1e-15 else 0.0,
            ]
    return np.asarray(out)


def sinusoid(freq, fs=FS, n=N, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return amp * np.sin(2 * np.pi * freq * t + phase)


def segment(c3, c4=None, fs=FS):
    if c4 is None:
        c4 = np.zeros_like(c3)
    return SegmentSignal(c3=c3, c4=c4, fs=fs)


class TestSegmentSignal:
    def test_rejects_low_sampling_rate(self):
        with pytest.raises(ParameterError, match="sampling rate"):
            SegmentSignal(c3=np.zeros(400), c4=np.zeros(400), fs=40.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            SegmentSignal(c3=np.zeros(1000), c4=np.zeros(999), fs=100.0)

    def test_rejects_non_ten_second_window(self):
        with pytest.raises(DimensionError, match="fs \\* 10"):
            SegmentSignal(c3=np.zeros(500), c4=np.zeros(500), fs=100.0)

    @pytest.mark.parametrize("fs,n", [(0.0, 1000), (0.04, 1000), (math.nan, 1000),
                                      (40.0, 100), (40.0, 1000)])
    def test_segment_signal_checks_the_rate_first(self, fs, n):
        with pytest.raises(ParameterError, match="sampling rate"):
            segment_signal(fs, np.zeros(n), np.zeros(n))

    # fs * 10 beyond numpy's largest dimension, and overflowing to inf.
    @pytest.mark.parametrize("fs,window", [(1e20, "1000000000000000000000"), (1e308, "inf")])
    def test_window_longer_than_any_array(self, fs, window):
        assert segment_signal(fs, np.zeros(5), np.zeros(5)) == []
        with pytest.raises(DimensionError, match=f"segment length 5 != fs \\* 10s = {window} "):
            SegmentSignal(c3=np.zeros(5), c4=np.zeros(5), fs=fs)

    def test_segment_signal_rejects_unequal_channels(self):
        with pytest.raises(DimensionError, match="equally long"):
            segment_signal(100.0, np.zeros(2000), np.zeros(1500))

    # Every path checks the rate, then the channels, in _windows.
    @pytest.mark.parametrize("fs,c3,c4,error", [
        (math.nan, np.zeros(1000), np.zeros(999), ParameterError),
        (math.inf, np.zeros(1000), np.zeros(999), ParameterError),
        (49.9, np.zeros(1000), np.zeros(999), ParameterError),
        (100.0, np.zeros((1000, 2)), np.zeros((1000, 2)), DimensionError),
        (100.0, np.zeros(1000), np.zeros(999), DimensionError),
    ])
    @pytest.mark.parametrize("path", ["SegmentSignal", "segment_signal", "signals_to_dataset"])
    def test_every_path_raises_the_same_error(self, path, fs, c3, c4, error):
        call = {
            "SegmentSignal": lambda: SegmentSignal(c3=c3, c4=c4, fs=fs),
            "segment_signal": lambda: segment_signal(fs, c3, c4),
            "signals_to_dataset": lambda: signals_to_dataset([(fs, c3, c4)], ["1"]),
        }[path]
        match = "sampling rate" if error is ParameterError else "channels must be 1-D"
        with pytest.raises(error, match=match):
            call()


class TestPeriodogram:
    def test_zero_signal(self):
        psd = periodogram(np.zeros(N), FS)
        assert np.all(psd.power == 0.0)

    def test_constant_signal(self):
        psd = periodogram(np.full(N, 3.7), FS)
        np.testing.assert_allclose(psd.power, 0.0, atol=1e-20)

    def test_sinusoid_power_concentrated(self):
        psd = periodogram(sinusoid(10.0), FS)
        total = psd.power.sum()
        near = psd.power[np.abs(psd.freqs - 10.0) <= 0.5].sum()
        assert near / total >= 0.999

    def test_parseval(self):
        rng = np.random.default_rng(0)
        for n in (N, 999, 256, 255):  # even and odd lengths
            x = rng.normal(size=n) * 4.2 + 1.5
            psd = periodogram(x, FS)
            var = float(np.var(x))
            np.testing.assert_allclose(psd.power.sum(), var, rtol=1e-9)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            periodogram(np.array([1.0]), FS)

    @pytest.mark.parametrize("fs", [math.nan, math.inf])
    def test_rejects_non_finite_rate(self, fs):
        with pytest.raises(ParameterError, match="fs must be finite and > 0"):
            periodogram(np.arange(8.0), fs)


class TestBandPower:
    def test_alpha_catches_10hz(self):
        psd = periodogram(sinusoid(10.0), FS)
        alpha = band_power(psd, DEFAULT_BANDS[3])
        assert alpha / psd.power.sum() >= 0.999

    def test_zero_signal_all_bands_zero(self):
        psd = periodogram(np.zeros(N), FS)
        for band in DEFAULT_BANDS:
            assert band_power(psd, band) == 0.0

    def test_band_sum_bounded_by_total(self):
        rng = np.random.default_rng(1)
        psd = periodogram(rng.normal(size=N), FS)
        banded = sum(band_power(psd, b) for b in DEFAULT_BANDS)
        assert banded <= psd.power.sum() + 1e-12

    def test_band_beyond_nyquist_rejected(self):
        psd = periodogram(np.zeros(N), FS)
        with pytest.raises(ParameterError):
            band_power(psd, BandSpec("too-high", 50.0, 60.0))

    def test_adjacent_bands_do_not_double_count(self):
        # a bin exactly on a band edge belongs to the lower band only
        psd = periodogram(sinusoid(3.5), FS)
        delta = band_power(psd, DEFAULT_BANDS[1])  # (1.5, 3.5]
        theta = band_power(psd, DEFAULT_BANDS[2])  # (3.5, 7.5]
        assert delta / psd.power.sum() >= 0.999
        assert theta / psd.power.sum() <= 1e-9


class TestExtractFeatures:
    def test_zero_segment(self):
        feats = extract_features(segment(np.zeros(N)))
        np.testing.assert_array_equal(feats, np.zeros(72))

    def test_names_match_layout(self):
        names = feature_names()
        assert len(names) == 72
        assert names[0] == "c3.subdelta.abspow"
        assert names.index("c3.alpha.relpow") == 0 * 24 + 3 * 4 + 1
        assert names.index("c3c4.beta2.relvar") == 71

    def test_sinusoid_localized_to_alpha_groups(self):
        feats = extract_features(segment(sinusoid(10.0)))
        names = feature_names()
        nonzero = {names[i] for i in np.flatnonzero(np.abs(feats) > 1e-9)}
        assert nonzero == {
            "c3.alpha.abspow", "c3.alpha.relpow", "c3.alpha.absvar", "c3.alpha.relvar",
            "c3c4.alpha.abspow", "c3c4.alpha.relpow", "c3c4.alpha.absvar", "c3c4.alpha.relvar",
        }

    def test_relative_powers_sum_to_one(self):
        rng = np.random.default_rng(2)
        feats = extract_features(segment(rng.normal(size=N), rng.normal(size=N)))
        names = feature_names()
        for ch in ("c3", "c4", "c3c4"):
            rel = sum(feats[names.index(f"{ch}.{b.name}.relpow")] for b in DEFAULT_BANDS)
            # in-band noise only partially covers 0-50 Hz, so compare the
            # bands' share against an explicitly band-limited signal
            assert rel <= 1.0 + 1e-9
        # a signal fully inside 0-25 Hz makes the shares a partition
        feats = extract_features(segment(sinusoid(5.0) + sinusoid(17.0)))
        rel = sum(feats[names.index(f"c3.{b.name}.relpow")] for b in DEFAULT_BANDS)
        assert rel == pytest.approx(1.0, rel=1e-9)

    def test_variance_chain_matches_power_chain(self):
        rng = np.random.default_rng(3)
        feats = extract_features(segment(rng.normal(size=N), rng.normal(size=N)))
        names = feature_names()
        for ch in ("c3", "c4", "c3c4"):
            for b in DEFAULT_BANDS:
                p = feats[names.index(f"{ch}.{b.name}.abspow")]
                v = feats[names.index(f"{ch}.{b.name}.absvar")]
                np.testing.assert_allclose(v, p, rtol=1e-9, atol=1e-15)

    def test_scaling_by_three(self):
        rng = np.random.default_rng(4)
        c3, c4 = rng.normal(size=N), rng.normal(size=N)
        base = extract_features(segment(c3, c4))
        scaled = extract_features(segment(3.0 * c3, 3.0 * c4))
        names = feature_names()
        absolute = [i for i, n in enumerate(names) if ".abs" in n]
        relative = [i for i, n in enumerate(names) if ".rel" in n]
        np.testing.assert_allclose(scaled[absolute], 9.0 * base[absolute], rtol=1e-9)
        np.testing.assert_allclose(scaled[relative], base[relative], rtol=1e-9)

    def test_channel_sum_is_elementwise(self):
        c3 = sinusoid(10.0)
        c4 = -c3  # cancels in the sum channel
        feats = extract_features(segment(c3, c4))
        names = feature_names()
        assert feats[names.index("c3c4.alpha.abspow")] == pytest.approx(0.0, abs=1e-18)
        assert feats[names.index("c3.alpha.abspow")] > 0


class TestSignalFiles:
    def write_signal(self, tmp_path, fs, c3, c4, header=None):
        path = tmp_path / "sig.txt"
        lines = [header if header is not None else f"fs={fs}"]
        lines += [f"{float(a)!r} {float(b)!r}" for a, b in zip(c3, c4)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        c3, c4 = rng.normal(size=50), rng.normal(size=50)
        path = self.write_signal(tmp_path, 100.0, c3, c4)
        fs, r3, r4 = read_signal_file(path)
        assert fs == 100.0
        np.testing.assert_array_equal(r3, c3)
        np.testing.assert_array_equal(r4, c4)

    def test_bare_number_header(self, tmp_path):
        path = self.write_signal(tmp_path, 0, [1.0], [2.0], header="128")
        fs, _, _ = read_signal_file(path)
        assert fs == 128.0

    def test_bad_header(self, tmp_path):
        path = self.write_signal(tmp_path, 0, [1.0], [2.0], header="hello")
        with pytest.raises(ParseError, match="sampling rate"):
            read_signal_file(path)

    def test_bad_sample_line(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("fs=100\n1.0 2.0 3.0\n")
        with pytest.raises(ParseError, match="2 samples"):
            read_signal_file(path)

    def test_segmentation_drops_partial_tail(self):
        c3 = np.zeros(2500)
        segs = segment_signal(100.0, c3, c3.copy())
        assert len(segs) == 2
        assert all(len(s.c3) == 1000 for s in segs)

    def test_too_short_recording_rejected(self):
        from pairnet.errors import EmptyInputError

        with pytest.raises(EmptyInputError, match="10-second"):
            signals_to_dataset([(100.0, np.zeros(500), np.zeros(500))], ["1"])

    def test_signals_to_dataset(self):
        fs = 100.0
        rec1 = (fs, sinusoid(10.0, n=2000), np.zeros(2000))
        rec2 = (fs, sinusoid(3.0, n=3000), sinusoid(3.0, n=3000))
        ds = signals_to_dataset([rec1, rec2], ["37", "35"])
        assert ds.m == 72
        assert ds.feature_names == tuple(feature_names())
        assert ds.class_labels == ("35", "37")
        assert len(ds) == 2 + 3
        np.testing.assert_array_equal(np.unique(ds.records), [1, 2])
        # recording 1 got label "37" -> class id 2 after numeric sort
        assert set(ds.y[ds.records == 1]) == {2}


def _recording(rng, fs, k, kind):
    n = round(fs * 10) * k + 3  # a partial tail that must be dropped
    if kind == "zero":
        return np.zeros(n), np.zeros(n)
    if kind == "constant":
        return np.full(n, 3.7), np.full(n, -12.25)
    t = np.arange(n) / fs
    c3 = 20.0 * np.sin(2 * np.pi * 9.0 * t) + rng.normal(0.0, 10.0, n) + 4.0
    return c3, 0.6 * c3 + rng.normal(0.0, 5.0, n)


class TestBatchedKernel:
    @pytest.mark.parametrize("fs", [50.0, 57.3, 100.0, 128.0, 199.9, 256.0])
    def test_matches_inverse_dft_oracle(self, fs):
        rng = np.random.default_rng(int(fs * 10))
        recs = [(fs, *_recording(rng, fs, k, kind))
                for k, kind in ((3, "noise"), (1, "zero"), (2, "constant"))]
        ds = signals_to_dataset(recs, ["1", "2", "3"])
        expected = np.vstack([
            oracle_features(seg) for rec in recs for seg in segment_signal(*rec)
        ])
        assert ds.X.shape == expected.shape == (6, 72)
        np.testing.assert_allclose(ds.X, expected, rtol=ORACLE_RTOL, atol=ORACLE_ATOL)

    @pytest.mark.parametrize("fs", [50.0, 57.3, 128.0])
    def test_single_segment_is_a_dataset_row(self, fs):
        rng = np.random.default_rng(7)
        recs = [(fs, *_recording(rng, fs, k, "noise")) for k in (3, 1)]
        ds = signals_to_dataset(recs, ["1", "2"])
        segs = [seg for rec in recs for seg in segment_signal(*rec)]
        assert len(segs) == len(ds) == 4
        for row, seg in zip(ds.X, segs):
            np.testing.assert_allclose(
                extract_features(seg), row, rtol=ORACLE_RTOL, atol=ORACLE_ATOL
            )

    def test_rejects_low_or_non_finite_rate(self):
        x = np.zeros(5000)
        for fs in (40.0, math.nan, math.inf, 0.0, -100.0, 0.04):
            with pytest.raises(ParameterError, match="sampling rate"):
                signals_to_dataset([(fs, x, x)], ["1"])
            with pytest.raises(ParameterError, match="sampling rate"):
                signals_to_dataset([(fs, x[:100], x[:100])], ["1"])

    def test_rejects_unequal_channels(self):
        with pytest.raises(DimensionError):
            signals_to_dataset([(100.0, np.zeros(2000), np.zeros(1999))], ["1"])


class TestStreaming:
    """signals_to_dataset over an iterable that it may draw from only once."""

    def _recordings(self):
        rng = np.random.default_rng(11)
        return [(fs, *_recording(rng, fs, k, kind))
                for fs, k, kind in ((100.0, 2, "noise"), (128.0, 3, "zero"), (256.0, 1, "noise"))]

    def test_generator_matches_list_bitwise(self):
        recs = self._recordings()
        labels = ["b", "a", "b"]
        from_list = signals_to_dataset(recs, labels)
        from_gen = signals_to_dataset((rec for rec in recs), iter(labels))
        for name in ("X", "y", "records"):
            a, b = getattr(from_list, name), getattr(from_gen, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
        assert from_gen.class_labels == from_list.class_labels == ("a", "b")
        assert from_gen.feature_names == from_list.feature_names

    def test_each_recording_released_before_the_next_is_drawn(self):
        rng = np.random.default_rng(5)
        refs = []

        def fresh():
            c3, c4 = _recording(rng, FS, 2, "noise")
            refs.append((weakref.ref(c3), weakref.ref(c4)))
            return FS, c3, c4

        def recordings():
            for k in range(4):
                gc.collect()
                alive = [i for i, pair in enumerate(refs) if any(r() is not None for r in pair)]
                assert not alive, f"recordings {alive} alive while drawing recording {k}"
                yield fresh()

        ds = signals_to_dataset(recordings(), ["1", "2", "1", "2"])
        assert len(ds) == 8 and len(refs) == 4
        gc.collect()
        assert all(r() is None for pair in refs for r in pair)

    @pytest.mark.parametrize("n_labels,match", [(2, "more than 2 recordings for 2 class labels"),
                                                (4, "3 recordings but 4 class labels")])
    def test_label_count_mismatch(self, n_labels, match):
        recs = self._recordings()
        drawn = []

        def recordings():
            for rec in recs:
                drawn.append(rec)
                yield rec

        with pytest.raises(ParameterError, match=match):
            signals_to_dataset(recordings(), ["1"] * n_labels)
        assert len(drawn) == min(n_labels + 1, len(recs))

    def test_no_recordings_rejected(self):
        with pytest.raises(EmptyInputError, match="no recordings"):
            signals_to_dataset([], [])

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_signal_files_match_signals_to_dataset(self, tmp_path, jobs):
        paths = []
        for k, (fs, c3, c4) in enumerate(self._recordings()):
            paths.append(tmp_path / f"rec{k}.txt")
            paths[-1].write_text(f"fs={fs!r}\n" + "".join(
                f"{a!r} {b!r}\n" for a, b in zip(c3.tolist(), c4.tolist())))
        labels = ["b", "a", "b"]
        want = signals_to_dataset(map(read_signal_file, paths), labels)
        got = signal_files_to_dataset(paths, labels, jobs)
        for name in ("X", "y", "records"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.class_labels == want.class_labels

    def test_signal_files_need_one_label_each(self, tmp_path):
        with pytest.raises(ParameterError, match="2 signal files but 1 class labels"):
            signal_files_to_dataset([tmp_path / "a", tmp_path / "b"], ["1"])


def reference_read(path):
    """The line-at-a-time reader: str.splitlines lines, header on line 1, two
    finite samples on every other non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("signal file is empty", line=1)
    head = lines[0].strip().removeprefix("fs=")
    try:
        fs = float(head)
    except ValueError:
        raise ParseError("bad rate", line=1) from None
    if not (math.isfinite(fs) and fs > 0):
        raise ParseError("bad rate", line=1)
    c3, c4 = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError("token count", line=lineno)
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError("non-numeric", line=lineno) from None
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ParseError("non-finite", line=lineno)
        c3.append(a)
        c4.append(b)
    return fs, np.asarray(c3, dtype=np.float64), np.asarray(c4, dtype=np.float64)


def outcome(reader, path):
    try:
        fs, c3, c4 = reader(path)
    except ParseError as exc:
        return ("error", exc.line)
    return ("ok", fs, c3.dtype, c3.tobytes(), c4.dtype, c4.tobytes())


class TestSignalReaderEdges:
    def read(self, tmp_path, text):
        path = tmp_path / "sig.txt"
        path.write_bytes(text.encode("utf-8"))
        return path

    @pytest.mark.parametrize("head", ["fs=nan", "fs=inf", "-inf", "fs=0", "-100"])
    def test_rejects_unusable_rate_on_line_1(self, tmp_path, head):
        with pytest.raises(ParseError, match="sampling rate") as exc:
            read_signal_file(self.read(tmp_path, f"{head}\n1 2\n"))
        assert exc.value.line == 1

    @pytest.mark.parametrize("bad", ["nan 1", "1 inf", "-inf 0", "1e400 0"])
    def test_rejects_non_finite_sample_by_line(self, tmp_path, bad):
        path = self.read(tmp_path, f"fs=100\n1 2\n\n3 4\n{bad}\n5 6\n")
        with pytest.raises(ParseError, match="non-finite") as exc:
            read_signal_file(path)
        assert exc.value.line == 5

    def test_form_feed_breaks_a_line(self, tmp_path):
        # str.splitlines breaks at \x0c; loadtxt would read one 2-column row
        with pytest.raises(ParseError, match="found 1") as exc:
            read_signal_file(self.read(tmp_path, "fs=100\n1\x0c2\n"))
        assert exc.value.line == 2

    def test_vertical_tab_breaks_a_line(self, tmp_path):
        # loadtxt would read one 4-column row
        fs, c3, c4 = read_signal_file(self.read(tmp_path, "fs=100\n1 2\x0b3 4\n"))
        np.testing.assert_array_equal(c3, [1.0, 3.0])
        np.testing.assert_array_equal(c4, [2.0, 4.0])

    def test_header_only_gives_empty_channels(self, tmp_path):
        fs, c3, c4 = read_signal_file(self.read(tmp_path, "fs=100\n\n  \n"))
        assert fs == 100.0 and c3.shape == c4.shape == (0,)

    def test_crlf_and_blank_lines(self, tmp_path):
        fs, c3, c4 = read_signal_file(self.read(tmp_path, "128\r\n1\t2\r\n\r\n 3  4 \r\n"))
        assert fs == 128.0
        np.testing.assert_array_equal(c3, [1.0, 3.0])
        np.testing.assert_array_equal(c4, [2.0, 4.0])

    def test_pipe_is_read_by_the_line_parser(self, tmp_path):
        fifo = tmp_path / "sig.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("fs=100\n1 2\n3 4\n",))
        writer.start()
        try:
            fs, c3, c4 = read_signal_file(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert fs == 100.0 and eeg_features.SIGNAL_PARSER == "lines"
        np.testing.assert_array_equal(c3, [1.0, 3.0])
        np.testing.assert_array_equal(c4, [2.0, 4.0])

    @pytest.mark.parametrize("head", ["fs=100", "100"])
    def test_bom_before_the_rate(self, tmp_path, head):
        fs, c3, c4 = read_signal_file(self.read(tmp_path, f"\ufeff{head}\r\n1 2\r\n3 4\r\n"))
        assert fs == 100.0
        np.testing.assert_array_equal(c3, [1.0, 3.0])
        np.testing.assert_array_equal(c4, [2.0, 4.0])

    @pytest.mark.parametrize("text,fast", [
        ("\ufefffs=100\n1 2\n3 4\n", True),
        ("fs=100\n\n1 2\n\n  \n3 4\n\n", True),
        ("fs=100\n1\t2\n\t3\t4\t\n", True),
        ("fs=100\n+1.5 -2e3\n+.5E-2 1e+2\n-0.0 +0\n", True),
        ("fs=100\n1 2   \n3 4 \n", True),
        ("fs=100\r\n1 2\r\n3 4", True),
        ("fs=100\n1e308 -1e308\n1.7976931348623157e308 5e-324\n", True),
        ("fs=100\n", False),
        ("fs=100", False),
    ])
    def test_fast_path_matches_the_line_parser_bitwise(self, tmp_path, monkeypatch, text, fast):
        path = self.read(tmp_path, text)
        c3, c4 = eeg_features._parse_sample_lines(text.splitlines()[1:])
        if fast:
            monkeypatch.setattr(eeg_features, "_parse_sample_lines", None)
        fs, r3, r4 = read_signal_file(path)
        assert fs == 100.0
        assert (r3.dtype, r3.tobytes(), r4.dtype, r4.tobytes()) == (
            c3.dtype, c3.tobytes(), c4.dtype, c4.tobytes())

    # Given the name, numpy's loader would decompress the .gz to .lzma files
    # and fetch the last one over the network.
    @pytest.mark.parametrize("name", ["sig.txt", "sig.gz", "sig.bz2", "sig.xz", "sig.lzma",
                                      "http://host/sig.txt"])
    def test_every_path_form_is_read_as_text(self, tmp_path, monkeypatch, name):
        def no_network(*args, **kwargs):
            raise AssertionError("network access")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        path = Path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("fs=100\n1 2\n3 4\n")
        for given in (path, name, os.fsencode(name)):
            fs, c3, c4 = read_signal_file(given)
            assert fs == 100.0 and c3.tolist() == [1.0, 3.0] and c4.tolist() == [2.0, 4.0]

    def test_not_utf8_offset_counts_the_bom(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_bytes(b"\xef\xbb\xbffs=100\n1 2\n\xff 3\n")
        with pytest.raises(ParseError, match="invalid start byte at byte 14$"):
            read_signal_file(path)

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_bytes(b"fs=100\n1 2\n\xff\xfe 3\n")
        with pytest.raises(ParseError, match="UTF-8"):
            read_signal_file(path)


_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "abc", "1_0", "0x10", "١", "+.5", "5.", "1e-320"]),
)
_separators = st.sampled_from([" ", "\t", "  ", "\xa0", " \t "])
_line_ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", " "])
_body_line = st.one_of(
    st.lists(_tokens, min_size=2, max_size=2),
    st.lists(_tokens, min_size=0, max_size=3),
).flatmap(lambda toks: st.tuples(st.just(toks), _separators, st.sampled_from(["", " ", "\t"])))
_heads = st.sampled_from(["fs=100", "128", " fs=57.3 ", "fs=nan", "fs=inf", "0", "-5", "hello", ""])


def _render(head, body, ends):
    parts = [head]
    for (toks, sep, pad), end in zip(body, ends):
        parts.append(end + pad + sep.join(toks) + pad)
    return "".join(parts) + "\n"


class TestSignalReaderProperties:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        head=_heads,
        body=st.lists(_body_line, max_size=8),
        ends=st.lists(_line_ends, min_size=8, max_size=8),
    )
    def test_agrees_with_line_parser(self, tmp_path, head, body, ends):
        path = tmp_path / "sig.txt"
        path.write_bytes(_render(head, body, ends).encode("utf-8"))
        assert outcome(read_signal_file, path) == outcome(reference_read, path)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        fs=st.floats(50.0, 1e4),
        samples=st.lists(
            st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                      st.floats(allow_nan=False, allow_infinity=False)),
            max_size=40,
        ),
    )
    def test_repr_round_trip(self, tmp_path, fs, samples):
        path = tmp_path / "sig.txt"
        lines = [f"fs={fs!r}"] + [f"{a!r} {b!r}" for a, b in samples]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got_fs, c3, c4 = read_signal_file(path)
        want = np.asarray(samples, dtype=np.float64).reshape(-1, 2)
        assert got_fs == fs
        assert c3.tobytes() == want[:, 0].tobytes()
        assert c4.tobytes() == want[:, 1].tobytes()


def compiled_scanner():
    if _kernels.load() is None:
        pytest.skip(f"compiled library unavailable: {_kernels.FALLBACK_REASON}")


def each_path(run, *args):
    """run(*args) and the SIGNAL_PARSER it leaves, first with the compiled
    library loaded, then with it unloaded, as where it does not build."""
    compiled_scanner()
    got = []
    for loaded in (_kernels._loaded, False):
        with mock.patch.object(_kernels, "_loaded", loaded), \
                mock.patch.object(eeg_features, "SIGNAL_PARSER", None):
            got.append((run(*args), eeg_features.SIGNAL_PARSER))
    return got


def exact_outcome(path):
    """read_signal_file(path)'s arrays, or its exact error."""
    try:
        fs, c3, c4 = read_signal_file(path)
    except ParseError as exc:
        return ("error", str(exc))
    return ("ok", fs, c3.dtype, c3.tobytes(), c4.dtype, c4.tobytes())


def line_parser_outcome(text):
    """exact_outcome of a file holding text, from the rate and line parsers."""
    lines = text.removeprefix("\ufeff").splitlines()
    c3, c4 = eeg_features._parse_sample_lines(lines[1:])
    return ("ok", eeg_features._parse_rate(lines[0]), c3.dtype, c3.tobytes(),
            c4.dtype, c4.tobytes())


_repr_cells = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# The fixed-width cells of perfbench's recordings, and a negative zero.
_fixed_cells = st.one_of(
    st.integers(-999_999, 999_999).map(
        lambda v: f"{'-' if v < 0 else '+'}{abs(v) // 1000:03d}.{abs(v) % 1000:03d}"),
    st.just("-000.000"))


@st.composite
def scanned_texts(draw):
    """Signal files of the scanner's grammar: an optional BOM, a rate, then
    lines of two cells (float reprs or fixed-width decimals) with spaces and
    tabs between and around them, blank lines among them, each line ended
    by \\n or \\r\\n, the last perhaps by nothing."""
    cells = draw(st.sampled_from([_repr_cells, _fixed_cells]))
    pad, sep = st.sampled_from(["", " ", "\t", " \t"]), st.sampled_from([" ", "\t", " \t "])
    eol = st.sampled_from(["\n", "\r\n"])
    text = draw(st.sampled_from(["", "\ufeff"])) + "fs=100" + draw(eol)
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 4)) == 0:
            text += draw(pad) + draw(eol)
        text += draw(pad) + draw(cells) + draw(sep) + draw(cells) + draw(pad) + draw(eol)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


# One 10-second segment at 50 Hz, as extract reads it.
_SEGMENT_LINES = [f"{k % 7 - 3}.25 {(k * k) % 11 / 8!r}" for k in range(500)]

# Lines the scanner refuses, each in the middle of a one-segment body; the
# parsers after it decide, as they do where the library does not load.
REFUSED_LINES = {
    "non-ASCII blank": "1 2\u00a0",
    "non-ASCII digit": "\u0661 2",
    "NUL": "1\x00 2",
    "vertical tab": "1 2\x0b3 4",
    "form feed": "1\x0c2",
    "group separator": "1\x1d2",
    "lone CR": "1 2\r3 4",
    "underscore": "1_0 2",
    "comment": "1 2 # note",
    "nan": "nan 2",
    "inf": "1 inf",
    "overflow": "1e999 2",
    "hex": "0x10 2",
    "one cell": "1",
    "three cells": "1 2 3",
    "pipe character": "1|2",
}
# Whole files the scanner refuses.
REFUSED_FILES = {
    "empty": b"",
    "header only": b"fs=50\n\n",
    "tab in the header": b"fs=50\t\n" + "\n".join(_SEGMENT_LINES).encode(),
    "bad rate, bad UTF-8 body": b"fs=abc\n1 2\n\xff 3\n",
    "lone CR at the end": b"fs=50\n" + "\n".join(_SEGMENT_LINES).encode() + b"\r",
}


def refused_file(tmp_path, case):
    path = tmp_path / "sig.txt"
    if case in REFUSED_FILES:
        path.write_bytes(REFUSED_FILES[case])
    else:
        lines = _SEGMENT_LINES[:250] + [REFUSED_LINES[case]] + _SEGMENT_LINES[250:]
        path.write_text("fs=50\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return path


def extract_outcome(capsys, path, out):
    """extract's exit code, error message and output bytes on the file at
    path, given twice, as two classes."""
    out.unlink(missing_ok=True)
    code = main(["extract", str(path), str(path), "--classes", "1,2", "--out", str(out)])
    err = capsys.readouterr().err
    return code, err, out.read_bytes() if out.exists() else None


class TestSignalScanner:
    """The compiled scanner reads a signal file as np.loadtxt and the line
    parser do, bit for bit, and leaves every other file to them."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=scanned_texts())
    def test_scanner_loadtxt_and_line_parser_agree(self, tmp_path, text):
        path = tmp_path / "sig.txt"
        path.write_bytes(text.encode("utf-8"))
        want = line_parser_outcome(text)
        assert each_path(exact_outcome, path) == [(want, "scanner"), (want, "loadtxt")]

    @pytest.mark.parametrize("text", [
        "\ufefffs=100\n1 2\n3 4\n",
        "fs=100\r\n1 2\r\n3 4\r\n",
        "fs=100\n1 2\n3 4",
        "fs=100\r\n1 2\r\n3 4",
        "fs=100\n\n1 2\n\n \t \n3 4\n\n",
        "fs=100\n1\t2\n\t3\t \t4\t\n",
        "  100  \n+1.5 -2e3\n+.5E-2 1e+2\n-0.0 +0\n1. .5\n",
        "fs=100\n1e308 -1e308\n1.7976931348623157e308 5e-324\n",
        "fs=100\n0.1234567890123456789012345 12345678901234567890e-5\n",
    ])
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "sig.txt"
        path.write_bytes(text.encode("utf-8"))
        want = line_parser_outcome(text)
        assert each_path(exact_outcome, path) == [(want, "scanner"), (want, "loadtxt")]

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_line_across_a_block(self, tmp_path, bom, eol):
        # The scanner reads 64 KiB blocks; a line that runs from one block
        # into the next is carried over whole.
        rows = [f"{k * 0.1!r} {-k / 3!r}{eol}" for k in range(6000)]
        for head in ("fs=100", "fs=100.0", "fs=100.00"):  # no line may end at a block end
            text = bom + head + eol + "".join(rows)
            ends = set(np.cumsum([len(line.encode()) for line in text.splitlines(True)]).tolist())
            if not {1 << 16, 2 << 16} & ends:
                break
        assert max(ends) > 2 << 16 and not {1 << 16, 2 << 16} & ends
        path = tmp_path / "blocks.txt"
        path.write_bytes(text.encode("utf-8"))
        want = line_parser_outcome(text)
        assert each_path(exact_outcome, path) == [(want, "scanner"), (want, "loadtxt")]
        assert read_signal_file(path)[1].tolist() == [k * 0.1 for k in range(6000)]

    @pytest.mark.parametrize("case", sorted(REFUSED_LINES) + sorted(REFUSED_FILES))
    def test_refused_files_read_as_without_the_library(self, tmp_path, capsys, case):
        path = refused_file(tmp_path, case)
        (scanned, parser), (unloaded, _) = each_path(exact_outcome, path)
        assert parser != "scanner"
        assert scanned == unloaded
        (scanned, _), (unloaded, _) = each_path(
            extract_outcome, capsys, path, tmp_path / "feats.csv")
        assert scanned == unloaded

    @pytest.mark.parametrize("head", ["fs=abc", "", "fs=nan", " 1e999 ", "fs=10", "fs=-5"])
    def test_a_bad_rate_fails_as_without_the_library(self, tmp_path, capsys, head):
        # The scanner takes the body; the rate then fails as it does on
        # every other path.
        path = tmp_path / "sig.txt"
        path.write_text(head + "\n" + "\n".join(_SEGMENT_LINES) + "\n")
        (scanned, _), (unloaded, _) = each_path(
            extract_outcome, capsys, path, tmp_path / "feats.csv")
        assert scanned == unloaded and scanned[0] != 0

    def test_exit_codes_and_messages(self, tmp_path, capsys):
        # Spot checks of what the parsers after the scanner decide.
        got = {}
        for case in ("nan", "one cell", "form feed", "vertical tab", "non-ASCII blank",
                     "bad rate, bad UTF-8 body", "header only"):
            code, err, _ = extract_outcome(capsys, refused_file(tmp_path, case),
                                           tmp_path / "feats.csv")
            got[case] = code, err.strip()
        assert got == {
            "nan": (3, "pairnet: line 252: non-finite sample in 'nan 2'"),
            "one cell": (3, "pairnet: line 252: expected 2 samples per line, found 1"),
            "form feed": (3, "pairnet: line 252: expected 2 samples per line, found 1"),
            "vertical tab": (0, ""),
            "non-ASCII blank": (0, ""),
            "bad rate, bad UTF-8 body": (
                3, "pairnet: not UTF-8 text: invalid start byte at byte 11"),
            "header only": (3, "pairnet: recording 1 is shorter than one 10-second segment"),
        }

    @pytest.mark.parametrize("name", ["sig.gz", "http://host/sig.txt"])
    def test_names_numpy_would_open_otherwise(self, tmp_path, monkeypatch, name):
        # The scanner reads the bytes the file holds, as the line parser
        # does; np.loadtxt would decompress or fetch it.
        monkeypatch.chdir(tmp_path)
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        text = "fs=100\n1 2\n3 4\n"
        Path(name).write_text(text)
        want = line_parser_outcome(text)
        assert each_path(exact_outcome, name) == [(want, "scanner"), (want, "lines")]
