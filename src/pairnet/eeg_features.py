"""Spectral featurizer: two-channel 10-second segments to 72 band features.

Each segment carries two electrode channels sampled at fs >= 50 Hz. For the
three derived channels (first electrode, second electrode, their sample-wise
sum) and six fixed frequency bands, four quantities are emitted:

    absolute band power, relative band power (band / total over 0-25 Hz),
    band-limited signal variance, relative band variance.

Order is channel-major, band-minor, quantity-innermost: 3 * 6 * 4 = 72.
The power spectrum is a rectangular-window periodogram of the mean-removed
signal, scaled so the powers sum to the signal's population variance. Under
that scaling the variance of the band-limited signal (out-of-band bins
zeroed, then inverse-transformed) equals the band power, so the two variance
columns are filled from the power columns; the tests keep the inverse-DFT
computation as the reference they are checked against.

A recording is featurized in one batch: its segments become the rows of a
(k, n) array per derived channel, one real FFT runs along the rows, and the
seven band sums (0-25 Hz total plus the six bands) come from a single
product with a (frequency x 7) 0/1 mask. A single segment is the k = 1 case
of the same kernel.
"""

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._parallel import ordered_map
from .dataset import Dataset, _class_ids, _loadtxt
from .errors import DimensionError, EmptyInputError, ParameterError, ParseError, open_utf8

SEGMENT_SECONDS = 10.0
MIN_SAMPLING_HZ = 50.0
TOTAL_BAND_HZ = 25.0
POWER_FLOOR = 1e-15

CHANNEL_NAMES = ("c3", "c4", "c3c4")
QUANTITY_NAMES = ("abspow", "relpow", "absvar", "relvar")


@dataclass(frozen=True)
class BandSpec:
    """Half-open frequency band (lo_hz, hi_hz]."""

    name: str
    lo_hz: float
    hi_hz: float

    def __post_init__(self):
        if not (0.0 <= self.lo_hz < self.hi_hz):
            raise ParameterError(f"band {self.name}: need 0 <= lo < hi")


DEFAULT_BANDS = (
    BandSpec("subdelta", 0.0, 1.5),
    BandSpec("delta", 1.5, 3.5),
    BandSpec("theta", 3.5, 7.5),
    BandSpec("alpha", 7.5, 13.5),
    BandSpec("beta1", 13.5, 19.5),
    BandSpec("beta2", 19.5, 25.0),
)
TOTAL_BAND = BandSpec("total", 0.0, TOTAL_BAND_HZ)


def _check_rate(fs: float) -> None:
    if not (math.isfinite(fs) and fs >= MIN_SAMPLING_HZ):
        raise ParameterError(
            f"sampling rate {fs} Hz unusable; need a finite rate >= "
            f"{MIN_SAMPLING_HZ} Hz to cover the {TOTAL_BAND_HZ} Hz top band edge"
        )


@dataclass(frozen=True)
class SegmentSignal:
    """One 10-second, two-channel segment of raw samples."""

    c3: np.ndarray
    c4: np.ndarray
    fs: float

    def __post_init__(self):
        c3 = np.asarray(self.c3, dtype=np.float64)
        c4 = np.asarray(self.c4, dtype=np.float64)
        object.__setattr__(self, "c3", c3)
        object.__setattr__(self, "c4", c4)
        if c3.ndim != 1 or c4.ndim != 1 or c3.shape != c4.shape:
            raise DimensionError("channels must be 1-D and equally long")
        _check_rate(self.fs)
        # A segment is exactly one whole window.
        window, _ = _windows(self.fs, c3, c4)
        if window.shape != (1, c3.shape[0]):
            raise DimensionError(
                f"segment length {c3.shape[0]} != fs * 10s = {window.shape[1]} samples"
            )


class Psd(NamedTuple):
    freqs: np.ndarray
    power: np.ndarray


def _one_sided_power(rows: np.ndarray) -> np.ndarray:
    """Periodogram of each row of a (k, n) array, one-sided, scaled so each
    row's powers sum to that row's population variance (discrete Parseval).
    """
    n = rows.shape[1]
    spec = np.fft.rfft(rows - rows.mean(axis=1, keepdims=True), axis=1)
    power = np.abs(spec) ** 2 / n**2
    if n % 2 == 0:
        power[:, 1:-1] *= 2.0
    else:
        power[:, 1:] *= 2.0
    return power


def periodogram(signal: np.ndarray, fs: float) -> Psd:
    """One-sided power spectrum whose entries sum to the signal variance.

    The mean is removed first; |DFT|^2 values are folded one-sided and
    scaled so sum(power) equals the population variance of the mean-removed
    signal (discrete Parseval identity).
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ParameterError("signal must be 1-D with at least 2 samples")
    if fs <= 0:
        raise ParameterError(f"fs must be > 0, got {fs}")
    n = x.shape[0]
    return Psd(freqs=np.fft.rfftfreq(n, 1.0 / fs), power=_one_sided_power(x[None])[0])


def _band_mask(freqs: np.ndarray, bands) -> np.ndarray:
    """(len(freqs), len(bands)) 0/1 matrix selecting each band's bins."""
    for band in bands:
        if band.hi_hz > freqs[-1] + 1e-9:
            raise ParameterError(
                f"band {band.name} reaches {band.hi_hz} Hz but the spectrum "
                f"stops at {freqs[-1]:g} Hz"
            )
    lo = np.array([b.lo_hz for b in bands])
    hi = np.array([b.hi_hz for b in bands])
    f = freqs[:, None]
    return ((f > lo) & (f <= hi)).astype(np.float64)


def band_power(psd: Psd, band: BandSpec) -> float:
    """Sum of spectral power at frequencies in (lo_hz, hi_hz]."""
    return float(psd.power @ _band_mask(psd.freqs, (band,))[:, 0])


def feature_names(bands: tuple[BandSpec, ...] = DEFAULT_BANDS) -> list[str]:
    """The 72 feature names in emission order, e.g. 'c3.alpha.relpow'."""
    return [
        f"{ch}.{band.name}.{qty}"
        for ch in CHANNEL_NAMES
        for band in bands
        for qty in QUANTITY_NAMES
    ]


def _featurize(
    c3: np.ndarray, c4: np.ndarray, fs: float, bands: tuple[BandSpec, ...]
) -> np.ndarray:
    """Features of k segments given as (k, n) channel arrays; returns (k, 72).

    Relative quantities are normalized by the channel's total over the
    0-25 Hz range; when that total is not above 1e-15 they are 0.
    """
    n = c3.shape[1]
    mask = _band_mask(np.fft.rfftfreq(n, 1.0 / fs), (TOTAL_BAND, *bands))
    out = np.empty((c3.shape[0], len(CHANNEL_NAMES), len(bands), len(QUANTITY_NAMES)))
    for c, ch in enumerate((c3, c4, c3 + c4)):
        sums = _one_sided_power(ch) @ mask
        total, absolute = sums[:, :1], sums[:, 1:]
        relative = np.divide(
            absolute, total, out=np.zeros_like(absolute), where=total > POWER_FLOOR
        )
        out[:, c, :, 0] = out[:, c, :, 2] = absolute
        out[:, c, :, 1] = out[:, c, :, 3] = relative
    return out.reshape(c3.shape[0], -1)


def extract_features(
    seg: SegmentSignal, bands: tuple[BandSpec, ...] = DEFAULT_BANDS
) -> np.ndarray:
    """Compute the 72 spectral features of one segment.

    Relative quantities are normalized by the channel's total over the
    0-25 Hz range; when that total falls below 1e-15 the relative values
    are 0. Variance columns equal the matching power columns.
    """
    return _featurize(seg.c3[None], seg.c4[None], seg.fs, bands)[0]


# Characters other than "\n" at which str.splitlines breaks a line; np.loadtxt
# reads them as whitespace instead. Text read in universal-newline mode holds
# no "\r", but the set stays complete.
_EXTRA_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# np.loadtxt opens a path through numpy's DataSource, which decompresses a
# file by these suffixes and fetches a name holding "://" as a URL; a file
# so named goes to the line parser.
_DATASOURCE_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_signal_file(path) -> tuple[float, np.ndarray, np.ndarray]:
    """Parse a two-channel signal file (UTF-8, with an optional byte-order mark).

    Line 1 holds the sampling rate (``fs=<value>`` or a bare number, finite
    and > 0); every following non-empty line holds two finite samples (first
    channel, second channel), whitespace separated. Lines are those of
    ``str.splitlines``. The body is parsed in one ``np.loadtxt`` call; when
    that fails or its result is not a finite (n, 2) array, the line parser
    runs instead and either returns the same arrays or names the bad line.
    """
    with open_utf8(path) as fh:
        text = fh.read()
        seekable = fh.seekable()
    if not text:
        raise ParseError("signal file is empty", line=1)
    if any(ch in text for ch in _EXTRA_LINE_BREAKS):
        head, *body_lines = text.splitlines()
        return (_parse_rate(head), *_parse_sample_lines(body_lines))
    fs = _parse_rate(text.partition("\n")[0])
    samples = None
    name = os.fsdecode(path)
    if seekable and not (name.endswith(_DATASOURCE_SUFFIXES) or "://" in name):
        # Given the path, np.loadtxt reads the file again in chunks and
        # splits its lines in C: faster than iterating the lines of the
        # open file, or of the text, in Python. A pipe cannot be read again.
        samples = _load_samples_fast(name)
    if samples is None:
        samples = _parse_sample_lines(text.split("\n")[1:])
    return (fs, *samples)


def _parse_rate(head: str) -> float:
    value = head.strip()
    if value.startswith("fs="):
        value = value[3:]
    try:
        fs = float(value)
    except ValueError:
        raise ParseError(f"expected sampling rate, got '{head}'", line=1) from None
    if not (math.isfinite(fs) and fs > 0):
        raise ParseError(f"sampling rate must be finite and > 0, got '{head}'", line=1)
    return fs


def _load_samples_fast(path) -> tuple[np.ndarray, np.ndarray] | None:
    """Both channels of the file at path, read past its header line by
    np.loadtxt, or None when the line parser must decide."""
    data = _loadtxt(path, dtype=np.float64, ndmin=2, skiprows=1, encoding="utf-8-sig")
    if data is None or data.shape[1] != 2 or not np.isfinite(data).all():
        return None
    c3, c4 = data.T.copy()
    return c3, c4


def _parse_sample_lines(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line parser of the lines after the header (line 2 onwards)."""
    c3, c4 = [], []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 2 samples per line, found {len(parts)}", line=lineno)
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric sample in '{line}'", line=lineno) from None
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ParseError(f"non-finite sample in '{line}'", line=lineno)
        c3.append(a)
        c4.append(b)
    return np.asarray(c3, dtype=np.float64), np.asarray(c4, dtype=np.float64)


def segment_signal(fs: float, c3: np.ndarray, c4: np.ndarray) -> list[SegmentSignal]:
    """Chop a recording into consecutive 10-second segments; the trailing
    partial window is dropped."""
    _check_rate(fs)
    c3 = np.asarray(c3, dtype=np.float64)
    c4 = np.asarray(c4, dtype=np.float64)
    if c3.ndim != 1 or c3.shape != c4.shape:
        raise DimensionError("channels must be 1-D and equally long")
    return [SegmentSignal(c3=a, c4=b, fs=fs) for a, b in zip(*_windows(fs, c3, c4))]


def _windows(fs: float, c3: np.ndarray, c4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both channels, at a rate _check_rate accepts, cut into whole 10-second
    windows: the rows of a (k, n) array per channel. The trailing partial
    window is dropped."""
    n = round(fs * SEGMENT_SECONDS)
    k = len(c3) // n
    return c3[: k * n].reshape(k, n), c4[: k * n].reshape(k, n)


def _recording_features(rec_id: int, fs: float, c3, c4) -> np.ndarray:
    """Features of a recording's whole 10-second segments, one row each."""
    _check_rate(fs)
    c3 = np.asarray(c3, dtype=np.float64)
    c4 = np.asarray(c4, dtype=np.float64)
    if c3.ndim != 1 or c3.shape != c4.shape:
        raise DimensionError(f"recording {rec_id}: channels must be 1-D and equally long")
    rows3, rows4 = _windows(fs, c3, c4)
    if len(rows3) == 0:
        raise EmptyInputError(f"recording {rec_id} is shorter than one 10-second segment")
    return _featurize(rows3, rows4, fs, DEFAULT_BANDS)


def _file_features(task: tuple[int, str]) -> np.ndarray:
    rec_id, path = task
    return _recording_features(rec_id, *read_signal_file(path))


def _recordings_dataset(feats: list[np.ndarray], labels: list[str]) -> Dataset:
    """Record k (from 1) holds the rows of feats[k - 1] and class labels[k - 1]."""
    if not feats:
        raise EmptyInputError("no recordings to featurize")
    distinct, ids = _class_ids(labels)
    counts = [len(f) for f in feats]
    return Dataset(
        X=np.vstack(feats),
        y=np.repeat(ids, counts),
        records=np.repeat(np.arange(1, len(feats) + 1, dtype=np.int64), counts),
        feature_names=tuple(feature_names()),
        class_labels=tuple(distinct),
    )


def signals_to_dataset(
    recordings: Iterable[tuple[float, np.ndarray, np.ndarray]],
    class_labels_per_recording: Iterable[str],
) -> Dataset:
    """Featurize recordings into the standard dataset layout.

    Each recording becomes one record (ids 1..n in input order) carrying
    its given class label; its 10-second segments become the rows. The
    iterable is consumed once, in order, and each recording is featurized
    and released before the next one is drawn, so a generator that reads
    recordings from disk holds the samples of one recording at a time.
    """
    labels = list(class_labels_per_recording)
    feats = []
    for fs, c3, c4 in recordings:
        if len(feats) == len(labels):
            raise ParameterError(
                f"more than {len(labels)} recordings for {len(labels)} class labels"
            )
        feats.append(_recording_features(len(feats) + 1, fs, c3, c4))
        # The loop variables would otherwise keep this recording's samples
        # alive while the iterable produces the next one.
        del c3, c4
    if len(feats) != len(labels):
        raise ParameterError(f"{len(feats)} recordings but {len(labels)} class labels")
    return _recordings_dataset(feats, labels)


def signal_files_to_dataset(paths, class_labels_per_file, jobs: int = 1) -> Dataset:
    """signals_to_dataset of the signal files at paths, read with
    read_signal_file.

    With jobs > 1 the files are read and featurized by up to jobs forked
    worker processes, each holding the samples of one file at a time; the
    dataset does not depend on jobs, and the first bad file in path order
    decides the error either way.
    """
    paths, labels = list(paths), list(class_labels_per_file)
    if len(labels) != len(paths):
        raise ParameterError(f"{len(paths)} signal files but {len(labels)} class labels")
    feats = ordered_map(_file_features, enumerate(paths, start=1), jobs)
    return _recordings_dataset(feats, labels)
