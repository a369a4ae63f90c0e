"""Line-oriented text serialization for trained models.

Format (UTF-8, with an optional byte-order mark):

    line 1: ``PAIRNET v1`` or ``LM v1``
    line 2: ``r=<int> m=<int>``
    line 3: ``standardization=<none|present>``; when present, the next two
            lines hold m decimals each (means, then stds)
    then one section per test or class: a ``PAIR <i> <j>`` or ``CLASS <j>``
    header followed by one line of m+1 decimals (bias first). Nothing but
    blank lines may follow the last section.

Floats are written with shortest round-trip precision, so save followed by
load reproduces the model bit for bit.
"""

import numpy as np

from .dataset import _INT64_MAX, Standardization
from .errors import ParseError, TrainingError, open_utf8
from .linear_machine import LinearMachine
from .pairwise_net import PairwiseNetwork, PairwiseTest

MAGIC_PAIRNET = "PAIRNET v1"
MAGIC_LM = "LM v1"


def _fmt_floats(values: np.ndarray, what: str) -> str:
    """values as one line, or a TrainingError where load_model would reject
    them as not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0])
        raise TrainingError(
            f"cannot save the model: {what}: value {k + 1} is not finite ({values[k]})"
        )
    return " ".join(repr(float(v)) for v in values)


def _sections(magic: str, r: int):
    """(header, class ids) of each section of an r-class model, in file
    order. Sections are made one at a time, so that a reader matches each in
    the file before the next is made: a bogus r ends at the first missing
    section instead of sizing r(r-1)/2 pairs, or even r ids, up front."""
    if magic == MAGIC_PAIRNET:
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                yield f"PAIR {i} {j}", (i, j)
    else:
        for j in range(1, r + 1):
            yield f"CLASS {j}", j


def save_model(model, path) -> None:
    """Write a PairwiseNetwork or LinearMachine to a text file.

    A model that load_model could not read back (a value that is not
    finite, a std that is not > 0) raises TrainingError before the file is
    opened.
    """
    if isinstance(model, PairwiseNetwork):
        magic, weights = MAGIC_PAIRNET, [t.weights for t in model.tests]
    elif isinstance(model, LinearMachine):
        magic, weights = MAGIC_LM, model.weights
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    lines = [magic, f"r={model.r} m={model.m}"]
    if model.standardization is None:
        lines.append("standardization=none")
    else:
        stds = model.standardization.stds
        bad = np.flatnonzero(stds <= 0.0)
        if bad.size:
            k = int(bad[0])
            raise TrainingError(
                f"cannot save the model: stds: value {k + 1} must be > 0, got {float(stds[k])!r}"
            )
        lines.append("standardization=present")
        lines.append(_fmt_floats(model.standardization.means, "means"))
        lines.append(_fmt_floats(stds, "stds"))
    for (header, _), w in zip(_sections(magic, model.r), weights):
        lines.append(header)
        lines.append(_fmt_floats(w, header))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _LineReader:
    """The stripped non-blank lines of a text, one at a time; lineno is the
    file line of the last one returned."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.end = len(lines) + 1
        self.rest = ((k, s) for k, s in enumerate(map(str.strip, lines), start=1) if s)
        self.lineno = 0

    def next(self, what: str) -> str:
        self.lineno, line = next(self.rest, (self.end, ""))
        if not line:
            raise ParseError(f"file truncated: missing {what}", line=self.end)
        return line


def _parse_floats(line: str, count: int, what: str, lineno: int) -> np.ndarray:
    parts = line.split()
    if len(parts) != count:
        raise ParseError(
            f"{what}: expected {count} values, found {len(parts)}", line=lineno
        )
    try:
        values = np.asarray([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", line=lineno) from None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0])
        raise ParseError(f"{what}: value {k + 1} is not finite ({parts[k]})", line=lineno)
    return values


def load_model(path):
    """Read a model file back; returns a PairwiseNetwork or LinearMachine."""
    with open_utf8(path) as fh:
        rd = _LineReader(fh.read())

    magic = rd.next("magic line")
    if magic not in (MAGIC_PAIRNET, MAGIC_LM):
        raise ParseError(
            f"unrecognized magic '{magic}' (expected '{MAGIC_PAIRNET}' or '{MAGIC_LM}')",
            line=rd.lineno,
        )

    dims = rd.next("dimension line 'r=<int> m=<int>'")
    try:
        r_part, m_part = dims.split()
        if not (r_part.startswith("r=") and m_part.startswith("m=")):
            raise ValueError
        r = int(r_part.removeprefix("r="))
        m = int(m_part.removeprefix("m="))
    except ValueError:
        raise ParseError(
            f"{magic}: malformed dimension line '{dims}'", line=rd.lineno
        ) from None
    if not (2 <= r <= _INT64_MAX and 1 <= m <= _INT64_MAX):
        raise ParseError(
            f"{magic}: dimension line '{dims}' needs r in 2..{_INT64_MAX} "
            f"and m in 1..{_INT64_MAX}",
            line=rd.lineno,
        )

    std_line = rd.next("standardization line")
    if std_line == "standardization=none":
        standardization = None
    elif std_line == "standardization=present":
        means = _parse_floats(rd.next("standardization means"), m, "means", rd.lineno)
        stds = _parse_floats(rd.next("standardization stds"), m, "stds", rd.lineno)
        bad = np.flatnonzero(stds <= 0.0)
        if bad.size:
            k = int(bad[0])
            raise ParseError(
                f"stds: value {k + 1} must be > 0, got {float(stds[k])!r}", line=rd.lineno
            )
        standardization = Standardization(means=means, stds=stds)
    else:
        raise ParseError(
            f"{magic}: expected 'standardization=<none|present>', got '{std_line}'",
            line=rd.lineno,
        )

    weights = []
    for header, ids in _sections(magic, r):
        got = rd.next(f"section '{header}'")
        if got != header:
            raise ParseError(f"expected section '{header}', got '{got}'", line=rd.lineno)
        w = _parse_floats(rd.next(f"weights of {header}"), m + 1, header, rd.lineno)
        weights.append((ids, w))
    for lineno, _ in rd.rest:
        raise ParseError(
            f"{magic}: unexpected line after the last section '{header}'", line=lineno
        )
    if magic == MAGIC_PAIRNET:
        tests = tuple(PairwiseTest(i=i, j=j, weights=w) for (i, j), w in weights)
        return PairwiseNetwork(r=r, m=m, tests=tests, standardization=standardization)
    return LinearMachine(
        r=r, m=m, weights=np.vstack([w for _, w in weights]), standardization=standardization
    )
