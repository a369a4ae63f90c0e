"""Deterministic synthetic dataset generator with controllable class overlap.

Classes sit on an ordinal axis: class k centers its informative features at
k * separation (in within-class std units), so adjacent classes overlap the
most. Every record additionally draws a private mean offset per feature
(std record_effect), which models per-individual drift and inflates the
within-class group variance without adding class signal. Baseline noise is
a truncated unit normal, so the 3-sigma screening pass stays quiet on clean
segments; a small configurable fraction of segments receives an injected
artifact spike that the screening is expected to catch.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import ParameterError, check_seed

# Per-class record counts for the default 16-class, 65-record shape.
DEFAULT_RECORDS_PER_CLASS = (1, 1, 8, 7, 7, 5, 2, 2, 8, 7, 2, 5, 1, 6, 2, 1)
# Ordinal class labels for the default shape: ages 35..51 weeks, skipping 36.
DEFAULT_CLASS_LABELS = ("35",) + tuple(str(a) for a in range(37, 52))

NOISE_TRUNCATION = 2.5


@dataclass(frozen=True)
class SynthConfig:
    r: int
    m: int
    records_per_class: tuple[int, ...]
    segments_per_record: tuple[int, int]
    informative_count: int
    separation: float
    record_effect: float
    seed: int
    artifact_rate: float = 0.02
    artifact_magnitude: tuple[float, float] = (6.0, 10.0)

    def __post_init__(self):
        object.__setattr__(self, "records_per_class", tuple(self.records_per_class))
        object.__setattr__(self, "segments_per_record", tuple(self.segments_per_record))
        check_seed(self.seed)
        if self.r < 2:
            raise ParameterError(f"r >= 2 required, got {self.r}")
        if self.m < 1:
            raise ParameterError(f"m >= 1 required, got {self.m}")
        if len(self.records_per_class) != self.r:
            raise ParameterError(
                f"records_per_class has {len(self.records_per_class)} entries for r={self.r}"
            )
        if any(n < 1 for n in self.records_per_class):
            raise ParameterError("every class needs at least one record")
        lo, hi = self.segments_per_record
        if not (1 <= lo <= hi):
            raise ParameterError(f"segments_per_record range ({lo}, {hi}) is invalid")
        if not (0 <= self.informative_count <= self.m):
            raise ParameterError(
                f"informative_count must lie in 0..m, got {self.informative_count}"
            )
        for name in ("separation", "record_effect", "artifact_rate"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ParameterError(f"{name} must be finite and >= 0, got {val}")
        if self.artifact_rate > 1:
            raise ParameterError(f"artifact_rate must lie in [0, 1], got {self.artifact_rate}")


def default_config(seed: int = 0, scale: float = 1.0, **overrides) -> SynthConfig:
    """The 16-class, 65-record benchmark shape.

    Per-record segment counts are uniform in (500, 1300) * scale, putting
    the expected total near 59k segments at scale 1. scale=0.1 is the
    desk-sized variant used by the bundled benchmark.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ParameterError(f"scale must be finite and > 0, got {scale}")
    if not math.isfinite(1300 * scale):
        raise ParameterError(f"scale {scale} makes the per-record segment counts infinite")
    lo = max(2, round(500 * scale))
    hi = max(lo, round(1300 * scale))
    params = dict(
        r=16,
        m=72,
        records_per_class=DEFAULT_RECORDS_PER_CLASS,
        segments_per_record=(lo, hi),
        informative_count=12,
        separation=0.90,
        record_effect=0.15,
        seed=seed,
    )
    params.update(overrides)
    return SynthConfig(**params)


def _truncated_normal(rng: np.random.Generator, shape, bound: float) -> np.ndarray:
    """Unit normal draws redrawn until all lie within +/- bound."""
    x = rng.standard_normal(shape)
    while True:
        bad = np.abs(x) > bound
        n_bad = int(bad.sum())
        if n_bad == 0:
            return x
        x[bad] = rng.standard_normal(n_bad)


@np.errstate(over="ignore", invalid="ignore")
def generate(cfg: SynthConfig) -> Dataset:
    """Draw a dataset from the configured class/record/noise model.

    Deterministic: the same config (including seed) yields a bit-identical
    dataset. Records are numbered 1..total in class order. Settings that push
    a value past float64's range make it inf or nan, which Dataset rejects
    with a SchemaError.
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.segments_per_record

    blocks, ys, recs = [], [], []
    record_id = 0
    for class_id in range(1, cfg.r + 1):
        class_mean = np.zeros(cfg.m)
        class_mean[: cfg.informative_count] = class_id * cfg.separation
        for _ in range(cfg.records_per_class[class_id - 1]):
            record_id += 1
            n_seg = int(rng.integers(lo, hi + 1))
            offset = rng.normal(0.0, cfg.record_effect, cfg.m) if cfg.record_effect > 0 else 0.0
            block = class_mean + offset + _truncated_normal(rng, (n_seg, cfg.m), NOISE_TRUNCATION)
            spiked = np.flatnonzero(rng.random(n_seg) < cfg.artifact_rate)
            for s in spiked:
                n_feats = int(rng.integers(1, 4))
                cols = rng.choice(cfg.m, size=n_feats, replace=False)
                signs = rng.choice((-1.0, 1.0), size=n_feats)
                mags = rng.uniform(*cfg.artifact_magnitude, size=n_feats)
                block[s, cols] += signs * mags
            blocks.append(block)
            ys.append(np.full(n_seg, class_id, dtype=np.int64))
            recs.append(np.full(n_seg, record_id, dtype=np.int64))

    if cfg.r == 16:
        class_labels = DEFAULT_CLASS_LABELS
    else:
        class_labels = tuple(str(k) for k in range(1, cfg.r + 1))
    return Dataset(
        X=np.vstack(blocks),
        y=np.concatenate(ys),
        records=np.concatenate(recs),
        feature_names=tuple(f"f{j}" for j in range(1, cfg.m + 1)),
        class_labels=class_labels,
    )


def config_summary(cfg: SynthConfig) -> str:
    """Human-readable sidecar text recording every generator knob."""
    lines = ["synthetic dataset configuration"]
    for name in (
        "r",
        "m",
        "records_per_class",
        "segments_per_record",
        "informative_count",
        "separation",
        "record_effect",
        "artifact_rate",
        "artifact_magnitude",
        "seed",
    ):
        lines.append(f"{name} = {getattr(cfg, name)}")
    return "\n".join(lines) + "\n"
