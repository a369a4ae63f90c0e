import numpy as np
import pytest

from pairnet import (
    ParameterError,
    SynthConfig,
    TrainConfig,
    evaluate,
    significance,
    split_by_record,
    standardize,
    train_pairwise,
)
from pairnet.synthgen import DEFAULT_RECORDS_PER_CLASS, default_config, generate


def small_config(seed=0, **kw):
    params = dict(
        r=4,
        m=12,
        records_per_class=(4, 4, 4, 4),
        segments_per_record=(30, 60),
        informative_count=4,
        separation=1.0,
        record_effect=0.1,
        seed=seed,
    )
    params.update(kw)
    return SynthConfig(**params)


def net_test_accuracy(cfg, iters=20_000):
    ds = generate(cfg)
    train, test = split_by_record(ds, 0.33, cfg.seed)
    tr_std, st = standardize(train)
    net = train_pairwise(tr_std, TrainConfig(max_iterations=iters, seed=cfg.seed), standardization=st)
    return evaluate(net, test).segment_accuracy


class TestConfigValidation:
    def test_rejects_bad_r(self):
        with pytest.raises(ParameterError):
            small_config(r=1, records_per_class=(2,))

    def test_rejects_mismatched_records(self):
        with pytest.raises(ParameterError):
            small_config(records_per_class=(2, 2))

    def test_rejects_negative_separation(self):
        with pytest.raises(ParameterError):
            small_config(separation=-1.0)

    @pytest.mark.parametrize("rate", [1.0000000000000002, 5.0])
    def test_rejects_artifact_rate_above_one(self, rate):
        with pytest.raises(ParameterError, match=r"artifact_rate must lie in \[0, 1\]"):
            small_config(artifact_rate=rate)

    def test_rejects_informative_above_m(self):
        with pytest.raises(ParameterError):
            small_config(informative_count=99)

    def test_rejects_bad_segment_range(self):
        with pytest.raises(ParameterError):
            small_config(segments_per_record=(10, 5))

    def test_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            small_config(seed=-1)

    @pytest.mark.parametrize("scale", [1e308, 3e305])
    def test_rejects_scale_with_infinite_segment_counts(self, scale):
        with pytest.raises(ParameterError, match="segment counts infinite"):
            default_config(scale=scale)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate(small_config(seed=3))
        b = generate(small_config(seed=3))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.records, b.records)

    def test_different_seeds_differ(self):
        a = generate(small_config(seed=3))
        b = generate(small_config(seed=4))
        assert not np.array_equal(a.X, b.X)


class TestDefaultShape:
    def test_full_default_counts(self):
        ds = generate(default_config(seed=1))
        assert ds.r == 16
        assert ds.m == 72
        assert len(ds.record_ids()) == 65
        assert abs(len(ds) - 59069) / 59069 < 0.10
        # per-class record counts follow the documented shape
        for class_id in range(1, 17):
            n_recs = len(np.unique(ds.records[ds.y == class_id]))
            assert n_recs == DEFAULT_RECORDS_PER_CLASS[class_id - 1]

    def test_age_labels_skip_36(self):
        ds = generate(default_config(seed=0, scale=0.02))
        assert ds.class_labels == (
            "35", "37", "38", "39", "40", "41", "42", "43",
            "44", "45", "46", "47", "48", "49", "50", "51",
        )

    def test_scaled_total(self):
        ds = generate(default_config(seed=2, scale=0.1))
        assert abs(len(ds) - 5907) / 5907 < 0.10

    def test_non_16_class_labels_are_ids(self):
        ds = generate(small_config())
        assert ds.class_labels == ("1", "2", "3", "4")


class TestSignalProperties:
    def test_zero_separation_is_chance(self):
        # no class signal: median accuracy over 5 seeds within 5 points of 1/r
        with pytest.warns(UserWarning, match="single record"):
            accs = [
                net_test_accuracy(default_config(seed=seed, scale=0.1, separation=0.0))
                for seed in range(5)
            ]
        assert abs(float(np.median(accs)) - 1 / 16) <= 0.05

    def test_high_separation_nearly_perfect(self):
        cfg = SynthConfig(
            r=8, m=24, records_per_class=(6,) * 8, segments_per_record=(150, 250),
            informative_count=6, separation=10.0, record_effect=0.0, seed=0,
        )
        assert net_test_accuracy(cfg, iters=100_000) >= 0.99

    def test_accuracy_monotone_in_separation(self):
        medians = []
        for sep in (0.0, 1.0, 3.0):
            accs = [
                net_test_accuracy(small_config(seed=seed, separation=sep), iters=8000)
                for seed in range(5)
            ]
            medians.append(float(np.median(accs)))
        assert medians[0] <= medians[1] <= medians[2]

    def test_record_effect_inflates_group_variance(self):
        low = significance(generate(small_config(seed=7, record_effect=0.0)))
        high = significance(generate(small_config(seed=7, record_effect=1.0)))
        informative = slice(0, 4)
        assert np.all(high.s_sum[informative] > low.s_sum[informative])
