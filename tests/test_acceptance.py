"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values (run with ``pytest -s`` to see them).
"""

import time

import numpy as np
import pytest

from pairnet import (
    Dataset,
    PairwiseNetwork,
    PairwiseTest,
    TrainConfig,
    enumerate_pairs,
    evaluate,
    lm_train_pocket,
    load_model,
    net_classify,
    net_outputs,
    save_model,
    screen_outliers,
    significance,
    split_by_record,
    standardize,
    train_pairwise,
    train_pocket,
)
from pairnet.eeg_features import DEFAULT_BANDS, SegmentSignal, band_power, extract_features, feature_names, periodogram
from pairnet.synthgen import default_config, generate

from test_feature_stats import significance_oracle


def small_dataset(X, y, records, r):
    return Dataset(
        X, y, records,
        tuple(f"f{i + 1}" for i in range(np.asarray(X).shape[1])),
        tuple(str(k) for k in range(1, r + 1)),
    )


def test_c01_benchmark_ordering_and_runtime():
    """Pairwise network beats the linear machine by >= 5 points (median
    test segment accuracy, 5 seeds) on the desk-scale default benchmark,
    inside 120 s."""
    t0 = time.perf_counter()
    net_accs, lm_accs = [], []
    for seed in range(5):
        ds = generate(default_config(seed=seed, scale=0.1))
        with pytest.warns(UserWarning, match="single record"):
            train, test = split_by_record(ds, 0.33, seed)
        tr_std, st = standardize(train)
        net = train_pairwise(
            tr_std, TrainConfig(max_iterations=20_000, seed=seed), standardization=st
        )
        lm, _ = lm_train_pocket(
            tr_std, TrainConfig(max_iterations=150_000, seed=seed), standardization=st
        )
        net_accs.append(evaluate(net, test).segment_accuracy)
        lm_accs.append(evaluate(lm, test).segment_accuracy)
    elapsed = time.perf_counter() - t0
    net_med = float(np.median(net_accs))
    lm_med = float(np.median(lm_accs))
    gap = 100.0 * (net_med - lm_med)
    assert gap >= 5.0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 1 PASS: pairnet median {net_med:.4f} vs lm {lm_med:.4f} "
        f"(gap {gap:.1f} points) in {elapsed:.1f}s"
    )


def test_c02_worked_example_exact():
    """Idealized test outputs f12=-1, f13=+1, f23=+1 give g=(0, 2, -2) and
    the decision is class 2. Exact integers, no tolerance."""
    def const(i, j, value):
        return PairwiseTest(i=i, j=j, weights=np.array([value, 0.0]))

    net = PairwiseNetwork(
        r=3, m=1, tests=(const(1, 2, -1.0), const(1, 3, 1.0), const(2, 3, 1.0))
    )
    x = np.array([0.0])
    g = net_outputs(net, x)
    assert g.tolist() == [0, 2, -2]
    assert net_classify(net, x) == 2
    print("ACCEPTANCE 2 PASS: outputs (0, 2, -2), decision class 2")


def test_c03_pair_count_for_16_classes():
    """Training with r=16 constructs exactly 120 pairwise tests."""
    rng = np.random.default_rng(0)
    n_per = 4
    y = np.repeat(np.arange(1, 17), n_per)
    X = rng.normal(size=(len(y), 3)) + y[:, None]
    ds = small_dataset(X, y, records=y, r=16)
    net = train_pairwise(ds, TrainConfig(max_iterations=200, seed=0))
    assert len(net.tests) == 120
    assert len(enumerate_pairs(16)) == 120
    print("ACCEPTANCE 3 PASS: r=16 network holds exactly 120 tests")


def test_c04_zero_sum_range_parity():
    """Over 10,000 random inputs on a random 16-class network, the output
    sums are exactly zero, bounded by r-1, and share r-1's parity."""
    r, m = 16, 6
    rng = np.random.default_rng(7)
    net = PairwiseNetwork(
        r=r, m=m,
        tests=tuple(
            PairwiseTest(i=i, j=j, weights=rng.normal(size=m + 1))
            for i, j in enumerate_pairs(r)
        ),
    )
    X = rng.normal(size=(10_000, m)) * 3.0
    G = net.outputs_batch(X)
    assert np.all(G.sum(axis=1) == 0)
    assert G.min() >= -(r - 1) and G.max() <= r - 1
    assert np.all((G - (r - 1)) % 2 == 0)
    print("ACCEPTANCE 4 PASS: 10000 inputs, sum(g)=0, range/parity hold")


def test_c05_pocket_converges_on_separable_problems():
    """20 random linearly separable 2-class problems with margin >= 0.1
    after standardization all reach training accuracy 1.0 within 1e5
    visits."""
    made = 0
    attempt = 0
    while made < 20:
        rng = np.random.default_rng(1000 + attempt)
        attempt += 1
        m = int(rng.integers(2, 7))
        n = int(rng.integers(60, 140))
        X = rng.normal(size=(n, m))
        w = rng.normal(size=m)
        w /= np.linalg.norm(w)
        b = float(rng.uniform(-0.3, 0.3))
        margins = X @ w - b
        keep = np.abs(margins) >= 0.12
        X, margins = X[keep], margins[keep]
        targets = np.where(margins > 0, 1, -1)
        if len(X) < 30 or len(set(targets.tolist())) < 2:
            continue
        ds = small_dataset(X, np.where(targets > 0, 1, 2), np.arange(1, len(X) + 1), r=2)
        std_ds, st = standardize(ds)
        # margin of the known separator in standardized coordinates
        w_std = w * st.stds
        b_std = b - float(w @ st.means)
        geo = np.abs(std_ds.X @ w_std - b_std) / np.linalg.norm(w_std)
        if geo.min() < 0.1:
            continue
        res = train_pocket(
            std_ds.X, targets, TrainConfig(max_iterations=100_000, seed=attempt)
        )
        assert res.train_accuracy == 1.0, f"problem {made} failed to converge"
        assert res.iterations_used <= 100_000
        made += 1
    print("ACCEPTANCE 5 PASS: 20/20 separable problems reached accuracy 1.0")


def test_c06_pocket_ratchet_monotone():
    """On non-separable data, 100 seeded runs keep a non-decreasing
    accuracy history and never end below the zero-weight classifier."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 2))
    targets = np.where(rng.random(60) > 0.5, 1, -1)  # labels independent of X
    for seed in range(100):
        res = train_pocket(X, targets, TrainConfig(max_iterations=1500, seed=seed))
        accs = [a for _, a in res.accuracy_history]
        assert all(b > a for a, b in zip(accs, accs[1:]))
        zero_acc = accs[0]
        assert res.train_accuracy >= zero_acc
    print("ACCEPTANCE 6 PASS: 100 runs, histories monotone, final >= zero-weight accuracy")


def test_c07_significance_matches_oracle_and_affine_invariance():
    """d_j agrees with a brute-force recomputation within 1e-9 relative on
    50 random datasets; affine feature transforms leave d_j unchanged."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        n_per = int(rng.integers(2, 9))
        y = np.repeat(np.arange(1, r + 1), n_per)
        X = rng.normal(size=(len(y), m)) + y[:, None] * rng.uniform(0, 1.5, size=m)
        ds = small_dataset(X, y, records=y, r=r)
        rep = significance(ds)
        v, s_sum, d = significance_oracle(X, y)
        np.testing.assert_allclose(rep.d, d, rtol=1e-9)

        j = int(rng.integers(0, m))
        a = float(rng.choice([-1, 1]) * rng.uniform(0.5, 4.0))
        b = float(rng.uniform(-5, 5))
        X2 = X.copy()
        X2[:, j] = a * X2[:, j] + b
        rep2 = significance(small_dataset(X2, y, records=y, r=r))
        np.testing.assert_allclose(rep2.d[j], rep.d[j], rtol=1e-9)
    print("ACCEPTANCE 7 PASS: 50 oracle matches and affine invariance at 1e-9")


def test_c08_featurizer_parseval_alpha_scaling():
    """Parseval at 1e-9 relative; a 10 Hz unit sinusoid at fs=100 puts
    >= 99.9% of its power in the alpha band; scaling both channels by 3
    multiplies absolute features by 9 and fixes relative ones."""
    rng = np.random.default_rng(4)
    for n in (1000, 999):
        x = rng.normal(size=n) * 2.5 + 0.7
        psd = periodogram(x, 100.0)
        np.testing.assert_allclose(psd.power.sum(), float(np.var(x)), rtol=1e-9)

    t = np.arange(1000) / 100.0
    sine = np.sin(2 * np.pi * 10.0 * t)
    psd = periodogram(sine, 100.0)
    alpha_share = band_power(psd, DEFAULT_BANDS[3]) / psd.power.sum()
    assert alpha_share >= 0.999

    c3, c4 = rng.normal(size=1000), rng.normal(size=1000)
    base = extract_features(SegmentSignal(c3=c3, c4=c4, fs=100.0))
    scaled = extract_features(SegmentSignal(c3=3.0 * c3, c4=3.0 * c4, fs=100.0))
    names = feature_names()
    for k, name in enumerate(names):
        if ".abs" in name:
            np.testing.assert_allclose(scaled[k], 9.0 * base[k], rtol=1e-9)
        else:
            np.testing.assert_allclose(scaled[k], base[k], rtol=1e-9)
    print(
        f"ACCEPTANCE 8 PASS: Parseval 1e-9, alpha share {alpha_share:.6f}, "
        "x9 absolute / fixed relative under channel scaling"
    )


def test_c09_screening_rate_below_six_percent():
    """3-sigma screening on the calibrated full-size default generator
    removes fewer than 6% of segments."""
    ds = generate(default_config(seed=0))
    _, report = screen_outliers(ds, k=3.0)
    assert report.rate < 0.06
    print(
        f"ACCEPTANCE 9 PASS: screening removed {report.removed_count}/"
        f"{report.total_count} segments (rate {report.rate:.4f} < 0.06)"
    )


def test_c10_serialization_and_jobs_independence(tmp_path):
    """save -> load -> classify agrees bit-exactly on 1000 probes, and the
    trained model is byte-identical for any --jobs value."""
    rng = np.random.default_rng(5)
    y = np.repeat(np.arange(1, 7), 30)
    X = rng.normal(size=(len(y), 4)) + 0.8 * y[:, None]
    records = np.repeat(np.arange(1, 19), 10)
    ds = small_dataset(X, y, records, r=6)
    std_ds, st = standardize(ds)
    cfg = TrainConfig(max_iterations=4000, seed=9)

    net1 = train_pairwise(std_ds, cfg, jobs=1, standardization=st)
    net4 = train_pairwise(std_ds, cfg, jobs=4, standardization=st)
    p1, p4 = tmp_path / "net1.txt", tmp_path / "net4.txt"
    save_model(net1, p1)
    save_model(net4, p4)
    assert p1.read_bytes() == p4.read_bytes()

    probes = rng.normal(size=(1000, 4)) * 2.0
    back = load_model(p1)
    np.testing.assert_array_equal(back.classify_batch(probes), net1.classify_batch(probes))

    lm, _ = lm_train_pocket(std_ds, cfg, standardization=st)
    p_lm = tmp_path / "lm.txt"
    save_model(lm, p_lm)
    np.testing.assert_array_equal(
        load_model(p_lm).classify_batch(probes), lm.classify_batch(probes)
    )
    print("ACCEPTANCE 10 PASS: round-trip bit-exact on 1000 probes; jobs-invariant")
