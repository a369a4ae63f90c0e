import itertools
import tracemalloc

import numpy as np
import pytest

from pairnet import (
    Dataset,
    PairwiseNetwork,
    PairwiseTest,
    ParameterError,
    Standardization,
    TrainConfig,
    TrainingError,
    classify_record,
    default_config,
    derive_pair_seed,
    enumerate_pairs,
    evaluate,
    generate,
    net_classify,
    net_outputs,
    permute_classes,
    split_by_record,
    standardize,
    train_pairwise,
    train_pocket,
)
from pairnet.errors import EmptyInputError
from pairnet.tlu import BLOCK_ROWS, activation, tlu_output


def make_dataset(X, y, records=None, r=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    r = r or int(y.max())
    if records is None:
        records = np.arange(1, len(y) + 1)
    return Dataset(
        X, y, records,
        tuple(f"f{i + 1}" for i in range(X.shape[1])),
        tuple(str(k) for k in range(1, r + 1)),
    )


def random_network(r, m, seed=0):
    rng = np.random.default_rng(seed)
    tests = tuple(
        PairwiseTest(i=i, j=j, weights=rng.normal(size=m + 1))
        for i, j in enumerate_pairs(r)
    )
    return PairwiseNetwork(r=r, m=m, tests=tests)


def const_test(i, j, value, m=1):
    """A test whose thresholded output is `value` for every input."""
    w = np.zeros(m + 1)
    w[0] = value
    return PairwiseTest(i=i, j=j, weights=w)


class TestEnumeratePairs:
    def test_three_classes(self):
        assert enumerate_pairs(3) == [(1, 2), (1, 3), (2, 3)]

    def test_two_classes(self):
        assert enumerate_pairs(2) == [(1, 2)]

    def test_sixteen_classes(self):
        pairs = enumerate_pairs(16)
        assert len(pairs) == 120
        assert len(set(pairs)) == 120

    def test_rejects_degenerate(self):
        with pytest.raises(ParameterError):
            enumerate_pairs(1)


class TestNetOutputs:
    def test_three_class_worked_example(self):
        # x on the class-2 side of every test: f12=-1, f13=+1, f23=+1
        net = PairwiseNetwork(
            r=3, m=1,
            tests=(const_test(1, 2, -1.0), const_test(1, 3, 1.0), const_test(2, 3, 1.0)),
        )
        x = np.array([0.0])
        np.testing.assert_array_equal(net_outputs(net, x), [0, 2, -2])
        assert net_classify(net, x) == 2

    def test_two_class_reduction(self):
        net = PairwiseNetwork(r=2, m=1, tests=(const_test(1, 2, 1.0),))
        np.testing.assert_array_equal(net_outputs(net, np.array([9.0])), [1, -1])
        neg = PairwiseNetwork(r=2, m=1, tests=(const_test(1, 2, -1.0),))
        np.testing.assert_array_equal(net_outputs(neg, np.array([9.0])), [-1, 1])

    def test_all_positive_tests_r4(self):
        net = PairwiseNetwork(
            r=4, m=1, tests=tuple(const_test(i, j, 1.0) for i, j in enumerate_pairs(4))
        )
        np.testing.assert_array_equal(net_outputs(net, np.array([3.0])), [3, 1, -1, -3])

    def test_zero_activation_goes_negative(self):
        net = PairwiseNetwork(r=2, m=1, tests=(const_test(1, 2, 0.0),))
        np.testing.assert_array_equal(net_outputs(net, np.array([0.0])), [-1, 1])
        assert net_classify(net, np.array([0.0])) == 2

    def test_zero_sum_range_parity(self):
        for r, m, seed in ((3, 2, 0), (5, 4, 1), (8, 3, 2)):
            net = random_network(r, m, seed)
            rng = np.random.default_rng(seed + 100)
            G = net.outputs_batch(rng.normal(size=(200, m)))
            assert np.all(G.sum(axis=1) == 0)
            assert G.min() >= -(r - 1) and G.max() <= r - 1
            assert np.all((G - (r - 1)) % 2 == 0)


class TestTieBreak:
    def test_cyclic_tie_resolved_by_raw_margin(self):
        # constant activations 2, -1, 0.5 give outputs +1, -1, +1: a
        # three-way cycle with g = (0, 0, 0)
        net = PairwiseNetwork(
            r=3, m=1,
            tests=(const_test(1, 2, 2.0), const_test(1, 3, -1.0), const_test(2, 3, 0.5)),
        )
        x = np.array([0.0])
        np.testing.assert_array_equal(net_outputs(net, x), [0, 0, 0])

        # oracle: recompute both keys from single-test primitives
        outs = {(t.i, t.j): tlu_output(t.weights, x) for t in net.tests}
        acts = {(t.i, t.j): activation(t.weights, x) for t in net.tests}
        g = [0.0] * 3
        h = [0.0] * 3
        for (i, j), o in outs.items():
            g[i - 1] += o
            g[j - 1] -= o
            h[i - 1] += acts[(i, j)]
            h[j - 1] -= acts[(i, j)]
        top = max(g)
        tied = [k for k in range(3) if g[k] == top]
        expected = min(tied, key=lambda k: (-h[k], k)) + 1
        assert net_classify(net, x) == expected == 1

    def test_full_tie_goes_to_lowest_id(self):
        net = PairwiseNetwork(
            r=3, m=1,
            tests=(const_test(1, 2, 1.0), const_test(1, 3, -1.0), const_test(2, 3, 1.0)),
        )
        # outputs +1,-1,+1 -> g=(0,0,0); margins 1,-1,1 -> h=(0,0,0)
        assert net_classify(net, np.array([0.0])) == 1


    @pytest.mark.parametrize("n", [1, 2 * BLOCK_ROWS + 37])
    def test_blocks_match_rows(self, n):
        # Activations x1, x2, x3 of tests (1,2), (1,3), (2,3), each exact.
        # Every tie row below is a cycle, g = (0, 0, 0), left to the raw
        # margins h = (x1 + x2, x3 - x1, -x2 - x3): a tie of the top two
        # margins, or of all three. They sit on both sides of each block
        # boundary and at the end.
        st = Standardization(means=np.zeros(3), stds=np.full(3, 0.5))
        net = PairwiseNetwork(r=3, m=3, tests=tuple(
            PairwiseTest(i, j, w) for (i, j), w in zip(enumerate_pairs(3), np.eye(3, 4, k=1))
        ), standardization=st)
        X = np.random.default_rng(5).normal(size=(n, 3))
        ties = {(2.0, -1.0, 3.0): 1, (1.0, -3.0, 2.0): 2, (1.0, -1.0, 1.0): 1}
        at = [k for k in (BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS) if k < n]
        at.append(n - 1)
        for k, row in zip(at, itertools.cycle(ties)):
            X[k] = row
        preds = net.classify_batch(X)
        np.testing.assert_array_equal(preds, [net_classify(net, x) for x in X])
        np.testing.assert_array_equal(net.outputs_batch(X), [net_outputs(net, x) for x in X])
        for k, row in zip(at, itertools.cycle(ties)):
            np.testing.assert_array_equal(net_outputs(net, X[k]), [0, 0, 0])
            assert preds[k] == ties[row]


class TestTraining:
    def test_two_class_reduces_to_single_pocket(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        y = np.where(rng.random(50) > 0.5, 1, 2)
        y[:2] = [1, 2]
        ds = make_dataset(X, y, r=2)
        cfg = TrainConfig(max_iterations=2000, seed=42)
        net = train_pairwise(ds, cfg)
        direct = train_pocket(
            X,
            np.where(y == 1, 1, -1),
            TrainConfig(max_iterations=2000, seed=derive_pair_seed(42, 1, 2)),
        )
        np.testing.assert_array_equal(net.tests[0].weights, direct.weights)

    def test_separated_clusters_all_pairs_perfect(self):
        rng = np.random.default_rng(0)
        X = np.vstack([
            rng.normal([0, 0], 0.2, (20, 2)),
            rng.normal([6, 0], 0.2, (20, 2)),
            rng.normal([0, 6], 0.2, (20, 2)),
        ])
        y = np.repeat([1, 2, 3], 20)
        ds = make_dataset(X, y)
        net = train_pairwise(ds, TrainConfig(max_iterations=10_000, seed=0))
        for t in net.tests:
            mask = (y == t.i) | (y == t.j)
            targets = np.where(y[mask] == t.i, 1, -1)
            preds = [tlu_output(t.weights, x) for x in X[mask]]
            assert np.array_equal(preds, targets)

    def test_empty_class_rejected(self):
        ds = make_dataset([[0.0], [1.0]], [1, 2], r=3)
        with pytest.raises(TrainingError):
            train_pairwise(ds, TrainConfig())

    def test_jobs_do_not_change_results(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 3))
        y = rng.integers(1, 5, size=80)
        y[:4] = [1, 2, 3, 4]
        ds = make_dataset(X, y, r=4)
        cfg = TrainConfig(max_iterations=2000, seed=7)
        serial = train_pairwise(ds, cfg, jobs=1)
        four_jobs = train_pairwise(ds, cfg, jobs=4)
        for a, b in zip(serial.tests, four_jobs.tests):
            np.testing.assert_array_equal(a.weights, b.weights)

    @pytest.fixture(scope="class")
    def default_shape_serial(self):
        """The default 16-class shape at scale 0.02, standardized, and its
        network trained in this process."""
        with pytest.warns(UserWarning, match="single record"):
            train, _ = split_by_record(generate(default_config(seed=0, scale=0.02)), 0.33, 0)
        ds, _ = standardize(train)
        cfg = TrainConfig(seed=0)
        return ds, cfg, train_pairwise(ds, cfg, jobs=1)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_worker_processes_train_every_pair_bit_identically(self, default_shape_serial,
                                                                jobs):
        ds, cfg, serial = default_shape_serial
        forked = train_pairwise(ds, cfg, jobs=jobs)
        assert len(forked.tests) == 120
        for a, b in zip(serial.tests, forked.tests):
            assert (a.i, a.j) == (b.i, b.j)
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_first_pair_with_an_empty_class_decides_the_error(self):
        # Classes 2 and 4 are empty: pair (1, 2) is the first to fail in
        # pair order, though a worker may reach (1, 4) or (3, 4) first.
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.normal(size=(40, 2)), np.repeat([1, 3, 5, 6], 10), r=6)
        for jobs in (1, 2, 3):
            with pytest.raises(TrainingError,
                               match=r"class 2 has no examples; cannot train pair \(1,2\)"):
                train_pairwise(ds, TrainConfig(max_iterations=500), jobs=jobs)

    def test_training_time_tracks_pair_count(self):
        # same per-class data and budget: the r=8 run trains 28 tests vs
        # r=4's 6, so it should cost roughly 28/6 the time. Bounds are wide
        # because timers on tiny runs are noisy.
        import time

        rng = np.random.default_rng(12)

        def timed(r):
            y = np.repeat(np.arange(1, r + 1), 40)
            X = rng.normal(size=(len(y), 6))
            ds = make_dataset(X, y, records=y, r=r)
            cfg = TrainConfig(max_iterations=30_000, seed=0)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                train_pairwise(ds, cfg)
                best = min(best, time.perf_counter() - t0)
            return best

        t4, t8 = timed(4), timed(8)
        ratio = t8 / t4  # pair counts predict 28/6 = 4.7
        assert 1.5 < ratio < 15.0

    def test_pair_independence(self):
        # perturbing one class's examples must leave pairs that do not
        # involve that class bit-identical (tests share no state)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 2))
        y = np.repeat([1, 2, 3, 4], 15)
        ds_a = make_dataset(X, y)
        X2 = X.copy()
        X2[y == 3] += 10.0
        ds_b = make_dataset(X2, y)
        cfg = TrainConfig(max_iterations=1500, seed=5)
        net_a = train_pairwise(ds_a, cfg)
        net_b = train_pairwise(ds_b, cfg)
        for t_a, t_b in zip(net_a.tests, net_b.tests):
            if 3 in (t_a.i, t_a.j):
                continue
            np.testing.assert_array_equal(t_a.weights, t_b.weights)


class TestPermutation:
    def test_permuting_trained_network_permutes_outputs(self):
        rng = np.random.default_rng(9)
        net = random_network(5, 3, seed=9)
        perm = [3, 5, 1, 2, 4]  # old class k -> perm[k-1]
        permuted = permute_classes(net, perm)
        for _ in range(50):
            x = rng.normal(size=3)
            g_old = net_outputs(net, x)
            g_new = net_outputs(permuted, x)
            for k in range(5):
                assert g_new[perm[k] - 1] == g_old[k]

    def test_bad_permutation(self):
        net = random_network(3, 2)
        with pytest.raises(ParameterError):
            permute_classes(net, [1, 1, 2])


class TestRecordClassification:
    def region_net(self):
        # 1-D regions: x < 0 -> class 1, 0 < x < 10 -> class 2, x > 10 -> class 3
        return PairwiseNetwork(
            r=3, m=1,
            tests=(
                PairwiseTest(1, 2, np.array([0.0, -1.0])),
                PairwiseTest(1, 3, np.array([10.0, -1.0])),
                PairwiseTest(2, 3, np.array([10.0, -1.0])),
            ),
        )

    def test_histogram_and_modal(self):
        net = self.region_net()
        segs = np.array([[5.0], [5.0], [5.0], [11.0]])
        rc = classify_record(net, segs)
        np.testing.assert_array_equal(rc.histogram, [0, 3, 1])
        assert rc.modal_class == 2
        assert rc.confidence == pytest.approx(0.75)
        assert rc.distribution.sum() == pytest.approx(1.0)

    def test_single_segment(self):
        rc = classify_record(self.region_net(), np.array([[-3.0]]))
        assert rc.confidence == 1.0
        assert rc.modal_class == 1

    def test_92_of_100(self):
        segs = np.vstack([np.full((92, 1), 5.0), np.full((8, 1), 11.0)])
        rc = classify_record(self.region_net(), segs)
        assert rc.modal_class == 2
        assert rc.confidence == pytest.approx(0.92)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            classify_record(self.region_net(), np.empty((0, 1)))


class TestEvaluate:
    @pytest.mark.parametrize("many", [False, True], ids=["tie", "many-records"])
    def test_record_rows_match_classify_record(self, many):
        net = random_network(4, 2, seed=11)
        rng = np.random.default_rng(12)
        if many:
            # 700 sparse record ids of 1 to 4 segments each, in shuffled row order.
            ids = rng.choice(np.arange(1, 5000), size=700, replace=False)
            recs = rng.permutation(np.repeat(ids, rng.integers(1, 5, size=700)))
            X = rng.normal(size=(recs.size, 2))
            y = recs % 4 + 1
        else:
            X = rng.normal(size=(60, 2))
            recs = np.repeat(np.arange(1, 13), 5)
            y = (recs - 1) % 4 + 1
            # Record 13: two segments each for classes 3 and 2, a tie.
            tie = [X[net.classify_batch(X) == k][:2] for k in (3, 2)]
            X = np.vstack([X, *tie])
            recs = np.append(recs, [13] * 4)
            y = np.append(y, [4] * 4)
        ds = make_dataset(X, y, recs, r=4)
        metrics = evaluate(net, ds)
        assert [row[0] for row in metrics.per_record] == np.unique(recs).tolist()
        for rec, n_seg, n_correct, modal, true, conf in metrics.per_record:
            rc = classify_record(net, ds.X[ds.records == rec])
            assert n_seg == rc.histogram.sum()
            assert n_correct == rc.histogram[true - 1]
            assert (modal, conf) == (rc.modal_class, rc.confidence)
            np.testing.assert_array_equal(metrics.per_record_distributions[rec], rc.distribution)
        if not many:
            tied = classify_record(net, ds.X[ds.records == 13])
            np.testing.assert_array_equal(tied.histogram, [0, 2, 2, 0])
            assert metrics.per_record[-1][3] == 2

    def test_perfect_classifier(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal([0, 0], 0.2, (20, 2)), rng.normal([6, 6], 0.2, (20, 2))])
        y = np.repeat([1, 2], 20)
        recs = np.repeat([1, 2, 3, 4], 10)
        ds = make_dataset(X, y, recs)
        net = train_pairwise(ds, TrainConfig(max_iterations=5000, seed=0))
        metrics = evaluate(net, ds)
        assert metrics.segment_accuracy == 1.0
        assert metrics.record_accuracy == 1.0
        assert np.trace(metrics.confusion) == len(ds)

    def test_constant_classifier_on_balanced_two_class(self):
        # a test that always answers -1 votes class 2 everywhere
        net = PairwiseNetwork(r=2, m=1, tests=(const_test(1, 2, -1.0),))
        X = np.arange(20, dtype=float).reshape(-1, 1)
        ds = make_dataset(X, np.repeat([1, 2], 10), np.repeat([1, 2], 10))
        metrics = evaluate(net, ds)
        assert metrics.segment_accuracy == 0.5

    def test_record_beats_segment_when_majorities_hold(self):
        # two records, each majority-correct with one bad segment
        net = PairwiseNetwork(
            r=2, m=1, tests=(PairwiseTest(1, 2, np.array([0.0, -1.0])),)
        )  # x < 0 -> class 1, x > 0 -> class 2
        X = np.array([[-1.0], [-1.0], [2.0], [1.0], [1.0], [-2.0]])
        y = np.array([1, 1, 1, 2, 2, 2])
        recs = np.array([1, 1, 1, 2, 2, 2])
        ds = make_dataset(X, y, recs)
        metrics = evaluate(net, ds)
        assert metrics.record_accuracy == 1.0
        assert metrics.segment_accuracy == pytest.approx(4 / 6)
        assert metrics.record_accuracy >= metrics.segment_accuracy
        for rec, n_seg, n_correct, modal, true, conf in metrics.per_record:
            assert n_seg == 3 and n_correct == 2 and modal == true
            assert conf == pytest.approx(2 / 3)

    def test_memory_does_not_grow_with_rows_times_tests(self):
        # numpy reports its buffers to tracemalloc. Classifying in row
        # blocks keeps evaluate's peak below the dataset's own X, and the
        # peak grows only by a few values per row (predictions, masks) as
        # rows are added, not by one value per row and test.
        net = random_network(16, 64, seed=3)
        rng = np.random.default_rng(4)

        def peak(n):
            y = np.repeat(np.arange(1, 17), n // 16)
            ds = make_dataset(rng.normal(size=(n, 64)), y, records=y, r=16)
            tracemalloc.start()
            try:
                evaluate(net, ds)
                return tracemalloc.get_traced_memory()[1], ds.X.nbytes
            finally:
                tracemalloc.stop()

        n = 8 * BLOCK_ROWS
        small, x_bytes = peak(n)
        large, _ = peak(4 * n)
        assert small < x_bytes
        assert large - small < 64 * (3 * n)

    def test_distributions_sum_to_one(self):
        net = random_network(4, 2, seed=5)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        y = rng.integers(1, 5, size=30)
        y[:4] = [1, 2, 3, 4]
        recs = np.repeat([1, 2, 3], 10)
        y[recs == 1] = y[0]
        y[recs == 2] = y[10]
        y[recs == 3] = y[20]
        ds = make_dataset(y=y, X=X, records=recs, r=4)
        metrics = evaluate(net, ds)
        for dist in metrics.per_record_distributions.values():
            assert dist.sum() == pytest.approx(1.0)
