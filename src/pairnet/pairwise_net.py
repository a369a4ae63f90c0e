"""Pairwise network: one pocket-trained TLU per class pair, assembled into
winner-take-all output sums with fixed +1/-1 wiring.

For r classes there are r(r-1)/2 tests. Test (i, j) with i < j outputs +1
for class i and -1 for class j; output sum g_i adds the outputs of all
tests where class i comes first and subtracts those where it comes second.
Classification takes the argmax of the integer sums, breaking ties by the
corresponding sum of raw activations and then by the lowest class id.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._parallel import ordered_map
from .dataset import Dataset, Standardization
from .errors import DimensionError, EmptyInputError, ParameterError, TrainingError
from .tlu import TrainConfig, blockwise, train_pocket


@dataclass(frozen=True)
class PairwiseTest:
    """One trained linear test separating class i (output +1) from class j (-1)."""

    i: int
    j: int
    weights: np.ndarray

    def __post_init__(self):
        if not (1 <= self.i < self.j):
            raise ParameterError(f"pair ids must satisfy 1 <= i < j, got ({self.i}, {self.j})")
        object.__setattr__(
            self, "weights", np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        )


@dataclass(frozen=True)
class PairwiseNetwork:
    """All r(r-1)/2 pairwise tests in lexicographic (i, j) order."""

    r: int
    m: int
    tests: tuple[PairwiseTest, ...]
    standardization: Standardization | None = None

    def __post_init__(self):
        object.__setattr__(self, "tests", tuple(self.tests))
        expected = enumerate_pairs(self.r)
        got = [(t.i, t.j) for t in self.tests]
        if got != expected:
            raise ParameterError(
                f"tests must cover every pair exactly once in lexicographic order "
                f"(expected {len(expected)} pairs, got {got[:4]}...)"
            )
        for t in self.tests:
            if t.weights.shape != (self.m + 1,):
                raise DimensionError(
                    f"test ({t.i},{t.j}) has weight length {t.weights.shape[0]}, "
                    f"expected {self.m + 1}"
                )

    def _stacked_weights(self) -> np.ndarray:
        return np.vstack([t.weights for t in self.tests])

    def _wiring(self) -> np.ndarray:
        """(n_tests, r) matrix with +1 at column i-1 and -1 at column j-1."""
        S = np.zeros((len(self.tests), self.r), dtype=np.int64)
        for t_idx, t in enumerate(self.tests):
            S[t_idx, t.i - 1] = 1
            S[t_idx, t.j - 1] = -1
        return S

    def outputs_batch(self, X: np.ndarray) -> np.ndarray:
        """(n, r) integer output sums g_1..g_r per example, computed in
        blocks of rows (see tlu.blockwise)."""
        W, S = self._stacked_weights().T, self._wiring()
        return blockwise(lambda xb: _signs(xb @ W) @ S, X, self.m, self.standardization)

    def classify_batch(self, X: np.ndarray) -> np.ndarray:
        """Predicted class ids with the raw-margin / lowest-id tie-break.

        Works in blocks of rows (see tlu.blockwise), so its temporaries take
        O(block x tests) memory, whatever the number of rows.
        """
        W, S = self._stacked_weights().T, self._wiring()

        def classify(xb: np.ndarray) -> np.ndarray:
            acts = xb @ W
            g = _signs(acts) @ S
            tied_margins = np.where(g == g.max(axis=1, keepdims=True), acts @ S, -np.inf)
            return np.argmax(tied_margins, axis=1) + 1

        return blockwise(classify, X, self.m, self.standardization)


def _signs(acts: np.ndarray) -> np.ndarray:
    """The +1/-1 outputs of raw test activations."""
    return np.where(acts > 0.0, np.int64(1), np.int64(-1))


@dataclass(frozen=True)
class RecordClassification:
    """Per-class segment histogram for one record plus the modal decision."""

    histogram: np.ndarray
    distribution: np.ndarray
    modal_class: int
    confidence: float


@dataclass(frozen=True)
class EvalMetrics:
    """Segment- and record-level accuracy plus per-record detail rows.

    per_record rows are (record_id, n_segments, n_correct, modal_class,
    true_class, confidence) sorted by record id. confusion is r x r with
    rows indexed by true class and columns by predicted class.
    per_record_distributions maps record_id to its length-r class
    distribution over segments.
    """

    segment_accuracy: float
    record_accuracy: float
    per_record: tuple[tuple[int, int, int, int, int, float], ...]
    confusion: np.ndarray
    per_record_distributions: dict[int, np.ndarray]


def enumerate_pairs(r: int) -> list[tuple[int, int]]:
    """All unordered class pairs (i, j) with i < j, lexicographic."""
    if r < 2:
        raise ParameterError(f"r >= 2 required, got {r}")
    return [(i, j) for i in range(1, r) for j in range(i + 1, r + 1)]


def derive_pair_seed(seed: int, i: int, j: int) -> int:
    """Deterministic per-pair seed so training order cannot change which
    random stream a pair sees."""
    return int(np.random.SeedSequence([int(seed), int(i), int(j)]).generate_state(1)[0])


def _train_one_pair(ds: Dataset, cfg: TrainConfig, i: int, j: int) -> PairwiseTest:
    mask = (ds.y == i) | (ds.y == j)
    if not np.any(ds.y == i) or not np.any(ds.y == j):
        missing = i if not np.any(ds.y == i) else j
        raise TrainingError(f"class {missing} has no examples; cannot train pair ({i},{j})")
    targets = np.where(ds.y[mask] == i, 1.0, -1.0)
    pair_cfg = replace(cfg, seed=derive_pair_seed(cfg.seed, i, j))
    result = train_pocket(ds.X[mask], targets, pair_cfg)
    return PairwiseTest(i=i, j=j, weights=result.weights)


def train_pairwise(
    ds: Dataset,
    cfg: TrainConfig,
    jobs: int = 1,
    standardization: Standardization | None = None,
) -> PairwiseNetwork:
    """Train every pairwise test independently and assemble the network.

    Test (i, j) is pocket-trained on only the examples of classes i and j,
    with targets +1 for i and -1 for j, using a seed derived from
    (cfg.seed, i, j). With jobs > 1 the tests are spread over up to jobs
    forked worker processes; the network does not depend on jobs, and a
    missing class is reported for the first affected pair in lexicographic
    order either way.
    """
    pairs = enumerate_pairs(ds.r)
    _kernels.load()  # once, before the workers fork
    tests = ordered_map(lambda pair: _train_one_pair(ds, cfg, *pair), pairs, jobs)
    return PairwiseNetwork(
        r=ds.r, m=ds.m, tests=tuple(tests), standardization=standardization
    )


def net_outputs(net: PairwiseNetwork, x: np.ndarray) -> np.ndarray:
    """Integer output sums for one example (length r, sums to zero)."""
    return net.outputs_batch(np.atleast_2d(x))[0]


def net_classify(net: PairwiseNetwork, x: np.ndarray) -> int:
    """Winner-take-all class id for one example."""
    return int(net.classify_batch(np.atleast_2d(x))[0])


def classify_record(net, segments: np.ndarray) -> RecordClassification:
    """Aggregate per-segment decisions for one record into a histogram.

    The record's distribution is the histogram normalized by the segment
    count, its modal class the argmax (lowest id on ties), and confidence
    the modal share. Works with any model exposing classify_batch.
    """
    segments = np.atleast_2d(np.asarray(segments, dtype=np.float64))
    if segments.shape[0] == 0:
        raise EmptyInputError("classify_record needs at least one segment")
    return _vote(np.bincount(net.classify_batch(segments), minlength=net.r + 1)[1:])


def _vote(hist: np.ndarray) -> RecordClassification:
    """One record's decision from the count of its segments predicted as
    each class 1..r."""
    dist = hist / hist.sum()
    modal = int(np.argmax(hist)) + 1
    return RecordClassification(
        histogram=hist,
        distribution=dist,
        modal_class=modal,
        confidence=float(dist[modal - 1]),
    )


def evaluate(model, ds: Dataset) -> EvalMetrics:
    """Segment and record accuracy of a trained model on a dataset.

    model is a PairwiseNetwork or LinearMachine (anything exposing
    classify_batch and r). Record-level decisions take the modal class of
    each record's segments.
    """
    if len(ds) == 0:
        raise EmptyInputError("cannot evaluate on an empty dataset")
    if model.r != ds.r:
        raise DimensionError(f"model has r={model.r} classes, dataset r={ds.r}")
    preds = model.classify_batch(ds.X)
    segment_accuracy = float(np.mean(preds == ds.y))

    confusion = np.zeros((ds.r, ds.r), dtype=np.int64)
    np.add.at(confusion, (ds.y - 1, preds - 1), 1)

    # Row k of counts tallies the predicted classes 1..r of record recs[k],
    # whose segments all have class classes[k].
    recs = ds.record_ids()
    inverse = np.searchsorted(recs, ds.records)
    classes = np.empty(len(recs), dtype=np.int64)
    classes[inverse] = ds.y
    counts = np.bincount(inverse * ds.r + preds - 1, minlength=len(recs) * ds.r)
    rows = []
    dists: dict[int, np.ndarray] = {}
    for rec, true_class, hist in zip(recs.tolist(), classes.tolist(),
                                     counts.reshape(len(recs), ds.r)):
        vote = _vote(hist)
        rows.append((
            rec, int(hist.sum()), int(hist[true_class - 1]),
            vote.modal_class, true_class, vote.confidence,
        ))
        dists[rec] = vote.distribution

    return EvalMetrics(
        segment_accuracy=segment_accuracy,
        record_accuracy=sum(modal == true for _, _, _, modal, true, _ in rows) / len(rows),
        per_record=tuple(rows),
        confusion=confusion,
        per_record_distributions=dists,
    )
