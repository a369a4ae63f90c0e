"""The benchmark's workloads: inputs made from a seed, the CLI commands of
one pass, the checks on their outputs, and the traced in-process replay.

The traced replay calls the package's public functions in the order the
matching ``cmd_*`` in ``pairnet.cli`` calls them, one span per call.
"""

import hashlib
import re
import warnings
from pathlib import Path

import numpy as np

from pairnet import (
    TrainConfig,
    default_config,
    derive_pair_seed,
    enumerate_pairs,
    evaluate,
    generate,
    lm_train_pocket,
    load_csv,
    load_model,
    save_csv,
    save_model,
    split_by_record,
    standardize,
    train_pairwise,
    train_pocket,
)
from pairnet.cli import LM_MAX_ITERS, PAIR_MAX_ITERS
from pairnet.eeg_features import feature_names, read_signal_file, signals_to_dataset

from procs import run_cli

TEST_FRACTION = 0.33  # the CLI default for --test-fraction

# Seed-0 work counts and test accuracy at full size. A change that keeps
# the models bit for bit keeps these; any other change shows as a failure.
GOLDEN = {
    "desk": {"tlu.visits": 578_221, "tlu.pairs_converged": 104, "test_seg_acc": "0.6684"},
    "full": {"tlu.visits": 1_551_134, "tlu.pairs_converged": 63, "test_seg_acc": "0.7479"},
}

ACC_LINE = re.compile(r"^(train|test): segment_accuracy=(\S+) record_accuracy=(\S+)$", re.M)


def sha256(path: Path):
    """Hex digest of a file, or None when a failed command left none."""
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def split_quietly(ds, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return split_by_record(ds, TEST_FRACTION, seed)


class TableWorkload:
    """A synthetic segment table from ``pairnet gen``, trained and evaluated.

    desk is the README quick start at scale 0.1 and is the only workload
    that trains the linear machine; full is scale 1.0, where CSV parsing
    and full-set accuracy evaluations weigh as much as the pocket visits.
    """

    def __init__(self, name, seed, work: Path, scale, models, golden):
        self.name, self.seed, self.work = name, seed, work
        self.scale, self.models = scale, models
        self.golden = golden
        self.ds = None

    @property
    def data(self):
        return self.work / "data.csv"

    @property
    def n_segments(self):
        return len(self.ds)

    def setup(self, env):
        return run_cli(
            "gen",
            ["gen", "--out", self.data, "--scale", self.scale, "--seed", self.seed],
            self.work, env,
        )

    def prepare(self):
        self.ds = generate(default_config(seed=self.seed, scale=self.scale))
        self.train, self.test = split_quietly(self.ds, self.seed)

    def model_path(self, kind, base=None):
        return (base or self.work) / ("net.txt" if kind == "pairnet" else "lm.txt")

    def commands(self):
        cmds = [
            (f"train_{kind}",
             ["train", self.data, "--model", kind, "--out", self.model_path(kind),
              "--seed", self.seed])
            for kind in self.models
        ]
        cmds.append(("evaluate", ["evaluate", self.model_path("pairnet"), self.data,
                                  "--out", self.work / "report.tsv"]))
        return cmds

    def outputs(self):
        return [self.model_path(k) for k in self.models] + [self.work / "report.tsv"]

    def test_seg_acc(self, last_pass):
        accs = dict((m[0], m[1]) for m in ACC_LINE.findall(last_pass["train_pairnet"].stdout))
        return accs.get("test")

    def verify(self, last_pass):
        """Reload the CLI's models and check what the CLI printed and wrote."""
        checks = []
        for kind in self.models:
            model = load_model(self.model_path(kind))
            printed = {m[0]: (m[1], m[2]) for m in ACC_LINE.findall(last_pass[f"train_{kind}"].stdout)}
            for split_name, split in (("train", self.train), ("test", self.test)):
                got = evaluate(model, split)
                want = (f"{got.segment_accuracy:.4f}", f"{got.record_accuracy:.4f}")
                checks.append((f"{kind} reload {split_name} accuracy", printed.get(split_name) == want,
                               f"printed {printed.get(split_name)}, reloaded {want}"))
        net_eval = evaluate(load_model(self.model_path("pairnet")), self.ds)
        head = (self.work / "report.tsv").read_text(encoding="utf-8").splitlines()[:2]
        want = [f"# segment_accuracy\t{net_eval.segment_accuracy:.6f}",
                f"# record_accuracy\t{net_eval.record_accuracy:.6f}"]
        checks.append(("report.tsv accuracies", head == want, f"{head} vs {want}"))
        if self.golden:
            acc = self.test_seg_acc(last_pass)
            want_acc = GOLDEN[self.name]["test_seg_acc"]
            checks.append(("seed-0 test accuracy", acc == want_acc, f"{acc} vs {want_acc}"))
        return checks

    def traced_pass(self, tr, tdir: Path):
        """Replay gen and the pass's commands in-process under spans; then
        replay every pair with train_pocket for the work counts."""
        data = tdir / "data.csv"
        with tr.span("cli.gen"):
            with tr.span("synthgen.generate"):
                ds = generate(default_config(seed=self.seed, scale=self.scale))
            with tr.span("dataset.save_csv"):
                save_csv(ds, data)
        models, info = {}, {}
        for kind in self.models:
            with tr.span(f"cli.train_{kind}"):
                with tr.span("dataset.load_csv"):
                    ds = load_csv(data)
                with tr.span("dataset.split"):
                    train, test = split_quietly(ds, self.seed)
                with tr.span("dataset.standardize"):
                    train_std, st = standardize(train)
                if kind == "pairnet":
                    cfg = TrainConfig(max_iterations=PAIR_MAX_ITERS, seed=self.seed)
                    with tr.span("pairwise_net.train"):
                        model = train_pairwise(train_std, cfg, standardization=st)
                    pair_train = train_std
                else:
                    cfg = TrainConfig(max_iterations=LM_MAX_ITERS, seed=self.seed)
                    with tr.span("linear_machine.train"):
                        model, result = lm_train_pocket(train_std, cfg, standardization=st)
                    info["linear_machine.visits"] = result.iterations_used
                for split in (train, test):
                    with tr.span("pairwise_net.evaluate"):
                        evaluate(model, split)
                with tr.span("model_io.save"):
                    save_model(model, self.model_path(kind, tdir))
            models[kind] = model
        with tr.span("cli.evaluate"):
            with tr.span("model_io.load"):
                net = load_model(self.model_path("pairnet", tdir))
            with tr.span("dataset.load_csv"):
                ds = load_csv(data)
            with tr.span("pairwise_net.evaluate"):
                evaluate(net, ds)
        info["dataset.csv_bytes"] = data.stat().st_size
        info["dataset.load_csv_calls"] = len(self.models) + 1

        checks = [("traced data.csv equals gen output", sha256(data) == sha256(self.data), "")]
        for kind, model in models.items():
            cli_path, traced_path = self.model_path(kind), self.model_path(kind, tdir)
            checks.append((f"traced {kind} file equals CLI file",
                           sha256(cli_path) == sha256(traced_path), ""))
            same = np.array_equal(load_model(cli_path).classify_batch(self.test.X),
                                  model.classify_batch(self.test.X))
            checks.append((f"{kind} reload predicts like traced model", same, ""))
        counts, exact = replay_pairs(pair_train, models["pairnet"], self.seed)
        info.update(counts)
        checks.append(("replayed pair weights equal the network's", exact, ""))
        if self.golden:
            for key in ("tlu.visits", "tlu.pairs_converged"):
                want = GOLDEN[self.name][key]
                checks.append((f"seed-0 {key}", counts[key] == want, f"{counts[key]} vs {want}"))
        return info, checks


def replay_pairs(train_std, net, seed):
    """Train every pair again through train_pocket, exactly as train_pairwise
    does, to read the per-pair results it does not return."""
    visits = converged = swaps = 0
    exact = True
    for test, (i, j) in zip(net.tests, enumerate_pairs(net.r)):
        mask = (train_std.y == i) | (train_std.y == j)
        targets = np.where(train_std.y[mask] == i, 1.0, -1.0)
        cfg = TrainConfig(max_iterations=PAIR_MAX_ITERS, seed=derive_pair_seed(seed, i, j))
        result = train_pocket(train_std.X[mask], targets, cfg)
        visits += result.iterations_used
        converged += result.train_accuracy == 1.0
        swaps += len(result.accuracy_history) - 1
        exact &= np.array_equal(result.weights, test.weights)
    counts = {"tlu.visits": visits, "tlu.pairs_converged": converged, "tlu.pocket_swaps": swaps}
    return counts, bool(exact)


class ExtractWorkload:
    """Seeded two-channel recordings featurized by ``pairnet extract``.

    Sampling rates cycle through 100, 128 and 256 Hz, so the FFT lengths
    differ between recordings; class labels cycle through four values.
    """

    RATES = (100, 128, 256)
    LABELS = ("35", "39", "43", "47")

    def __init__(self, name, seed, work: Path, recordings, segments):
        self.name, self.seed, self.work = name, seed, work
        self.recordings, self.segments = recordings, segments
        self.paths = [work / f"rec{k + 1:02d}.txt" for k in range(recordings)]
        self.labels = [self.LABELS[k % len(self.LABELS)] for k in range(recordings)]
        self.signal_lines = 0

    @property
    def n_segments(self):
        return self.recordings * self.segments

    def setup(self, env):
        rng = np.random.default_rng([self.seed, 2005])
        self.signal_lines = 0
        for k, path in enumerate(self.paths):
            fs = self.RATES[k % len(self.RATES)]
            c3, c4 = synth_recording(rng, fs, self.segments * 10 * fs, k % len(self.LABELS))
            with open(path, "wb") as fh:
                fh.write(f"fs={fs}\n".encode())
                fh.write(encode_samples(c3, c4))
            self.signal_lines += len(c3)
        return None

    def prepare(self):
        pass

    def out(self, base=None):
        return (base or self.work) / "feats.csv"

    def commands(self):
        return [("extract", ["extract", *self.paths, "--classes", ",".join(self.labels),
                             "--out", self.out()])]

    def outputs(self):
        return [self.out()]

    def test_seg_acc(self, last_pass):
        return None

    def verify(self, last_pass):
        with open(self.out(), encoding="utf-8") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            rows = sum(1 for line in fh if line.strip())
        want = feature_names() + ["class", "record"]
        return [
            ("feats.csv columns", header == want, f"{len(header)} columns"),
            ("feats.csv rows", rows == self.n_segments, f"{rows} vs {self.n_segments}"),
        ]

    def traced_pass(self, tr, tdir: Path):
        with tr.span("cli.extract"):
            with tr.span("eeg_features.read_signal"):
                recordings = [read_signal_file(p) for p in self.paths]
            with tr.span("eeg_features.featurize"):
                ds = signals_to_dataset(recordings, self.labels)
            with tr.span("dataset.save_csv"):
                save_csv(ds, self.out(tdir))
        info = {"eeg_features.signal_lines": self.signal_lines}
        checks = [("traced feats.csv equals CLI file", sha256(self.out(tdir)) == sha256(self.out()), "")]
        return info, checks


def synth_recording(rng, fs, n, class_index):
    """Two channels in microvolts: class-dependent theta/alpha rhythms with
    per-recording amplitude and phase, a slow drift, and white noise."""
    t = np.arange(n) / fs
    alpha_hz = 8.5 + 1.1 * class_index
    theta_amp = 12.0 + 6.0 * class_index
    channels = []
    for _ in range(2):
        gain = rng.uniform(0.8, 1.2)
        x = (theta_amp * gain * np.sin(2 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi))
             + 20.0 * gain * np.sin(2 * np.pi * alpha_hz * t + rng.uniform(0, 2 * np.pi))
             + 8.0 * np.sin(2 * np.pi * 0.3 * t + rng.uniform(0, 2 * np.pi))
             + rng.normal(0.0, 10.0, n))
        channels.append(x)
    return channels[0], 0.6 * channels[0] + 0.4 * channels[1]


def encode_samples(c3, c4) -> bytes:
    """Fixed-width text lines ``+123.456 -012.345``, built without a Python
    loop per line so that writing inputs stays a small part of set-up."""
    v = np.clip(np.rint(np.column_stack([c3, c4]) * 1000), -999_999, 999_999).astype(np.int64)
    buf = np.empty((len(v), 18), dtype=np.uint8)
    for col, off in ((0, 0), (1, 9)):
        a = np.abs(v[:, col])
        buf[:, off] = np.where(v[:, col] < 0, ord("-"), ord("+"))
        for pos, power in zip((1, 2, 3, 5, 6, 7), (100_000, 10_000, 1000, 100, 10, 1)):
            buf[:, off + pos] = a // power % 10 + ord("0")
        buf[:, off + 4] = ord(".")
    buf[:, 8] = ord(" ")
    buf[:, 17] = ord("\n")
    return buf.tobytes()


def make(name, seed, work: Path, tiny: bool):
    golden = seed == 0 and not tiny
    if name == "desk":
        return TableWorkload(name, seed, work, 0.02 if tiny else 0.1, ("pairnet", "lm"), golden)
    if name == "full":
        return TableWorkload(name, seed, work, 0.03 if tiny else 1.0, ("pairnet",), golden)
    if name == "extract":
        return ExtractWorkload(name, seed, work, 4 if tiny else 16, 12 if tiny else 120)
    raise ValueError(f"unknown workload {name!r}")
