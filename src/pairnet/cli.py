"""Command-line surface: train, evaluate, significance, intervals, extract,
gen, and bench subcommands with plot-ready TSV outputs.

Each ``cmd_*`` does its work and returns the paths it read and wrote.
``main`` is the one runner around them: it times the command, and when the
command wrote files it writes a JSON manifest next to the first of them
(``<out>.manifest.json``) echoing the command, all flag values, the seed,
input/output paths, wall-clock duration, and the library version. A report
sent to stdout gets no manifest.

``main`` is also the one place where errors become exit codes: 0 success,
2 bad flags or parameter values, 3 data errors (missing, unreadable or
malformed input files), 4 training or model errors.

``train`` and ``bench`` train the pairwise tests in up to ``--jobs`` forked
worker processes, and ``extract`` reads and featurizes the signal files in
as many as the default: the CPUs this process may use, at most
``MAX_DEFAULT_JOBS``. The outputs do not depend on the number of workers,
and the first failing pair or file, in order, decides the message and the
exit code.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from ._parallel import MAX_DEFAULT_JOBS, check_jobs, default_jobs
from .dataset import Dataset, _split_by_record, load_csv, save_csv, standardize
from .errors import (
    DimensionError,
    EmptyInputError,
    ParameterError,
    ParseError,
    SchemaError,
    TrainingError,
)
from .eeg_features import signal_files_to_dataset
from .feature_stats import sigma_intervals, significance
from .linear_machine import lm_train_pocket
from .model_io import load_model, save_model
from .pairwise_net import evaluate, train_pairwise
from .synthgen import SynthConfig, config_summary, default_config, generate
from .tlu import TrainConfig

EXIT_BAD_FLAGS = 2
EXIT_DATA_ERROR = 3
EXIT_TRAIN_ERROR = 4

PAIR_MAX_ITERS = 20_000
LM_MAX_ITERS = 150_000

# What a command returns to main: the paths it read and the paths it wrote.
_Paths = tuple[list[str], list[str]]


def _default_seed() -> int:
    raw = os.environ.get("PAIRNET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"PAIRNET_SEED must be an integer, got '{raw}'") from None


def _write_manifest(args: argparse.Namespace, inputs: list[str],
                    outputs: list[str], duration: float) -> None:
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": getattr(args, "seed", None),
        "inputs": inputs,
        "outputs": outputs,
        "duration_seconds": round(duration, 3),
        "version": __version__,
    }
    with open(outputs[0] + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def _emit(text: str, out: str | None) -> list[str]:
    """Write a report to --out when given, else to stdout; returns the files
    written."""
    if out is None:
        sys.stdout.write(text)
        return []
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return [out]


def _split(ds, test_fraction: float, seed: int):
    """Record split, with the single-record classes in one stderr note."""
    train, test, singles = _split_by_record(ds, test_fraction, seed)
    if singles:
        print(f"note: class(es) {', '.join(map(str, singles))} have a single "
              "record each; assigned to training", file=sys.stderr)
    return train, test


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, default=1.0, help="correction amount per error")
    p.add_argument("--max-iters", type=int, default=None,
                   help="example visits per trained unit (default: 20000 per pairwise "
                        "test, 150000 for the linear machine)")
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="random seed (default: $PAIRNET_SEED or 0)")
    p.add_argument("--no-standardize", action="store_true",
                   help="train on raw features instead of standardized ones")
    p.add_argument("--test-fraction", type=float, default=0.33,
                   help="fraction of records per class held out for testing")
    p.add_argument("--jobs", type=int, default=default_jobs(),
                   help="worker processes that train the pairwise tests "
                        f"(default: the usable CPUs, at most {MAX_DEFAULT_JOBS}; "
                        "here %(default)s); the result does not depend on it")


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=1.0,
                   help="scales per-record segment counts of the default shape")
    p.add_argument("--separation", type=float, default=None)
    p.add_argument("--record-effect", type=float, default=None)
    p.add_argument("--informative", type=int, default=None)
    p.add_argument("--artifact-rate", type=float, default=None)


def _synthesize(args: argparse.Namespace, seed: int) -> tuple[SynthConfig, Dataset]:
    """The generator's configuration from the flags, and its dataset."""
    overrides = {}
    if args.separation is not None:
        overrides["separation"] = args.separation
    if args.record_effect is not None:
        overrides["record_effect"] = args.record_effect
    if args.informative is not None:
        overrides["informative_count"] = args.informative
    if args.artifact_rate is not None:
        overrides["artifact_rate"] = args.artifact_rate
    cfg = default_config(seed=seed, scale=args.scale, **overrides)
    try:
        return cfg, generate(cfg)
    except MemoryError:
        raise ParameterError(
            f"scale {args.scale}: the dataset does not fit in memory"
        ) from None


def _train_model(ds_train, args, model_kind: str, seed: int, max_iters: int | None):
    """Shared train-split fitting used by cmd_train and cmd_bench."""
    check_jobs(args.jobs)
    st = None
    if not args.no_standardize:
        ds_train, st = standardize(ds_train)
    if max_iters is None:
        max_iters = PAIR_MAX_ITERS if model_kind == "pairnet" else LM_MAX_ITERS
    cfg = TrainConfig(c=args.c, max_iterations=max_iters, seed=seed)
    if model_kind == "pairnet":
        return train_pairwise(ds_train, cfg, jobs=args.jobs, standardization=st)
    model, _ = lm_train_pocket(ds_train, cfg, standardization=st)
    return model


def cmd_train(args: argparse.Namespace) -> _Paths:
    ds = load_csv(args.data)
    train, test = _split(ds, args.test_fraction, args.seed)
    model = _train_model(train, args, args.model, args.seed, args.max_iters)
    if args.model == "pairnet":
        print(f"trained {len(model.tests)} pairwise tests")
    else:
        print(f"trained linear machine with {model.r} discriminants")
    for name, split in (("train", train), ("test", test)):
        if len(split) == 0:
            print(f"{name}: empty split")
            continue
        metrics = evaluate(model, split)
        print(f"{name}: segment_accuracy={metrics.segment_accuracy:.4f} "
              f"record_accuracy={metrics.record_accuracy:.4f}")
    save_model(model, args.out)
    print(f"model written to {args.out}")
    return [args.data], [args.out]


def _format_evaluation(metrics, r: int) -> str:
    lines = [
        f"# segment_accuracy\t{metrics.segment_accuracy:.6f}",
        f"# record_accuracy\t{metrics.record_accuracy:.6f}",
        f"# misclassified_records\t{sum(1 for row in metrics.per_record if row[3] != row[4])}",
        "record\tn_segments\tn_correct\tmodal_class\ttrue_class\tconfidence",
    ]
    for rec, n_seg, n_corr, modal, true, conf in metrics.per_record:
        lines.append(f"{rec}\t{n_seg}\t{n_corr}\t{modal}\t{true}\t{conf:.6f}")
    lines.append("# confusion matrix: rows=true class, cols=predicted class")
    for row in metrics.confusion:
        lines.append("\t".join(str(int(v)) for v in row))
    lines.append("# distributions: record, true_class, then class shares 1.." + str(r))
    for rec, _, _, _, true, _ in metrics.per_record:
        dist = metrics.per_record_distributions[rec]
        lines.append(f"{rec}\t{true}\t" + "\t".join(f"{p:.6f}" for p in dist))
    return "\n".join(lines) + "\n"


def cmd_evaluate(args: argparse.Namespace) -> _Paths:
    model = load_model(args.model)
    ds = load_csv(args.data)
    metrics = evaluate(model, ds)
    return [args.model, args.data], _emit(_format_evaluation(metrics, model.r), args.out)


def cmd_significance(args: argparse.Namespace) -> _Paths:
    ds = load_csv(args.data)
    report = significance(ds)
    lines = ["feature\tv\ts_sum\td\trank"]
    for j, name in enumerate(ds.feature_names):
        lines.append(
            f"{name}\t{report.v[j]:.12g}\t{report.s_sum[j]:.12g}\t"
            f"{report.d[j]:.12g}\t{report.rank_of(j)}"
        )
    return [args.data], _emit("\n".join(lines) + "\n", args.out)


def cmd_intervals(args: argparse.Namespace) -> _Paths:
    ds = load_csv(args.data)
    if args.feature in ds.feature_names:
        j = ds.feature_names.index(args.feature)
    else:
        try:
            j = int(args.feature) - 1
        except ValueError:
            raise ParameterError(
                f"unknown feature '{args.feature}' (give a name or 1-based index)"
            ) from None
        if not (0 <= j < ds.m):
            raise ParameterError(f"feature index {args.feature} out of range 1..{ds.m}")
    bands = sigma_intervals(ds, j, args.k)
    lines = ["class\tlabel\tmean\tlo\thi"]
    for class_id, (mu, lo, hi) in enumerate(bands, start=1):
        lines.append(
            f"{class_id}\t{ds.class_labels[class_id - 1]}\t{mu:.12g}\t{lo:.12g}\t{hi:.12g}"
        )
    return [args.data], _emit("\n".join(lines) + "\n", args.out)


def cmd_extract(args: argparse.Namespace) -> _Paths:
    labels = [s.strip() for s in args.classes.split(",")]
    ds = signal_files_to_dataset(args.signals, labels, default_jobs())
    save_csv(ds, args.out)
    print(f"extracted {len(ds)} segments x {ds.m} features from "
          f"{len(args.signals)} recording(s) -> {args.out}")
    return list(args.signals), [args.out]


def cmd_gen(args: argparse.Namespace) -> _Paths:
    cfg, ds = _synthesize(args, args.seed)
    save_csv(ds, args.out)
    config_path = args.out + ".config.txt"
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config_summary(cfg))
    print(f"generated {len(ds)} segments, {ds.r} classes, "
          f"{len(ds.record_ids())} records -> {args.out}")
    return [], [args.out, config_path]


def cmd_bench(args: argparse.Namespace) -> _Paths:
    if args.seeds < 1:
        raise ParameterError(f"--seeds must be >= 1, got {args.seeds}")
    rows = []
    test_accs: dict[str, list[tuple[float, float]]] = {"pairnet": [], "lm": []}
    for k in range(args.seeds):
        seed = args.seed + k
        _, ds = _synthesize(args, seed)
        train, test = _split(ds, args.test_fraction, seed)
        for kind in ("pairnet", "lm"):
            max_iters = args.max_iters
            if kind == "lm" and args.lm_max_iters is not None:
                max_iters = args.lm_max_iters
            t_fit = time.perf_counter()
            model = _train_model(train, args, kind, seed, max_iters)
            fit_seconds = time.perf_counter() - t_fit
            m_train = evaluate(model, train)
            m_test = evaluate(model, test)
            test_accs[kind].append((m_test.segment_accuracy, m_test.record_accuracy))
            rows.append(
                f"{seed}\t{kind}\t{m_train.segment_accuracy:.4f}\t"
                f"{m_test.segment_accuracy:.4f}\t{m_train.record_accuracy:.4f}\t"
                f"{m_test.record_accuracy:.4f}\t{fit_seconds:.2f}"
            )
    # median test (segment, record) accuracy of each model over the seeds
    medians = {kind: np.median(accs, axis=0).tolist() for kind, accs in test_accs.items()}
    gap = 100.0 * (medians["pairnet"][0] - medians["lm"][0])
    lines = ["seed\tmodel\ttrain_seg\ttest_seg\ttrain_rec\ttest_rec\tfit_seconds"]
    lines.extend(rows)
    for kind in ("pairnet", "lm"):
        lines.append(
            f"median\t{kind}\t-\t{medians[kind][0]:.4f}\t-\t{medians[kind][1]:.4f}\t-"
        )
    lines.append(f"# test_segment_gap_points\t{gap:.2f}")
    outputs = _emit("\n".join(lines) + "\n", args.out)
    print(
        f"median test segment accuracy: pairnet {medians['pairnet'][0]:.4f}, "
        f"lm {medians['lm'][0]:.4f}, gap {gap:.2f} points"
    )
    return [], outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairnet",
        description="Pairwise TLU networks and the winner-take-all linear machine baseline.",
    )
    parser.add_argument("--version", action="version", version=f"pairnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a dataset CSV")
    p.add_argument("data", help="dataset CSV path")
    p.add_argument("--model", choices=("pairnet", "lm"), default="pairnet")
    p.add_argument("--out", default="model.txt", help="model file to write")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a dataset CSV")
    p.add_argument("model", help="model file path")
    p.add_argument("data", help="dataset CSV path")
    p.add_argument("--out", default=None, help="TSV report path (default: stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("significance", help="rank features by class-separation score")
    p.add_argument("data", help="dataset CSV path")
    p.add_argument("--out", default=None, help="TSV report path (default: stdout)")
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("intervals", help="per-class k-sigma bands of one feature")
    p.add_argument("data", help="dataset CSV path")
    p.add_argument("--feature", required=True, help="feature name or 1-based index")
    p.add_argument("--k", type=float, default=3.0)
    p.add_argument("--out", default=None, help="TSV report path (default: stdout)")
    p.set_defaults(func=cmd_intervals)

    p = sub.add_parser("extract", help="featurize two-channel signal recordings")
    p.add_argument("signals", nargs="+", help="signal file(s), one record each")
    p.add_argument("--classes", required=True,
                   help="comma-separated class label per signal file")
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("gen", help="generate a synthetic benchmark dataset CSV")
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.add_argument("--seed", type=int, default=_default_seed())
    _add_synth_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="compare pairnet and lm over seeded datasets")
    p.add_argument("--seeds", type=int, default=5, help="number of seeded repetitions")
    p.add_argument("--out", default=None, help="TSV report path (default: stdout)")
    p.add_argument("--lm-max-iters", type=int, default=None,
                   help="override the linear machine's visit budget")
    _add_synth_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_bench, scale=0.1)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        inputs, outputs = args.func(args)
        if outputs:
            _write_manifest(args, inputs, outputs, time.perf_counter() - t0)
        return 0
    except ParameterError as exc:
        print(f"pairnet: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    except (SchemaError, ParseError, EmptyInputError, OSError) as exc:
        print(f"pairnet: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (TrainingError, DimensionError) as exc:
        print(f"pairnet: {exc}", file=sys.stderr)
        return EXIT_TRAIN_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
