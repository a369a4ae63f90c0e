"""pairnet benchmark: time the CLI end to end, or trace it layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 15 --trace 0

The run makes the workload's inputs from --seed (set-up, repeated and
timed), makes one untimed warm-up pass, then runs passes of CLI commands
in child processes, one at a time, until --seconds have gone by. It checks
the outputs and prints the end-to-end metrics (--trace 0), or also replays
one pass in-process under spans and prints the per-layer metrics
(--trace 1). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Other lines and the files
under .perfbench/<workload>/ hold the environment stamp, every sample, the
checks and the spans.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# Results measured on another kernel path are not comparable with the
# baseline, which runs the numpy fallback.
BASELINE_KERNEL_PATH = "numpy"
COMMAND_METRICS = ("train_pairnet", "train_lm", "evaluate", "extract")
# The CLI is single-threaded. On two shared cores, threaded BLAS calls made
# command times several times noisier, so every run pins BLAS to one thread,
# whatever the caller's environment says. Set before numpy is first imported,
# so the traced in-process run and the CLI children run alike.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def environment_stamp():
    import numpy
    from pairnet import _kernels

    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "kernel_path": _kernels.ACTIVE_PATH,
        "comparable": _kernels.ACTIVE_PATH == BASELINE_KERNEL_PATH,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_pass(wl, env):
    from procs import run_cli

    return {label: run_cli(label, args, wl.work, env) for label, args in wl.commands()}


def guarded(what, fn, *args):
    """Run a list-of-checks producer; an exception becomes one failed check
    instead of ending the run without a result."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        return [(what, False, traceback.format_exc(limit=3))]


def traced_into(wl, tracer, tdir, info):
    found, checks = wl.traced_pass(tracer, tdir)
    info.update(found)
    return checks


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "full", "extract"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload's inputs (smoke run)")
    args = parser.parse_args(argv)

    if not (SRC / "pairnet" / "cli.py").is_file():
        print(f"perfbench: no pairnet sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from procs import IMPORT_ONLY, child_env, run_python
    from tracing import Tracer

    e2e_units, layer_units = metric_units()
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stamp = environment_stamp()
    env = child_env(SRC)
    wl = workloads.make(args.workload, args.seed, work, args.tiny)

    children, checks = [], []
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = wl.setup(env)
        setup_s.append(time.perf_counter() - t0)
        if child is not None:
            children.append(child)
    wl.prepare()

    passes = [run_pass(wl, env)]  # warm-up, untimed
    hashes = [{p.name: workloads.sha256(p) for p in wl.outputs()}]
    timed = []
    t_start = time.perf_counter()
    while not timed or time.perf_counter() - t_start < args.seconds:
        timed.append(run_pass(wl, env))
        hashes.append({p.name: workloads.sha256(p) for p in wl.outputs()})
    passes += timed
    for p in passes:
        children.extend(p.values())
    for k, h in enumerate(hashes[1:], start=1):
        for name, digest in h.items():
            checks.append((f"{name} unchanged in pass {k}", digest == hashes[0][name], ""))
    checks += guarded("output checks", wl.verify, timed[-1])

    n = wl.n_segments
    pass_walls = [sum(c.wall_s for c in p.values()) for p in timed]
    cmd_walls = {label: [p[label].wall_s for p in timed] for label in timed[0]}
    cmd_median = {label: median(w) for label, w in cmd_walls.items()}
    acc = wl.test_seg_acc(timed[-1])

    e2e = {
        "setup_s": median(setup_s),
        "seg_per_s": median([n / w for w in pass_walls]),
        "peak_rss_mb": median([max(c.peak_rss_mb for c in p.values()) for p in timed]),
    }
    layer = {}
    tracer = None
    if args.trace:
        import_s = [run_python("import", IMPORT_ONLY, [], work, env) for _ in range(IMPORT_REPEATS)]
        children += import_s
        tdir = work / "traced"
        tdir.mkdir()
        tracer = Tracer()
        tracer.pass_id = len(passes)
        info = {}
        checks += guarded("traced pass", traced_into, wl, tracer, tdir, info)
        layer, attribution = layer_metrics(
            tracer, info, cmd_median, median(setup_s), n,
            median([c.wall_s for c in import_s]))

    failed_children = [c for c in children if not c.ok]
    failed_checks = [c for c in checks if not c[1]]
    attempted = len(children) + len(checks)
    failed = len(failed_children) + len(failed_checks)
    for label in COMMAND_METRICS:
        layer[f"{label}_s"] = cmd_median.get(label, 0.0)
    layer["test_seg_acc"] = float(acc) if acc is not None else 0.0
    layer["fail_frac"] = failed / attempted
    layer["passes"] = len(timed)

    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    print("perfbench env " + json.dumps(stamp, sort_keys=True))
    for label, walls in cmd_walls.items():
        print(f"perfbench {label}: median {cmd_median[label]:.4f} s over n={len(walls)} passes")
    print(f"perfbench setup: median {e2e['setup_s']:.4f} s over n={len(setup_s)}")
    for c in failed_children:
        print(f"perfbench FAILED {c.label} exit={c.exit_code}: {c.stderr.strip()[-400:]}")
    for name, _, detail in failed_checks:
        print(f"perfbench FAILED check {name}: {detail}")
    if tracer is not None:
        for name, wall, inner, other, traced in attribution:
            print(f"perfbench attribution {name}: cli {wall:.4f} s = layers {inner:.4f} s "
                  f"+ other {other:.4f} s; traced in-process {traced:.4f} s")
        tracer.write(work / "spans.json")

    wanted = layer_units if args.trace else e2e_units
    values = layer if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"env": stamp, "args": vars(args), "segments": n, "setup_s": setup_s,
         "command_walls_s": cmd_walls, "checks": checks, "end_to_end": e2e,
         "per_layer": layer, "result": result}, indent=1, default=str) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


# Span name -> per-layer metric name.
LAYER_SPANS = {
    "pairwise_net.train": "pairwise_net.train_s",
    "pairwise_net.evaluate": "pairwise_net.evaluate_s",
    "linear_machine.train": "linear_machine.train_s",
    "dataset.load_csv": "dataset.load_csv_s",
    "dataset.save_csv": "dataset.save_csv_s",
    "dataset.split": "dataset.split_s",
    "dataset.standardize": "dataset.standardize_s",
    "model_io.save": "model_io.save_s",
    "model_io.load": "model_io.load_s",
    "eeg_features.read_signal": "eeg_features.read_signal_s",
    "eeg_features.featurize": "eeg_features.featurize_s",
    "synthgen.generate": "synthgen.generate_s",
}


def layer_metrics(tracer, info, cmd_median, setup_median, n, import_s):
    """Per-layer metrics of the traced pass. Layer times are summed self
    times; cli.other_s is what the untraced CLI medians leave over.
    trace.overhead_frac compares the traced commands with the untraced
    medians less one child start-up (cli.import_s) each, since the traced
    pass runs in this process. It is signed: host noise larger than the
    span cost makes it negative."""
    own = tracer.layer_seconds()
    m = {metric: own.get(span, 0.0) for span, metric in LAYER_SPANS.items()}
    m["tlu.visits"] = info.get("tlu.visits", 0)
    m["tlu.pairs_converged"] = info.get("tlu.pairs_converged", 0)
    m["tlu.pocket_swaps"] = info.get("tlu.pocket_swaps", 0)
    m["tlu.us_per_visit"] = per(m["pairwise_net.train_s"] * 1e6, m["tlu.visits"])
    m["linear_machine.visits"] = info.get("linear_machine.visits", 0)
    m["linear_machine.us_per_visit"] = per(m["linear_machine.train_s"] * 1e6,
                                           m["linear_machine.visits"])
    m["dataset.csv_bytes"] = info.get("dataset.csv_bytes", 0)
    m["dataset.load_csv_mb_per_s"] = per(
        m["dataset.csv_bytes"] * info.get("dataset.load_csv_calls", 0) / 1e6,
        m["dataset.load_csv_s"])
    m["eeg_features.signal_lines"] = info.get("eeg_features.signal_lines", 0)
    m["eeg_features.ms_per_segment"] = per(m["eeg_features.featurize_s"] * 1e3, n)
    m["cli.import_s"] = import_s

    attribution = []
    traced_s = untraced_s = 0.0
    for name, traced, inner in tracer.commands():
        label = name.removeprefix("cli.")
        wall = setup_median if label == "gen" else cmd_median[label]
        attribution.append((name, wall, inner, wall - inner, traced))
        traced_s += traced
        untraced_s += wall - import_s
    m["cli.other_s"] = sum(a[3] for a in attribution)
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m, attribution


def per(numerator, denominator):
    return numerator / denominator if denominator else 0.0


if __name__ == "__main__":
    sys.exit(main())
