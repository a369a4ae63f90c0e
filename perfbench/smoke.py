"""Seconds-long smoke run of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json on tiny inputs, untraced and
traced, and asserts that each run is correct and emits exactly the metrics
BENCHMARK.json names. Then checks that the harness, copied without the
package sources, exits nonzero without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]


def run(cwd, *args):
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_result(spec, workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{workload} trace={trace}: {proc.stdout}"
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], \
        f"{workload} trace={trace}: metrics {sorted(result['metrics'])}"
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)
    print(f"ok {workload} trace={trace}: {len(wanted)} metrics")


def check_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "desk", "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok without sources: exit", proc.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # full (scale 1.0) is too slow for the timed runs but stays runnable by hand.
    for name in [w["name"] for w in spec["workloads"]] + ["full"]:
        for trace in (0, 1):
            check_result(spec, name, trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
