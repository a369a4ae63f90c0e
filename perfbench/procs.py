"""Run the pairnet CLI in child processes, one at a time, and time them.

The package is not installed, so each child starts the CLI from source:
``python -c "from pairnet.cli import entry; entry()" <args>`` with the
checkout's ``src`` on PYTHONPATH.
"""

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CLI_BOOT = "from pairnet.cli import entry; entry()"
IMPORT_ONLY = "import pairnet.cli"


@dataclass
class Child:
    label: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str

    @property
    def ok(self):
        return self.exit_code == 0 and "Traceback" not in self.stderr


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_python(label, code, args, cwd: Path, env) -> Child:
    """Start ``python -c code args`` in cwd, wait for it, return its wall
    time and peak RSS. Output goes to files, so a full pipe cannot stall it."""
    argv = [sys.executable, "-c", code, *map(str, args)]
    out_path, err_path = cwd / f".{label}.out", cwd / f".{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        label=label,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_cli(label, args, cwd: Path, env) -> Child:
    return run_python(label, CLI_BOOT, args, cwd, env)
