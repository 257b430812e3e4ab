"""Timing, set-up, memory and machine measurements shared by the workloads."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# BLAS / OpenMP pools pinned to one thread, so no run uses more threads than
# cores.  run.py sets these before numpy is imported; children inherit them.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it
# setup_s is the median of this many fresh interpreters, about half taken
# before the ops and half after, so the median spans the whole run.
SETUP_REPEATS = 21

# Child for setup_s: a fresh interpreter imports replicalc, builds the
# workload's grids, then reports ready on stdout.
SETUP_CODE = (
    "import sys\n"
    "import replicalc\n"
    "grids = [replicalc.make_grid(int(m)) for m in sys.argv[1:]]\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ``beyond`` samples above it.

    With n sorted samples that is the (n - beyond)-th smallest, at
    percentile 100 * (n - beyond) / n.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    rank = n - beyond
    return 100.0 * rank / n, ordered[rank - 1]


@dataclass
class OpRecord:
    index: int
    description: str
    seconds: float
    digest: str | None
    error: str | None  # why the op failed: it raised, or its output is wrong
    wrong: bool  # the op returned an output that failed its check
    facts: dict = field(default_factory=dict)


def run_ops(workload, ops, tracer=None, start: int = 0) -> list[OpRecord]:
    """Run ops one after another, numbered from ``start``; only ``execute``
    is inside the timer."""
    records = []
    for index, op in enumerate(ops, start):
        scope = tracer.op(index) if tracer is not None else contextlib.nullcontext()
        error = None
        start = time.perf_counter()
        try:
            with scope:
                result = workload.execute(op)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            error = _describe(exc)
        seconds = time.perf_counter() - start
        checked = None
        if error is None:
            try:
                checked = workload.check(op, result)
                error = checked.error
            except Exception as exc:
                error = "check raised " + _describe(exc)
            del result  # free the op's arrays before the next op, for peak RSS
        records.append(OpRecord(
            index, op.describe(), seconds,
            checked.digest if checked else None, error,
            bool(checked and checked.error),
            checked.facts if checked else {},
        ))
    return records


def _describe(exc: BaseException) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def setup_seconds(src: Path, grid_sizes, repeats: int) -> list[float]:
    """Fresh-interpreter set-up times: process start until the child is ready."""
    times = []
    argv = [sys.executable, "-c", SETUP_CODE, *(str(m) for m in grid_sizes)]
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(src))
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return times


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory in MB (10^6 bytes) of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_info(root: Path) -> dict:
    import numpy as np

    l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE") if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names else 0
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "l3_bytes": l3 or None,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_VARS},
    }
