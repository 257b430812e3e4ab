"""Shared pytest plumbing for the suite.

The acceptance tests each record one human-readable verdict line.  The
terminal-summary hook reprints the collected lines together at the end of
the run, so the criterion-level results stay visible even though pytest
captures per-test stdout.  Tests that compare two code paths bit for bit
can rerun in a fresh interpreter with numpy's AVX-512 loops switched off.
"""

import os
import subprocess
import sys
from pathlib import Path

_ACCEPTANCE_LINES = []
# numpy without its AVX-512 loops, where exp, log and sort take other code paths.
_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def record_acceptance(line: str) -> None:
    """Store a verdict line and echo it immediately (visible under -s)."""
    _ACCEPTANCE_LINES.append(line)
    print(line)


def check_criterion(label: str, ok: bool, detail: str) -> None:
    """Record a PASS/FAIL line for an acceptance criterion, then assert it."""
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"ACCEPTANCE {label}: {status} - {detail}")
    assert ok, f"criterion {label}: {detail}"


def assert_passes_without_avx512(code: str) -> None:
    """Run ``code``, which calls a test, in a subprocess whose numpy has its
    AVX-512 loops switched off; the package and the test modules import.

    The test is called directly rather than through pytest, which would
    double the subprocess's start-up time.
    """
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": _NO_AVX512}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
