"""Machine fingerprint: what hardware/software produced a bench record.

Every NDJSON record, summary, and committed baseline carries this
fingerprint so a number is never read without knowing where it came from —
comparing absolute wall clock across different CPUs is meaningless, and
the regression gate widens its tolerance when the fingerprints disagree
(see :mod:`runner.compare`).

The fingerprint is computed once per process and cached: records written
at the start and end of a long matrix run must agree bitwise (asserted in
``tests/test_bench_runner.py``), and the git SHA must not drift mid-run.
"""

from __future__ import annotations

import functools
import os
import platform
import subprocess
import sys
from pathlib import Path

#: Fields every fingerprint carries (schema contract, used by tests).
FINGERPRINT_FIELDS = (
    "cpu_model",
    "cpu_count",
    "platform",
    "python",
    "numpy",
    "kernel",
    "git_sha",
)


def _cpu_model() -> str:
    """The CPU model string (``/proc/cpuinfo`` on Linux, else the arch)."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _repo_root() -> Path:
    # runner/machine.py -> runner -> benchmarks -> repo root.
    return Path(__file__).resolve().parents[2]


def _git(repo: Path, *args: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(
            ["git", "-C", str(repo), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None


def git_sha(repo: Path | None = None) -> str:
    """The commit the numbers were measured at (``GITHUB_SHA`` in CI).

    Falls back to ``git rev-parse HEAD`` of ``repo`` (default: the repo
    this file lives in), with ``+dirty`` appended when a tracked file
    differs from that commit — numbers measured on uncommitted changes
    (a baseline refreshed before the commit that moves it) must not name
    the parent as if they measured it. Then ``"unknown"``: a record is
    still valid outside a checkout.
    """
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    repo = _repo_root() if repo is None else Path(repo)
    head = _git(repo, "rev-parse", "HEAD")
    if head is None or head.returncode:
        return "unknown"
    status = _git(repo, "status", "--porcelain", "--untracked-files=no")
    dirty = status is None or status.returncode or status.stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


@functools.lru_cache(maxsize=1)
def machine_fingerprint() -> dict:
    """The cached per-process fingerprint dict (keys: FINGERPRINT_FIELDS).

    ``kernel`` is the *resolved* grammar kernel (``REPRO_KERNEL`` or the
    default), not the raw environment variable, so records distinguish an
    explicit ``fast`` from an implicit one only by this one field's value.
    """
    import numpy

    from repro.grammar import _kernel

    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel": _kernel.current_kernel(),
        "git_sha": git_sha(),
    }
