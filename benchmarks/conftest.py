"""Fixtures shared by every bench: the cached suite and report printing.

The reference implementations of ``tests/oracles/`` (pure-Python Sequitur,
numpy SAX) are importable as ``oracles`` from every bench.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from benchlib import RESULTS_DIR, run_main_suite  # noqa: E402


@pytest.fixture(scope="session")
def suite_results():
    """The five-method suite results (computed once, cached on disk)."""
    return run_main_suite()


@pytest.fixture
def report(capsys):
    """Print a reproduced table to the terminal and persist it to results/.

    ``capsys.disabled()`` bypasses pytest's capture so the tables appear in
    the benchmark run's output (and in ``bench_output.txt``) without -s.
    """

    def _report(text: str, filename: str | None = None) -> None:
        if filename:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / filename).write_text(text + "\n")
        with capsys.disabled():
            print("\n" + text + "\n")

    return _report
