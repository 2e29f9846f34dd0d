"""Smoke tests: the fast example scripts run end to end.

Each example is executed in a subprocess (as a user would run it) with a
generous timeout; the slow, long-series demos (power case study, multiple
anomalies) are exercised at reduced scale by the integration tests and the
benches instead.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "parameter_sensitivity.py",
    "ecg_density_curves.py",
    "motif_discovery.py",
    "streaming_detection.py",
    "real_ucr_data.py",
    "serve_client.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{script} produced no output"


def test_quickstart_finds_planted_anomaly():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "<-- planted" in result.stdout


def test_streaming_example_localizes():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "streaming_detection.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "anomaly localized" in result.stdout

