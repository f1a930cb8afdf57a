"""Test-suite configuration: deterministic hypothesis runs, and the
regression corpus's deadlock prediction computed once per session."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from repro.staticcheck import predict_corpus

settings.register_profile(
    "repro",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def predicted_corpus():
    """``predict_corpus`` over ``tests/regressions`` at the default
    depth 4.  Harvesting the liveness cases replays whole runs, so the
    prediction tests share one pass."""
    return predict_corpus(Path(__file__).parent / "regressions")
