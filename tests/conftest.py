from __future__ import annotations

from importlib import resources

import pytest
from hypothesis import HealthCheck, settings

from ltwist.forms import parse_fixture
from ltwist.precision import PrecisionContext

FIXTURE_DIR = resources.files("ltwist") / "fixtures"

# Deterministic property tests: no flaky CI, reproducible counterexamples.
settings.register_profile(
    "ltwist",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ltwist")


@pytest.fixture(scope="session")
def ctx() -> PrecisionContext:
    return PrecisionContext(work_bits=128, tol=1e-10)


@pytest.fixture(scope="session")
def ctx_loose() -> PrecisionContext:
    """Faster context for expensive end-to-end checks."""
    return PrecisionContext(work_bits=96, tol=1e-8)


@pytest.fixture(scope="session")
def form_even(ctx):
    """Bundled level-1 weight-0 even (eps=+1) fixture, R ~ 13.7798."""
    return parse_fixture((FIXTURE_DIR / "level1_even.form").read_text(), ctx).form


@pytest.fixture(scope="session")
def form_odd(ctx):
    """Bundled level-1 weight-0 odd (eps=-1) fixture, R ~ 9.5337."""
    return parse_fixture((FIXTURE_DIR / "level1_odd.form").read_text(), ctx).form


@pytest.fixture(scope="session")
def scan_even_14(form_even, ctx):
    """Shared zero scan of the even form over t in [0, 14] (expensive)."""
    from ltwist.zeros import scan_zeros

    return scan_zeros(form_even, 0, 14, 0.25, ctx)


@pytest.fixture(scope="session")
def scan_odd_14(form_odd, ctx):
    """Shared zero scan of the odd form over t in [0, 14] (expensive)."""
    from ltwist.zeros import scan_zeros

    return scan_zeros(form_odd, 0, 14, 0.25, ctx)
