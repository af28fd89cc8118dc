"""Shared parameter sets and the acceptance-criteria summary hook."""

from contextlib import contextmanager

import pytest

from relot import ModelParams

# Single supply depot serving two demand streams, five repair-rate settings.
UNCON_BASE = dict(
    Dp=100.0, Dr=43.0, p=0.6, r=0.7, Ap=10.0, Ar=30.0, h1=1.6, h2=1.2,
)

# Same economics with floor-space limits at both depots.
FLOOR_EXTRA = dict(p1=0.5, p2=0.5, k1=20.0, k2=10.0)

# Three-objective instance: holding cost, GHG emissions and energy use.
SUSTAIN = dict(
    Dp=1000.0, Dr=422.0, p=0.6, r=0.7, lam=450.0, Ap=50.0, Ar=100.0,
    h1=20.0, h2=10.0, p1=1.0, p2=1.0, k1=2000.0, k2=2000.0,
    ap=3e-8, bp=1.4e-3, cp=1.4, Wp=120.0, Wr=80.0, Kp=5.5, Kr=2.5,
)

# SUSTAIN with a binding repair floor: the f1-best repair batch is capped at
# about 150 (204.6 unconstrained) across the front's Qp interval.
SUSTAIN_BINDING = dict(SUSTAIN, k2=40.0)

LAMBDAS = (45.0, 60.0, 75.0, 90.0, 105.0)


def unconstrained_params(lam: float) -> ModelParams:
    return ModelParams(lam=lam, **UNCON_BASE)


def floor_params(lam: float) -> ModelParams:
    return ModelParams(lam=lam, **UNCON_BASE, **FLOOR_EXTRA)


@pytest.fixture
def sustainability_params() -> ModelParams:
    return ModelParams(**SUSTAIN)


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run

_ACCEPTANCE: dict[int, tuple[bool, str]] = {}


@contextmanager
def criterion(num: int, title: str):
    """Record a pass/fail verdict for the terminal summary, re-raising failures."""
    try:
        yield
    except BaseException:
        _ACCEPTANCE[num] = (False, title)
        raise
    _ACCEPTANCE[num] = (True, title)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        passed, title = _ACCEPTANCE[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict}  {title}")
