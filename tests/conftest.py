from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


@pytest.fixture
def q():
    """Shorthand Fraction constructor for test bodies."""
    return Fraction


@pytest.fixture
def forbid_lp(monkeypatch):
    """A function that, once called, fails the test on any ``lp_solve`` call
    from phk, direct or through ``lp``'s own helpers."""

    def refuse(p):
        raise AssertionError("lp_solve was called")

    def arm():
        for name, mod in list(sys.modules.items()):
            if (name == "phk" or name.startswith("phk.")) and hasattr(mod, "lp_solve"):
                monkeypatch.setattr(mod, "lp_solve", refuse)

    return arm
