"""Shared unit-test fixtures: a test-local ``turbo`` backend tier.

The shipped ladder is python → vectorized.  ``turbo`` joins it above the
vectorized tier the way a new tier would: one :data:`BACKENDS` entry plus
the climb order and token list derived from the registry.  It stands in
for a higher tier that is unavailable or cannot take a workload (it runs
the eager closure only), which also checks that a tier returns as one
registration.
"""

import dataclasses

import pytest

from repro.api import backends
from repro.api.backends import BackendSpec


@dataclasses.dataclass(frozen=True)
class _TestTier(BackendSpec):
    """A registrable tier whose availability the test decides."""

    missing: str | None = None

    def availability(self) -> tuple[bool, str]:
        if self.missing is not None:
            return False, self.missing
        return True, "test tier"


def _register_turbo(monkeypatch, missing=None):
    monkeypatch.setitem(
        backends.BACKENDS,
        "turbo",
        _TestTier(
            name="turbo",
            rank=2,
            description="test-local eager-only tier",
            environments=("sync", "async", "dynamic"),
            tabulation_modes=("eager",),
            observer_environments=("sync", "dynamic"),
            supports_sharding=True,
            missing=missing,
        ),
    )
    climb = ("turbo", *backends.AUTO_CLIMB_ORDER)
    monkeypatch.setattr(backends, "AUTO_CLIMB_ORDER", climb)
    monkeypatch.setattr(backends, "BACKEND_TOKENS", (*climb[::-1], "auto"))


@pytest.fixture
def turbo_available(monkeypatch):
    """Register an available eager-only tier above the vectorized one."""
    _register_turbo(monkeypatch)


@pytest.fixture
def turbo_missing(monkeypatch):
    """Register a higher tier that reports itself unavailable; returns the
    detail string its availability probe gives."""
    detail = "the turbo accelerator is not installed"
    _register_turbo(monkeypatch, missing=detail)
    return detail
