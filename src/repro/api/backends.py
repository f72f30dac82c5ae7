"""The two execution tiers and the ``backend=`` tokens that name them.

Every engine runs on one of two interchangeable tiers: ``"python"``, the
object-level interpreter and bitwise reference, and ``"vectorized"``, the
NumPy table engine.  ``"auto"`` picks per run.  The engines check a request
where they are built (:func:`repro.scheduling.sync_engine._make_engine`
and :func:`repro.scheduling.async_engine._run_asynchronous`) and record
which tier ran and why in ``result.metadata``.
"""

from __future__ import annotations

#: Every value the ``backend=`` execution parameter accepts.
BACKEND_TOKENS = ("python", "vectorized", "auto")


def backend_census() -> list[dict]:
    """The two tiers and what they take (``repro run --list-backends``)."""
    return [
        {
            "name": "python",
            "description": "object-level interpreter; the bitwise reference engine",
            "environments": ["sync", "async", "dynamic"],
            "tabulation_modes": ["interpreted"],
            "supports_sharding": False,
        },
        {
            "name": "vectorized",
            "description": "NumPy dense-table array rounds / time-bucketed events",
            "environments": ["sync", "async", "dynamic"],
            "tabulation_modes": ["eager", "lazy"],
            "supports_sharding": True,
        },
    ]
