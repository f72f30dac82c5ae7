"""Process-global execution counters.

The content-addressable result store's headline guarantee — a warm store
serves a repeated seeded workload with *zero* engine executions — is only
testable if engine executions are counted somewhere the harness can read.
Every synchronous and asynchronous execution funnels through exactly one
primitive (``_run_synchronous`` / ``_run_asynchronous`` / ``_run_dynamic``),
and each primitive records itself here once it has built an engine — a
request refused by the backend checks counts nothing — so
``engine_runs()`` deltas measure real engine work regardless of backend,
session, or entry point.

The counters are per-process: pooled workers count their own executions and
those counts die with the pool.  That is the right scope for the store's
determinism harness — a fully warm workload dispatches *no* tasks at all, so
the dispatching process's delta is zero exactly when no engine ran anywhere.
"""

from __future__ import annotations

from collections import Counter

_ENGINE_RUNS: Counter[str] = Counter()


def record_engine_run(environment: str) -> None:
    """Count one engine execution in *environment* (``"sync"``/``"async"``/``"dynamic"``)."""
    _ENGINE_RUNS[environment] += 1


def engine_runs(environment: str | None = None) -> int:
    """Engine executions so far in this process (optionally per environment)."""
    if environment is None:
        return sum(_ENGINE_RUNS.values())
    return _ENGINE_RUNS[environment]


def engine_run_snapshot() -> dict[str, int]:
    """A copy of the per-environment engine-run counters."""
    return dict(_ENGINE_RUNS)
