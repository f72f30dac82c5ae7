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

Pool workers count into their own process's counters, and every task sends
its per-environment delta back with its outcome
(:attr:`repro.api.executor.TaskOutcome.engine_runs`); the executor folds it
into the dispatching process with :func:`absorb_engine_runs`.  So the
dispatching process's counters cover every engine its calls ran, serial or
pooled.  That is the store's determinism harness: a fully warm workload
dispatches *no* tasks at all, and its delta is zero exactly when no engine
ran anywhere.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

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


def engine_runs_since(snapshot: Mapping[str, int]) -> dict[str, int]:
    """Per-environment engine executions since :func:`engine_run_snapshot` gave *snapshot*."""
    return {
        environment: count - snapshot.get(environment, 0)
        for environment, count in _ENGINE_RUNS.items()
        if count != snapshot.get(environment, 0)
    }


def absorb_engine_runs(delta: Mapping[str, int]) -> None:
    """Count the executions another process reported, per environment."""
    _ENGINE_RUNS.update(delta)
