"""Multiprocess execution of serialized :class:`~repro.api.RunSpec`s.

A :class:`~repro.api.RunSpec` names every piece of a workload by registry
name and round-trips through plain dictionaries, which makes it the unit of
work a process pool can dispatch: the parent serializes ``spec.to_dict()``,
each worker rebuilds the workload from the registries and runs it through a
worker-local :class:`~repro.api.Simulation` session, and the parent merges
the results back **in deterministic spec order**.

Three contracts govern this module:

* **Determinism** — pooled execution is bitwise-identical to serial
  execution for every seed.  Each task carries its own fully derived seeds
  (see :func:`shard_repetition_specs` and the sweep planners in
  :mod:`repro.api.session`), so results depend only on the spec, never on
  which worker ran it or in which order tasks completed.  Locked by
  ``tests/integration/test_executor_parity.py``.
* **Serialization boundary** — task payloads contain spec dictionaries,
  registry names and (optionally) picklable callables; besides them only
  the parent's compiled-table bundles cross the process boundary on the way
  in, and :class:`TaskOutcome` (result or a structured error, plus the
  worker's counter deltas) is the only thing that crosses it on the way
  out.  Unpicklable workloads are detected *up front*: an explicit
  ``workers=`` request raises :class:`~repro.core.errors.ExecutorError`,
  while the opportunistic ``REPRO_WORKERS`` environment default silently
  stays serial.
* **Worker cache lifecycle** — the parent compiles each distinct workload
  of a pool once and hands the bundles to the pool initializer (a fork
  start inherits them, a spawn start pickles them), so every worker's
  long-lived :class:`~repro.api.Simulation` starts warm and a sweep pays
  one compile per workload in all.  Each outcome reports the hit/miss delta
  its task produced; the parent aggregates the deltas into the dispatching
  session's counters (:meth:`Simulation.absorb_worker_cache`), keeping
  ``session.cache_info()`` meaningful across serial and pooled calls alike.
  The engine runs each task counted are folded into the dispatching
  process's :mod:`repro.core.counters` the same way.

Worker failures never hang the pool: an exception inside a task comes back
as a structured error payload and is re-raised in the parent as
:class:`~repro.core.errors.WorkerCrashError` carrying the poisoned spec and
the worker traceback; a worker that dies outright (killed, segfault,
``os._exit``) surfaces as the same error type via the executor's broken-pool
detection.
"""

from __future__ import annotations

import os
import pickle
import traceback
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.api.seeds import SeedPolicy
from repro.api.spec import RunSpec
from repro.core.counters import absorb_engine_runs, engine_run_snapshot, engine_runs_since
from repro.core.errors import (
    ExecutorError,
    OutputNotReachedError,
    WorkerCrashError,
)

#: Environment variable consulted when a call does not pass ``workers=``:
#: ``REPRO_WORKERS=2 pytest`` runs every pool-safe repeat/sweep through a
#: 2-worker pool, which is how CI exercises the pooled code paths.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable consulted when a spec does not set ``shards=``:
#: ``REPRO_SHARDS=2 pytest`` runs every shardable spec (sync rounds and
#: dynamic segments; an async run is one process) through intra-run sharded
#: execution, which is how CI exercises the sharded code paths.  Sharding
#: changes no result, so every test — golden values and interpreter parity
#: included — must hold under it.
SHARDS_ENV = "REPRO_SHARDS"


def effective_workers(workers: int | None) -> int:
    """Resolve a ``workers`` argument: explicit value, else the environment.

    Returns at least 1.  ``None`` falls back to :data:`WORKERS_ENV` (itself
    defaulting to 1 — serial), so existing call sites transparently become
    pooled when the environment opts in.
    """
    if workers is None:
        try:
            workers = int(os.environ.get(WORKERS_ENV, "") or 1)
        except ValueError:
            workers = 1
    return max(int(workers), 1)


def effective_shards(shards: int | None) -> int | None:
    """Resolve a ``shards`` argument: explicit value, else the environment.

    ``None`` falls back to :data:`SHARDS_ENV`; an unset/unusable environment
    stays ``None`` (no sharding).  Explicit values are clamped to at least 1.
    """
    if shards is not None:
        return max(int(shards), 1)
    raw = os.environ.get(SHARDS_ENV, "")
    try:
        value = int(raw or 0)
    except ValueError:
        # A malformed value must not silently run unsharded: CI legs set
        # this variable and a typo would quietly drop their whole purpose.
        warnings.warn(
            f"ignoring malformed {SHARDS_ENV}={raw!r} (expected a positive "
            "integer); running unsharded",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return value if value >= 1 else None


def resolve_spec_shards(spec: RunSpec) -> RunSpec:
    """Apply the :data:`SHARDS_ENV` default to *spec* where it is legal.

    Resolution happens once, before dispatch, so the core-budget guard and
    every pooled cell see the effective value (the store hash ignores the
    shard count altogether — sharding changes no result).  Sync rounds and
    dynamic segments shard; asynchronous specs, which run on one process,
    are returned unchanged, and so are specs that cannot shard at all
    (interpreted backend) rather than failing the validation the explicit
    field would apply.
    """
    if spec.shards is not None:
        return spec
    if spec.backend == "python" or spec.environment == "async":
        return spec
    resolved = effective_shards(None)
    return spec if resolved is None else spec.replace(shards=resolved)


def run_shards(spec: RunSpec) -> int | None:
    """The shard count a run of *spec* starts workers for: its ``shards``,
    except that an asynchronous run is one process whatever it asks for."""
    return None if spec.environment == "async" else spec.shards


def budget_workers(workers: int, shards: int | None) -> int:
    """The core-budget guard for ``workers= × shards=`` composition.

    Pooled sweeps compose across cells (``workers``) with intra-run
    sharding inside each cell (``shards``); unguarded, the product
    oversubscribes the machine and every fence wait turns into scheduler
    thrash.  The guard caps the pool at ``cores // shards`` (but never
    below 1 — serial dispatch with sharded cells is always legal).
    """
    if workers <= 1 or not shards or shards <= 1:
        return workers
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1
    return max(1, min(workers, cores // int(shards)))


# ---------------------------------------------------------------------- #
# Workload sharding                                                       #
# ---------------------------------------------------------------------- #
def spec_shardable(spec: RunSpec) -> bool:
    """Whether pooled repetitions of *spec* can reproduce serial execution.

    A fully unseeded spec (``seed=None`` *and* ``graph_seed=None``) builds a
    fresh random graph per process, so no sharding can match the single
    graph the serial path builds once — such workloads stay serial.
    """
    return spec.seed is not None or spec.graph_seed is not None


def shard_repetition_specs(spec: RunSpec, repetitions: int) -> list[RunSpec]:
    """The per-run specs of ``Simulation.repeat(spec, repetitions)``.

    Run ``i`` gets ``SeedPolicy(base).repetition_seed(i)`` as its protocol
    seed — exactly the serial derivation — and the graph seed is pinned to
    the *base* seed so every shard rebuilds the identical graph the serial
    path builds once (callers gate on :func:`spec_shardable`, so the pin is
    always a concrete integer here).  The derivation is a pure function of
    the spec, which is what makes pooled and serial execution
    interchangeable; a Hypothesis property test pins the seeds to the
    serial rule.
    """
    base_seed = spec.seed if spec.seed is not None else 0
    policy = SeedPolicy(base_seed)
    graph_seed = spec.graph_seed if spec.graph_seed is not None else spec.seed
    return [
        spec.replace(seed=policy.repetition_seed(repetition), graph_seed=graph_seed)
        for repetition in range(repetitions)
    ]


# ---------------------------------------------------------------------- #
# The wire format                                                         #
# ---------------------------------------------------------------------- #
@dataclass
class TaskOutcome:
    """What one worker task sends back to the parent.

    Exactly one of ``value`` / ``error`` / ``timeout`` is populated;
    ``cache_hits``/``cache_misses`` are the *delta* the task produced on the
    worker session's compiled-table counters, and the ``shard_*`` fields the
    delta on its sharded-execution counters (runs that used ``shards=``,
    their summed cut edges and per-round halo traffic).  ``engine_runs``
    is the delta on the worker process's engine-run counters, per
    environment (see :mod:`repro.core.counters`).
    """

    value: Any = None
    error: dict[str, Any] | None = None
    timeout: Any = None
    cache_hits: int = 0
    cache_misses: int = 0
    store_writes: int = 0
    shard_runs: int = 0
    shard_cut_edges: int = 0
    shard_halo_bytes: int = 0
    engine_runs: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SpecTask:
    """One unit of pool work: execute a serialized spec.

    ``record`` optionally asks for a :class:`~repro.analysis.sweep.
    SweepRecord` instead of the raw :class:`~repro.core.results.
    ExecutionResult` — that is how sweep cells travel (the graph and result
    stay inside the worker; only the plain-data record crosses back).

    ``store`` optionally names a result-store root directory: the executing
    side then persists the cell's result into that store after running it
    (see :mod:`repro.api.store`).  Workers only ever *write* — the parent
    filters store hits out of the task list before dispatching, so misses
    are counted exactly once, on the parent's handle.
    """

    spec: dict[str, Any]
    raise_on_timeout: bool = False
    record: dict[str, Any] | None = None
    graph_factory: Callable[..., Any] | None = None
    validator: Callable[..., bool] | None = None
    inputs_for: Callable[..., Any] | None = None
    extra_metrics: Callable[..., dict[str, Any]] | None = field(default=None)
    store: str | None = None


#: The one long-lived session of a worker process; its compiled-table cache
#: stays warm across every task the worker executes for the pool.
_WORKER_SESSION = None


def _worker_session():
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        from repro.api.session import Simulation

        _WORKER_SESSION = Simulation()
    return _WORKER_SESSION


# ---------------------------------------------------------------------- #
# Compiled-table publication                                              #
# ---------------------------------------------------------------------- #
def _published_bundles(tasks: Sequence[SpecTask], session) -> dict:
    """Compile each distinct workload of *tasks* once, parent-side.

    Returns the ``{cache_key: bundle}`` mapping to publish to the pool,
    keyed by :func:`repro.api.session.table_key` and built by
    :func:`repro.api.session.table_bundle` — the key and the code of the
    workers' own lookups.  Without publication every worker re-ran the same
    compile for the same workload — the k× table-build cost the session
    cache counters expose; compiling here warms the dispatching session's
    own cache too, so the parent pays each tabulation exactly once for the
    whole pool.
    """
    if session is None:
        return {}
    from repro.api.session import table_bundle, table_key

    bundles: dict = {}
    for task in tasks:
        try:
            spec = RunSpec.from_dict(task.spec)
        except Exception:  # malformed specs fail later, in the worker
            continue
        key = table_key(spec)
        if key in bundles:
            continue
        bundle = session._tables.get(key)
        if bundle is None:
            try:
                # Bypass ``Simulation._cached`` deliberately: the hit/miss
                # counters track per-task lookups, and this pre-pass is not
                # a task.  The built bundle still lands in the parent cache
                # so later parent lookups of the same workload are hits.
                bundle = table_bundle(spec)
            except Exception:
                # Compile-time failures (including strict-backend rejections)
                # must surface from the executing side with the task
                # attached, not from this opportunistic pre-pass.
                continue
            session._tables[key] = bundle
        bundles[key] = bundle
    return bundles


def _portable_bundles(bundles: dict, context) -> dict:
    """The bundles that can reach the workers of *context*.

    A fork start inherits the parent's memory, so every bundle goes; any
    other start pickles the initializer's arguments, so a bundle that does
    not pickle is left for the worker to build — publication is a pure
    optimization and never fails the pool.
    """
    if context.get_start_method() == "fork":
        return bundles
    portable = {}
    for key, bundle in bundles.items():
        try:
            pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 — optimization only, never fatal
            continue
        portable[key] = bundle
    return portable


def _worker_adopt_tables(bundles: dict) -> None:
    """Pool initializer: seed this worker's session with the parent's bundles.

    The first task of every published workload is then a cache *hit*
    instead of a rebuild.
    """
    _worker_session().adopt_published_tables(bundles)


def _execute_task(task: SpecTask, session) -> Any:
    """Run one task on *session* and return its value (result or record)."""
    spec = RunSpec.from_dict(task.spec)
    if task.record is None:
        return session.simulate(spec, raise_on_timeout=task.raise_on_timeout)
    from repro.api.session import run_sweep_cell

    return run_sweep_cell(task, spec, session)


def _store_write_delta(session, baseline: int) -> int:
    """Store writes this task produced (the store may appear mid-task)."""
    store = getattr(session, "store", None)
    return store.writes - baseline if store is not None else 0


def _shard_snapshot(session) -> tuple[int, int, int]:
    """The session's sharded-execution counters as a plain tuple."""
    stats = getattr(session, "shard_stats", None)
    if not stats:
        return (0, 0, 0)
    return (stats["runs"], stats["cut_edges"], stats["halo_bytes_per_round"])


def run_task(task: SpecTask, session=None) -> TaskOutcome:
    """Execute *task*, catching failures into a structured outcome.

    This is the function the pool maps over task lists; with an explicit
    *session* it doubles as the serial execution path, so serial and pooled
    runs share one code path cell-for-cell.
    """
    if session is None:
        session = _worker_session()
    hits, misses = session.cache_hits, session.cache_misses
    store = getattr(session, "store", None)
    writes = store.writes if store is not None else 0
    shard_base = _shard_snapshot(session)
    engine_base = engine_run_snapshot()

    def _stat_fields() -> dict[str, Any]:
        shard_now = _shard_snapshot(session)
        return dict(
            cache_hits=session.cache_hits - hits,
            cache_misses=session.cache_misses - misses,
            store_writes=_store_write_delta(session, writes),
            shard_runs=shard_now[0] - shard_base[0],
            shard_cut_edges=shard_now[1] - shard_base[1],
            shard_halo_bytes=shard_now[2] - shard_base[2],
            engine_runs=engine_runs_since(engine_base),
        )

    try:
        value = _execute_task(task, session)
    except OutputNotReachedError as exc:
        return TaskOutcome(timeout=(str(exc), exc.result), **_stat_fields())
    except Exception as exc:  # noqa: BLE001 — every failure must cross back
        return TaskOutcome(
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "spec": task.spec,
            },
            **_stat_fields(),
        )
    return TaskOutcome(value=value, **_stat_fields())


# ---------------------------------------------------------------------- #
# Dispatch                                                                #
# ---------------------------------------------------------------------- #
def payloads_picklable(tasks: Sequence[SpecTask]) -> str | None:
    """``None`` when every task crosses the process boundary, else why not."""
    try:
        pickle.dumps(list(tasks))
    except Exception as exc:  # noqa: BLE001 — any pickling failure disqualifies
        return f"{type(exc).__name__}: {exc}"
    return None


def execute_tasks(
    tasks: Sequence[SpecTask],
    *,
    workers: int | None = None,
    session=None,
    explicit_workers: bool = False,
) -> list[Any]:
    """Run *tasks* serially or on a worker pool; return values in task order.

    *session* receives the cache-counter deltas (and executes the tasks
    itself on the serial path).  ``explicit_workers`` marks a caller-chosen
    worker count: unpicklable payloads then raise
    :class:`~repro.core.errors.ExecutorError` instead of silently running
    serially (the environment-variable default degrades gracefully — custom
    in-process callables keep working, just without the pool).
    """
    count = effective_workers(workers)
    if count > 1 and len(tasks) > 1:
        reason = payloads_picklable(tasks)
        if reason is None:
            return _execute_pooled(tasks, count, session)
        if explicit_workers:
            raise ExecutorError(
                f"workload cannot be dispatched to worker processes "
                f"(payload not picklable: {reason}); pass module-level "
                f"factories/validators or drop workers="
            )
    # Serial path: run directly on the dispatching session.  Exceptions
    # (including timeouts) propagate as themselves — the structured
    # WorkerCrashError wrapping exists only for failures that crossed a
    # process boundary.
    return [_execute_task(task, session) for task in tasks]


def _execute_pooled(tasks: Sequence[SpecTask], workers: int, session) -> list[Any]:
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.scheduling.shard_pool import mp_context

    context = mp_context()
    bundles = _portable_bundles(_published_bundles(tasks, session), context)
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            mp_context=context,
            initializer=_worker_adopt_tables,
            initargs=(bundles,),
        ) as pool:
            outcomes = list(pool.map(run_task, tasks))
    except BrokenProcessPool as exc:
        raise WorkerCrashError(
            "a worker process died before returning its task outcome "
            "(killed, out of memory, or crashed in native code); "
            "the pool was shut down cleanly"
        ) from exc
    return _merge_outcomes(outcomes, session=session)


def _merge_outcomes(outcomes: list[TaskOutcome], session) -> list[Any]:
    """Deterministically merge outcomes: aggregate stats, surface errors."""
    for outcome in outcomes:
        absorb_engine_runs(outcome.engine_runs)
    if session is not None:
        session.absorb_worker_cache(
            sum(outcome.cache_hits for outcome in outcomes),
            sum(outcome.cache_misses for outcome in outcomes),
        )
        store = getattr(session, "store", None)
        if store is not None:
            store.absorb_worker_writes(
                sum(outcome.store_writes for outcome in outcomes)
            )
        absorb_shards = getattr(session, "absorb_worker_shards", None)
        if absorb_shards is not None:
            absorb_shards(
                sum(outcome.shard_runs for outcome in outcomes),
                sum(outcome.shard_cut_edges for outcome in outcomes),
                sum(outcome.shard_halo_bytes for outcome in outcomes),
            )
    for outcome in outcomes:
        if outcome.error is not None:
            error = outcome.error
            raise WorkerCrashError(
                f"worker failed executing spec for protocol "
                f"{error['spec'].get('protocol')!r}: "
                f"{error['type']}: {error['message']}",
                spec=error["spec"],
                worker_traceback=error["traceback"],
            )
        if outcome.timeout is not None:
            message, partial = outcome.timeout
            raise OutputNotReachedError(message, partial)
    return [outcome.value for outcome in outcomes]


def run_specs(
    specs: Sequence[RunSpec],
    *,
    workers: int | None = None,
    session=None,
    raise_on_timeout: bool = False,
) -> list:
    """Execute independent *specs*, pooled, in deterministic spec order.

    The module-level convenience entry point: results are merged back in the
    order the specs were given, bitwise-identical to calling
    ``session.simulate`` on each spec serially.  Pass a
    :class:`~repro.api.Simulation` *session* to aggregate worker cache
    counters into it (a throwaway session is used otherwise).

    When the session has a result store attached, store hits are filtered
    out *before* dispatch — a fully warm workload touches no pool and runs
    no engines — and every freshly computed seeded result is persisted.
    With ``raise_on_timeout`` the store path raises the first (in spec
    order) non-terminating result's error after all specs have executed,
    so a timeout does not forfeit the caching of the other results.
    """
    if session is None:
        from repro.api.session import Simulation

        session = Simulation()
    # Resolve the sharding environment default before any store lookup so
    # parent-side hashes match what the executing side computes and stashes.
    specs = [resolve_spec_shards(spec) for spec in specs]
    count = effective_workers(workers)
    if specs:
        count = budget_workers(count, max(run_shards(spec) or 1 for spec in specs))
    if getattr(session, "store", None) is not None and count > 1 and len(specs) > 1:
        return session._run_stored_specs(
            specs,
            count,
            explicit=workers is not None,
            raise_on_timeout=raise_on_timeout,
        )
    # Serial (and storeless) dispatch: ``session.simulate`` already does the
    # store bookkeeping itself, one spec at a time.
    tasks = [
        SpecTask(spec=spec.to_dict(), raise_on_timeout=raise_on_timeout)
        for spec in specs
    ]
    return execute_tasks(
        tasks, workers=count, session=session, explicit_workers=workers is not None
    )
