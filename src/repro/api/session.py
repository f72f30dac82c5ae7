"""The :class:`Simulation` session: one entry point for every execution.

A session owns the three concerns that used to be re-threaded by hand
through a scatter of free functions (``run_synchronous``,
``run_asynchronous``, ``repeat_synchronous``, ``sweep_protocol``):

* **backend selection** — specs say
  ``"python" | "vectorized" | "kernel" | "auto"`` once; the engines
  negotiate the tier through :func:`repro.api.backends.negotiate_backend`
  and record what actually ran (and why) in ``result.metadata``;
* **compiled-table caching** — the synchronizer/multiquery compile step and
  the dense/lazy transition tables are built once per workload and stay
  warm across :meth:`Simulation.simulate`, :meth:`Simulation.repeat` and
  :meth:`Simulation.sweep` calls on the same session (observable through
  :attr:`Simulation.cache_hits`);
* **seed derivation** — every multi-run method derives its per-run seeds
  through one :class:`~repro.api.seeds.SeedPolicy`.

Specs (:class:`~repro.api.RunSpec`) drive the public trio ``simulate()`` /
``repeat()`` / ``sweep()``.  The ``*_protocol`` object-level variants accept
already-constructed graphs and protocol instances; they power the deprecated
legacy shims and remain available for workloads whose pieces have no
registry name.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.api import executor as _executor
from repro.api.seeds import SeedPolicy
from repro.api.spec import RunSpec
from repro.core.errors import (
    OutputNotReachedError,
    ProtocolNotVectorizableError,
    SpecError,
)
from repro.core.results import ExecutionResult
from repro.graphs.graph import Graph
from repro.scheduling.async_engine import DEFAULT_MAX_EVENTS, _run_asynchronous
from repro.scheduling.dynamic_engine import _run_dynamic
from repro.scheduling.sync_engine import (
    DEFAULT_MAX_ROUNDS,
    _precompile_tables_with_reason,
    _run_synchronous,
    precompile_tables,
)


def _annotated_sync_run(
    reason: str | None, *args, runner=None, **kwargs
) -> ExecutionResult:
    """Run the sync primitive and stamp the precompile-time selection reason.

    The engine labels tables it did not build as ``caller-supplied``; when
    the session did the precompiling, the reason captured at that moment
    (eager/lazy choice, or an ``"auto"`` downgrade) is the authoritative one
    and replaces the engine's label — on timeout errors' partial results too.
    A ``shards >= 2`` request keeps the engine's reason: it explains the
    partitioning (or why the run stayed on one process), which the
    precompile-time label knows nothing about.  ``runner`` swaps the
    execution primitive (the dynamic environment passes
    :func:`~repro.scheduling.dynamic_engine._run_dynamic`).
    """
    if runner is None:
        runner = _run_synchronous
    sharded = (kwargs.get("shards") or 1) >= 2

    def _stamp(metadata) -> None:
        if reason is not None and not sharded:
            metadata["backend_reason"] = reason

    try:
        result = runner(*args, **kwargs)
    except OutputNotReachedError as exc:
        if exc.result is not None:
            _stamp(exc.result.metadata)
        raise
    _stamp(result.metadata)
    return result


@dataclass
class _RegistryInputs:
    """Picklable default ``inputs_for``: the registry inputs factory by name.

    Replaces the historical closure over the protocol entry so that pooled
    sweep cells can carry their inputs rule across the process boundary —
    the factory itself is resolved from the worker's registry, never
    pickled.  Calling it is behaviourally identical to
    ``entry.inputs_factory(graph, **spec.inputs)``.
    """

    protocol: str
    inputs: dict[str, Any] = field(default_factory=dict)

    def __call__(self, graph: Any) -> Mapping[int, Any]:
        from repro.api.registry import PROTOCOLS

        entry = PROTOCOLS.get(self.protocol)
        return entry.inputs_factory(graph, **self.inputs)


def run_sweep_cell(task, spec: RunSpec, session: "Simulation"):
    """Execute one sweep cell and assemble its record (serial and pooled).

    This single function runs every sweep cell — the parent session executes
    it directly on the serial path and the worker processes execute it for
    pooled dispatch — so the two paths cannot drift: a cell's record depends
    only on the spec's fully derived seeds, never on which process ran it.
    The compiled table comes from *session*'s cache keyed by the workload,
    so all cells of a sweep share one compile per process.

    A task carrying a ``store`` path persists the cell's execution result
    into that result store *where the cell ran* — inside the worker for
    pooled dispatch — so graph and result never cross the process boundary
    just to be cached; only the write count travels back.
    """
    if task.graph_factory is not None:
        graph = task.graph_factory(spec.nodes, spec.graph_seed)
    else:
        graph = spec.build_graph()
    inputs = task.inputs_for(graph) if task.inputs_for is not None else None
    key = spec.workload_key()
    if spec.environment == "sync":
        backend, compiled, table, reason = session._sync_bundle(
            key, spec.build_protocol, spec.backend
        )
        result = _annotated_sync_run(
            reason,
            graph,
            spec.build_protocol(),
            seed=spec.seed,
            inputs=inputs,
            max_rounds=spec.max_rounds,
            raise_on_timeout=False,
            backend=backend,
            compiled=compiled,
            table=table,
            shards=spec.shards,
        )
        session._note_shards(result)
    elif spec.environment == "dynamic":
        backend, compiled, table, reason = session._sync_bundle(
            key, spec.build_protocol, spec.backend
        )
        result = _annotated_sync_run(
            reason,
            graph,
            spec.build_protocol(),
            runner=_run_dynamic,
            churn=spec.build_churn(),
            seed=spec.seed,
            churn_seed=spec.churn_seed,
            inputs=inputs,
            max_rounds=spec.max_rounds,
            raise_on_timeout=False,
            backend=backend,
            compiled=compiled,
            table=table,
            shards=spec.shards,
        )
        session._note_shards(result)
    else:
        compiled, table = session._async_bundle(key, spec.build_protocol, spec.backend)
        result = _run_asynchronous(
            graph,
            compiled,
            adversary=spec.build_adversary(),
            seed=spec.seed,
            adversary_seed=spec.adversary_seed,
            inputs=inputs,
            max_events=spec.max_events,
            raise_on_timeout=False,
            backend=spec.backend,
            table=table,
            shards=spec.shards,
        )
        session._note_shards(result)
    if getattr(task, "store", None) is not None:
        from repro.api import store as _store

        if session.store is None:
            session.store = _store.ResultStore(task.store)
        _store.stash(session.store, spec, result)
    return build_sweep_record(task, spec, graph, result)


def build_sweep_record(task, spec: RunSpec, graph, result):
    """Assemble one cell's :class:`~repro.analysis.sweep.SweepRecord`.

    Shared by the live execution path and the store-hit path, so a cached
    cell reconstructs its record through the same validator /
    extra-metrics calls a fresh run would make — records are identical
    whichever path produced them.
    """
    from repro.analysis.sweep import SweepRecord

    # A dynamic cell's solution lives on the *final* churn snapshot, not the
    # generated base graph — validate (and measure metrics) against it.
    check_graph = result.graph if spec.environment == "dynamic" else graph
    valid = result.reached_output and (
        task.validator is None or task.validator(check_graph, result)
    )
    extra = task.extra_metrics(check_graph, result) if task.extra_metrics else {}
    meta = task.record
    return SweepRecord(
        family=meta["family"],
        size=meta["size"],
        repetition=meta["repetition"],
        graph_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        cost=result.cost,
        rounds=result.rounds,
        reached_output=result.reached_output,
        valid=valid,
        adversary=meta.get("adversary", ""),
        churn=meta.get("churn", ""),
        extra=extra,
    )


def _lazy_strict_table(protocol, backend: str):
    """The incremental strict table for one async workload, or ``None``.

    ``None`` when the interpreted backend was requested or the protocol
    cannot be tabulated — callers cache the downgrade so it is discovered
    once per workload, not once per run.
    """
    if backend == "python":
        return None
    try:
        from repro.scheduling.compiled import LazyStrictTable

        return LazyStrictTable(protocol)
    except ProtocolNotVectorizableError:
        return None


class Simulation:
    """A stateful facade over the four execution engines.

    Sessions are cheap to create and safe to keep for a whole experiment
    campaign: every spec-driven call funnels its compile work through the
    session's table cache, so repeated and swept workloads only ever pay
    the tabulation once.

    >>> from repro.api import RunSpec, Simulation
    >>> session = Simulation()
    >>> result = session.simulate(RunSpec(protocol="mis", nodes=64, seed=7))
    >>> result.reached_output
    True

    ``store=`` (a :class:`~repro.api.store.ResultStore` or a directory
    path; ``cache_dir=`` is the path-only spelling) attaches a persistent
    content-addressable result cache: every seeded spec executed through
    ``simulate()`` / ``repeat()`` / ``sweep()`` is first looked up by its
    canonical hash and only runs the engines on a miss — a fully warm
    store replays a whole sweep with *zero* engine executions, returning
    results bitwise-identical to the cold run.  Unseeded specs always
    bypass the store (their results are not content-addressable).
    """

    def __init__(
        self,
        *,
        store: "Any | None" = None,
        cache_dir: "str | None" = None,
    ) -> None:
        self._tables: dict[tuple, tuple] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._adopted_tables = 0
        self._shard_stats: dict[str, int] = {
            "runs": 0,
            "cut_edges": 0,
            "halo_bytes_per_round": 0,
        }
        if store is None and cache_dir is not None:
            store = cache_dir
        if store is not None and isinstance(store, (str, os.PathLike)):
            from repro.api.store import ResultStore

            store = ResultStore(store)
        self.store = store

    # ------------------------------------------------------------------ #
    # Compiled-table cache                                                #
    # ------------------------------------------------------------------ #
    @property
    def cache_hits(self) -> int:
        """Spec/cache-key lookups served from the warm table cache."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Lookups that had to compile (first sight of a workload)."""
        return self._cache_misses

    @property
    def shard_stats(self) -> dict[str, int]:
        """Counters over ``shards >= 2`` runs executed on this session.

        ``runs`` counts every execution of a ``shards >= 2`` request
        (including fallbacks to one process, which report one shard);
        ``cut_edges`` and ``halo_bytes_per_round`` accumulate the partition
        statistics those runs reported.  Pooled dispatch folds
        worker-side counters in through :meth:`absorb_worker_shards`.
        """
        return dict(self._shard_stats)

    def cache_info(self) -> dict[str, Any]:
        """Hit/miss counters plus the number of cached workloads.

        When a result store is attached, its hit/miss/bypass/write counters
        ride along under the ``"store"`` key, so one call describes both
        caching layers — compiled tables and persisted results.  Sessions
        that executed sharded runs additionally report their cumulative
        shard counters under ``"sharding"`` (absent otherwise, so existing
        exact-dict consumers are unaffected).
        """
        info: dict[str, Any] = {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "entries": len(self._tables),
        }
        if self.store is not None:
            info["store"] = self.store.stats()
        if self._shard_stats["runs"] > 0:
            info["sharding"] = dict(self._shard_stats)
        if self._adopted_tables > 0:
            info["adopted_tables"] = self._adopted_tables
        return info

    def adopt_published_tables(self, tables: Mapping[tuple, tuple]) -> int:
        """Seed the table cache with bundles published by a pool parent.

        The shared-memory publication path of :mod:`repro.api.executor`
        hands every worker the parent's precompiled bundles so the first
        task of each workload is a cache hit instead of a rebuild —
        eliminating the k× table-build cost pooled sweeps used to pay.
        Adopted entries do not touch the hit/miss counters (nothing was
        looked up); the count is reported by :meth:`cache_info` under
        ``"adopted_tables"`` when nonzero.  Existing keys are kept — a
        warm local table is never replaced.  Returns how many entries
        were adopted.
        """
        adopted = 0
        for key, bundle in tables.items():
            if key in self._tables:
                continue
            self._tables[key] = bundle
            adopted += 1
        self._adopted_tables += adopted
        return adopted

    def absorb_worker_cache(self, hits: int, misses: int) -> None:
        """Fold worker-pool cache counters into this session's stats.

        Pooled ``repeat``/``sweep`` calls compile inside worker processes;
        each worker reports the hit/miss delta of every task and the
        executor aggregates the deltas here, so ``cache_info()`` keeps
        describing the whole workload regardless of where it ran.  Worker
        table *entries* stay in the workers (they die with the pool), so
        ``entries`` counts parent-resident tables only.
        """
        self._cache_hits += hits
        self._cache_misses += misses

    def absorb_worker_shards(self, runs: int, cut_edges: int, halo_bytes: int) -> None:
        """Fold worker-pool sharded-execution counters into this session.

        The pooled counterpart of :meth:`_note_shards`: workers note their
        own sharded runs locally and the executor ships the per-task deltas
        back, so :attr:`shard_stats` describes the whole workload regardless
        of which process ran each cell.
        """
        self._shard_stats["runs"] += runs
        self._shard_stats["cut_edges"] += cut_edges
        self._shard_stats["halo_bytes_per_round"] += halo_bytes

    def _note_shards(self, result: ExecutionResult | None) -> None:
        """Accumulate one result's shard statistics (no-op when unsharded).

        Synchronous shard runs report ``halo_bytes_per_round``; asynchronous
        ones report ``halo_bytes_per_bucket`` (one exchange per event bucket
        rather than per round).  Both accumulate into the same counter — it
        measures boundary traffic per synchronisation step either way.
        """
        metadata = getattr(result, "metadata", None)
        if not metadata or "shard_count" not in metadata:
            return
        self._shard_stats["runs"] += 1
        self._shard_stats["cut_edges"] += int(metadata.get("cut_edges", 0))
        self._shard_stats["halo_bytes_per_round"] += int(
            metadata.get(
                "halo_bytes_per_round", metadata.get("halo_bytes_per_bucket", 0)
            )
        )

    def _cached(self, key: tuple, build: Callable[[], tuple]) -> tuple:
        bundle = self._tables.get(key)
        if bundle is not None:
            self._cache_hits += 1
            return bundle
        self._cache_misses += 1
        bundle = build()
        self._tables[key] = bundle
        return bundle

    def _sync_bundle(self, key: tuple, protocol_factory, backend: str) -> tuple:
        """``(effective_backend, compiled, table, reason)`` for a sync workload."""
        return self._cached(
            ("sync",) + key,
            lambda: _precompile_tables_with_reason(protocol_factory(), backend),
        )

    def _async_bundle(self, key: tuple, protocol_factory, backend: str) -> tuple:
        """``(compiled_protocol, table)`` for an asynchronous workload.

        The synchronizer-compiled protocol itself is cached alongside its
        incremental :class:`~repro.scheduling.compiled.LazyStrictTable`;
        protocols whose table cannot be built (or ``backend="python"``)
        cache ``(compiled, None)`` so the downgrade is only discovered once.
        """

        def build() -> tuple:
            from repro.compilers import compile_to_asynchronous

            compiled = compile_to_asynchronous(protocol_factory())
            return compiled, _lazy_strict_table(compiled, backend)

        return self._cached(("async",) + key, build)

    # ------------------------------------------------------------------ #
    # Object-level execution (powers the legacy shims)                    #
    # ------------------------------------------------------------------ #
    def run_protocol(
        self,
        graph: Graph,
        protocol: Any,
        *,
        environment: str = "sync",
        seed: int | None = None,
        inputs: Mapping[int, Any] | None = None,
        adversary: Any = None,
        adversary_seed: int | None = None,
        backend: str = "auto",
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        max_events: int = DEFAULT_MAX_EVENTS,
        observer: Callable | None = None,
        raise_on_timeout: bool = True,
        compiled=None,
        table=None,
        cache_key: str | None = None,
        shards: int | None = None,
    ) -> ExecutionResult:
        """Run one already-constructed protocol on one graph.

        ``environment="sync"`` expects the protocol as written (strict or
        multi-letter); ``environment="async"`` expects a strict protocol —
        lower multi-letter protocols through
        :func:`repro.compilers.compile_to_asynchronous` first, exactly as
        with the legacy free functions.

        ``cache_key`` opts the call into the session's table cache: runs
        sharing a key reuse one compiled table (the caller asserts that they
        execute equivalent protocols — same contract as passing ``table=``
        by hand).  Explicit ``compiled``/``table`` arguments win over the
        cache.

        ``shards`` splits the run across shard workers without changing
        its result — synchronous rounds through
        :mod:`repro.scheduling.sharded_engine`, asynchronous event buckets
        through :mod:`repro.scheduling.sharded_async_engine`.
        """
        if environment == "sync":
            reason = None
            if cache_key is not None and compiled is None and table is None:
                backend, compiled, table, reason = self._sync_bundle(
                    (cache_key, backend), lambda: protocol, backend
                )
            result = _annotated_sync_run(
                reason,
                graph,
                protocol,
                seed=seed,
                inputs=inputs,
                max_rounds=max_rounds,
                observer=observer,
                raise_on_timeout=raise_on_timeout,
                backend=backend,
                compiled=compiled,
                table=table,
                shards=shards,
            )
            self._note_shards(result)
            return result
        if environment == "async":
            if cache_key is not None and table is None:
                # The caller already holds a compiled protocol; cache only
                # its incremental table (keyed per requested backend).
                _, table = self._cached(
                    ("async", cache_key, backend),
                    lambda: (protocol, _lazy_strict_table(protocol, backend)),
                )
            result = _run_asynchronous(
                graph,
                protocol,
                adversary=adversary,
                seed=seed,
                adversary_seed=adversary_seed,
                inputs=inputs,
                max_events=max_events,
                raise_on_timeout=raise_on_timeout,
                observer=observer,
                backend=backend,
                table=table,
                shards=shards,
            )
            self._note_shards(result)
            return result
        raise SpecError(f"unknown environment {environment!r}; expected 'sync' or 'async'")

    def repeat_protocol(
        self,
        graph: Graph,
        protocol_factory: Callable[[], Any],
        *,
        repetitions: int,
        base_seed: int = 0,
        inputs: Mapping[int, Any] | None = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        raise_on_timeout: bool = True,
        backend: str = "python",
        precompiled: tuple | None = None,
        shards: int | None = None,
    ) -> list[ExecutionResult]:
        """Run *repetitions* independent synchronous executions.

        Seeds are derived by :meth:`SeedPolicy.repetition_seed` (``base_seed
        + i``, the historical rule) and the compile step is paid once: all
        repetitions share one eager table, or one lazy table that
        repetition 1 warms up for repetitions 2..n.  ``shards`` splits
        every repetition across shard workers.
        """
        policy = SeedPolicy(base_seed)
        if precompiled is None:
            precompiled = precompile_tables(protocol_factory(), backend)
        backend, compiled, table = precompiled
        results = [
            _run_synchronous(
                graph,
                protocol_factory(),
                seed=policy.repetition_seed(repetition),
                inputs=inputs,
                max_rounds=max_rounds,
                raise_on_timeout=raise_on_timeout,
                backend=backend,
                compiled=compiled,
                table=table,
                shards=shards,
            )
            for repetition in range(repetitions)
        ]
        for result in results:
            self._note_shards(result)
        return results

    def sweep_protocol_objects(
        self,
        protocol_factory: Callable[[], Any],
        families: Mapping[str, Callable],
        sizes: Sequence[int],
        *,
        repetitions: int = 3,
        base_seed: int = 0,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        validator: Callable | None = None,
        inputs_for: Callable | None = None,
        extra_metrics: Callable | None = None,
        backend: str = "auto",
        precompiled: tuple | None = None,
    ):
        """Sweep an already-constructed workload (see :meth:`sweep`).

        This is the object-level twin of :meth:`sweep` and the target of the
        deprecated :func:`repro.analysis.sweep.sweep_protocol` shim; records
        are bitwise-identical to the historical harness for equal arguments.
        """
        from repro.analysis.sweep import _sweep

        return _sweep(
            protocol_factory,
            families,
            sizes,
            repetitions=repetitions,
            base_seed=base_seed,
            max_rounds=max_rounds,
            validator=validator,
            inputs_for=inputs_for,
            extra_metrics=extra_metrics,
            backend=backend,
            precompiled=precompiled,
        )

    # ------------------------------------------------------------------ #
    # Spec-driven execution                                               #
    # ------------------------------------------------------------------ #
    def simulate(
        self,
        spec: RunSpec,
        *,
        graph: Graph | None = None,
        raise_on_timeout: bool = True,
    ) -> ExecutionResult:
        """Execute *spec* once and return its :class:`ExecutionResult`.

        The graph is built from the spec's registered family (pass ``graph``
        to reuse one you already built — it must match the spec).  Compiled
        tables come from the session cache, so simulating the same workload
        twice pays the compile step once.

        With a result store attached, a seeded spec is served from the
        store when its canonical hash is present (no engine runs; the
        result is rehydrated onto a freshly rebuilt graph and is identical
        to a live run, including the ``OutputNotReachedError`` a
        non-terminating cached run re-raises) and is persisted after a
        miss.  Unseeded specs bypass the store.
        """
        entry = spec.entry()
        if not entry.spec_runnable:
            raise SpecError(
                f"protocol {spec.protocol!r} is not spec-runnable (it has a "
                f"custom runner); invoke it through the CLI or its own API"
            )
        spec = _executor.resolve_spec_shards(spec)
        if self.store is None:
            return self._execute_spec(
                spec, graph=graph, raise_on_timeout=raise_on_timeout
            )
        from repro.api import store as _store

        cached = _store.fetch(self.store, spec, graph=graph)
        if cached is None:
            cached = self._execute_spec(spec, graph=graph, raise_on_timeout=False)
            _store.stash(self.store, spec, cached)
        if raise_on_timeout and not cached.reached_output:
            raise OutputNotReachedError(_store.timeout_message(spec), cached)
        return cached

    def _execute_spec(
        self,
        spec: RunSpec,
        *,
        graph: Graph | None = None,
        raise_on_timeout: bool = True,
    ) -> ExecutionResult:
        """Run *spec* through the engines unconditionally (no store lookup)."""
        if graph is None:
            graph = spec.build_graph()
        inputs = spec.build_inputs(graph)
        key = spec.workload_key()
        if spec.environment == "sync":
            backend, compiled, table, reason = self._sync_bundle(
                key, spec.build_protocol, spec.backend
            )
            result = _annotated_sync_run(
                reason,
                graph,
                spec.build_protocol(),
                seed=spec.seed,
                inputs=inputs,
                max_rounds=spec.max_rounds,
                raise_on_timeout=raise_on_timeout,
                backend=backend,
                compiled=compiled,
                table=table,
                shards=spec.shards,
            )
            self._note_shards(result)
            return result
        if spec.environment == "dynamic":
            backend, compiled, table, reason = self._sync_bundle(
                key, spec.build_protocol, spec.backend
            )
            result = _annotated_sync_run(
                reason,
                graph,
                spec.build_protocol(),
                runner=_run_dynamic,
                churn=spec.build_churn(),
                seed=spec.seed,
                churn_seed=spec.churn_seed,
                inputs=inputs,
                max_rounds=spec.max_rounds,
                raise_on_timeout=raise_on_timeout,
                backend=backend,
                compiled=compiled,
                table=table,
                shards=spec.shards,
            )
            self._note_shards(result)
            return result
        compiled, table = self._async_bundle(key, spec.build_protocol, spec.backend)
        result = _run_asynchronous(
            graph,
            compiled,
            adversary=spec.build_adversary(),
            seed=spec.seed,
            adversary_seed=spec.adversary_seed,
            inputs=inputs,
            max_events=spec.max_events,
            raise_on_timeout=raise_on_timeout,
            backend=spec.backend,
            table=table,
            shards=spec.shards,
        )
        self._note_shards(result)
        return result

    def repeat(
        self,
        spec: RunSpec,
        repetitions: int,
        *,
        raise_on_timeout: bool = True,
        workers: int | None = None,
    ) -> list[ExecutionResult]:
        """Execute *spec* ``repetitions`` times with derived seeds.

        The graph is built once from the spec; run ``i`` uses seed
        ``spec.seed + i`` (:meth:`SeedPolicy.repetition_seed`), reproducing
        the legacy ``repeat_synchronous`` seeds bit-for-bit in the
        synchronous environment.  Compiled tables are shared across the
        repetitions *and* with every other call on this session.

        ``workers`` > 1 dispatches the repetitions to a process pool (see
        :mod:`repro.api.executor`): each worker rebuilds the workload from
        the spec's registries with its per-run seed fully derived up front,
        so the returned results are bitwise-identical to serial execution
        and arrive in repetition order.  ``None`` consults the
        ``REPRO_WORKERS`` environment variable (default: serial).
        """
        entry = spec.entry()
        if not entry.spec_runnable:
            raise SpecError(f"protocol {spec.protocol!r} is not spec-runnable")
        spec = _executor.resolve_spec_shards(spec)
        if self.store is not None:
            from repro.api import store as _store

            if _store.spec_cacheable(spec):
                return self._repeat_stored(
                    spec, repetitions, raise_on_timeout=raise_on_timeout, workers=workers
                )
            self.store.note_bypass()
        count = _executor.budget_workers(
            _executor.effective_workers(workers), spec.shards
        )
        if count > 1 and repetitions > 1 and _executor.spec_shardable(spec):
            shards = _executor.shard_repetition_specs(spec, repetitions)
            tasks = [
                _executor.SpecTask(
                    spec=shard.to_dict(), raise_on_timeout=raise_on_timeout
                )
                for shard in shards
            ]
            return _executor.execute_tasks(
                tasks,
                workers=count,
                session=self,
                explicit_workers=workers is not None,
            )
        graph = spec.build_graph()
        inputs = spec.build_inputs(graph)
        base_seed = spec.seed if spec.seed is not None else 0
        key = spec.workload_key()
        if spec.environment == "sync":
            *bundle, reason = self._sync_bundle(key, spec.build_protocol, spec.backend)
            results = self.repeat_protocol(
                graph,
                spec.build_protocol,
                repetitions=repetitions,
                base_seed=base_seed,
                inputs=inputs,
                max_rounds=spec.max_rounds,
                raise_on_timeout=raise_on_timeout,
                backend=spec.backend,
                precompiled=tuple(bundle),
                shards=spec.shards,
            )
            if reason is not None:
                for result in results:
                    result.metadata["backend_reason"] = reason
            return results
        if spec.environment == "dynamic":
            policy = SeedPolicy(base_seed)
            return [
                self._execute_spec(
                    spec.replace(seed=policy.repetition_seed(repetition)),
                    graph=graph,
                    raise_on_timeout=raise_on_timeout,
                )
                for repetition in range(repetitions)
            ]
        policy = SeedPolicy(base_seed)
        compiled, table = self._async_bundle(key, spec.build_protocol, spec.backend)
        results = []
        for repetition in range(repetitions):
            result = _run_asynchronous(
                graph,
                compiled,
                adversary=spec.build_adversary(),
                seed=policy.repetition_seed(repetition),
                adversary_seed=spec.adversary_seed,
                inputs=inputs,
                max_events=spec.max_events,
                raise_on_timeout=raise_on_timeout,
                backend=spec.backend,
                table=table,
                shards=spec.shards,
            )
            self._note_shards(result)
            results.append(result)
        return results

    def _repeat_stored(
        self,
        spec: RunSpec,
        repetitions: int,
        *,
        raise_on_timeout: bool,
        workers: int | None,
    ) -> list[ExecutionResult]:
        """``repeat()`` against the result store.

        Every repetition is a fully derived shard spec (the same derivation
        pooled dispatch uses, bitwise-identical to serial execution), so
        each shard is looked up independently: hits are rehydrated, misses
        run — pooled when ``workers`` asks for it — and are persisted.  A
        fully warm store answers the whole call with zero engine runs.
        Unlike the storeless serial path, a timeout surfaces after all
        repetitions executed (they are cached either way); the raised
        error is the first non-terminating repetition's, as before.
        """
        from repro.api import store as _store

        shards = _executor.shard_repetition_specs(spec, repetitions)
        results: list[ExecutionResult | None] = [None] * repetitions
        graph: Graph | None = None
        missing: list[int] = []
        for index, shard in enumerate(shards):
            if graph is None:
                graph = shard.build_graph()
            results[index] = _store.fetch(self.store, shard, graph=graph)
            if results[index] is None:
                missing.append(index)
        if missing:
            count = _executor.budget_workers(
                _executor.effective_workers(workers), spec.shards
            )
            miss_shards = [shards[index] for index in missing]
            if count > 1 and len(missing) > 1:
                tasks = [
                    _executor.SpecTask(spec=shard.to_dict(), raise_on_timeout=False)
                    for shard in miss_shards
                ]
                values = _executor.execute_tasks(
                    tasks,
                    workers=count,
                    session=self,
                    explicit_workers=workers is not None,
                )
            else:
                values = [
                    self._execute_spec(shard, graph=graph, raise_on_timeout=False)
                    for shard in miss_shards
                ]
            for index, result in zip(missing, values):
                results[index] = result
                _store.stash(self.store, shards[index], result)
        if raise_on_timeout:
            for result in results:
                if not result.reached_output:
                    raise OutputNotReachedError(_store.timeout_message(spec), result)
        return results

    def sweep(
        self,
        spec: RunSpec,
        *,
        sizes: Sequence[int],
        families: Sequence[str] | Mapping[str, Callable] | None = None,
        repetitions: int = 3,
        adversaries: Sequence[str | None] | None = None,
        churns: Sequence[str] | None = None,
        validator: Callable | None = None,
        inputs_for: Callable | None = None,
        extra_metrics: Callable | None = None,
        workers: int | None = None,
    ):
        """Sweep *spec* over ``families × sizes [× adversaries] × repetitions``.

        ``families`` may be registry names (the default is the spec's own
        family) or an explicit ``{label: factory}`` mapping; ``validator``
        defaults to the registered protocol's solution check.  Returns a
        :class:`~repro.analysis.sweep.SweepResult`.

        Synchronous specs sweep ``families × sizes × repetitions`` with
        per-cell seeds from :meth:`SeedPolicy.sweep_cell`, making the
        records bitwise-identical to the legacy ``sweep_protocol`` harness
        for the same family labels.  Asynchronous specs additionally sweep
        the ``adversaries`` axis (registry names; default: the spec's own
        adversary) with seeds from :meth:`SeedPolicy.async_sweep_cell` —
        the graph seed of a cell ignores the adversary, so every adversary
        (and a synchronous sweep of the same base seed) runs on the
        identical graph, and ``record.cost`` is the normalised time units.

        Dynamic specs sweep the ``churns`` axis the same way (churn-policy
        registry names; default: the spec's own churn).  Per-cell seeds come
        from :meth:`SeedPolicy.dynamic_sweep_cell` — the graph seed ignores
        the churn policy, so every policy of a cell (and a static sweep of
        the same base seed) starts from the identical base graph.  The
        spec's ``churn_params`` apply only to cells running the spec's own
        policy (parameters are policy-specific constructor kwargs; other
        axis entries run with their defaults); validation runs against the
        final churn snapshot and the per-disturbance re-convergence rounds
        ride in the record's run metadata.

        ``workers`` > 1 dispatches the cells to a process pool in
        deterministic cell order — records are bitwise-identical to serial
        execution (see :mod:`repro.api.executor`); ``None`` consults
        ``REPRO_WORKERS``.  Pooled dispatch requires picklable custom
        factories/validators; the environment default falls back to serial
        for in-process closures, an explicit ``workers=`` raises.
        """
        from repro.api.registry import GRAPH_FAMILIES

        entry = spec.entry()
        if not entry.spec_runnable:
            raise SpecError(f"protocol {spec.protocol!r} is not spec-runnable")
        spec = _executor.resolve_spec_shards(spec)
        if adversaries is not None and spec.environment != "async":
            raise SpecError("adversaries= requires an environment='async' spec")
        if churns is not None:
            if spec.environment != "dynamic":
                raise SpecError("churns= requires an environment='dynamic' spec")
            if any(name is None for name in churns):
                raise SpecError(
                    "churns= entries must be churn-policy names (None is not "
                    "a policy; a dynamic spec always churns)"
                )
        if families is None:
            families = [spec.family]
        if not isinstance(families, Mapping):
            families = {name: GRAPH_FAMILIES.get(name) for name in families}
        if validator is None:
            validator = entry.validator
        custom_inputs = inputs_for is not None
        if inputs_for is None and entry.inputs_factory is not None:
            inputs_for = _RegistryInputs(spec.protocol, dict(spec.inputs))
        count = _executor.budget_workers(
            _executor.effective_workers(workers), spec.shards
        )
        use_store = False
        if self.store is not None:
            from repro.api import store as _store

            # A caller-supplied inputs rule shapes the execution result but
            # is invisible to the spec hash, so such sweeps bypass the store
            # (registry-default inputs are a pure function of the spec).
            use_store = _store.spec_cacheable(spec) and not custom_inputs
            if not use_store:
                self.store.note_bypass()
        if (
            spec.environment == "sync"
            and count <= 1
            and not use_store
            and spec.shards is None
        ):
            # The historical serial path: one shared warm table, records
            # bitwise-identical to the legacy harness.  Sharded sweeps take
            # the cell-task path instead — its cells forward ``shards=``.
            bundle = self._sync_bundle(
                spec.workload_key(), spec.build_protocol, spec.backend
            )
            return self.sweep_protocol_objects(
                spec.build_protocol,
                families,
                sizes,
                repetitions=repetitions,
                base_seed=spec.seed if spec.seed is not None else 0,
                max_rounds=spec.max_rounds,
                validator=validator,
                inputs_for=inputs_for,
                extra_metrics=extra_metrics,
                backend=spec.backend,
                precompiled=tuple(bundle[:3]),
            )
        tasks = self._plan_sweep_cells(
            spec,
            families=families,
            sizes=sizes,
            repetitions=repetitions,
            adversaries=adversaries,
            churns=churns,
            validator=validator,
            inputs_for=inputs_for,
            extra_metrics=extra_metrics,
        )
        if use_store:
            records = self._run_stored_cells(
                tasks, count, explicit=workers is not None
            )
        else:
            records = _executor.execute_tasks(
                tasks,
                workers=count,
                session=self,
                explicit_workers=workers is not None,
            )
        from repro.analysis.sweep import SweepResult

        return SweepResult(
            protocol_name=spec.build_protocol().name, records=records
        )

    def _run_stored_cells(self, tasks: list, count: int, *, explicit: bool) -> list:
        """Execute sweep-cell *tasks* against the result store.

        Hits are rehydrated parent-side into sweep records (the validator
        and metrics re-run on the rebuilt graph, so records stay live
        objects); misses are re-dispatched — serial or pooled — with the
        store root attached, so the executing side persists each cell where
        it runs.  Cells with custom graph factories are not spec-describable
        and bypass the store entirely.
        """
        import dataclasses

        from repro.api import store as _store

        records: list = [None] * len(tasks)
        missing: list[int] = []
        for index, task in enumerate(tasks):
            if task.graph_factory is not None:
                self.store.note_bypass()
                missing.append(index)
                continue
            cell_spec = RunSpec.from_dict(task.spec)
            graph = cell_spec.build_graph()
            cached = _store.fetch(self.store, cell_spec, graph=graph)
            if cached is None:
                missing.append(index)
            else:
                records[index] = build_sweep_record(task, cell_spec, graph, cached)
        if missing:
            store_root = str(self.store.root)
            miss_tasks = [
                dataclasses.replace(
                    tasks[index],
                    store=None if tasks[index].graph_factory is not None else store_root,
                )
                for index in missing
            ]
            values = _executor.execute_tasks(
                miss_tasks,
                workers=count,
                session=self,
                explicit_workers=explicit,
            )
            for index, record in zip(missing, values):
                records[index] = record
        return records

    def _plan_sweep_cells(
        self,
        spec: RunSpec,
        *,
        families: Mapping[str, Callable],
        sizes: Sequence[int],
        repetitions: int,
        adversaries: Sequence[str | None] | None,
        churns: Sequence[str] | None,
        validator: Callable | None,
        inputs_for: Callable | None,
        extra_metrics: Callable | None,
    ) -> list:
        """The deterministic cell-task list of one sweep.

        Cells are ordered ``families × sizes [× axis] × repetitions`` —
        where the axis is adversaries (async) or churn policies (dynamic) —
        and every task carries its fully derived seeds, so the task list —
        not execution order — defines the sweep.  Registry-named families
        travel as names (workers resolve their own registry); custom
        factories ride along as callables and must be picklable for pooled
        dispatch.
        """
        from repro.api.registry import GRAPH_FAMILIES

        policy = SeedPolicy(spec.seed if spec.seed is not None else 0)
        if spec.environment == "async":
            axis = list(adversaries) if adversaries is not None else [spec.adversary]
        elif spec.environment == "dynamic":
            axis = list(churns) if churns is not None else [spec.churn]
        else:
            axis = [None]
        tasks = []
        for family_name, factory in families.items():
            registered = (
                family_name in GRAPH_FAMILIES
                and factory is GRAPH_FAMILIES.get(family_name)
            )
            for size in sizes:
                for label in axis:
                    for repetition in range(repetitions):
                        if spec.environment == "async":
                            seeds = policy.async_sweep_cell(
                                family_name, size, repetition, label
                            )
                        elif spec.environment == "dynamic":
                            seeds = policy.dynamic_sweep_cell(
                                family_name, size, repetition, label
                            )
                        else:
                            seeds = policy.sweep_cell(family_name, size, repetition)
                        cell_spec = spec.replace(
                            nodes=size,
                            graph=family_name if registered else spec.graph,
                            seed=seeds.run_seed,
                            graph_seed=seeds.graph_seed,
                            adversary=(
                                label if spec.environment == "async" else None
                            ),
                            churn=(
                                label if spec.environment == "dynamic" else None
                            ),
                            # Policy parameters are constructor kwargs of one
                            # specific policy; axis entries other than the
                            # spec's own policy run with their defaults.
                            churn_params=(
                                dict(spec.churn_params)
                                if label == spec.churn
                                else {}
                            ),
                        )
                        record = {
                            "family": family_name,
                            "size": size,
                            "repetition": repetition,
                        }
                        if spec.environment == "async":
                            record["adversary"] = label or "(default)"
                        elif spec.environment == "dynamic":
                            record["churn"] = label
                        tasks.append(
                            _executor.SpecTask(
                                spec=cell_spec.to_dict(),
                                record=record,
                                graph_factory=None if registered else factory,
                                validator=validator,
                                inputs_for=inputs_for,
                                extra_metrics=extra_metrics,
                            )
                        )
        return tasks
