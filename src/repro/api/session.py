"""The :class:`Simulation` session: one entry point for every execution.

A session owns three concerns every execution shares:

* **backend selection** — specs say
  ``"python" | "vectorized" | "auto"`` once; the engines select the tier
  where they are built and record what actually ran (and why) in
  ``result.metadata``;
* **compiled-table caching** — the synchronizer/multiquery compile step and
  the dense/lazy transition tables are built once per workload and stay
  warm across :meth:`Simulation.simulate`, :meth:`Simulation.repeat` and
  :meth:`Simulation.sweep` calls on the same session (observable through
  :attr:`Simulation.cache_hits`).  A cached bundle records what the
  compile step found — the tables, or why the vectorized tier cannot take
  the protocol — and leaves the selection itself to the engine, so a run
  selects its tier once, exactly as it would without a session;
* **seed derivation** — every multi-run method derives its per-run seeds
  through one :class:`~repro.api.seeds.SeedPolicy`.

Specs (:class:`~repro.api.RunSpec`) drive the public trio ``simulate()`` /
``repeat()`` / ``sweep()``, and every one of them maps a spec onto an
engine in one place, :meth:`Simulation._execute_spec`: ``simulate()``, each
repetition of a serial ``repeat()`` and every sweep cell (serial or in a
pool worker) run through it.  :meth:`Simulation.run_protocol` accepts an
already-constructed graph and protocol instance, for workloads whose pieces
have no registry name.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.api import executor as _executor
from repro.api.seeds import SeedPolicy
from repro.api.spec import RunSpec
from repro.core.budgets import DEFAULT_MAX_EVENTS, DEFAULT_MAX_ROUNDS
from repro.core.errors import (
    OutputNotReachedError,
    ProtocolNotVectorizableError,
    SpecError,
)
from repro.core.results import ExecutionResult
from repro.graphs.graph import Graph
from repro.scheduling.async_engine import _run_asynchronous
from repro.scheduling.dynamic_engine import _run_dynamic
from repro.scheduling.sync_engine import _run_synchronous, build_table_bundle


def table_key(spec: RunSpec) -> tuple:
    """The table-cache key of *spec*'s compiled bundle.

    Dynamic runs execute on the synchronous engines segment by segment, so
    they share the synchronous bundle shape; only asynchronous specs file
    under ``"async"``.  An asynchronous ``"auto"`` and ``"vectorized"``
    spec build the same bundle, so they share one key (and one warm
    table); only ``"python"`` builds none.  The executor's publication
    pre-pass keys the bundles it hands to pool workers through this
    function too, so every published bundle is found by the lookup it was
    published for.
    """
    if spec.environment != "async":
        return ("sync",) + spec.workload_key()
    *workload, backend = spec.workload_key()
    return ("async", *workload, "python" if backend == "python" else "batched")


def table_bundle(spec: RunSpec):
    """Build the bundle the table cache files under :func:`table_key`.

    Synchronous and dynamic specs get a
    :class:`~repro.scheduling.sync_engine.TableBundle`.  Asynchronous specs
    get ``(compiled_protocol, table)``: the synchronizer-compiled protocol
    beside its incremental :class:`~repro.scheduling.compiled.
    LazyStrictTable`, or ``None`` for the table when it cannot be built (or
    ``backend="python"``), so the downgrade is discovered once.  The
    executor builds the bundles it publishes to pool workers here too.
    """
    if spec.environment == "async":
        from repro.compilers import compile_to_asynchronous

        compiled = compile_to_asynchronous(spec.build_protocol())
        return compiled, _lazy_strict_table(compiled, spec.backend)
    return build_table_bundle(spec.build_protocol(), spec.backend)


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
    The cell runs through :meth:`Simulation._execute_spec`, so its compiled
    table comes from *session*'s cache keyed by the workload and all cells
    of a sweep share one compile per process.

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
    result = session._execute_spec(
        spec, graph=graph, inputs=inputs, raise_on_timeout=False
    )
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
        self._tables: dict[tuple, Any] = {}
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

    def adopt_published_tables(self, tables: Mapping[tuple, Any]) -> int:
        """Seed the table cache with bundles published by a pool parent.

        The pool initializer of :mod:`repro.api.executor` hands every worker
        the parent's precompiled bundles so the first task of each workload
        is a cache hit instead of a rebuild — eliminating the k× table-build
        cost pooled sweeps used to pay.
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

        Synchronous shard runs report ``halo_bytes_per_round``; an
        asynchronous ``shards >= 2`` request runs on one process and reports
        ``halo_bytes_per_bucket`` of 0.  Both accumulate into the same
        counter.
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

    def _cached(self, key: tuple, build: Callable[[], Any]) -> Any:
        bundle = self._tables.get(key)
        if bundle is not None:
            self._cache_hits += 1
            return bundle
        self._cache_misses += 1
        bundle = build()
        self._tables[key] = bundle
        return bundle

    # ------------------------------------------------------------------ #
    # Object-level execution                                              #
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
        :func:`repro.compilers.compile_to_asynchronous` first.

        ``cache_key`` opts the call into the session's table cache: runs
        sharing a key reuse one compiled table (the caller asserts that they
        execute equivalent protocols — same contract as passing ``table=``
        by hand).  Explicit ``compiled``/``table`` arguments win over the
        cache.

        ``shards`` splits a synchronous run across shard workers (see
        :mod:`repro.scheduling.sharded_engine`) without changing its
        result; an asynchronous run is one process, so a ``shards >= 2``
        request there records why it ran unsharded.
        """
        if environment == "sync":
            bundle = None
            if cache_key is not None and compiled is None and table is None:
                bundle = self._cached(
                    ("sync", cache_key, backend),
                    lambda: build_table_bundle(protocol, backend),
                )
            result = _run_synchronous(
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
                bundle=bundle,
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
        (result,) = self._run_stored_specs(
            [spec], 1, explicit=False, raise_on_timeout=raise_on_timeout, graph=graph
        )
        return result

    def _execute_spec(
        self,
        spec: RunSpec,
        *,
        graph: Graph | None = None,
        inputs: Mapping[int, Any] | None = None,
        raise_on_timeout: bool = True,
    ) -> ExecutionResult:
        """Run *spec* through the engines unconditionally (no store lookup).

        The one place a spec is mapped onto an engine primitive:
        ``simulate()``, each repetition of a serial ``repeat()``, every
        sweep cell (serial or in a pool worker) and every miss of a stored
        batch run through here.  ``graph`` and ``inputs`` default to the
        spec's own; callers that run many specs on one graph build them once
        and pass them in.
        """
        if graph is None:
            graph = spec.build_graph()
        if inputs is None:
            inputs = spec.build_inputs(graph)
        common = dict(
            seed=spec.seed,
            inputs=inputs,
            raise_on_timeout=raise_on_timeout,
            shards=spec.shards,
        )
        bundle = self._cached(table_key(spec), lambda: table_bundle(spec))
        if spec.environment == "async":
            compiled, table = bundle
            result = _run_asynchronous(
                graph,
                compiled,
                adversary=spec.build_adversary(),
                adversary_seed=spec.adversary_seed,
                max_events=spec.max_events,
                backend=spec.backend,
                table=table,
                **common,
            )
        else:
            run = _run_synchronous
            if spec.environment == "dynamic":
                run = _run_dynamic
                common.update(churn=spec.build_churn(), churn_seed=spec.churn_seed)
            result = run(
                graph,
                spec.build_protocol(),
                max_rounds=spec.max_rounds,
                backend=spec.backend,
                bundle=bundle,
                **common,
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
        ``spec.seed + i`` (:meth:`SeedPolicy.repetition_seed`).  Compiled
        tables are shared across the repetitions *and* with every other
        call on this session.

        ``workers`` > 1 dispatches the repetitions to a process pool (see
        :mod:`repro.api.executor`): each worker rebuilds the workload from
        the spec's registries with its per-run seed fully derived up front,
        so the returned results are bitwise-identical to serial execution
        and arrive in repetition order.  ``None`` consults the
        ``REPRO_WORKERS`` environment variable (default: serial).  Serial
        or pooled, every repetition is one derived spec
        (:func:`~repro.api.executor.shard_repetition_specs`) run through
        :meth:`_execute_spec`.
        """
        entry = spec.entry()
        if not entry.spec_runnable:
            raise SpecError(f"protocol {spec.protocol!r} is not spec-runnable")
        spec = _executor.resolve_spec_shards(spec)
        specs = _executor.shard_repetition_specs(spec, repetitions)
        count = _executor.budget_workers(
            _executor.effective_workers(workers), _executor.run_shards(spec)
        )
        if self.store is not None:
            from repro.api import store as _store

            if _store.spec_cacheable(spec):
                return self._run_stored_specs(
                    specs,
                    count,
                    explicit=workers is not None,
                    raise_on_timeout=raise_on_timeout,
                    graph=spec.build_graph(),
                )
            self.store.note_bypass()
        if count > 1 and repetitions > 1 and _executor.spec_shardable(spec):
            tasks = [
                _executor.SpecTask(spec=run.to_dict(), raise_on_timeout=raise_on_timeout)
                for run in specs
            ]
            return _executor.execute_tasks(
                tasks,
                workers=count,
                session=self,
                explicit_workers=workers is not None,
            )
        # Serial (and every unseeded spec): one graph for all repetitions.
        graph = spec.build_graph()
        inputs = spec.build_inputs(graph)
        return [
            self._execute_spec(
                run, graph=graph, inputs=inputs, raise_on_timeout=raise_on_timeout
            )
            for run in specs
        ]

    def _run_stored_specs(
        self,
        specs: Sequence[RunSpec],
        count: int,
        *,
        explicit: bool,
        raise_on_timeout: bool,
        graph: Graph | None = None,
    ) -> list[ExecutionResult]:
        """Execute *specs* against the result store, in spec order.

        Hits are rehydrated; misses run — pooled when ``count`` allows more
        than one worker and more than one spec missed, on this session
        otherwise — and are persisted.  Uncacheable specs are counted as
        store bypasses and run like misses.  ``graph`` is the one graph
        every spec of the batch runs on (``repeat()`` and
        ``simulate(graph=...)`` pass it), else each spec builds its own.  Unlike a storeless serial run, a timeout
        surfaces after every spec executed (they are cached either way);
        the raised error is the first non-terminating result's, in spec
        order.  ``simulate()``, ``repeat()`` and the pooled
        :func:`~repro.api.executor.run_specs` share this batch.
        """
        from repro.api import store as _store

        results = [_store.fetch(self.store, spec, graph=graph) for spec in specs]
        missing = [index for index, result in enumerate(results) if result is None]
        if count > 1 and len(missing) > 1:
            tasks = [_executor.SpecTask(spec=specs[index].to_dict()) for index in missing]
            values = _executor.execute_tasks(
                tasks, workers=count, session=self, explicit_workers=explicit
            )
        else:
            values = [
                self._execute_spec(specs[index], graph=graph, raise_on_timeout=False)
                for index in missing
            ]
        for index, result in zip(missing, values):
            results[index] = result
            _store.stash(self.store, specs[index], result)
        if raise_on_timeout:
            for spec, result in zip(specs, results):
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
        per-cell seeds from :meth:`SeedPolicy.sweep_cell`.  Asynchronous
        specs additionally sweep the ``adversaries`` axis (registry names;
        default: the spec's own adversary) with seeds from
        :meth:`SeedPolicy.async_sweep_cell` —
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

        Every sweep is planned as one cell task per record and every cell
        runs through :func:`run_sweep_cell`.  ``workers`` > 1 dispatches the
        cells to a process pool in deterministic cell order — records are
        bitwise-identical to serial execution (see
        :mod:`repro.api.executor`); ``None`` consults ``REPRO_WORKERS``.
        Pooled dispatch requires picklable custom factories/validators; the
        environment default falls back to serial for in-process closures,
        an explicit ``workers=`` raises.
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
            _executor.effective_workers(workers), _executor.run_shards(spec)
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
