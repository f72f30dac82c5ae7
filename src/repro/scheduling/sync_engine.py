"""Round-based execution of (locally) synchronous protocols.

The synchronous engine provides the "user-friendly" environment of
Section 3: all nodes advance in lockstep rounds and the letter transmitted by
a node in round ``t`` is visible in its neighbours' ports from round ``t+1``
on (synchronisation properties (S1) and (S2) hold trivially).  Both
:class:`~repro.core.protocol.ExtendedProtocol` instances (multi-letter
queries) and strict :class:`~repro.core.protocol.Protocol` instances
(single-letter queries) can be executed.

The engine is used for the large-scale scaling experiments (Theorems 4.5 and
5.4); the asynchronous engine of :mod:`repro.scheduling.async_engine`
executes the *compiled* protocols under adversarial timing and is used to
validate Theorem 3.1.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.alphabet import Observation, is_epsilon
from repro.core.counters import record_engine_run
from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
)
from repro.core.network import NetworkState
from repro.core.protocol import ExtendedProtocol, Protocol, State
from repro.core.results import ExecutionResult, build_synchronous_result
from repro.graphs.graph import Graph
from repro.scheduling.picks import counter_pick, counter_round_key, resolve_pick_seed

RoundObserver = Callable[[int, tuple[State, ...]], None]
"""Callback invoked after every round with ``(round_index, states)``."""

DEFAULT_MAX_ROUNDS = 100_000

#: Recognised values of the ``backend`` execution parameter (the attempt
#: order and capability rules live in :mod:`repro.api.backends`).
BACKENDS = ("python", "vectorized", "kernel", "auto")


class SynchronousEngine:
    """Executes a protocol in fully synchronous rounds.

    Parameters
    ----------
    graph:
        The communication graph.
    protocol:
        Either an :class:`ExtendedProtocol` (multi-letter queries) or a strict
        :class:`Protocol` (single query letter per state).
    seed:
        Seed for the protocol's random choices (uniform draws from the option
        sets of the transition function, taken from the counter pick stream
        of :mod:`repro.scheduling.picks`; ``None`` draws fresh randomness).
    inputs:
        Optional mapping from node to input value, forwarded to
        ``protocol.initial_state``.
    observer:
        Optional callback invoked after every round with the round index and
        the tuple of node states; used by the tournament / decay analyses.
    initial_states, initial_letters:
        Optional warm-start configuration used by the dynamic environment:
        per-node states to start from (instead of ``protocol.
        initial_state``) and per-node *last transmitted letters* to preload
        the ports with.  Synchronous execution only ever broadcasts, so one
        letter per sender fully describes every port content — preloading
        the ports by re-broadcasting those letters reproduces the exact
        configuration a previous segment ended in, new edges included.
    """

    def __init__(
        self,
        graph: Graph,
        protocol: ExtendedProtocol | Protocol,
        *,
        seed: int | None = None,
        inputs: Mapping[int, Any] | None = None,
        observer: RoundObserver | None = None,
        initial_states: Sequence[State] | None = None,
        initial_letters: Sequence[Any] | None = None,
    ) -> None:
        self._graph = graph
        self._protocol = protocol
        self._multi_letter = isinstance(protocol, ExtendedProtocol)
        if not self._multi_letter and not isinstance(protocol, Protocol):
            raise ExecutionError(
                f"cannot execute object of type {type(protocol).__name__}"
            )
        self._seed = seed
        self._pick_seed = resolve_pick_seed(seed)
        self._observer = observer
        inputs = dict(inputs or {})
        if initial_states is None:
            initial_states = [
                protocol.initial_state(inputs.get(node)) for node in graph.nodes
            ]
        else:
            initial_states = list(initial_states)
        if initial_letters is not None and len(initial_letters) != graph.num_nodes:
            raise ExecutionError(
                "initial_letters must hold one letter per node "
                f"(expected {graph.num_nodes}, got {len(initial_letters)})"
            )
        self._state = NetworkState(graph, initial_states, protocol.initial_letter)
        self._last = [protocol.initial_letter] * graph.num_nodes
        if initial_letters is not None:
            self._last = list(initial_letters)
            for node, letter in enumerate(self._last):
                if letter != protocol.initial_letter:
                    self._state.ports.broadcast(node, letter)
        self._round = 0
        self._messages = 0

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def protocol(self) -> ExtendedProtocol | Protocol:
        return self._protocol

    @property
    def round_index(self) -> int:
        """Number of rounds executed so far."""
        return self._round

    @property
    def states(self) -> tuple[State, ...]:
        """Current per-node states."""
        return tuple(self._state.states)

    @property
    def last_letters(self) -> tuple[Any, ...]:
        """Per-node last transmitted letter (the full port configuration).

        A node that never transmitted reports the initial letter, which is
        exactly what its neighbours' ports show.  The dynamic engine carries
        this vector (with :attr:`states`) across topology disturbances.
        """
        return tuple(self._last)

    def in_output_configuration(self) -> bool:
        """Whether every node currently resides in an output state."""
        return all(self._protocol.is_output_state(s) for s in self._state.states)

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def _decide(self, node: int, round_key: int) -> tuple[State, Any]:
        """Compute one node's transition from the current port contents."""
        protocol = self._protocol
        state = self._state.states[node]
        ports = self._state.ports.contents(node)
        if self._multi_letter:
            observation = Observation.from_port_contents(
                protocol.alphabet, ports, protocol.bounding
            )
            choices = protocol.options(state, observation)
        else:
            letter = protocol.query_letter(state)
            raw = sum(1 for content in ports if content == letter)
            choices = protocol.options(state, protocol.bounding(raw))
        choices = protocol.validate_option_set(choices)
        if len(choices) == 1:
            chosen = choices[0]
        else:
            chosen = choices[counter_pick(round_key, node, len(choices))]
        return chosen.state, chosen.emit

    def step_round(self) -> None:
        """Execute one fully synchronous round for all nodes."""
        round_key = counter_round_key(self._pick_seed, self._round)
        decisions = [self._decide(node, round_key) for node in self._graph.nodes]
        emitters = []
        for node, (new_state, emit) in enumerate(decisions):
            self._state.states[node] = new_state
            self._state.steps_taken[node] += 1
            if not is_epsilon(emit):
                emitters.append((node, emit))
        # Deliver after all decisions: round-t messages become visible in
        # round t+1, as required by synchronisation property (S2).
        for node, letter in emitters:
            self._state.ports.broadcast(node, letter)
            self._last[node] = letter
            self._messages += 1
        self._round += 1
        if self._observer is not None:
            self._observer(self._round, tuple(self._state.states))

    def run(
        self,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        *,
        raise_on_timeout: bool = False,
    ) -> ExecutionResult:
        """Run until an output configuration is reached (or *max_rounds*).

        When the bound is hit, the result has ``reached_output=False``; with
        ``raise_on_timeout=True`` an :class:`OutputNotReachedError` carrying
        the partial result is raised instead.
        """
        while self._round < max_rounds and not self.in_output_configuration():
            self.step_round()
        reached = self.in_output_configuration()
        result = self._build_result(reached)
        if not reached and raise_on_timeout:
            raise OutputNotReachedError(
                f"no output configuration within {max_rounds} rounds", result
            )
        return result

    def _build_result(self, reached: bool) -> ExecutionResult:
        return build_synchronous_result(
            self._protocol,
            self._graph,
            self._state.states,
            reached=reached,
            rounds=self._round,
            total_node_steps=sum(self._state.steps_taken),
            total_messages=self._messages,
            seed=self._seed,
        )


@dataclass(frozen=True)
class BackendSelection:
    """Why a synchronous execution ran on the backend it ran on.

    Returned by :func:`select_backend` and recorded by
    :func:`run_synchronous` in ``ExecutionResult.metadata`` (keys
    ``"backend"``, ``"backend_mode"`` and ``"backend_reason"``) so that an
    ``"auto"`` fallback to the interpreter is never silent.

    Attributes
    ----------
    requested:
        The ``backend`` argument the caller passed.
    backend:
        The engine that actually ran: ``"python"``, ``"vectorized"`` or
        ``"kernel"``.
    mode:
        How the transition relation is evaluated: ``"interpreted"`` (the
        object-level protocol API), ``"eager"`` (full reachable closure
        packed up front) or ``"lazy"`` (states/cells discovered on demand —
        how synchronizer- and multiquery-compiled protocols vectorize).
    reason:
        One human-readable sentence explaining the choice.
    rejected:
        ``(tier, reason)`` pairs for every higher tier that was ruled out
        or failed its attempt — how an ``"auto"`` climb that stopped short
        of the kernel tier stays loud instead of silent.
    """

    requested: str
    backend: str
    mode: str
    reason: str
    rejected: tuple[tuple[str, str], ...] = ()


def _make_engine(
    graph: Graph,
    protocol: ExtendedProtocol | Protocol,
    *,
    backend: str,
    seed: int | None,
    inputs: Mapping[int, Any] | None,
    observer: RoundObserver | None,
    compiled=None,
    table=None,
    shards: int | None = None,
    initial_states: Sequence[State] | None = None,
    initial_letters: Sequence[Any] | None = None,
):
    """Instantiate the engine selected by *backend*.

    Returns ``(engine, selection)`` where *selection* is the
    :class:`BackendSelection` explaining the choice.  The attempt order
    comes from one :func:`repro.api.backends.negotiate_backend` call:
    ``"python"`` always interprets; ``"vectorized"`` compiles the protocol
    to dense tables (eager or lazy, per the protocol's
    ``tabulation_hint``) and raises :class:`ProtocolNotVectorizableError`
    when it cannot; ``"kernel"`` additionally runs the round loop as
    compiled kernels (and requires numba plus the eager closure);
    ``"auto"`` climbs python → vectorized → kernel, settling on the best
    available tier and recording why each skipped tier was ruled out.  All
    paths produce bitwise-identical results for the same seed.

    ``shards`` is a pure performance knob: ``None`` and ``1`` are the same
    run, and ``shards >= 2`` first tries a :class:`~repro.scheduling.
    sharded_engine.ShardedVectorizedEngine` on the negotiated table tier.
    Workloads it cannot take (lazy tables, empty graphs) run unsharded with
    the reason recorded.  The interpreter is serial by construction, so
    ``backend="python"`` with ``shards >= 2`` is an error and ``"auto"``
    drops the request when it falls back to it.  The engine of a
    ``shards >= 2`` request carries a ``shard_info`` dict for the result
    metadata (one shard when it runs on one process).
    """
    if backend not in BACKENDS:
        raise ExecutionError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ExecutionError(f"shards must be >= 1, got {shards}")
    sharded = shards is not None and shards >= 2
    from repro.api.backends import Workload, negotiate_backend

    if table is not None:
        tabulation = "lazy"
    elif compiled is not None:
        tabulation = "eager"
    else:
        tabulation = getattr(protocol, "tabulation_hint", lambda: "eager")()
    negotiation = negotiate_backend(
        Workload(
            environment="sync",
            tabulation=tabulation,
            shards=shards if sharded else None,
            observer=observer is not None,
        ),
        backend,
    )
    common = dict(
        seed=seed,
        inputs=inputs,
        observer=observer,
        initial_states=initial_states,
        initial_letters=initial_letters,
    )
    tiers = negotiation.tiers
    rejected = list(negotiation.rejected)
    engine = None
    unsharded = None  # why a shards >= 2 request runs on one process
    if sharded and tiers[0] != "python":
        if table is not None:
            unsharded = "a lazy table was supplied (sharding requires the eager closure)"
        else:
            from repro.core.errors import ShardingUnavailableError
            from repro.scheduling.sharded_engine import ShardedVectorizedEngine

            try:
                engine = ShardedVectorizedEngine(
                    graph,
                    protocol,
                    compiled=compiled,
                    shards=shards,
                    use_kernel=tiers[0] == "kernel",
                    **common,
                )
            except ShardingUnavailableError as exc:
                unsharded = str(exc)
            except ProtocolNotVectorizableError as exc:
                if backend != "auto":
                    raise
                # Every table tier needs the same closure: fall straight
                # through to the interpreter instead of compiling again.
                rejected.append((tiers[0], str(exc)))
                tiers = ("python",)
            else:
                tier, mode = tiers[0], "sharded"
                info = engine.shard_info
                reason = (
                    f"eager table sharded over {info['shard_count']} workers "
                    f"({info['partition_strategy']} partition, "
                    f"cut={info['cut_edges']})"
                )

    if engine is None:
        for tier in tiers:
            if tier == "python":  # the unconditional last resort
                engine = SynchronousEngine(graph, protocol, **common)
                mode = "interpreted"
                if backend == "python":
                    reason = "backend='python' requested"
                else:
                    dropped = f" (shards={shards} dropped)" if sharded else ""
                    reason = f"auto fell back to the interpreter{dropped}: {rejected[-1][1]}"
                break
            if tier == "kernel":
                from repro.scheduling.kernels import KernelVectorizedEngine as engine_cls
            else:
                from repro.scheduling.vectorized_engine import VectorizedEngine as engine_cls
            try:
                engine = engine_cls(graph, protocol, compiled=compiled, table=table, **common)
            except ProtocolNotVectorizableError as exc:
                if backend != "auto":
                    raise
                rejected.append((tier, str(exc)))
                continue
            mode = engine.tabulation_mode
            if table is not None or compiled is not None:
                origin = "caller-supplied"
            elif mode == "lazy":
                origin = "protocol hints a lazy tabulation"
            else:
                origin = "reachable closure enumerated"
            reason = f"{origin}; {mode} table"
            break
    if mode != "interpreted":
        if tier == "kernel":
            reason += "; compiled kernels"
        skipped = "; ".join(f"{name} tier skipped: {why}" for name, why in rejected)
        if skipped:
            reason = f"{reason} ({skipped})"
    if unsharded is not None:
        reason = f"shards={shards} requested but {unsharded}; ran unsharded ({reason})"
    if sharded and mode != "sharded":
        engine.shard_info = dict(
            shard_count=1, cut_edges=0, halo_bytes_per_round=0, partition_strategy="none"
        )
    return engine, BackendSelection(backend, tier, mode, reason, tuple(rejected))


def select_backend(
    graph: Graph,
    protocol: ExtendedProtocol | Protocol,
    backend: str = "auto",
    *,
    inputs: Mapping[int, Any] | None = None,
    shards: int | None = None,
) -> BackendSelection:
    """Explain — without running anything — how *backend* would resolve.

    Builds the same engine :func:`run_synchronous` would build (compile
    steps included, so the answer is authoritative, not a guess) and returns
    its :class:`BackendSelection`.  Pass the run's ``inputs`` when the
    protocol derives initial states from per-node input values — the compile
    roots (and hence the answer) can depend on them.  For a run that already
    happened the same information is on ``result.metadata`` (which is what
    the CLI prints); this pre-flight form is for callers that want the
    answer *before* committing to a workload.
    """
    engine, selection = _make_engine(
        graph,
        protocol,
        backend=backend,
        seed=None,
        inputs=inputs,
        observer=None,
        shards=shards,
    )
    close = getattr(engine, "close", None)
    if close is not None:  # sharded engines own shared-memory segments
        close()
    return selection


def precompile_tables(
    protocol: ExtendedProtocol | Protocol,
    backend: str,
):
    """Build the table(s) one compile step can share across many runs.

    Returns ``(effective_backend, compiled_or_None, table_or_None)`` ready
    to forward to :func:`run_synchronous` — an eager
    :class:`~repro.scheduling.compiled.CompiledProtocol` for protocols that
    enumerate, a (cold) :class:`~repro.scheduling.compiled.
    LazyExtendedTable` for protocols hinting a lazy tabulation (its cells
    then accumulate across the runs, so every run after the first starts
    warm).  When the protocol is not vectorizable at all the backend is
    downgraded to ``"python"`` up front under ``"auto"`` — so a sweep pays
    the doomed tabulation once, not once per run — and the error propagates
    under ``"vectorized"``.  Callers reusing the result across runs assert
    that those runs execute equivalent protocols.
    """
    backend, compiled, table, _ = _precompile_tables_with_reason(protocol, backend)
    return backend, compiled, table


def _precompile_tables_with_reason(
    protocol: ExtendedProtocol | Protocol,
    backend: str,
):
    """:func:`precompile_tables` plus the selection reason as a fourth field.

    The engine labels caller-supplied tables as exactly that; a
    :class:`repro.api.Simulation` session precompiles on the caller's
    behalf, so it threads this reason into ``result.metadata`` instead —
    keeping the no-silent-fallback contract: an ``"auto"`` downgrade at
    precompile time is reported on every run that used the bundle.
    ``None`` means the engine's own reason is already accurate.
    """
    if backend == "python":
        return backend, None, None, None
    from repro.api.backends import Workload, negotiate_backend
    from repro.scheduling.vectorized_engine import (
        LazyExtendedTable,
        compile_protocol,
    )

    hint = getattr(protocol, "tabulation_hint", lambda: "eager")()
    # Strict impossibilities (kernel without numba, kernel over a lazy
    # tabulation) raise here, before any table is built.
    negotiation = negotiate_backend(
        Workload(environment="sync", tabulation=hint), backend
    )
    note = negotiation.rejection_note()
    suffix = f" ({note})" if note else ""
    try:
        if hint == "lazy":
            return backend, None, LazyExtendedTable(protocol), (
                "protocol hints a lazy tabulation; lazy table (session-precompiled)"
                + suffix
            )
        kernels = "; compiled kernels" if negotiation.chosen == "kernel" else ""
        return backend, compile_protocol(protocol), None, (
            "reachable closure enumerated; eager table (session-precompiled)"
            + kernels
            + suffix
        )
    except ProtocolNotVectorizableError as exc:
        if backend != "auto":
            raise
        return "python", None, None, f"auto fell back to the interpreter: {exc}"


def _run_synchronous(
    graph: Graph,
    protocol: ExtendedProtocol | Protocol,
    *,
    seed: int | None = None,
    inputs: Mapping[int, Any] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    observer: RoundObserver | None = None,
    raise_on_timeout: bool = True,
    backend: str = "python",
    compiled=None,
    table=None,
    shards: int | None = None,
) -> ExecutionResult:
    """Build the selected engine and run it (internal primitive).

    This is the execution primitive behind the :class:`repro.api.Simulation`
    facade (and the deprecated :func:`run_synchronous` shim); library code
    calls it directly to avoid the deprecation warning.

    ``backend`` selects the execution strategy — ``"python"`` (the
    interpreted reference engine), ``"vectorized"`` (dense NumPy tables,
    whole-network array rounds; eager or lazy tabulation per the protocol's
    ``tabulation_hint``) or ``"auto"`` (vectorized when the protocol
    compiles, interpreted otherwise).  All backends produce identical
    results for the same seed.  The selection and its reason are recorded in
    ``result.metadata`` under ``"backend"``, ``"backend_mode"`` and
    ``"backend_reason"`` — an ``"auto"`` fallback is reported, not silent.

    ``compiled`` optionally supplies a pre-built
    :class:`~repro.scheduling.vectorized_engine.CompiledProtocol` and
    ``table`` a pre-built (possibly warm)
    :class:`~repro.scheduling.compiled.LazyExtendedTable` so many runs of
    the same protocol skip the compile step (the sweep runners use this);
    both are ignored by the ``"python"`` backend.  The caller must guarantee
    the table was built from an equivalent protocol — the engine only
    cross-checks that the initial states are present.

    ``shards`` splits the run across shard workers (see
    :mod:`repro.scheduling.sharded_engine`) without changing its result; the
    partition statistics are recorded under ``"shard_count"``,
    ``"cut_edges"``, ``"halo_bytes_per_round"`` and ``"partition_strategy"``.
    """
    record_engine_run("sync")
    engine, selection = _make_engine(
        graph,
        protocol,
        backend=backend,
        seed=seed,
        inputs=inputs,
        observer=observer,
        compiled=compiled,
        table=table,
        shards=shards,
    )
    annotation = dict(
        backend=selection.backend,
        backend_mode=selection.mode,
        backend_reason=selection.reason,
    )
    shard_info = getattr(engine, "shard_info", None)
    if shard_info is not None:
        annotation.update(
            shard_count=shard_info["shard_count"],
            cut_edges=shard_info["cut_edges"],
            halo_bytes_per_round=shard_info["halo_bytes_per_round"],
            partition_strategy=shard_info["partition_strategy"],
        )
    try:
        result = engine.run(max_rounds=max_rounds, raise_on_timeout=raise_on_timeout)
    except OutputNotReachedError as exc:
        if exc.result is not None:
            exc.result.metadata.update(annotation)
        raise
    finally:
        close = getattr(engine, "close", None)
        if close is not None:  # sharded engines own workers + segments
            close()
    result.metadata.update(annotation)
    return result


def _deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"{old} is deprecated; use {new} (see docs/API.md for the migration table)",
        DeprecationWarning,
        stacklevel=3,
    )


def run_synchronous(
    graph: Graph,
    protocol: ExtendedProtocol | Protocol,
    *,
    seed: int | None = None,
    inputs: Mapping[int, Any] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    observer: RoundObserver | None = None,
    raise_on_timeout: bool = True,
    backend: str = "python",
    compiled=None,
    table=None,
    shards: int | None = None,
) -> ExecutionResult:
    """Deprecated shim: delegate to :meth:`repro.api.Simulation.run_protocol`.

    Results are identical to earlier releases for every seed; only the entry
    point moved.  Prefer a :class:`repro.api.Simulation` session — it owns
    backend selection and keeps compiled tables warm across runs.
    """
    _deprecated("run_synchronous()", "repro.api.Simulation.simulate()/run_protocol()")
    from repro.api.session import Simulation

    return Simulation().run_protocol(
        graph,
        protocol,
        environment="sync",
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


def repeat_synchronous(
    graph: Graph,
    protocol_factory: Callable[[], ExtendedProtocol | Protocol],
    *,
    repetitions: int,
    base_seed: int = 0,
    inputs: Mapping[int, Any] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    raise_on_timeout: bool = True,
    backend: str = "python",
) -> Sequence[ExecutionResult]:
    """Deprecated shim: delegate to :meth:`repro.api.Simulation.repeat_protocol`.

    Seeds are derived exactly as before (``base_seed + repetition``, now via
    :class:`repro.api.SeedPolicy`) and the compile step is still paid once,
    so the returned results are bitwise-identical to earlier releases.
    """
    _deprecated("repeat_synchronous()", "repro.api.Simulation.repeat()/repeat_protocol()")
    from repro.api.session import Simulation

    return Simulation().repeat_protocol(
        graph,
        protocol_factory,
        repetitions=repetitions,
        base_seed=base_seed,
        inputs=inputs,
        max_rounds=max_rounds,
        raise_on_timeout=raise_on_timeout,
        backend=backend,
    )
