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

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.alphabet import Observation, is_epsilon
from repro.core.budgets import DEFAULT_MAX_ROUNDS
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
        #: Partition fields for the result metadata; set on a shards >= 2 request.
        self.shard_info: dict[str, Any] = {}

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
    :func:`_run_synchronous` in ``ExecutionResult.metadata`` (keys
    ``"backend"``, ``"backend_mode"`` and ``"backend_reason"``) so that an
    ``"auto"`` fallback to the interpreter is never silent.

    Attributes
    ----------
    requested:
        The ``backend`` argument the caller passed.
    backend:
        The engine that actually ran: ``"python"`` or ``"vectorized"``.
    mode:
        How the transition relation is evaluated: ``"interpreted"`` (the
        object-level protocol API), ``"eager"`` (full reachable closure
        packed up front), ``"lazy"`` (states/cells discovered on demand —
        how synchronizer- and multiquery-compiled protocols vectorize) or
        ``"sharded"`` (an eager table stepped by shard workers).
    reason:
        One human-readable sentence explaining the choice.
    """

    requested: str
    backend: str
    mode: str
    reason: str


@dataclass(frozen=True)
class TableBundle:
    """What one compile step found for a synchronous workload.

    A :class:`repro.api.Simulation` session builds one per workload and
    hands it to every run of that workload: ``compiled`` holds an eager
    :class:`~repro.scheduling.vectorized_engine.CompiledProtocol`, ``table``
    a :class:`~repro.scheduling.compiled.LazyExtendedTable` (its cells
    accumulate across the runs), and ``refusal`` says why the vectorized
    tier cannot take the protocol under ``"auto"`` — so a doomed tabulation
    runs once per workload, not once per run.  All three are ``None`` for
    ``backend="python"``.
    """

    compiled: Any = None
    table: Any = None
    refusal: str | None = None


def _check_backend(backend: str) -> None:
    """Raise :class:`ExecutionError` for a token that names no tier."""
    from repro.api.backends import BACKEND_TOKENS

    if backend not in BACKEND_TOKENS:
        raise ExecutionError(f"unknown backend {backend!r}; expected one of {BACKEND_TOKENS}")


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
    bundle: TableBundle | None = None,
    shards: int | None = None,
    initial_states: Sequence[State] | None = None,
    initial_letters: Sequence[Any] | None = None,
):
    """Instantiate the engine selected by *backend*.

    Returns ``(engine, selection)`` where *selection* is the
    :class:`BackendSelection` explaining the choice.  ``"python"`` always
    interprets; ``"vectorized"`` runs the protocol off dense tables (eager
    or lazy, per the protocol's ``tabulation_hint``) and raises
    :class:`ProtocolNotVectorizableError` when it cannot; ``"auto"`` runs
    vectorized when it can and falls back to the interpreter otherwise,
    recording why.  An unknown token raises :class:`ExecutionError`.  All
    paths produce bitwise-identical results for the same seed.

    ``compiled``/``table`` are caller-supplied tables; ``bundle`` is the
    :class:`TableBundle` a session (or the dynamic environment) compiled on
    the caller's behalf, and its ``refusal`` sends an ``"auto"`` run
    straight to the interpreter.

    ``shards`` is a pure performance knob: ``None`` and ``1`` are the same
    run, and ``shards >= 2`` first tries a :class:`~repro.scheduling.
    sharded_engine.ShardedVectorizedEngine`.  Workloads it cannot take
    (lazy tables, empty graphs) run unsharded with the reason recorded.
    The interpreter is serial by construction, so ``backend="python"`` with
    ``shards >= 2`` is an error and ``"auto"`` drops the request when it
    falls back to it.  The engine of a ``shards >= 2`` request carries a
    ``shard_info`` dict for the result metadata (one shard when it runs on
    one process).
    """
    _check_backend(backend)
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ExecutionError(f"shards must be >= 1, got {shards}")
    sharded = shards is not None and shards >= 2
    if sharded and backend == "python":
        raise ExecutionError(
            "shards= requires the vectorized backend; backend='python' "
            "interprets nodes serially and cannot shard"
        )
    origin = None  # None: the engine compiles its own table
    if compiled is not None or table is not None:
        origin = "caller-supplied"
    refusal = None  # why the vectorized tier cannot take the protocol
    if bundle is not None:
        compiled, table, refusal = bundle.compiled, bundle.table, bundle.refusal
    common = dict(
        seed=seed,
        inputs=inputs,
        observer=observer,
        initial_states=initial_states,
        initial_letters=initial_letters,
    )
    engine = None
    unsharded = None  # why a shards >= 2 request runs on one process
    if sharded and refusal is None:
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
                    **common,
                )
            except ShardingUnavailableError as exc:
                unsharded = str(exc)
            except ProtocolNotVectorizableError as exc:
                if backend != "auto":
                    raise
                refusal = str(exc)
            else:
                mode = "sharded"
                info = engine.shard_info
                reason = (
                    f"eager table sharded over {info['shard_count']} workers "
                    f"({info['partition_strategy']} partition, "
                    f"cut={info['cut_edges']})"
                )

    if engine is None and backend != "python" and refusal is None:
        from repro.scheduling.vectorized_engine import VectorizedEngine

        try:
            engine = VectorizedEngine(graph, protocol, compiled=compiled, table=table, **common)
        except ProtocolNotVectorizableError as exc:
            if backend != "auto":
                raise
            refusal = str(exc)
        else:
            mode = engine.tabulation_mode
            if origin is None:
                origin = (
                    "protocol hints a lazy tabulation"
                    if mode == "lazy"
                    else "reachable closure enumerated"
                )
            reason = f"{origin}; {mode} table"
            if bundle is not None:
                reason += " (session-precompiled)"
    if engine is None:
        engine = SynchronousEngine(graph, protocol, **common)
        mode = "interpreted"
        if backend == "python":
            reason = "backend='python' requested"
        else:
            dropped = f" (shards={shards} dropped)" if sharded else ""
            reason = f"auto fell back to the interpreter{dropped}: {refusal}"
    if unsharded is not None:
        reason = f"shards={shards} requested but {unsharded}; ran unsharded ({reason})"
    if sharded and mode != "sharded":
        engine.shard_info = dict(
            shard_count=1, cut_edges=0, halo_bytes_per_round=0, partition_strategy="none"
        )
    tier = "python" if mode == "interpreted" else "vectorized"
    return engine, BackendSelection(backend, tier, mode, reason)


def select_backend(
    graph: Graph,
    protocol: ExtendedProtocol | Protocol,
    backend: str = "auto",
    *,
    inputs: Mapping[int, Any] | None = None,
    shards: int | None = None,
) -> BackendSelection:
    """Explain — without running anything — how *backend* would resolve.

    Builds the same engine :func:`_run_synchronous` would build (compile
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
    to forward to :func:`_run_synchronous` — an eager
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
    bundle = build_table_bundle(protocol, backend)
    effective = "python" if bundle.refusal is not None else backend
    return effective, bundle.compiled, bundle.table


def build_table_bundle(
    protocol: ExtendedProtocol | Protocol,
    backend: str,
) -> TableBundle:
    """Compile *protocol* once for every run of one workload.

    An eager closure for protocols that enumerate, a cold lazy table for
    protocols hinting a lazy tabulation, nothing for ``backend="python"``.
    A protocol the vectorized tier cannot take raises under
    ``"vectorized"`` and is recorded as the bundle's ``refusal`` under
    ``"auto"``.
    """
    _check_backend(backend)
    if backend == "python":
        return TableBundle()
    from repro.scheduling.vectorized_engine import (
        LazyExtendedTable,
        compile_protocol,
    )

    try:
        if getattr(protocol, "tabulation_hint", lambda: "eager")() == "lazy":
            return TableBundle(table=LazyExtendedTable(protocol))
        return TableBundle(compiled=compile_protocol(protocol))
    except ProtocolNotVectorizableError as exc:
        if backend != "auto":
            raise
        return TableBundle(refusal=str(exc))


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
    bundle: TableBundle | None = None,
    shards: int | None = None,
) -> ExecutionResult:
    """Build the selected engine and run it (internal primitive).

    This is the execution primitive behind the :class:`repro.api.Simulation`
    facade: :meth:`~repro.api.Simulation.run_protocol` and every spec-driven
    run reach the synchronous engines through it.

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
    cross-checks that the initial states are present.  ``bundle`` is the
    same for tables a session compiled (see :func:`build_table_bundle`).

    ``shards`` splits the run across shard workers (see
    :mod:`repro.scheduling.sharded_engine`) without changing its result; the
    partition statistics are recorded under ``"shard_count"``,
    ``"cut_edges"``, ``"halo_bytes_per_round"`` and ``"partition_strategy"``.
    """
    engine, selection = _make_engine(
        graph,
        protocol,
        backend=backend,
        seed=seed,
        inputs=inputs,
        observer=observer,
        compiled=compiled,
        table=table,
        bundle=bundle,
        shards=shards,
    )
    record_engine_run("sync")
    annotation = dict(
        backend=selection.backend,
        backend_mode=selection.mode,
        backend_reason=selection.reason,
    )
    annotation.update(engine.shard_info)
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
