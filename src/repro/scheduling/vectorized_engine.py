"""Vectorized batch execution of synchronous nFSM protocols.

The interpreted engine of :mod:`repro.scheduling.sync_engine` evaluates the
transition relation one node at a time through the object-level protocol
API.  That is faithful and flexible, but it caps the scaling experiments
(Theorems 4.5 and 5.4) at modest network sizes: a round costs one
``Observation`` construction plus a handful of dictionary lookups per node.

This module trades a small compile step for large per-round wins.  A
finite-state protocol is first *tabulated* (:func:`repro.core.interning.
tabulate_protocol`): every reachable state, letter and transition option is
interned to a dense integer id.  The tabulation is then packed into NumPy
arrays and a whole round becomes a short sequence of array operations over
the CSR adjacency of the graph:

1. **Port census** — every node's saturated letter counts are obtained with
   one ``np.bincount`` over the directed edges (the synchronous engine only
   ever broadcasts, so the port ``ψ_v(u)`` always holds the last letter
   ``u`` transmitted — one value per *sender* suffices);
2. **Observation indexing** — the counts are folded into a per-node
   observation id with a per-state stride matrix (states only pay for the
   letters they actually query, see ``queried_letters``);
3. **Option selection** — nodes whose option set has a single element take
   it; the remaining nodes draw uniformly from the counter pick stream of
   :mod:`repro.scheduling.picks` — a pure hash of ``(seed, round, node
   id)`` that the interpreted engine draws one node at a time, so the two
   engines are *bitwise identical* for the same seed, and that shard
   workers draw slice by slice (:mod:`repro.scheduling.sharded_engine`);
4. **Delivery** — emitting nodes overwrite their last-letter slot and the
   message counter advances; output configurations are detected with a
   boolean mask over the state vector.

The compile step comes in two flavours, selected by the protocol's
:meth:`~repro.core.protocol._ProtocolBase.tabulation_hint`:

* **eager** (the default) — the full reachable closure is tabulated up front
  (:class:`~repro.scheduling.compiled.CompiledProtocol`).  Right for the
  paper's hand-written protocols, whose closures are tiny and fully visited.
* **lazy** — states and observation cells are discovered on demand through a
  :class:`~repro.scheduling.compiled.LazyExtendedTable`.  Right for
  synchronizer- and multiquery-compiled protocols, whose reachable closures
  (:math:`10^5`–:math:`10^6` states) dwarf the few thousand states one
  execution actually visits; eager tabulation would overflow the enumeration
  limits and previously forced ``backend="auto"`` back onto the interpreter.
  The hot path is identical (a short sequence of array ops per round); the
  python evaluation loop runs only for cells never seen before, which stops
  happening once the execution has warmed the table up.

Protocols whose state set cannot be enumerated within the configured limits
raise :class:`~repro.core.errors.ProtocolNotVectorizableError`; the
``backend="auto"`` selection in :func:`repro.scheduling.sync_engine.
run_synchronous` catches it and falls back to the interpreted engine
(reporting the reason through ``ExecutionResult.metadata``).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

try:  # NumPy is an optional dependency of the library as a whole.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None

from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
)
from repro.core.protocol import ExtendedProtocol, Protocol, State
from repro.core.results import ExecutionResult, build_synchronous_result
from repro.graphs.graph import Graph

# The table machinery lives in the shared compiled-execution core; the
# re-exports keep the historical import path working.
from repro.scheduling.compiled import (  # noqa: F401
    CompiledProtocol,
    LazyExtendedTable,
    _require_numpy,
    compile_protocol,
)
from repro.scheduling.picks import counter_picks, resolve_pick_seed

DEFAULT_MAX_ROUNDS = 100_000


class VectorizedEngine:
    """Executes a compiled protocol in whole-network array rounds.

    The constructor signature mirrors :class:`~repro.scheduling.sync_engine.
    SynchronousEngine`; construction performs the compile step unless a
    pre-built table is supplied — :class:`CompiledProtocol` via ``compiled``
    (eager) or :class:`~repro.scheduling.compiled.LazyExtendedTable` via
    ``table`` (lazy, shareable across runs for warm starts).  With neither
    supplied the engine consults ``protocol.tabulation_hint()``: protocols
    hinting ``"lazy"`` (the compiler outputs) get an incremental table, all
    others the eager closure.
    """

    def __init__(
        self,
        graph: Graph,
        protocol: ExtendedProtocol | Protocol,
        *,
        seed: int | None = None,
        inputs: Mapping[int, Any] | None = None,
        observer=None,
        compiled: CompiledProtocol | None = None,
        table: LazyExtendedTable | None = None,
        rng_node_keys=None,
        initial_states=None,
        initial_letters=None,
    ) -> None:
        _require_numpy()
        if not isinstance(protocol, (ExtendedProtocol, Protocol)):
            raise ExecutionError(
                f"cannot execute object of type {type(protocol).__name__}"
            )
        if compiled is not None and table is not None:
            raise ExecutionError(
                "pass either compiled= (eager table) or table= (lazy table), "
                "not both"
            )
        self._graph = graph
        self._protocol = protocol
        self._seed = seed
        self._observer = observer
        self._pick_seed = resolve_pick_seed(seed)
        # The per-node keys of the pick stream: original node ids by
        # default; a permuted run passes the inverse permutation so each
        # node keeps drawing under its original identity.
        if rng_node_keys is None:
            self._node_keys = np.arange(graph.num_nodes, dtype=np.uint64)
        else:
            self._node_keys = np.ascontiguousarray(rng_node_keys, dtype=np.uint64)
            if self._node_keys.shape != (graph.num_nodes,):
                raise ExecutionError(
                    "rng_node_keys must hold one key per node "
                    f"(expected {graph.num_nodes}, got {self._node_keys.shape})"
                )
        #: Partition fields for the result metadata; set on a shards >= 2 request.
        self.shard_info: dict[str, Any] = {}

        inputs = dict(inputs or {})
        if initial_states is None:
            initial_states = [
                protocol.initial_state(inputs.get(node)) for node in graph.nodes
            ]
        else:
            initial_states = list(initial_states)
            if len(initial_states) != graph.num_nodes:
                raise ExecutionError(
                    "initial_states must hold one state per node "
                    f"(expected {graph.num_nodes}, got {len(initial_states)})"
                )
        if initial_letters is not None and len(initial_letters) != graph.num_nodes:
            raise ExecutionError(
                "initial_letters must hold one letter per node "
                f"(expected {graph.num_nodes}, got {len(initial_letters)})"
            )
        if compiled is None and table is None:
            if getattr(protocol, "tabulation_hint", lambda: "eager")() == "lazy":
                table = LazyExtendedTable(protocol)
            else:
                # Fall back to the declared input states on empty graphs so
                # the compile step still has roots to close over.
                roots = dict.fromkeys(initial_states) or None
                compiled = compile_protocol(protocol, roots=roots)
        self._compiled = compiled
        self._table = table

        if table is not None:
            state_vector = [table.state_id(state) for state in initial_states]
            initial_letter_id = table.initial_letter_id
        else:
            try:
                state_vector = [compiled.state_id(state) for state in initial_states]
            except KeyError as exc:
                raise ProtocolNotVectorizableError(
                    f"initial state {exc.args[0]!r} is missing from the compiled "
                    "table; compile with roots covering all initial states"
                ) from None
            initial_letter_id = compiled.initial_letter_id
        self._state = np.asarray(state_vector, dtype=np.int64)
        # One slot per *sender*: the synchronous engine only broadcasts, so
        # every port of a node's neighbours holds the same letter — the last
        # one the node transmitted (initially σ0, or the carried letter of a
        # warm start).
        if initial_letters is None:
            self._last_letter = np.full(
                graph.num_nodes, initial_letter_id, dtype=np.int64
            )
        else:
            encode = table.letter_id if table is not None else compiled.letter_id
            try:
                letter_vector = [encode(letter) for letter in initial_letters]
            except KeyError as exc:
                raise ProtocolNotVectorizableError(
                    f"carried letter {exc.args[0]!r} is missing from the "
                    "compiled table"
                ) from None
            self._last_letter = np.asarray(letter_vector, dtype=np.int64)
        indptr, indices = graph.csr_adjacency()
        self._edge_dst = np.asarray(indices, dtype=np.int64)
        degrees = np.diff(np.asarray(indptr, dtype=np.int64))
        self._edge_src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), degrees)
        self._bounding = protocol.bounding.value
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
    def compiled(self) -> CompiledProtocol | None:
        """The eager table, or ``None`` when running off a lazy table."""
        return self._compiled

    @property
    def table(self) -> LazyExtendedTable | None:
        """The lazy table, or ``None`` when running off an eager one."""
        return self._table

    @property
    def tabulation_mode(self) -> str:
        """``"eager"`` or ``"lazy"`` — which table flavour drives this run."""
        return "lazy" if self._table is not None else "eager"

    @property
    def round_index(self) -> int:
        """Number of rounds executed so far."""
        return self._round

    @property
    def states(self) -> tuple[State, ...]:
        """Current per-node states, decoded back to protocol state objects."""
        return self._decode_states()

    @property
    def last_letters(self) -> tuple:
        """Per-node last-transmitted letters, decoded to protocol letters.

        Together with :attr:`states` this is the complete warm-start
        configuration of a synchronous execution (the engine only
        broadcasts, so one letter per sender describes every port).
        """
        if self._table is not None:
            decode = self._table.letter_value
        else:
            decode = self._compiled.letter_value
        return tuple(decode(int(i)) for i in self._last_letter)

    def in_output_configuration(self) -> bool:
        """Whether every node currently resides in an output state."""
        if self._table is not None:
            _, _, output_mask, *_ = self._table.arrays()
            return bool(output_mask[self._state].all())
        return bool(self._compiled.output_mask[self._state].all())

    def _decode_states(self) -> tuple[State, ...]:
        if self._table is not None:
            decode = self._table.state_value
            return tuple(decode(int(i)) for i in self._state)
        table = self._compiled.states
        return tuple(table[i] for i in self._state)

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def _draw_picks(self, option_count) -> "np.ndarray":
        """Per-node option indices; multi-option nodes draw uniform randoms."""
        return counter_picks(self._pick_seed, self._round, self._node_keys, option_count)

    def step_round(self) -> None:
        """Execute one fully synchronous round for all nodes as array ops."""
        if self._table is not None:
            self._step_round_lazy()
        else:
            self._step_round_eager()
        self._round += 1
        if self._observer is not None:
            self._observer(self._round, self._decode_states())

    def _step_round_eager(self) -> None:
        compiled = self._compiled
        n = self._graph.num_nodes
        num_letters = compiled.num_letters

        # 1. Port census: counts[v, σ] = |{u ∈ N(v) : last_letter(u) = σ}|.
        keys = self._edge_src * num_letters + self._last_letter[self._edge_dst]
        counts = np.bincount(keys, minlength=n * num_letters).reshape(n, num_letters)
        saturated = np.minimum(counts, compiled.tabulation.bounding)

        # 2. Observation ids via the per-state stride matrix.
        obs_id = (saturated * compiled.strides[self._state]).sum(axis=1)
        cell = compiled.state_base[self._state] + obs_id
        option_count = compiled.cell_count[cell]
        option_offset = compiled.cell_offset[cell]

        # 3. Uniform draws for nodes with more than one option.
        pick = self._draw_picks(option_count)

        # 4. Apply transitions and deliver emissions (round-t messages become
        #    visible in round t+1: the census above used the old letters).
        selected = option_offset + pick
        self._state = compiled.option_next[selected]
        emitted = compiled.option_emit[selected]
        transmitting = emitted >= 0
        self._messages += int(transmitting.sum())
        self._last_letter = np.where(transmitting, emitted, self._last_letter)

    def _step_round_lazy(self) -> None:
        table = self._table
        n = self._graph.num_nodes
        alphabet_size = table.alphabet_size

        # 1. Port census over the *observable* letters.  A lazily defined
        #    protocol may transmit letters outside its declared alphabet;
        #    they sit in ports but are invisible to observations (mirroring
        #    Observation.from_port_contents), so those edges are masked out.
        letters = self._last_letter[self._edge_dst]
        observable = letters < alphabet_size
        keys = self._edge_src[observable] * alphabet_size + letters[observable]
        counts = np.bincount(keys, minlength=n * alphabet_size)
        saturated = np.minimum(counts.reshape(n, alphabet_size), self._bounding)

        # 2. Observation ids via the per-state stride matrix, then evaluate
        #    every (state, observation) cell not seen before.  A warm table
        #    skips straight through; re-fetch the views afterwards because
        #    growth may have moved the pools.
        strides, state_base, *_ = table.arrays()
        obs_id = (saturated * strides[self._state]).sum(axis=1)
        table.ensure_cells(self._state, obs_id)
        _, state_base, _, cell_offset, cell_count, option_next, option_emit = (
            table.arrays()
        )
        cell = state_base[self._state] + obs_id
        option_count = cell_count[cell]
        option_offset = cell_offset[cell]

        # 3. Uniform draws for nodes with more than one option.
        pick = self._draw_picks(option_count)

        # 4. Apply transitions and deliver emissions.
        selected = option_offset + pick
        self._state = option_next[selected]
        emitted = option_emit[selected]
        transmitting = emitted >= 0
        self._messages += int(transmitting.sum())
        self._last_letter = np.where(transmitting, emitted, self._last_letter)

    def run(
        self,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        *,
        raise_on_timeout: bool = False,
    ) -> ExecutionResult:
        """Run until an output configuration is reached (or *max_rounds*)."""
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
            self._decode_states(),
            reached=reached,
            rounds=self._round,
            # Every node takes one step per round in the synchronous setting.
            total_node_steps=self._graph.num_nodes * self._round,
            total_messages=self._messages,
            seed=self._seed,
        )


def run_vectorized(
    graph: Graph,
    protocol: ExtendedProtocol | Protocol,
    *,
    seed: int | None = None,
    inputs: Mapping[int, Any] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    observer=None,
    raise_on_timeout: bool = True,
    compiled: CompiledProtocol | None = None,
    table: LazyExtendedTable | None = None,
) -> ExecutionResult:
    """Convenience wrapper: compile, build a :class:`VectorizedEngine`, run it.

    Pass a pre-built ``compiled`` (eager) or ``table`` (lazy) table to
    amortise the compile step over many runs of the same protocol — the
    sweep runners do this, and shared lazy tables additionally start every
    later run fully warm.
    """
    engine = VectorizedEngine(
        graph,
        protocol,
        seed=seed,
        inputs=inputs,
        observer=observer,
        compiled=compiled,
        table=table,
    )
    return engine.run(max_rounds=max_rounds, raise_on_timeout=raise_on_timeout)
