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
the CSR rows of the graph's *live* nodes:

1. **Port census** — every live node's letter counts are obtained with one
   ``np.bincount`` over its out-edges, keyed ``row * |Σ| + letter`` (the
   synchronous engine only ever broadcasts, so the port ``ψ_v(u)`` always
   holds the last letter ``u`` transmitted — one value per *sender*
   suffices), and saturated at the bounding parameter in place;
2. **Observation indexing** — each row of saturated counts is folded into
   an observation id by one ``np.einsum`` against its state's row of the
   stride matrix, in exact int64 (states only pay for the letters they
   actually query, see ``queried_letters``), so a round holds two
   live × |Σ| matrices: the counts and the gathered stride rows;
3. **Option selection** — nodes whose option set has a single element take
   it; the remaining nodes draw uniformly from the counter pick stream of
   :mod:`repro.scheduling.picks` — a pure hash of ``(seed, round, node
   id)`` that the interpreted engine draws one node at a time, so the two
   engines are *bitwise identical* for the same seed, and that shard
   workers draw slice by slice (:mod:`repro.scheduling.sharded_engine`);
4. **Delivery** — emitting nodes overwrite their last-letter slot and the
   message counter advances; output configurations are detected with a
   boolean mask over the state vector.

A node is live until it settles in a *sink*: a state whose every
observation cell holds exactly one option, which keeps the state and emits
nothing (``CompiledProtocol.sink_mask``; MIS's ``WIN``/``LOSE``, the
colouring's ``COLORED`` states).  Once there, the node's state and letter
never change again, so stepping it is wasted work, except once: a node that
began a round in a sink is stepped that round, which copies its last
letter into the other half of the ping-pong letter buffer, and is retired
before the next round's census.  Both halves then hold its letter for good.
A sink step draws no pick and changes nothing, so retiring it changes no
result; ``total_node_steps`` still counts every node in every round.  Lazy
tables report no sinks and step every node.

The four steps are one function of a contiguous node range,
:func:`step_rows`, which keeps the range's live rows in its
:class:`RowRange`.  The engine calls it over ``[0, n)``; each shard worker of
:class:`~repro.scheduling.sharded_engine.ShardedVectorizedEngine` calls the
same function over its own range, so a sharded round is this round by
construction.

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
_run_synchronous` catches it and falls back to the interpreted engine
(reporting the reason through ``ExecutionResult.metadata``).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.core.budgets import DEFAULT_MAX_ROUNDS
from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
)
from repro.core.protocol import ExtendedProtocol, Protocol, State
from repro.core.results import ExecutionResult, build_synchronous_result, decode_states
from repro.graphs.graph import Graph

# The table machinery lives in the shared compiled-execution core; the
# re-exports keep the historical import path working.
from repro.scheduling.compiled import (  # noqa: F401
    CompiledProtocol,
    LazyExtendedTable,
    compile_protocol,
)
from repro.scheduling.picks import counter_picks, resolve_pick_seed

#: The table arrays a round reads, in the order of ``LazyExtendedTable.arrays()``.
TABLE_FIELDS = (
    "strides",
    "state_base",
    "output_mask",
    "cell_offset",
    "cell_count",
    "option_next",
    "option_emit",
    "sink_mask",
)


class RowRange:
    """The live CSR rows of ``lo:hi`` as :func:`step_rows` reads them.

    ``live`` indexes the rows still stepped: the slice ``lo:hi`` until a row
    retires (so a range that never retires one, as under a lazy table, reads
    and writes views as before), then an array of row ids.  ``edge_src``
    holds the live-local row of every out-edge of a live row and
    ``edge_dst`` its global neighbour; ``node_keys`` are the pick-stream
    keys of the live rows.  ``width`` is the number of letters the census
    counts and ``key_base`` each out-edge's census key before its letter,
    ``edge_src * width``, rebuilt only when rows retire.  ``settled`` marks
    the live rows whose state was a sink when the last round began.
    """

    def __init__(self, indptr, indices, lo: int, hi: int, node_keys, width: int) -> None:
        self.live = slice(lo, hi)
        self.width = width
        self.edge_dst = np.asarray(indices[int(indptr[lo]) : int(indptr[hi])], dtype=np.int64)
        degrees = np.diff(np.asarray(indptr[lo : hi + 1], dtype=np.int64))
        self.edge_src = np.repeat(np.arange(hi - lo, dtype=np.int64), degrees)
        self.key_base = self.edge_src * width
        self.node_keys = node_keys[lo:hi]
        self.settled = None

    def __len__(self) -> int:
        return len(self.node_keys)

    def retire_settled(self) -> None:
        """Stop stepping the ``settled`` rows: drop them and their out-edges."""
        settled, self.settled = self.settled, None
        if settled is None or not settled.any():
            return
        keep = ~settled
        on_kept = keep[self.edge_src]
        self.edge_src = (np.cumsum(keep) - 1)[self.edge_src[on_kept]]
        self.key_base = self.edge_src * self.width
        self.edge_dst = self.edge_dst[on_kept]
        if isinstance(self.live, slice):
            self.live = np.arange(self.live.start, self.live.stop, dtype=np.int64)
        self.live = self.live[keep]
        self.node_keys = self.node_keys[keep]


def step_rows(rows, round_index, state, letters, arrays, pick_seed, bounding, table=None):
    """One synchronous round of the live rows of *rows*.

    Reads every port from ``letters[round_index % 2]`` (the letters last
    transmitted, by any node) and writes the live rows of ``state`` and of
    ``letters[(round_index + 1) % 2]``, so ranges never write what another
    range reads in the same round.  ``arrays`` are the table arrays in
    :data:`TABLE_FIELDS` order.  A lazy ``table`` is passed too: it
    evaluates the cells the round reaches first.  Returns the number of
    transmitting nodes.

    A row whose state was a sink when a round began is stepped that round
    and retired before the next one's census.  That last step changes no
    state and emits nothing, so it copies the row's letter into the write
    buffer: both halves of ``letters`` then hold it for good, as ``state``
    holds the sink.
    """
    rows.retire_settled()
    live, width = rows.live, rows.width
    read, write = letters[round_index % 2], letters[(round_index + 1) % 2]

    # 1. Port census: counts[v, σ] = min(b, |{u ∈ N(v) : last_letter(u) = σ}|).
    #    The gathered letters are a fresh array, so the keys are built in it.
    incoming = read[rows.edge_dst]
    if table is None:
        incoming += rows.key_base
        keys = incoming
    else:
        # A lazily defined protocol may transmit letters outside its
        # declared alphabet; they sit in ports but are invisible to
        # observations (mirroring Observation.from_port_contents), so those
        # edges are masked out.
        observable = incoming < width
        keys = rows.key_base[observable] + incoming[observable]
    counts = np.bincount(keys, minlength=len(rows) * width).reshape(len(rows), width)
    np.minimum(counts, bounding, out=counts)

    # 2. Observation ids: each row of counts dotted with its state's stride
    #    row.  A lazy table then evaluates every (state, observation) cell
    #    not seen before; a warm table skips straight through.  Re-fetch the
    #    views afterwards because growth may have moved the pools.
    local = state[live]
    obs_id = np.einsum("ij,ij->i", counts, np.take(arrays[0], local, axis=0))
    if table is not None:
        table.ensure_cells(local, obs_id)
        arrays = table.arrays()
    _, state_base, _, cell_offset, cell_count, option_next, option_emit, sink_mask = arrays
    cell = state_base[local] + obs_id

    # 3. Uniform draws for nodes with more than one option.
    pick = counter_picks(pick_seed, round_index, rows.node_keys, cell_count[cell])

    # 4. Apply transitions and deliver emissions (round-t messages become
    #    visible in round t+1: the census above read the old buffer).  The
    #    sink check reads the states this round began in, so it comes before
    #    the state write: while ``live`` is a slice, ``local`` is a view.
    rows.settled = sink_mask[local]
    selected = cell_offset[cell] + pick
    emitted = option_emit[selected]
    transmitting = emitted >= 0
    write[live] = np.where(transmitting, emitted, read[live])
    state[live] = option_next[selected]
    return int(transmitting.sum())


def _input_node(key, num_nodes: int) -> int | None:
    """The node whose ``inputs.get(node)`` finds *key*, or ``None`` off the graph."""
    try:
        node = int(key)
    except (TypeError, ValueError, OverflowError):
        return None
    return node if node == key and 0 <= node < num_nodes else None


def _initial_states(protocol, inputs: dict, num_nodes: int):
    """The distinct initial states and each node's index into them.

    ``protocol.initial_state`` runs once for all the nodes without an input
    and once for each node with one.  The distinct states come in the order
    of the first node holding each: the order of the compile step's roots.
    """
    placed = {}
    for key, value in inputs.items():
        node = _input_node(key, num_nodes)
        if node is not None and value is not None:
            placed[node] = protocol.initial_state(value)
    default = None
    if len(placed) < num_nodes:
        first = next(node for node in range(num_nodes) if node not in placed)
        default = protocol.initial_state(None)
        placed[first] = default
    nodes = sorted(placed)
    index: dict = {}
    for node in nodes:
        index.setdefault(placed[node], len(index))
    spread = np.full(num_nodes, index.get(default, 0), dtype=np.intp)
    spread[nodes] = [index[placed[node]] for node in nodes]
    return list(index), spread


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

        if initial_states is None:
            distinct, spread = _initial_states(protocol, dict(inputs or {}), graph.num_nodes)
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
                roots = dict.fromkeys(distinct if initial_states is None else initial_states)
                compiled = compile_protocol(protocol, roots=roots or None)
        self._compiled = compiled
        self._table = table
        self._codec = codec = table if table is not None else compiled
        self._bounding = protocol.bounding.value
        if table is not None:
            self._eager_arrays = None
            self._width = table.alphabet_size
        else:
            self._eager_arrays = tuple(getattr(compiled, name) for name in TABLE_FIELDS)
            self._width = compiled.num_letters

        try:
            if initial_states is None:
                ids = [codec.state_id(state) for state in distinct]
                state_vector = np.asarray(ids, dtype=np.int64)[spread]
            else:
                state_vector = np.fromiter(
                    map(codec.state_id, initial_states), np.int64, count=graph.num_nodes
                )
        except KeyError as exc:
            raise ProtocolNotVectorizableError(
                f"initial state {exc.args[0]!r} is missing from the compiled "
                "table; compile with roots covering all initial states"
            ) from None
        # One slot per *sender*: the synchronous engine only broadcasts, so
        # every port of a node's neighbours holds the same letter — the last
        # one the node transmitted (initially σ0, or the carried letter of a
        # warm start).
        if initial_letters is None:
            letter_vector = np.full(graph.num_nodes, codec.initial_letter_id, dtype=np.int64)
        else:
            try:
                letter_vector = np.fromiter(
                    map(codec.letter_id, initial_letters), np.int64, count=graph.num_nodes
                )
            except KeyError as exc:
                raise ProtocolNotVectorizableError(
                    f"carried letter {exc.args[0]!r} is missing from the "
                    "compiled table"
                ) from None
        self._round = 0
        self._allocate(state_vector, letter_vector)

    def _allocate(self, state, letters) -> None:
        """Hold the run's buffers in process; rounds step the rows ``[0, n)``.

        ``letters`` is the ``(2, n)`` ping-pong buffer of :func:`step_rows`;
        both halves start from the initial letters.
        """
        indptr, indices = self._graph.csr_adjacency()
        self._rows = RowRange(
            indptr, indices, 0, self._graph.num_nodes, self._node_keys, self._width
        )
        self._buffers = {
            "state": state,
            "letters": np.stack([letters, letters]),
            "messages": np.zeros(1, dtype=np.int64),
        }

    def _ordered(self, values):
        """Per-node *values* in original node order (in process they are)."""
        return values

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
        # After r rounds the ping-pong buffer r % 2 holds the letters the
        # next round would read — the last ones transmitted.
        current = self._ordered(self._buffers["letters"][self._round % 2])
        return tuple(map(self._codec.letters.__getitem__, current.tolist()))

    def _arrays(self) -> tuple:
        return self._table.arrays() if self._table is not None else self._eager_arrays

    def in_output_configuration(self) -> bool:
        """Whether every node currently resides in an output state."""
        output_mask = self._arrays()[2]
        return bool(output_mask[self._buffers["state"]].all())

    def _decode_states(self) -> tuple[State, ...]:
        return decode_states(self._codec, self._ordered(self._buffers["state"]))

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def step_round(self) -> None:
        """Execute one fully synchronous round for all nodes as array ops."""
        self._advance()
        self._round += 1
        if self._observer is not None:
            self._observer(self._round, self._decode_states())

    def _advance(self) -> None:
        buffers = self._buffers
        buffers["messages"][0] += step_rows(
            self._rows,
            self._round,
            buffers["state"],
            buffers["letters"],
            self._arrays(),
            self._pick_seed,
            self._bounding,
            self._table,
        )

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
            self._ordered(self._buffers["state"]),
            state_table=self._codec,
            reached=reached,
            rounds=self._round,
            # Every node takes one step per round in the synchronous setting.
            total_node_steps=self._graph.num_nodes * self._round,
            total_messages=int(self._buffers["messages"].sum()),
            seed=self._seed,
        )
