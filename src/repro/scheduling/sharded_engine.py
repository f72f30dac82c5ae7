"""Intra-run sharded execution of the vectorized synchronous engine.

Every earlier speedup (pooled sweeps, warm tables, the result store)
parallelizes *across* runs; a single run was still capped at one core.
This module splits one huge graph across ``shards=N`` long-lived worker
processes so the paper's headline regime — stone-age protocols on
sensor/biological-scale networks, :math:`n \\ge 10^6` — fits in one run.

Memory layout (two POSIX shared-memory segments, zero-copy)::

    static segment (read-only after construction)
      indptr / indices   permuted CSR adjacency
      strides, state_base, cell_offset, cell_count,
      option_next, option_emit, output_mask
                         the dense CompiledProtocol tables
      node_keys          original node id of each permuted node (pick keys)

    dynamic segment (slice-owned per worker)
      state              per-node state ids, permuted order
      letters[2]         ping-pong last-letter buffers (the halo medium)
      messages           per-shard cumulative transmission counters
      control            parent -> worker command word (RUN / STOP)

Before slicing, a locality pass (:func:`repro.graphs.partition.
partition_graph`) relabels nodes in BFS order so that shard ranges are
contiguous neighbourhoods and few edges cross a boundary.  The permutation
is applied on the way in and inverted on the way out: results are always
reported in original node ids.

Halo-exchange round protocol.  Worker ``s`` owns the contiguous permuted
range ``bounds[s]:bounds[s+1]``: it is the only writer of that slice of
``state`` and of the round's write letter buffer.  Reads, however, may
touch any node — the port census follows CSR edges wherever they point —
which is exactly the halo exchange: the letters of boundary-crossing edges
are read straight out of the neighbouring shard's slice of the *previous*
round's buffer.  The two letter buffers alternate roles every round
(round ``r`` reads buffer ``r % 2``, writes buffer ``(r+1) % 2``), so
readers and writers never touch the same buffer and no per-edge copying is
needed; per round, ``2 · cut_edges`` remote letter reads (8 bytes each)
cross shard boundaries.  Each round is fenced by two barriers of the
:class:`~repro.scheduling.shard_pool.ShardPool`, which owns the partition,
the segments and the worker lifecycle::

    parent: start barrier ──▶ done barrier ──▶ aggregate
    worker: start barrier ──▶ compute slice ──▶ done barrier

Determinism contract.  Sharded execution is **bitwise identical** to the
unsharded engines — the vectorized engine and the interpreter alike — for
every shard count.  Two ingredients make that true: the per-node
census/transition math is pure integer array arithmetic (slicing it by rows
changes nothing), and the pick stream is *partitioned per node, not per
worker draw order* — each pick is a pure hash of ``(seed, round, original
node id)`` (:func:`repro.scheduling.picks.counter_picks`), so neither the
BFS relabelling nor the worker count can shift anyone's draws.  The parent
resolves an unseeded run's pick seed once and hands it to every worker.
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
    ShardingUnavailableError,
)
from repro.core.protocol import ExtendedProtocol, Protocol
from repro.core.results import ExecutionResult, build_synchronous_result
from repro.graphs.graph import Graph
from repro.scheduling.compiled import CompiledProtocol, compile_protocol
from repro.scheduling.picks import counter_picks, resolve_pick_seed
from repro.scheduling.shard_pool import DEFAULT_BARRIER_TIMEOUT, STOP, ShardPool
from repro.scheduling.vectorized_engine import DEFAULT_MAX_ROUNDS, _require_numpy

#: Control word written once at construction; the pool writes STOP at close.
_RUN = 1

#: Fence numbers of a round.
_START, _DONE = 0, 1


# --------------------------------------------------------------------- #
# Worker process                                                         #
# --------------------------------------------------------------------- #
def _round_loop(worker_id, lo, hi, tables, dyn, fences, pick_seed, bounding, num_letters) -> None:
    """The round loop over permuted nodes ``lo:hi``."""
    start_fence, done_fence = fences
    indptr = tables["indptr"]
    strides = tables["strides"]
    state_base = tables["state_base"]
    cell_offset = tables["cell_offset"]
    cell_count = tables["cell_count"]
    option_next = tables["option_next"]
    option_emit = tables["option_emit"]
    node_keys = tables["node_keys"][lo:hi]
    state = dyn["state"]
    letters = dyn["letters"]
    messages = dyn["messages"]
    control = dyn["control"]

    span = hi - lo
    edge_lo, edge_hi = int(indptr[lo]), int(indptr[hi])
    edge_dst = tables["indices"][edge_lo:edge_hi]
    degrees = indptr[lo + 1 : hi + 1] - indptr[lo:hi]
    edge_src = np.repeat(np.arange(span, dtype=np.int64), degrees)

    round_index = 0
    while True:
        start_fence.wait()
        if control[0] == STOP:
            return

        read = letters[round_index % 2]
        write = letters[(round_index + 1) % 2]
        # Identical op sequence to VectorizedEngine._step_round_eager,
        # restricted to rows lo:hi — the determinism contract.
        keys = edge_src * num_letters + read[edge_dst]
        counts = np.bincount(keys, minlength=span * num_letters)
        saturated = np.minimum(counts.reshape(span, num_letters), bounding)
        local_state = state[lo:hi]
        obs_id = (saturated * strides[local_state]).sum(axis=1)
        cell = state_base[local_state] + obs_id
        option_count = cell_count[cell]
        pick = counter_picks(pick_seed, round_index, node_keys, option_count)
        selected = cell_offset[cell] + pick
        new_state = option_next[selected]
        emitted = option_emit[selected]
        transmitting = emitted >= 0
        write[lo:hi] = np.where(transmitting, emitted, read[lo:hi])
        state[lo:hi] = new_state
        messages[worker_id] += int(transmitting.sum())
        round_index += 1

        done_fence.wait()


# --------------------------------------------------------------------- #
# Parent-side engine                                                     #
# --------------------------------------------------------------------- #
class ShardedVectorizedEngine:
    """Executes a compiled protocol across shared-memory shard workers.

    Mirrors :class:`~repro.scheduling.vectorized_engine.VectorizedEngine`
    (``step_round`` / ``run`` / ``in_output_configuration``), with the round
    body fanned out to ``shards`` processes.  Only eager tables shard — a
    lazy table grows under a parent-side lock and would serialize every
    round — so protocols hinting ``"lazy"`` raise
    :class:`~repro.core.errors.ShardingUnavailableError` (callers fall back
    to the unsharded engine; results are identical).

    Engines own worker processes and shared-memory segments: call
    :meth:`close` (or use the engine as a context manager) to release them.
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
        shards: int = 2,
        initial_states=None,
        initial_letters=None,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    ) -> None:
        _require_numpy()
        if not isinstance(protocol, (ExtendedProtocol, Protocol)):
            raise ExecutionError(f"cannot execute object of type {type(protocol).__name__}")
        if initial_states is not None and len(initial_states) != graph.num_nodes:
            raise ExecutionError(
                "initial_states must hold one state per node "
                f"(expected {graph.num_nodes}, got {len(initial_states)})"
            )
        if initial_letters is not None and len(initial_letters) != graph.num_nodes:
            raise ExecutionError(
                "initial_letters must hold one letter per node "
                f"(expected {graph.num_nodes}, got {len(initial_letters)})"
            )
        if compiled is None and getattr(protocol, "tabulation_hint", lambda: "eager")() == "lazy":
            raise ShardingUnavailableError(
                "the protocol hints a lazy tabulation; sharding requires "
                "the eager reachable closure"
            )
        pool = ShardPool(graph, shards, fences=2, barrier_timeout=barrier_timeout)
        inputs = dict(inputs or {})
        if initial_states is None:
            initial_states = [protocol.initial_state(inputs.get(node)) for node in graph.nodes]
        if compiled is None:
            compiled = compile_protocol(protocol, roots=dict.fromkeys(initial_states) or None)

        self._graph = graph
        self._protocol = protocol
        self._seed = seed
        self._observer = observer
        self._compiled = compiled
        self._round = 0
        self._pool = pool

        try:
            state_ids = np.asarray(
                [compiled.state_id(state) for state in initial_states],
                dtype=np.int64,
            )
        except KeyError as exc:
            raise ProtocolNotVectorizableError(
                f"initial state {exc.args[0]!r} is missing from the compiled "
                "table; compile with roots covering all initial states"
            ) from None

        inv = np.asarray(pool.partition.inv)
        indptr, indices = pool.permuted_csr()
        static_arrays = {
            "indptr": indptr,
            "indices": indices,
            "strides": compiled.strides,
            "state_base": compiled.state_base,
            "cell_offset": compiled.cell_offset,
            "cell_count": compiled.cell_count,
            "option_next": compiled.option_next,
            "option_emit": compiled.option_emit,
            "node_keys": inv.astype(np.uint64),
        }
        if initial_letters is None:
            initial_letter = np.full(graph.num_nodes, compiled.initial_letter_id, dtype=np.int64)
        else:
            # A warm start carries each node's last-transmitted letter
            # across a churn boundary; both ping-pong buffers start from it
            # so round 0 reads the carried configuration.
            try:
                initial_letter = np.asarray(
                    [compiled.letter_id(letter) for letter in initial_letters],
                    dtype=np.int64,
                )
            except KeyError as exc:
                raise ProtocolNotVectorizableError(
                    f"carried letter {exc.args[0]!r} is missing from the "
                    "compiled table"
                ) from None
            initial_letter = initial_letter[inv]
        dynamic_arrays = {
            # state/letters live in permuted order: shard slices are contiguous.
            "state": state_ids[inv],
            "letters": np.stack([initial_letter, initial_letter]),
            "messages": np.zeros(pool.num_shards, dtype=np.int64),
            "control": np.asarray([_RUN], dtype=np.int64),
        }
        pool.allocate(
            static_arrays,
            dynamic_arrays,
            _round_loop,
            resolve_pick_seed(seed),
            int(compiled.tabulation.bounding),
            int(compiled.num_letters),
        )

        cut_edges = pool.partition.cut_edges
        #: Exactly the partition fields of the result metadata.
        self.shard_info: dict[str, Any] = {
            "shard_count": pool.num_shards,
            "cut_edges": cut_edges,
            "halo_bytes_per_round": 2 * cut_edges * np.dtype(np.int64).itemsize,
            "partition_strategy": pool.partition.strategy,
        }

    # ------------------------------------------------------------------ #
    # Introspection (mirrors VectorizedEngine)                            #
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def protocol(self) -> ExtendedProtocol | Protocol:
        return self._protocol

    @property
    def compiled(self) -> CompiledProtocol:
        return self._compiled

    @property
    def table(self):
        """Sharded execution always runs off an eager table."""
        return None

    @property
    def tabulation_mode(self) -> str:
        return "eager"

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def partition(self):
        """The :class:`~repro.graphs.partition.NodePartition` in effect."""
        return self._pool.partition

    @property
    def states(self):
        return self._decode_states()

    @property
    def last_letters(self) -> tuple:
        """Per-node last-transmitted letters, decoded to protocol letters.

        Together with :attr:`states` this is the complete warm-start
        configuration of a synchronous execution (the engine only
        broadcasts, so one letter per sender describes every port); the
        dynamic environment carries both across churn boundaries.
        """
        # After r rounds the ping-pong buffer r % 2 holds the letters the
        # next round would read — the last ones transmitted.
        current = self._pool.dyn["letters"][self._round % 2]
        ordered = current[np.asarray(self._pool.partition.perm)]
        decode = self._compiled.letter_value
        return tuple(decode(int(i)) for i in ordered)

    def in_output_configuration(self) -> bool:
        state = self._pool.dyn["state"]
        return bool(self._compiled.output_mask[state].all())

    def _decode_states(self):
        # Shared state is permuted; original node i lives at slot perm[i].
        ordered = self._pool.dyn["state"][np.asarray(self._pool.partition.perm)]
        table = self._compiled.states
        return tuple(table[i] for i in ordered)

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def step_round(self) -> None:
        """Drive all shards through one synchronous round."""
        self._pool.wait(_START)
        self._pool.wait(_DONE)
        self._round += 1
        if self._observer is not None:
            self._observer(self._round, self._decode_states())

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
            total_node_steps=self._graph.num_nodes * self._round,
            total_messages=int(self._pool.dyn["messages"].sum()),
            seed=self._seed,
        )

    # ------------------------------------------------------------------ #
    # Teardown                                                            #
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop workers and release shared-memory segments (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "ShardedVectorizedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
