"""Intra-run sharded execution of the vectorized synchronous engine.

Every earlier speedup (pooled sweeps, warm tables, the result store)
parallelizes *across* runs; a single run was still capped at one core.
This module splits one huge graph across ``shards=N`` long-lived worker
processes so the paper's headline regime — stone-age protocols on
sensor/biological-scale networks, :math:`n \\ge 10^6` — fits in one run.

Memory layout (two POSIX shared-memory segments, zero-copy)::

    static segment (read-only after construction)
      indptr / indices   permuted CSR adjacency
      strides, state_base, output_mask, cell_offset,
      cell_count, option_next, option_emit, sink_mask
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
cross shard boundaries.  Rounds are separated by the one fence of the
:class:`~repro.scheduling.shard_pool.ShardPool`, which owns the partition,
the segments and the worker lifecycle.  The workers park at the fence
between rounds, while the parent reads the round's results::

    parent: release ──▶ gather ──▶ aggregate ──▶ release ──▶ ...
    worker: compute slice ──▶ fence ──────────────▶ compute slice

Each worker retires its own rows: its :class:`~repro.scheduling.
vectorized_engine.RowRange` drops a node once the node has spent one round
in a sink state (see :mod:`repro.scheduling.vectorized_engine`), so later
rounds census, draw and write only the range's live nodes.  That last
round copies the node's letter into both ping-pong buffers, so neighbours
on any shard keep reading it from the buffers as before.  Retiring is local
to the worker: no fence, message or halo read is added.

Determinism contract.  Sharded execution is **bitwise identical** to the
unsharded engines — the vectorized engine and the interpreter alike — for
every shard count.  Every worker runs the unsharded engine's own round
function, :func:`~repro.scheduling.vectorized_engine.step_rows`, over its
range, and the engine itself is the unsharded one with its buffers in the
dynamic segment: input checks, encoding, ``run()`` and the result are
inherited.  The census/transition math is pure integer array arithmetic
(slicing it by rows changes nothing), and the pick stream is *partitioned
per node, not per worker draw order* — each pick is a pure hash of ``(seed,
round, original node id)`` (:func:`repro.scheduling.picks.counter_picks`),
so neither the BFS relabelling nor the worker count can shift anyone's
draws.  The parent resolves an unseeded run's pick seed once and hands it
to every worker.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.core.errors import ShardingUnavailableError
from repro.core.protocol import ExtendedProtocol, Protocol
from repro.graphs.graph import Graph
from repro.scheduling.compiled import CompiledProtocol
from repro.scheduling.shard_pool import DEFAULT_BARRIER_TIMEOUT, STOP, ShardPool
from repro.scheduling.vectorized_engine import (
    TABLE_FIELDS,
    RowRange,
    VectorizedEngine,
    step_rows,
)

#: Control word written once at construction; the pool writes STOP at close.
_RUN = 1


# --------------------------------------------------------------------- #
# Worker process                                                         #
# --------------------------------------------------------------------- #
def _round_loop(worker_id, lo, hi, tables, dyn, fence, pick_seed, bounding, width) -> None:
    """The round loop over permuted nodes ``lo:hi``."""
    rows = RowRange(tables["indptr"], tables["indices"], lo, hi, tables["node_keys"], width)
    arrays = tuple(tables[name] for name in TABLE_FIELDS)
    round_index = 0
    while True:
        fence.wait()
        if dyn["control"][0] == STOP:
            return
        dyn["messages"][worker_id] += step_rows(
            rows, round_index, dyn["state"], dyn["letters"], arrays, pick_seed, bounding
        )
        round_index += 1


# --------------------------------------------------------------------- #
# Parent-side engine                                                     #
# --------------------------------------------------------------------- #
class ShardedVectorizedEngine(VectorizedEngine):
    """Executes a compiled protocol across shared-memory shard workers.

    A :class:`~repro.scheduling.vectorized_engine.VectorizedEngine` whose
    buffers live in the pool's dynamic segment, in permuted order, and
    whose round releases the workers parked at the fence and gathers them
    there again once they have stepped their ranges.
    Only eager tables shard — a lazy table grows under a parent-side lock
    and would serialize every round — so protocols hinting ``"lazy"`` raise
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
        if compiled is None and getattr(protocol, "tabulation_hint", lambda: "eager")() == "lazy":
            raise ShardingUnavailableError(
                "the protocol hints a lazy tabulation; sharding requires "
                "the eager reachable closure"
            )
        self._pool = ShardPool(graph, shards, barrier_timeout=barrier_timeout)
        # Permuted slot p holds original node inv[p], which keeps drawing
        # under its original id.
        super().__init__(
            graph,
            protocol,
            seed=seed,
            inputs=inputs,
            observer=observer,
            compiled=compiled,
            rng_node_keys=self._pool.partition.inv,
            initial_states=initial_states,
            initial_letters=initial_letters,
        )
        cut_edges = self._pool.partition.cut_edges
        #: Exactly the partition fields of the result metadata.
        self.shard_info = {
            "shard_count": self._pool.num_shards,
            "cut_edges": cut_edges,
            "halo_bytes_per_round": 2 * cut_edges * np.dtype(np.int64).itemsize,
            "partition_strategy": self._pool.partition.strategy,
        }

    def _allocate(self, state, letters) -> None:
        """Share the run's buffers with the workers, in permuted order."""
        pool = self._pool
        inv = np.asarray(pool.partition.inv)
        indptr, indices = pool.permuted_csr()
        static_arrays = dict(zip(TABLE_FIELDS, self._eager_arrays))
        static_arrays.update(indptr=indptr, indices=indices, node_keys=self._node_keys)
        # A warm start carries each node's last-transmitted letter across a
        # churn boundary; both ping-pong buffers start from it.
        letters = letters[inv]
        dynamic_arrays = {
            "state": state[inv],
            "letters": np.stack([letters, letters]),
            "messages": np.zeros(pool.num_shards, dtype=np.int64),
            "control": np.asarray([_RUN], dtype=np.int64),
        }
        pool.allocate(
            static_arrays,
            dynamic_arrays,
            _round_loop,
            self._pick_seed,
            self._bounding,
            self._width,
        )

    @property
    def _buffers(self) -> dict:
        # Read through the pool on every access: the engine keeps no view
        # of the segment, so close() can unmap it.
        return self._pool.dyn

    def _ordered(self, values):
        # Shared buffers are permuted; original node i lives at slot perm[i].
        return values[np.asarray(self._pool.partition.perm)]

    @property
    def partition(self):
        """The :class:`~repro.graphs.partition.NodePartition` in effect."""
        return self._pool.partition

    def _advance(self) -> None:
        """Drive all shards through one synchronous round."""
        pool = self._pool
        if not pool.parked:  # the workers' first arrival
            pool.gather()
        pool.release()
        pool.gather()

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
