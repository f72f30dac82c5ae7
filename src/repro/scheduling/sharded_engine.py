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
cross shard boundaries.  Each round is fenced by two barriers::

    parent: write control ──▶ start barrier ──▶ done barrier ──▶ aggregate
    worker:                   start barrier ──▶ compute slice ──▶ done barrier

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

import itertools
import os
import threading
import traceback
import weakref
from collections.abc import Mapping
from typing import Any

try:  # NumPy is an optional dependency of the library as a whole.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None

try:
    import multiprocessing
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platforms without POSIX shm
    multiprocessing = None
    shared_memory = None

from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
    ShardingUnavailableError,
)
from repro.core.protocol import ExtendedProtocol, Protocol
from repro.core.results import ExecutionResult, build_synchronous_result
from repro.graphs.graph import Graph
from repro.graphs.partition import partition_graph, permute_csr
from repro.scheduling.compiled import CompiledProtocol, compile_protocol
from repro.scheduling.picks import counter_picks, counter_round_key, resolve_pick_seed
from repro.scheduling.vectorized_engine import DEFAULT_MAX_ROUNDS, _require_numpy

#: Control words written by the parent before releasing the start barrier.
_RUN = 1
_STOP = 0

#: Per-wait ceiling on barrier synchronisation.  A worker's round is a few
#: array ops — seconds, not minutes, even at n = 10^6 — so a stuck barrier
#: means a dead or wedged worker and the engine aborts instead of hanging.
DEFAULT_BARRIER_TIMEOUT = 60.0

#: Shared-memory segment name prefix; the teardown tests glob for leaks.
SEGMENT_PREFIX = "repro_shard"

_segment_counter = itertools.count()


def sharding_supported() -> bool:
    """Whether this platform can run the sharded backend at all."""
    return np is not None and shared_memory is not None


# --------------------------------------------------------------------- #
# Shared-memory packing                                                  #
# --------------------------------------------------------------------- #
def _segment_layout(arrays):
    """``{name: (offset, shape, dtype_str)}`` plus the total byte size."""
    layout = {}
    offset = 0
    for name, arr in arrays.items():
        offset = (offset + 63) & ~63  # 64-byte alignment per array
        layout[name] = (offset, arr.shape, arr.dtype.str)
        offset += arr.nbytes
    return layout, max(offset, 1)


def _attach_views(shm, layout):
    """NumPy views over *shm* for every array in *layout* (zero-copy)."""
    views = {}
    for name, (offset, shape, dtype_str) in layout.items():
        dtype = np.dtype(dtype_str)
        count = 1
        for dim in shape:
            count *= dim
        views[name] = np.frombuffer(
            shm.buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
    return views


def _new_segment(arrays):
    """Create a shared-memory segment holding *arrays*; returns views too."""
    layout, size = _segment_layout(arrays)
    name = f"{SEGMENT_PREFIX}_{os.getpid()}_{next(_segment_counter)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    views = _attach_views(shm, layout)
    for key, arr in arrays.items():
        views[key][...] = arr
    return shm, layout, views


def _release_segment(shm, *, unlink: bool) -> None:
    try:
        shm.close()
    except BufferError:  # stray views: leak the map, still reclaim the file
        pass
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


# --------------------------------------------------------------------- #
# Worker process                                                         #
# --------------------------------------------------------------------- #
def _attach_segment(name: str):
    """Attach to an existing segment without adopting cleanup duties.

    Attaching registers the segment with this process's resource tracker,
    which would unlink it again at worker exit even though the parent owns
    cleanup.  Under the fork start method the tracker (and its registration
    set) is *shared* with the parent, so the duplicate registration is a
    no-op and unregistering here would strip the parent's own entry; under
    spawn the tracker is fresh, so the registration must be removed.  3.11
    has no ``track=False`` yet — detect which case we are in by whether a
    live tracker was inherited before the attach.
    """
    inherited = getattr(resource_tracker._resource_tracker, "_fd", None) is not None
    shm = shared_memory.SharedMemory(name=name)
    if not inherited:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


def _worker_loop(
    worker_id,
    static,
    static_layout,
    dynamic,
    dynamic_layout,
    lo,
    hi,
    pick_seed,
    bounding,
    num_letters,
    use_kernel,
    start_barrier,
    done_barrier,
) -> None:
    """The round loop over permuted nodes ``lo:hi``.

    Kept in its own frame so that every NumPy view over the shared segments
    dies when it returns — the caller can then detach cleanly.

    With ``use_kernel`` the round body runs as the compiled
    :func:`repro.scheduling.kernels.shard_round` kernel instead of the NumPy
    expression below; both are bitwise-identical, so the choice never
    changes a result.
    """
    tables = _attach_views(static, static_layout)
    dyn = _attach_views(dynamic, dynamic_layout)

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

    if use_kernel:
        from repro.scheduling.kernels import _call

    round_index = 0
    while True:
        start_barrier.wait()
        if control[0] == _STOP:
            return

        read = letters[round_index % 2]
        write = letters[(round_index + 1) % 2]
        if use_kernel:
            sent = _call(
                "shard_round",
                state,
                read,
                write,
                lo,
                hi,
                edge_src,
                edge_dst,
                strides,
                state_base,
                cell_offset,
                cell_count,
                option_next,
                option_emit,
                node_keys,
                np.uint64(counter_round_key(pick_seed, round_index)),
                bounding,
                num_letters,
            )
            messages[worker_id] += int(sent)
        else:
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

        done_barrier.wait()


def _shard_worker_main(
    worker_id: int,
    static_name: str,
    static_layout,
    dynamic_name: str,
    dynamic_layout,
    lo: int,
    hi: int,
    pick_seed: int,
    bounding: int,
    num_letters: int,
    use_kernel: bool,
    start_barrier,
    done_barrier,
) -> None:
    """Worker entry point: attach, loop rounds, detach; crash loudly."""
    static = _attach_segment(static_name)
    dynamic = _attach_segment(dynamic_name)
    try:
        _worker_loop(
            worker_id,
            static,
            static_layout,
            dynamic,
            dynamic_layout,
            lo,
            hi,
            pick_seed,
            bounding,
            num_letters,
            use_kernel,
            start_barrier,
            done_barrier,
        )
    except threading.BrokenBarrierError:
        pass  # the parent aborted the run; exit quietly
    except BaseException:
        # Unblock the parent (and siblings): a broken barrier is the crash
        # signal the parent's timeout path expects.  Exit without running
        # interpreter finalizers — the traceback pins shared-memory views,
        # and a noisy BufferError cascade would bury the real error.
        for barrier in (start_barrier, done_barrier):
            try:
                barrier.abort()
            except Exception:
                pass
        traceback.print_exc()
        os._exit(1)
    finally:
        # _worker_loop's frame is gone by now, so no views pin the buffers.
        _release_segment(static, unlink=False)
        _release_segment(dynamic, unlink=False)


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

    Engines own kernel resources: call :meth:`close` (or use the engine as
    a context manager) to release workers and shared-memory segments.  The
    convenience wrapper :func:`run_sharded` does this automatically.
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
        partition_strategy: str = "bfs",
        use_kernel: bool = False,
        initial_states=None,
        initial_letters=None,
        mp_context=None,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    ) -> None:
        _require_numpy()
        if use_kernel:
            from repro.scheduling.kernels import require_kernels

            require_kernels()
        if shared_memory is None:  # pragma: no cover - POSIX-less platforms
            raise ShardingUnavailableError(
                "sharded execution requires multiprocessing.shared_memory"
            )
        if not isinstance(protocol, (ExtendedProtocol, Protocol)):
            raise ExecutionError(
                f"cannot execute object of type {type(protocol).__name__}"
            )
        if shards < 1:
            raise ExecutionError(f"shards must be >= 1, got {shards}")
        if graph.num_nodes == 0:
            raise ShardingUnavailableError("cannot shard an empty graph")
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
        if compiled is None:
            hint = getattr(protocol, "tabulation_hint", lambda: "eager")()
            if hint == "lazy":
                raise ShardingUnavailableError(
                    "the protocol hints a lazy tabulation; sharding requires "
                    "the eager reachable closure"
                )
            inputs_map = dict(inputs or {})
            if initial_states is not None:
                roots = dict.fromkeys(initial_states) or None
            else:
                roots = dict.fromkeys(
                    protocol.initial_state(inputs_map.get(node))
                    for node in graph.nodes
                ) or None
            compiled = compile_protocol(protocol, roots=roots)

        self._graph = graph
        self._protocol = protocol
        self._seed = seed
        self._observer = observer
        self._compiled = compiled
        self._barrier_timeout = barrier_timeout
        self._round = 0
        self._closed = False
        self._started = False
        self._workers: list = []

        n = graph.num_nodes
        num_shards = min(int(shards), n)
        self._partition = partition_graph(
            graph, num_shards, strategy=partition_strategy
        )
        indptr, indices = graph.csr_adjacency()
        perm_indptr, perm_indices = permute_csr(
            indptr, indices, self._partition.perm, self._partition.inv
        )

        inputs = dict(inputs or {})
        if initial_states is None:
            initial_states = [
                protocol.initial_state(inputs.get(node)) for node in graph.nodes
            ]
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

        static_arrays = {
            "indptr": perm_indptr,
            "indices": perm_indices,
            "strides": compiled.strides,
            "state_base": compiled.state_base,
            "cell_offset": compiled.cell_offset,
            "cell_count": compiled.cell_count,
            "option_next": compiled.option_next,
            "option_emit": compiled.option_emit,
            "node_keys": self._partition.inv.astype(np.uint64),
        }
        if initial_letters is None:
            initial_letter = np.full(n, compiled.initial_letter_id, dtype=np.int64)
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
            initial_letter = initial_letter[np.asarray(self._partition.inv)]
        dynamic_arrays = {
            # state/letters live in permuted order: shard slices are contiguous.
            "state": state_ids[np.asarray(self._partition.inv)],
            "letters": np.stack([initial_letter, initial_letter]),
            "messages": np.zeros(num_shards, dtype=np.int64),
            "control": np.asarray([_RUN], dtype=np.int64),
        }
        self._static_shm, self._static_layout, _ = _new_segment(static_arrays)
        self._dynamic_shm, self._dynamic_layout, self._dyn = _new_segment(
            dynamic_arrays
        )
        self._finalizer = weakref.finalize(
            self, _finalize_segments, self._static_shm, self._dynamic_shm
        )

        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
        self._ctx = mp_context
        self._start_barrier = self._ctx.Barrier(num_shards + 1)
        self._done_barrier = self._ctx.Barrier(num_shards + 1)

        bounds = self._partition.bounds
        pick_seed = resolve_pick_seed(seed)
        self._worker_args = [
            (
                s,
                self._static_shm.name,
                self._static_layout,
                self._dynamic_shm.name,
                self._dynamic_layout,
                int(bounds[s]),
                int(bounds[s + 1]),
                pick_seed,
                int(compiled.tabulation.bounding),
                int(compiled.num_letters),
                bool(use_kernel),
                self._start_barrier,
                self._done_barrier,
            )
            for s in range(num_shards)
        ]

        directed_cut = 2 * self._partition.cut_edges
        self.shard_info: dict[str, Any] = {
            "shard_count": num_shards,
            "cut_edges": self._partition.cut_edges,
            "halo_bytes_per_round": directed_cut
            * np.dtype(np.int64).itemsize,
            "partition_strategy": self._partition.strategy,
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
        return self._partition

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
        current = self._dyn["letters"][self._round % 2]
        ordered = current[np.asarray(self._partition.perm)]
        decode = self._compiled.letter_value
        return tuple(decode(int(i)) for i in ordered)

    def in_output_configuration(self) -> bool:
        state = self._dyn["state"]
        return bool(self._compiled.output_mask[state].all())

    def _decode_states(self):
        # Shared state is permuted; original node i lives at slot perm[i].
        ordered = self._dyn["state"][np.asarray(self._partition.perm)]
        table = self._compiled.states
        return tuple(table[i] for i in ordered)

    # ------------------------------------------------------------------ #
    # Worker lifecycle                                                    #
    # ------------------------------------------------------------------ #
    def _ensure_workers(self) -> None:
        if self._started:
            return
        if self._closed:
            raise ExecutionError("engine is closed")
        self._workers = [
            self._ctx.Process(
                target=_shard_worker_main,
                args=args,
                name=f"repro-shard-{args[0]}",
                daemon=True,
            )
            for args in self._worker_args
        ]
        for worker in self._workers:
            worker.start()
        self._started = True

    def _check_worker_health(self) -> None:
        dead = [w for w in self._workers if w.exitcode is not None]
        if dead:
            codes = {w.name: w.exitcode for w in dead}
            self._abort()
            raise ExecutionError(f"shard worker(s) died mid-run: {codes}")

    def _abort(self) -> None:
        # Terminate rather than abort the barriers: a worker killed inside a
        # barrier wait dies holding the barrier's lock, so ``abort()`` would
        # block this process forever.
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._release_segments()
        self._closed = True

    def _release_segments(self) -> None:
        self._dyn = None
        self._finalizer.detach()
        _release_segment(self._static_shm, unlink=True)
        _release_segment(self._dynamic_shm, unlink=True)

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def step_round(self) -> None:
        """Drive all shards through one synchronous round."""
        if self._closed:
            raise ExecutionError("engine is closed")
        self._ensure_workers()
        self._check_worker_health()
        self._dyn["control"][0] = _RUN
        try:
            self._start_barrier.wait(timeout=self._barrier_timeout)
            self._done_barrier.wait(timeout=self._barrier_timeout)
        except threading.BrokenBarrierError:
            self._check_worker_health()  # raises with exit codes if it can
            self._abort()
            raise ExecutionError(
                "sharded round barrier broke (worker wedged or killed)"
            ) from None
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
            total_messages=int(self._dyn["messages"].sum()),
            seed=self._seed,
        )

    # ------------------------------------------------------------------ #
    # Teardown                                                            #
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop workers and release shared-memory segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._started:
                if all(w.exitcode is None for w in self._workers):
                    self._dyn["control"][0] = _STOP
                    try:
                        self._start_barrier.wait(
                            timeout=min(5.0, self._barrier_timeout)
                        )
                    except threading.BrokenBarrierError:
                        pass
                for worker in self._workers:
                    worker.join(timeout=5.0)
                for worker in self._workers:
                    if worker.is_alive():
                        worker.terminate()
                        worker.join(timeout=5.0)
        finally:
            self._release_segments()

    def __enter__(self) -> "ShardedVectorizedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort safety net
        try:
            self.close()
        except Exception:
            pass


def _finalize_segments(static_shm, dynamic_shm) -> None:
    """GC safety net: reclaim segments if the engine was never closed."""
    _release_segment(static_shm, unlink=True)
    _release_segment(dynamic_shm, unlink=True)


def run_sharded(
    graph: Graph,
    protocol: ExtendedProtocol | Protocol,
    *,
    seed: int | None = None,
    inputs: Mapping[int, Any] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    observer=None,
    raise_on_timeout: bool = True,
    compiled: CompiledProtocol | None = None,
    shards: int = 2,
    partition_strategy: str = "bfs",
) -> ExecutionResult:
    """Convenience wrapper: build a :class:`ShardedVectorizedEngine`, run it,
    and always release workers and shared memory."""
    engine = ShardedVectorizedEngine(
        graph,
        protocol,
        seed=seed,
        inputs=inputs,
        observer=observer,
        compiled=compiled,
        shards=shards,
        partition_strategy=partition_strategy,
    )
    try:
        return engine.run(max_rounds=max_rounds, raise_on_timeout=raise_on_timeout)
    finally:
        engine.close()
