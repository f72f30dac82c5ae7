"""The shard workers of the sharded synchronous engine and their lifecycle.

:class:`ShardPool` owns what the sharded synchronous engine
(:mod:`repro.scheduling.sharded_engine`) runs on: the BFS partition and the
permuted CSR, two POSIX shared-memory segments, the round fence and the
worker processes.  The engine supplies its arrays and its worker loop; the
pool does the rest::

    ShardPool(graph, shards)             checks, BFS partition
    pool.permuted_csr()                  the CSR relabelled by the partition
    pool.allocate(static, dynamic, loop, *args)
                                         segments (released if this fails)
    pool.gather()                        lazy start, health check, wait
                                         until every worker is parked
    pool.release()                       let the parked workers go on
    pool.close() / pool.abort()          STOP handshake / terminate; unlink

Worker ``s`` runs ``loop(s, lo, hi, tables, dyn, fence, *args)`` over its
contiguous permuted node range ``lo:hi``, where ``tables`` and ``dyn`` are
NumPy views over the static and dynamic segments, and meets the parent by
calling ``fence.wait()``.  Past the fence, a worker reads
``dyn["control"][0]`` and returns on :data:`STOP`, which is how
:meth:`ShardPool.close` retires healthy workers.

The fence (:class:`Fence`) is built from one pair of semaphores per worker
rather than a ``multiprocessing.Barrier``: worker ``s`` posts its own
arrival and waits for its own release.  The parent gathers every arrival,
may then read and write the shared arrays while the workers stay parked,
and releases them, so one fence both ends a round and starts the next.  No
lock is shared, so a worker killed inside a fence leaves a missing token,
never a held lock, and the parent waits in short slices, checking that
every worker is alive, up to a deadline.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import traceback
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.errors import ExecutionError, ShardingUnavailableError
from repro.graphs.graph import Graph
from repro.graphs.partition import partition_graph, permute_csr

#: Control word that retires a worker at the fence.
STOP = 0

#: Per-wait ceiling on fence synchronisation.  A worker's round is a few
#: array ops — seconds, not minutes, even at n = 10^6 — so a stuck fence
#: means a dead or wedged worker and the pool aborts instead of hanging.
DEFAULT_BARRIER_TIMEOUT = 60.0

#: Slice of a parent-side fence wait between two worker health checks.  A
#: worker's arrival ends the wait at once; the slice only bounds how long a
#: dead worker goes unnoticed.
HEALTH_POLL_SECONDS = 0.1

#: Shared-memory segment name prefix; the teardown tests glob for leaks.
SEGMENT_PREFIX = "repro_shard"

_segment_counter = itertools.count()


def mp_context():
    """The multiprocessing start method of every worker this package starts.

    ``fork`` (where available) inherits the parent's registries, so even
    protocols registered at runtime — test doubles, plugins — stay
    spec-addressable inside pool workers.  Platforms without ``fork`` fall
    back to ``spawn``, where workers re-import :mod:`repro.api` and
    therefore see the built-in registrations only.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# --------------------------------------------------------------------- #
# Shared-memory segments                                                 #
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
        views[name] = np.frombuffer(shm.buf, dtype=dtype, count=count, offset=offset).reshape(shape)
    return views


def attach_segment(name: str):
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


def _reclaim(workers, segments) -> None:
    """Terminate live workers, then unlink the segments.

    The last step of :meth:`ShardPool.abort` and :meth:`ShardPool.close`,
    and the GC backstop of a pool that was never closed.
    """
    for worker in workers:
        if worker.is_alive():
            worker.terminate()
    for worker in workers:
        worker.join(timeout=5.0)
    for shm in segments:
        _release_segment(shm, unlink=True)


# --------------------------------------------------------------------- #
# Fences                                                                 #
# --------------------------------------------------------------------- #
class Fence:
    """A rendezvous of the parent and every shard worker.

    Worker ``s`` owns ``arrived[s]`` and ``go[s]``: it posts the first and
    waits on the second (:class:`WorkerFence`).  The parent takes every
    arrival (:meth:`ShardPool.gather`) before it posts any release
    (:meth:`ShardPool.release`), so no worker passes before every worker
    has arrived — a barrier's guarantee without a barrier's shared lock.
    """

    def __init__(self, ctx, num_workers: int) -> None:
        self.arrived = tuple(ctx.Semaphore(0) for _ in range(num_workers))
        self.go = tuple(ctx.Semaphore(0) for _ in range(num_workers))

    def worker_side(self, worker_id: int) -> "WorkerFence":
        """The end of this fence that worker *worker_id* waits on."""
        return WorkerFence(self.arrived[worker_id], self.go[worker_id])


class WorkerFence:
    """One worker's end of a :class:`Fence`: post arrival, await release."""

    def __init__(self, arrived, go) -> None:
        self.arrived = arrived
        self.go = go

    def wait(self) -> None:
        self.arrived.release()
        self.go.acquire()


# --------------------------------------------------------------------- #
# Worker process                                                         #
# --------------------------------------------------------------------- #
def _worker_main(loop, worker_id, lo, hi, segments, fence, args) -> None:
    """Worker entry point: attach, run *loop*, detach; crash loudly."""
    attached = [(attach_segment(name), layout) for name, layout in segments]
    try:
        # The views exist only as *loop*'s arguments, so they die with its
        # frame and the segments detach cleanly below.
        loop(
            worker_id,
            lo,
            hi,
            *(_attach_views(shm, layout) for shm, layout in attached),
            fence,
            *args,
        )
    except BaseException:
        # The parent sees the exit code at its next fence wait.  Exit
        # without running interpreter finalizers — the traceback pins
        # shared-memory views, and a noisy BufferError cascade would bury
        # the real error.
        traceback.print_exc()
        os._exit(1)
    finally:
        for shm, _ in attached:
            _release_segment(shm, unlink=False)


# --------------------------------------------------------------------- #
# Parent side                                                            #
# --------------------------------------------------------------------- #
class ShardPool:
    """Shard workers, their shared-memory segments and their fence.

    ``partition`` and ``num_shards`` describe the split, and
    :meth:`permuted_csr` relabels the graph by it; ``dyn`` holds the
    parent's views of the dynamic segment once :meth:`allocate` ran.  A
    pool is owned by one engine, which calls :meth:`close`; a pool dropped
    unclosed is reclaimed by a GC backstop.
    """

    def __init__(
        self,
        graph: Graph,
        shards: int,
        *,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    ) -> None:
        if shards < 1:
            raise ExecutionError(f"shards must be >= 1, got {shards}")
        if graph.num_nodes == 0:
            raise ShardingUnavailableError("cannot shard an empty graph")
        self.num_shards = min(int(shards), graph.num_nodes)
        self.partition = partition_graph(graph, self.num_shards)
        self._graph = graph
        self.barrier_timeout = barrier_timeout
        self.ctx = mp_context()
        self.fence = Fence(self.ctx, self.num_shards)
        #: Whether the workers are parked at the fence (gathered, not yet
        #: released).
        self.parked = False
        self.workers: list = []
        self.dyn = None
        self.closed = False
        self._segments: list = []
        self._target = None
        self._reclaim = weakref.finalize(self, _reclaim, self.workers, self._segments)

    def permuted_csr(self):
        """The graph's CSR adjacency ``(indptr, indices)`` in permuted order."""
        indptr, indices = self._graph.csr_adjacency()
        return permute_csr(indptr, indices, self.partition.perm, self.partition.inv)

    def allocate(self, static: dict, dynamic: dict, loop, *args) -> None:
        """Share *static* and *dynamic* and fix what every worker runs.

        ``dynamic`` must hold the ``"control"`` word array.  A failure
        releases the segments already created before it propagates.
        """
        try:
            static_segment = self._share(static)[0]  # its views die here
            dynamic_segment, self.dyn = self._share(dynamic)
        except BaseException:
            self.abort()
            raise
        self._target = (loop, (static_segment, dynamic_segment), args)

    def _share(self, arrays):
        layout, size = _segment_layout(arrays)
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{next(_segment_counter)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        self._segments.append(shm)
        views = _attach_views(shm, layout)
        for key, arr in arrays.items():
            views[key][...] = arr
        return (name, layout), views

    def _start(self) -> None:
        loop, segments, args = self._target
        bounds = self.partition.bounds
        for s in range(self.num_shards):
            fence = self.fence.worker_side(s)
            worker = self.ctx.Process(
                target=_worker_main,
                args=(loop, s, int(bounds[s]), int(bounds[s + 1]), segments, fence, args),
                name=f"repro-shard-{s}",
                daemon=True,
            )
            worker.start()
            self.workers.append(worker)

    def check_health(self) -> None:
        """Abort and raise :class:`ExecutionError` if a worker has exited."""
        dead = [w for w in self.workers if w.exitcode is not None]
        if dead:
            codes = {w.name: w.exitcode for w in dead}
            self.abort()
            raise ExecutionError(f"shard worker(s) died mid-run: {codes}")

    def gather(self) -> None:
        """Wait until every worker is parked at the fence, starting them
        first if they have not started yet.

        The workers stay parked until :meth:`release`, so the parent may
        read and write the shared arrays in between.  Worker health is
        checked before the wait and every :data:`HEALTH_POLL_SECONDS`
        during it.  A dead worker, or one that misses the fence by
        ``barrier_timeout`` seconds, aborts the pool and raises
        :class:`ExecutionError`.
        """
        if self.closed:
            raise ExecutionError("engine is closed")
        if not self.workers:
            self._start()
        self.check_health()
        late = self._gather(self.barrier_timeout)
        if late is not None:
            pid = self.workers[late].pid
            self.abort()
            raise ExecutionError(
                f"shard worker {late} (pid {pid}) missed the fence "
                f"after {self.barrier_timeout:g} s"
            )
        self.parked = True

    def release(self) -> None:
        """Let the workers parked at the fence go on."""
        if not self.parked:
            raise ExecutionError("fence released before it was gathered")
        self.parked = False
        for go in self.fence.go:
            go.release()

    def wait(self) -> None:
        """Meet the workers at the fence: gather, then release."""
        self.gather()
        self.release()

    def _gather(self, timeout: float) -> int | None:
        """Take every worker's arrival at the fence.

        Returns ``None`` once every worker has arrived, or the id of the
        first worker that has not arrived within *timeout* seconds.  A
        worker found dead raises through :meth:`check_health`.
        """
        deadline = time.monotonic() + timeout
        for worker_id, arrived in enumerate(self.fence.arrived):
            while not arrived.acquire(
                True, min(HEALTH_POLL_SECONDS, max(0.0, deadline - time.monotonic()))
            ):
                self.check_health()
                if time.monotonic() >= deadline:
                    return worker_id
        return None

    def abort(self) -> None:
        """Terminate the workers and release the segments.

        Workers are terminated wherever they wait; no fence needs resetting,
        since a pool never runs again once aborted.
        """
        self.closed = True
        self.dyn = None
        self._reclaim()

    def close(self) -> None:
        """Stop the workers and release the segments (idempotent)."""
        if self.closed:
            return
        self.closed = True
        try:
            if self.workers and all(w.exitcode is None for w in self.workers):
                self.dyn["control"][0] = STOP
                stopped = self.parked
                if not stopped:
                    timeout = min(5.0, self.barrier_timeout)
                    try:
                        stopped = self._gather(timeout) is None
                    except ExecutionError:  # a worker died; the abort below reaps the rest
                        pass
                if stopped:
                    for go in self.fence.go:
                        go.release()
                    for worker in self.workers:
                        worker.join(timeout=5.0)
        finally:
            self.abort()
