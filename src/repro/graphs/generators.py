"""Graph generators for the workloads used throughout the reproduction.

The paper's results are stated for arbitrary graphs (MIS, Section 4) and for
undirected trees (3-coloring, Section 5).  The experiment harness exercises
them on the standard families below; every generator takes an explicit
``seed`` (or a :class:`random.Random`) so that experiments are reproducible.

The G(n, p), bipartite, geometric and random-tree generators draw their
numbers as arrays.  They load the caller's Mersenne Twister state
(:meth:`random.Random.getstate`) into a :class:`numpy.random.RandomState`,
which runs the same generator: ``random_sample()`` returns what
``Random.random()`` would, bit for bit, and a raw 32-bit word shifted right
by ``32 - n.bit_length()`` and kept when below ``n`` is what
``Random.randrange(n)`` would return.  Every generated edge is therefore the
one the scalar loops produced, and a :class:`random.Random` passed in is
left in the state those loops would have left it in.
"""

from __future__ import annotations

import random
import threading
from collections.abc import Iterable

import numpy as np

from repro.core.errors import GraphError
from repro.graphs.graph import Graph

#: Pairs drawn per ``random_sample`` call in the pair generators, which
#: bounds their transient memory whatever the number of pairs.
_PAIR_CHUNK = 1 << 16


def _rng(seed: int | random.Random | None) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


#: One Mersenne Twister per thread, reloaded for each draw: constructing
#: ``np.random.MT19937()`` seeds it from OS entropy, which costs more than
#: drawing a small graph.
_THREAD_TWISTER = threading.local()


class _ArrayDraws:
    """Array draws from a :class:`random.Random`'s Mersenne Twister state.

    Use as a context manager: on exit the advanced state is written back
    into a :class:`random.Random` the caller passed, so scalar draws made
    afterwards continue the same stream.  The generator behind the draws
    is the calling thread's own, loaded with the caller's state, so one
    thread's draws must not nest.
    """

    def __init__(self, seed: int | random.Random | None) -> None:
        self._caller = seed if isinstance(seed, random.Random) else None
        internal = _rng(seed).getstate()[1]
        twister = getattr(_THREAD_TWISTER, "pair", None)
        if twister is None:
            bits = np.random.MT19937()
            twister = _THREAD_TWISTER.pair = (bits, np.random.RandomState(bits))
        self._bits, self.stream = twister
        # The key as a tuple: set_state takes it an order of magnitude
        # faster than as an array.
        self.stream.set_state(("MT19937", internal[:-1], internal[-1]))

    def __enter__(self) -> _ArrayDraws:
        return self

    def __exit__(self, *exc) -> None:
        if self._caller is not None:
            version, _, gauss = self._caller.getstate()
            _, key, pos = self.stream.get_state()[:3]
            self._caller.setstate((version, (*key.tolist(), pos), gauss))

    def randbelow(self, bound: int, count: int) -> np.ndarray:
        """*count* draws of ``Random.randrange(bound)``, for ``bound < 2**32``."""
        shift = 32 - int(bound).bit_length()
        kept = [np.empty(0, dtype=np.int64)]
        remaining = count
        while remaining:
            # randrange rejects words at or above the bound and draws again;
            # drawing `remaining` words at a time never draws past the last.
            words = self._bits.random_raw(remaining) >> shift  # one 32-bit word each
            words = words[words < bound].astype(np.int64)
            kept.append(words)
            remaining -= len(words)
        return np.concatenate(kept)

    def hits(self, total: int, probability: float) -> np.ndarray:
        """Indices ``i < total`` whose ``Random.random()`` falls below *probability*."""
        found = [np.empty(0, dtype=np.int64)]
        for begin in range(0, total, _PAIR_CHUNK):
            draws = self.stream.random_sample(min(_PAIR_CHUNK, total - begin))
            found.append(np.flatnonzero(draws < probability) + begin)
        return np.concatenate(found)


# ---------------------------------------------------------------------- #
# Deterministic families                                                 #
# ---------------------------------------------------------------------- #
def empty_graph(num_nodes: int) -> Graph:
    """``n`` isolated nodes (degenerate but useful for edge-case tests)."""
    return Graph(num_nodes, [])


def complete_graph(num_nodes: int) -> Graph:
    """The clique K_n."""
    edges = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    return Graph(num_nodes, edges)


def path_graph(num_nodes: int) -> Graph:
    """The path P_n (used by the LBA-on-a-path simulation of Lemma 6.2)."""
    return Graph(num_nodes, [(i, i + 1) for i in range(num_nodes - 1)])


def cycle_graph(num_nodes: int) -> Graph:
    """The cycle C_n (requires at least 3 nodes)."""
    if num_nodes < 3:
        raise GraphError("a cycle needs at least 3 nodes")
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    return Graph(num_nodes, edges)


def star_graph(num_leaves: int) -> Graph:
    """A star with one centre (node 0) and *num_leaves* leaves."""
    return Graph(num_leaves + 1, [(0, i) for i in range(1, num_leaves + 1)])


def complete_bipartite_graph(left: int, right: int) -> Graph:
    """The complete bipartite graph K_{left,right}."""
    edges = [(u, left + v) for u in range(left) for v in range(right)]
    return Graph(left + right, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """A rows × cols grid (the classical cellular-automaton topology)."""
    def node(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    return Graph(rows * cols, edges)


def binary_tree(num_nodes: int) -> Graph:
    """A complete binary tree on *num_nodes* nodes (array layout)."""
    edges = []
    for child in range(1, num_nodes):
        parent = (child - 1) // 2
        edges.append((parent, child))
    return Graph(num_nodes, edges)


def caterpillar_graph(spine: int, legs_per_node: int) -> Graph:
    """A caterpillar: a spine path with *legs_per_node* leaves per spine node."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_node = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            edges.append((s, next_node))
            next_node += 1
    return Graph(next_node, edges)


# ---------------------------------------------------------------------- #
# Random families                                                        #
# ---------------------------------------------------------------------- #
def gnp_random_graph(num_nodes: int, probability: float, seed: int | random.Random | None = None) -> Graph:
    """Erdős–Rényi G(n, p)."""
    if not (0.0 <= probability <= 1.0):
        raise GraphError(f"edge probability must be in [0, 1], got {probability}")
    n = max(num_nodes, 0)
    with _ArrayDraws(seed) as draws:
        # One draw per pair (u, v), u < v, in row-major order.
        hits = draws.hits(n * (n - 1) // 2, probability)
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # index of the pair (u, u + 1)
    u = np.searchsorted(starts, hits, side="right") - 1
    v = u + 1 + hits - starts[u]
    return Graph(num_nodes, np.column_stack((u, v)))


def random_tree(num_nodes: int, seed: int | random.Random | None = None) -> Graph:
    """A uniformly random labelled tree via a random Prüfer sequence."""
    if num_nodes <= 0:
        raise GraphError("a tree needs at least one node")
    if num_nodes == 1:
        return Graph(1, [])
    if num_nodes == 2:
        return Graph(2, [(0, 1)])
    with _ArrayDraws(seed) as draws:
        pruefer = draws.randbelow(num_nodes, num_nodes - 2)
    degree = (np.bincount(pruefer, minlength=num_nodes) + 1).tolist()
    return Graph(num_nodes, _pruefer_edges(pruefer.tolist(), degree))


def tree_from_pruefer(pruefer: Iterable[int]) -> Graph:
    """Decode a Prüfer sequence into the corresponding labelled tree."""
    pruefer = list(pruefer)
    num_nodes = len(pruefer) + 2
    degree = [1] * num_nodes
    for value in pruefer:
        if not (0 <= value < num_nodes):
            raise GraphError(f"Prüfer entry {value} outside 0..{num_nodes - 1}")
        degree[value] += 1
    return Graph(num_nodes, _pruefer_edges(pruefer, degree))


def _pruefer_edges(pruefer: list[int], degree: list[int]) -> np.ndarray:
    """The tree edges of a valid Prüfer sequence, in linear time.

    *degree* holds each node's occurrences in the sequence plus one and is
    used up.  Each entry is joined to the smallest current leaf: a pointer
    sweeps upwards for the next leaf, except when removing a leaf turns a
    smaller node into one, which is then the smallest and is taken at once.
    """
    ptr = degree.index(1)
    leaf = ptr
    leaves = []
    for value in pruefer:
        leaves.append(leaf)
        degree[value] -= 1
        if degree[value] == 1 and value < ptr:
            leaf = value
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    # The last two nodes left are the final leaf and node n - 1.
    leaves.append(leaf)
    return np.column_stack((leaves, pruefer + [len(degree) - 1]))


def random_bipartite_graph(
    left: int, right: int, probability: float, seed: int | random.Random | None = None
) -> Graph:
    """Random bipartite graph where each cross pair is an edge w.p. *probability*."""
    with _ArrayDraws(seed) as draws:
        # One draw per pair (u, v) in row-major order.
        hits = draws.hits(max(left, 0) * max(right, 0), probability)
    u, v = np.divmod(hits, max(right, 1))
    return Graph(left + right, np.column_stack((u, left + v)))


def random_regular_graph(num_nodes: int, degree: int, seed: int | random.Random | None = None, max_tries: int = 200) -> Graph:
    """A random *degree*-regular graph via the configuration model.

    Retries until a simple graph (no loops, no multi-edges) is produced;
    raises :class:`GraphError` if that fails ``max_tries`` times (which only
    happens for infeasible parameter combinations).
    """
    if degree >= num_nodes:
        raise GraphError("degree must be smaller than the number of nodes")
    if (num_nodes * degree) % 2 != 0:
        raise GraphError("num_nodes * degree must be even")
    rng = _rng(seed)
    stubs_template = [node for node in range(num_nodes) for _ in range(degree)]
    for _ in range(max_tries):
        stubs = stubs_template[:]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (min(u, v), max(u, v))
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            return Graph(num_nodes, sorted(edges))
    raise GraphError(
        f"failed to generate a simple {degree}-regular graph on {num_nodes} nodes"
    )


def preferential_attachment_graph(
    num_nodes: int, edges_per_node: int = 2, seed: int | random.Random | None = None
) -> Graph:
    """A Barabási–Albert power-law graph: each new node attaches to
    *edges_per_node* existing nodes with probability proportional to degree.

    The attachment pool is the classic repeated-endpoints list, so sampling
    a pool entry uniformly is degree-proportional sampling.  The first
    ``edges_per_node + 1`` nodes form a seed star so every later node has a
    non-empty pool to attach to.
    """
    if edges_per_node < 1:
        raise GraphError("preferential attachment needs edges_per_node >= 1")
    rng = _rng(seed)
    m = min(edges_per_node, max(num_nodes - 1, 1))
    core = min(m + 1, num_nodes)
    edges = [(0, v) for v in range(1, core)]
    pool: list[int] = [u for edge in edges for u in edge]
    if not pool and num_nodes > 0:
        pool = [0]
    for node in range(core, num_nodes):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(pool[rng.randrange(len(pool))])
        for target in sorted(targets):
            edges.append((target, node))
            pool.extend((target, node))
    return Graph(num_nodes, edges)


def random_geometric_graph(
    num_nodes: int, radius: float | None = None, seed: int | random.Random | None = None
) -> Graph:
    """A random geometric graph: *num_nodes* points in the unit square,
    connected whenever their Euclidean distance is at most *radius*.

    The sensor-field topology the paper's motivation gestures at.  The
    default radius ``sqrt(2 ln n / (π n))`` sits at the connectivity
    threshold, giving sparse but mostly connected fields.
    """
    import math

    if radius is None:
        n = max(num_nodes, 2)
        radius = math.sqrt(2.0 * math.log(n) / (math.pi * n))
    if radius < 0:
        raise GraphError(f"radius must be non-negative, got {radius}")
    with _ArrayDraws(seed) as draws:
        # x0, y0, x1, y1, ...: the point loop's draw order.
        coords = draws.stream.random_sample(2 * max(num_nodes, 0))
    x, y = coords[0::2], coords[1::2]
    limit = radius * radius
    near = [np.empty((0, 2), dtype=np.int64)]
    for u in range(num_nodes - 1):
        dx = x[u] - x[u + 1 :]
        dy = y[u] - y[u + 1 :]
        v = np.flatnonzero(dx * dx + dy * dy <= limit) + (u + 1)
        near.append(np.column_stack((np.full_like(v, u), v)))
    return Graph(num_nodes, np.concatenate(near))


def circulant_graph(num_nodes: int, offsets: Iterable[int] = ()) -> Graph:
    """The circulant graph ``C_n(offsets)``: node ``i`` joins ``i ± o``.

    With the default offsets ``(1, 2, ⌊√n⌋)`` this is a constant-degree
    vertex-transitive graph with both local and long-range links — a cheap
    deterministic expander-style family for the dynamic experiments.
    """
    if num_nodes < 3:
        raise GraphError("a circulant graph needs at least 3 nodes")
    offsets = tuple(offsets) or (1, 2, max(int(num_nodes**0.5), 1))
    edges = []
    for offset in sorted({int(o) % num_nodes for o in offsets} - {0}):
        for i in range(num_nodes):
            edges.append((i, (i + offset) % num_nodes))
    return Graph(num_nodes, edges)


def random_connected_gnp(
    num_nodes: int, probability: float, seed: int | random.Random | None = None
) -> Graph:
    """G(n, p) conditioned on connectivity by adding a random spanning tree.

    A uniformly random tree is generated first and the G(n, p) edges are
    layered on top, which guarantees connectivity while keeping the expected
    density close to the target.
    """
    rng = _rng(seed)
    base = random_tree(num_nodes, rng)
    extra = gnp_random_graph(num_nodes, probability, rng)
    return base.with_edges(extra.edges)


def _emulator_family(n, seed=None, **kw):
    # Local import: the emulator module reads GRAPH_FAMILIES to resolve its
    # base family, so the dependency must stay one-way at import time.
    from repro.graphs.emulator import emulator_family

    return emulator_family(n, seed, **kw)


GRAPH_FAMILIES = {
    "path": lambda n, seed=None: path_graph(n),
    "cycle": lambda n, seed=None: cycle_graph(max(n, 3)),
    "star": lambda n, seed=None: star_graph(max(n - 1, 1)),
    "binary_tree": lambda n, seed=None: binary_tree(n),
    "random_tree": lambda n, seed=None: random_tree(n, seed),
    "grid": lambda n, seed=None: grid_graph(max(int(round(n ** 0.5)), 1), max(int(round(n ** 0.5)), 1)),
    "gnp_sparse": lambda n, seed=None: gnp_random_graph(n, min(4.0 / max(n, 2), 1.0), seed),
    "gnp_dense": lambda n, seed=None: gnp_random_graph(n, 0.5, seed),
    "complete": lambda n, seed=None: complete_graph(n),
    "preferential_attachment": lambda n, seed=None, **kw: preferential_attachment_graph(n, seed=seed, **kw),
    "random_geometric": lambda n, seed=None, **kw: random_geometric_graph(n, seed=seed, **kw),
    "circulant": lambda n, seed=None, offsets=(): circulant_graph(max(n, 3), offsets),
    "emulator": _emulator_family,
}
"""Named graph families used by the sweep harness; each maps (n, seed) -> Graph."""
