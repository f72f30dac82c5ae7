"""Immutable undirected graphs stored as CSR arrays.

The paper models the network as a finite undirected graph ``G = (V, E)``.
Nodes are the integers ``0 .. n-1``.  A :class:`Graph` keeps its adjacency
once, in compressed sparse row (CSR) form: two read-only ``int64`` arrays
that the vectorized engines, the partitioner and the shard pool read
directly.  The tuple views the interpreters, validators and baselines loop
over (:attr:`Graph.edges`, :meth:`Graph.adjacency`) are built from those
arrays on first use and cached.  Conversion helpers to and from
:mod:`networkx` are provided for interoperability, but nothing in the
library requires networkx at runtime.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import GraphError


def _reject(num_nodes: int, u: int, v: int) -> None:
    """Raise the error for the bad edge ``(u, v)``: self-loop first, then range."""
    if u == v:
        raise GraphError(f"self loop on node {u} is not allowed")
    raise GraphError(f"edge ({u}, {v}) references a node outside 0..{num_nodes - 1}")


def _pair_array(num_nodes: int, edges) -> np.ndarray:
    """*edges* (pairs, or an ``(m, 2)`` integer array) as an int64 array."""
    if not isinstance(edges, (np.ndarray, list, tuple)):
        edges = list(edges)
    try:
        pairs = np.asarray(edges, dtype=np.int64)
    except OverflowError:
        # A node id beyond int64 is out of range; report the first bad edge.
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v or not (0 <= u < num_nodes and 0 <= v < num_nodes):
                _reject(num_nodes, u, v)
        raise
    if pairs.shape == (0,):
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    return pairs


class Graph:
    """A finite, simple, undirected graph on nodes ``0 .. n-1``.

    Instances are immutable; all mutation-style operations return new graphs.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; nodes are the integers ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(m, 2)`` integer array.
        Self-loops are rejected, duplicate edges (in either orientation)
        are collapsed.
    """

    __slots__ = ("_n", "_indptr", "_indices", "_edges", "_adjacency")

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        n = self._n = int(num_nodes)
        pairs = _pair_array(n, edges)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            first = int(bad.argmax())
            _reject(n, int(pairs[first, 0]), int(pairs[first, 1]))
        # One key per undirected edge, sorted, duplicates dropped.
        keys = np.sort(lo * n + hi)
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys
        lo, hi = keys // max(n, 1), keys % max(n, 1)
        # Both directions of every edge, sorted by (source, target).
        src = np.concatenate((lo, hi))
        arcs = np.sort(src * n + np.concatenate((hi, lo)))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        indices = arcs % max(n, 1)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._indptr = indptr
        self._indices = indices
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._adjacency: tuple[tuple[int, ...], ...] | None = None

    # ------------------------------------------------------------------ #
    # Basic accessors                                                    #
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self._indices) // 2

    @property
    def nodes(self) -> range:
        """The node identifiers ``0 .. n-1``."""
        return range(self._n)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        if self._edges is None:
            lo, hi = self._edge_columns()
            self._edges = tuple(zip(lo.tolist(), hi.tolist()))
        return self._edges

    def neighbors(self, node: int) -> tuple[int, ...]:
        """The neighbourhood ``N(node)`` as a sorted tuple."""
        return (self._adjacency or self.adjacency())[node]

    def degree(self, node: int) -> int:
        """Degree of *node*."""
        return len((self._adjacency or self.adjacency())[node])

    def max_degree(self) -> int:
        """The maximum degree Δ(G) (0 for the empty graph)."""
        if self._n == 0:
            return 0
        return int(np.diff(self._indptr).max())

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        if not (0 <= u < self._n and 0 <= v < self._n) or u == v:
            return False
        return v in (self._adjacency or self.adjacency())[u]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The full adjacency structure (tuple of sorted neighbour tuples)."""
        if self._adjacency is None:
            flat = self._indices.tolist()
            bounds = self._indptr.tolist()
            self._adjacency = tuple(
                tuple(flat[bounds[v] : bounds[v + 1]]) for v in range(self._n)
            )
        return self._adjacency

    def csr_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency in CSR form: ``(indptr, indices)``.

        ``indices[indptr[v]:indptr[v+1]]`` are the (sorted) neighbours of
        ``v``; both directions of every edge appear.  The arrays are the
        graph's own read-only ``int64`` storage, so every engine
        construction (and every shard worker) shares the same buffers.
        """
        return self._indptr, self._indices

    def _edge_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as two arrays ``(lo, hi)``, sorted, with ``lo < hi``."""
        src = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._indptr))
        upper = self._indices > src
        return src[upper], self._indices[upper]

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and other._n == self._n
            and np.array_equal(other._indptr, self._indptr)
            and np.array_equal(other._indices, self._indices)
        )

    def __hash__(self) -> int:
        return hash((self._n, self.edges))

    def __reduce__(self):
        return Graph, (self._n, np.column_stack(self._edge_columns()))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self._n}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Derived graphs                                                     #
    # ------------------------------------------------------------------ #
    def subgraph(self, keep_nodes: Iterable[int]) -> "Graph":
        """Induced subgraph on *keep_nodes*, relabelled to ``0..k-1``.

        The relabelling preserves the relative order of the original node
        identifiers.
        """
        keep = sorted(set(int(v) for v in keep_nodes))
        for v in keep:
            if not (0 <= v < self._n):
                raise GraphError(f"node {v} is not in the graph")
        relabel = {old: new for new, old in enumerate(keep)}
        edges = [
            (relabel[u], relabel[v])
            for (u, v) in self.edges
            if u in relabel and v in relabel
        ]
        return Graph(len(keep), edges)

    def line_graph(self) -> tuple["Graph", tuple[tuple[int, int], ...]]:
        """The line graph L(G) together with the edge-to-node mapping.

        Node ``i`` of the line graph corresponds to ``edge_order[i]`` of this
        graph; two line-graph nodes are adjacent when the original edges share
        an endpoint.  Used by the maximal-matching-via-MIS reduction.
        """
        edge_order = self.edges
        index = {edge: i for i, edge in enumerate(edge_order)}
        line_edges: set[tuple[int, int]] = set()
        for v in range(self._n):
            incident = [
                index[(min(v, u), max(v, u))] for u in self.neighbors(v)
            ]
            for a_pos in range(len(incident)):
                for b_pos in range(a_pos + 1, len(incident)):
                    a, b = incident[a_pos], incident[b_pos]
                    line_edges.add((min(a, b), max(a, b)))
        return Graph(len(edge_order), sorted(line_edges)), edge_order

    def with_edges(self, extra_edges: Iterable[tuple[int, int]]) -> "Graph":
        """A new graph with *extra_edges* added."""
        extra = _pair_array(self._n, extra_edges)
        return Graph(self._n, np.concatenate((np.column_stack(self._edge_columns()), extra)))

    # ------------------------------------------------------------------ #
    # Construction helpers / interop                                     #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_list(cls, edges: Sequence[tuple[int, int]]) -> "Graph":
        """Build a graph whose node count is inferred from the edge list."""
        if not edges:
            return cls(0, [])
        num_nodes = max(max(u, v) for u, v in edges) + 1
        return cls(num_nodes, edges)

    @classmethod
    def from_networkx(cls, nx_graph) -> tuple["Graph", dict]:
        """Convert a networkx graph; returns ``(graph, label_of_index)``.

        Node labels are mapped to ``0..n-1`` in sorted-by-string order; the
        returned dictionary maps our integer identifiers back to the original
        labels.
        """
        labels = sorted(nx_graph.nodes(), key=repr)
        position = {label: i for i, label in enumerate(labels)}
        edges = [(position[u], position[v]) for u, v in nx_graph.edges()]
        return cls(len(labels), edges), dict(enumerate(labels))

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (requires networkx)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(self._n))
        nx_graph.add_edges_from(self.edges)
        return nx_graph
