"""Maximal matching in the Stone Age model.

The paper states (Section 1) that an efficient maximal-matching protocol
exists but "requires a small unavoidable modification of the nFSM model that
goes beyond the scope of the current version of the paper".  The difficulty
is inherent: a matching must *pair* nodes, but an nFSM node broadcasts the
same letter to all neighbours and cannot address an individual port, so two
neighbours cannot unambiguously agree on "we two are matched" with anonymous
constant-size broadcasts alone.

This module therefore provides maximal matching through the exact reduction

    ``maximal matching(G)  =  MIS(L(G))``

where ``L(G)`` is the line graph of ``G``: every edge of ``G`` becomes a node
of ``L(G)``, two such nodes being adjacent when the original edges share an
endpoint.  A maximal independent set of ``L(G)`` is precisely a maximal
matching of ``G``.  Running the Stone Age MIS protocol of Section 4 on the
line graph stays entirely inside the unmodified nFSM model and inherits the
``O(log² m)`` run-time; the model modification the paper alludes to is only
needed when the *physical* network is ``G`` itself and edges cannot host
their own finite state machines.  This substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from repro.core.budgets import DEFAULT_MAX_ROUNDS
from repro.core.results import ExecutionResult
from repro.graphs.graph import Graph
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.scheduling.sync_engine import _run_synchronous


def maximal_matching_via_line_graph(
    graph: Graph,
    *,
    seed: int | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    backend: str = "auto",
    shards: int | None = None,
) -> tuple[list[tuple[int, int]], ExecutionResult | None]:
    """Compute a maximal matching by running the Stone Age MIS on ``L(G)``.

    Returns the matching (a list of edges of *graph*) together with the
    :class:`~repro.core.results.ExecutionResult` of the underlying MIS run on
    the line graph (``None`` when the graph has no edges), so callers can
    account for the round complexity of the reduction.  ``shards`` opts the
    inner MIS run into intra-run sharded execution (the line graph is where
    the work is — it has one node per edge of *graph*).

    Examples
    --------
    >>> from repro.graphs import cycle_graph
    >>> matching, _ = maximal_matching_via_line_graph(cycle_graph(6), seed=3)
    >>> len(matching) in (2, 3)
    True
    """
    line, edge_of_node = graph.line_graph()
    if line.num_nodes == 0:
        return [], None
    result = _run_synchronous(
        line,
        MISProtocol(),
        seed=seed,
        max_rounds=max_rounds,
        backend=backend,
        shards=shards,
    )
    chosen = mis_from_result(result)
    matching = [edge_of_node[node] for node in sorted(chosen)]
    return matching, result


def matched_nodes(matching: list[tuple[int, int]]) -> set[int]:
    """The set of endpoints covered by *matching*."""
    return {endpoint for edge in matching for endpoint in edge}
