"""Reproduction of "Stone Age Distributed Computing" (Emek, Smula, Wattenhofer).

The package implements the networked finite state machine (nFSM) model and
everything the paper builds on top of it:

* :mod:`repro.core` — protocols, alphabets, one-two-many counting, ports;
* :mod:`repro.graphs` — graph type, generators and structural properties;
* :mod:`repro.scheduling` — synchronous and adversarial asynchronous engines;
* :mod:`repro.compilers` — the synchronizer (Theorem 3.1) and the
  multi-letter-query lowering (Theorem 3.4);
* :mod:`repro.protocols` — broadcast, MIS (Section 4), tree 3-coloring
  (Section 5) and maximal matching;
* :mod:`repro.automata` — randomized linear bounded automata and the two
  simulations of Section 6;
* :mod:`repro.baselines` — message-passing (Luby), beeping and Cole–Vishkin
  baselines plus centralized references;
* :mod:`repro.verification` — solution checkers;
* :mod:`repro.analysis` — sweeps, statistics and the experiment harness
  behind EXPERIMENTS.md;
* :mod:`repro.api` — the unified :class:`Simulation` session,
  :class:`RunSpec` experiment descriptions and the named registries.

Quickstart
----------
>>> from repro import RunSpec, Simulation
>>> session = Simulation()
>>> result = session.simulate(RunSpec(protocol="mis", nodes=64, seed=7))
>>> independent_set = {v for v, joined in result.outputs.items() if joined}

The :mod:`repro.api` facade (sessions, run specs, named registries) is the
entry point for every run.
"""

from repro.core import (
    EPSILON,
    Alphabet,
    BoundingParameter,
    ExecutionResult,
    ExtendedProtocol,
    Observation,
    Protocol,
    TableExtendedProtocol,
    TableProtocol,
    TransitionChoice,
)
from repro.graphs import (
    Graph,
    binary_tree,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.compilers import compile_to_asynchronous, lower_to_single_query, synchronize
from repro.protocols import (
    BroadcastProtocol,
    MISProtocol,
    TreeColoringProtocol,
    broadcast_inputs,
    coloring_from_result,
    maximal_matching_via_line_graph,
    mis_from_result,
)
from repro.scheduling import (
    AsynchronousEngine,
    BackendSelection,
    LazyExtendedTable,
    SynchronousEngine,
    VectorizedEngine,
    compile_protocol,
    default_adversary_suite,
    select_backend,
)
from repro.verification import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_coloring,
)
from repro.api import (
    RunSpec,
    SeedPolicy,
    Simulation,
    register_adversary,
    register_graph_family,
    register_protocol,
)

__version__ = "1.1.0"

__all__ = [
    "EPSILON",
    "Alphabet",
    "AsynchronousEngine",
    "BackendSelection",
    "BoundingParameter",
    "BroadcastProtocol",
    "ExecutionResult",
    "ExtendedProtocol",
    "Graph",
    "LazyExtendedTable",
    "MISProtocol",
    "Observation",
    "Protocol",
    "RunSpec",
    "SeedPolicy",
    "Simulation",
    "SynchronousEngine",
    "TableExtendedProtocol",
    "TableProtocol",
    "TransitionChoice",
    "TreeColoringProtocol",
    "VectorizedEngine",
    "__version__",
    "binary_tree",
    "broadcast_inputs",
    "coloring_from_result",
    "compile_protocol",
    "compile_to_asynchronous",
    "complete_graph",
    "cycle_graph",
    "default_adversary_suite",
    "gnp_random_graph",
    "grid_graph",
    "is_maximal_independent_set",
    "is_maximal_matching",
    "is_proper_coloring",
    "lower_to_single_query",
    "maximal_matching_via_line_graph",
    "mis_from_result",
    "path_graph",
    "random_tree",
    "register_adversary",
    "register_graph_family",
    "register_protocol",
    "select_backend",
    "star_graph",
    "synchronize",
]
