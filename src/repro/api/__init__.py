"""The unified simulation API: sessions, run specs and named registries.

This package is the recommended entry point to the library::

    from repro.api import RunSpec, Simulation

    session = Simulation()
    result = session.simulate(RunSpec(protocol="mis", nodes=256, seed=7))
    repeats = session.repeat(RunSpec(protocol="coloring", nodes=128), 5)
    sweep = session.sweep(
        RunSpec(protocol="mis", seed=1),
        families=["random_tree", "gnp_sparse"],
        sizes=[64, 128, 256],
    )

It is built from three concepts:

* :class:`RunSpec` — a frozen, dict/JSON-round-trippable description of one
  execution: protocol, graph family, environment, adversary, backend and
  seeds, all referenced by registry *name*;
* :class:`Simulation` — a session owning backend selection, seed derivation
  (:class:`SeedPolicy`) and a compiled-table cache that stays warm across
  ``simulate()`` / ``repeat()`` / ``sweep()`` calls;
* the registries (:data:`PROTOCOLS`, :data:`GRAPH_FAMILIES`,
  :data:`ADVERSARIES`, :data:`CHURN_POLICIES`) with their
  :func:`register_protocol`, :func:`register_graph_family`,
  :func:`register_adversary` and :func:`register_churn` extension
  decorators — see docs/API.md for the extension guide.
"""

from repro.api.backends import BACKEND_TOKENS, backend_census
from repro.api.executor import (
    WORKERS_ENV,
    effective_workers,
    run_specs,
    shard_repetition_specs,
)
from repro.api.registry import (
    ADVERSARIES,
    CHURN_POLICIES,
    GRAPH_FAMILIES,
    PROTOCOLS,
    ProtocolEntry,
    Registry,
    register_adversary,
    register_churn,
    register_graph_family,
    register_protocol,
)
from repro.api.seeds import CellSeeds, SeedPolicy
from repro.api.spec import ENVIRONMENTS, RunSpec
from repro.api.session import Simulation
from repro.api.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    canonical_spec_json,
    spec_cacheable,
    spec_hash,
)
from repro.api import builtins as _builtins  # noqa: F401  (populates the registries)

__all__ = [
    "ADVERSARIES",
    "BACKEND_TOKENS",
    "CHURN_POLICIES",
    "ENVIRONMENTS",
    "GRAPH_FAMILIES",
    "PROTOCOLS",
    "STORE_SCHEMA_VERSION",
    "WORKERS_ENV",
    "CellSeeds",
    "ProtocolEntry",
    "Registry",
    "ResultStore",
    "RunSpec",
    "SeedPolicy",
    "Simulation",
    "backend_census",
    "canonical_spec_json",
    "effective_workers",
    "register_adversary",
    "register_churn",
    "register_graph_family",
    "register_protocol",
    "run_specs",
    "shard_repetition_specs",
    "spec_cacheable",
    "spec_hash",
]
