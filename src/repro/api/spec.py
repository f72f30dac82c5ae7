"""Frozen, serializable run specifications.

A :class:`RunSpec` names everything one execution depends on — protocol,
graph family and size, environment, adversary, backend and seeds — using
registry names and plain values only, so a spec round-trips losslessly
through :meth:`RunSpec.to_dict` / :meth:`RunSpec.from_dict` (and therefore
JSON).  A serializable spec is the unit of work a future multi-process
worker pool can dispatch; today it is what :class:`repro.api.Simulation`
executes and what the CLI's generic ``run`` command builds from its flags.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.budgets import DEFAULT_MAX_EVENTS, DEFAULT_MAX_ROUNDS
from repro.core.errors import SpecError
from repro.api import registry as _registry
from repro.api.backends import BACKEND_TOKENS

#: Recognised execution environments.
ENVIRONMENTS = ("sync", "async", "dynamic")


def _freeze(value: Any) -> Any:
    """Recursively hashable form of a JSON-style parameter value."""
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple, set)):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class RunSpec:
    """One fully described execution (or family of seeded executions).

    Attributes
    ----------
    protocol:
        Name of a registered protocol (see :data:`repro.api.PROTOCOLS`).
    nodes:
        Requested network size, handed to the graph family.
    graph:
        Name of a registered graph family; ``None`` selects the protocol's
        ``default_family``.
    environment:
        ``"sync"`` runs the protocol as written under lockstep rounds;
        ``"async"`` compiles it with the synchronizer
        (:func:`repro.compilers.compile_to_asynchronous`) and executes it
        under an adversarial schedule; ``"dynamic"`` runs lockstep rounds
        over a churning topology (requires ``churn``) and measures
        re-convergence after every disturbance.
    backend:
        One of :data:`repro.api.backends.BACKEND_TOKENS` (``"python"``,
        ``"vectorized"`` or ``"auto"``) — forwarded to the engines, which
        select the tier where they are built and record the selection and
        its reason in ``result.metadata``.
    seed:
        Protocol seed of a single :meth:`~repro.api.Simulation.simulate`
        run, and the *base* seed :class:`~repro.api.SeedPolicy` derives
        per-run seeds from under ``repeat()`` / ``sweep()``.
    graph_seed:
        Seed of the graph generator; defaults to ``seed`` (the historical
        CLI behaviour).
    adversary:
        Name of a registered adversary policy (async only); ``None`` uses
        the engine default (the benign synchronous adversary).
    adversary_seed:
        Explicit adversary seed; ``None`` derives one from ``seed`` via
        :func:`repro.scheduling.adversary.derive_adversary_seed`.
    protocol_params / graph_params / adversary_params:
        Keyword arguments for the respective registered factories.
    inputs:
        Keyword arguments for the protocol entry's ``inputs_factory``
        (e.g. ``{"source": 3}`` for broadcast); must be empty for protocols
        without one.
    max_rounds / max_events:
        Execution budgets of the synchronous / asynchronous engines.
    shards:
        Intra-run sharded execution: split the graph across this many
        shared-memory workers per run — synchronous rounds (see
        :mod:`repro.scheduling.sharded_engine`) and the dynamic
        environment's synchronous segments shard; an asynchronous run is
        one process and records why it ran unsharded.  A pure performance
        knob: every engine draws from the same counter pick stream, so
        ``None`` (the default) and ``1`` are the same unsharded run and
        every larger shard count is bitwise identical to it.  ``shards >=
        2`` requires a shardable backend (``"vectorized"`` or ``"auto"``).
    churn:
        Name of a registered churn policy (see :data:`repro.api.registry.
        CHURN_POLICIES`); required by — and only legal in — the
        ``"dynamic"`` environment.
    churn_seed:
        Explicit churn-schedule seed; ``None`` derives one from ``seed``
        via :func:`repro.graphs.dynamic.derive_churn_seed`.
    churn_params:
        Keyword arguments for the registered churn-policy factory (e.g.
        ``{"flips": 8, "disturbances": 4}`` for ``burst``).
    """

    protocol: str
    nodes: int = 64
    graph: str | None = None
    environment: str = "sync"
    backend: str = "auto"
    seed: int | None = 0
    graph_seed: int | None = None
    adversary: str | None = None
    adversary_seed: int | None = None
    protocol_params: dict[str, Any] = field(default_factory=dict)
    graph_params: dict[str, Any] = field(default_factory=dict)
    adversary_params: dict[str, Any] = field(default_factory=dict)
    inputs: dict[str, Any] = field(default_factory=dict)
    max_rounds: int = DEFAULT_MAX_ROUNDS
    max_events: int = DEFAULT_MAX_EVENTS
    shards: int | None = None
    churn: str | None = None
    churn_seed: int | None = None
    churn_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.environment not in ENVIRONMENTS:
            raise SpecError(
                f"unknown environment {self.environment!r}; expected one of {ENVIRONMENTS}"
            )
        if self.backend not in BACKEND_TOKENS:
            raise SpecError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_TOKENS}"
            )
        if self.adversary is not None and self.environment != "async":
            raise SpecError(
                f"adversary {self.adversary!r} requires environment='async' "
                f"(got {self.environment!r})"
            )
        if self.churn is not None and self.environment != "dynamic":
            raise SpecError(
                f"churn {self.churn!r} requires environment='dynamic' "
                f"(got {self.environment!r})"
            )
        if self.environment == "dynamic" and self.churn is None:
            raise SpecError("environment='dynamic' requires a churn policy")
        if self.churn is None and (self.churn_seed is not None or self.churn_params):
            raise SpecError("churn_seed/churn_params require a churn policy")
        if self.shards is not None:
            if not isinstance(self.shards, int) or self.shards < 1:
                raise SpecError(
                    f"shards must be a positive integer or None, got {self.shards!r}"
                )
            if self.shards >= 2 and self.backend == "python":
                raise SpecError(
                    "shards= requires a vectorized-capable backend "
                    "('vectorized' or 'auto'), not backend='python'"
                )
        for name in (
            "protocol_params",
            "graph_params",
            "adversary_params",
            "inputs",
            "churn_params",
        ):
            value = getattr(self, name)
            if value is None:
                object.__setattr__(self, name, {})
            elif not isinstance(value, dict):
                object.__setattr__(self, name, dict(value))

    # ------------------------------------------------------------------ #
    # Serialization                                                       #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form of the spec (JSON-ready when params/inputs are)."""
        payload: dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            payload[spec_field.name] = dict(value) if isinstance(value, dict) else value
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> RunSpec:
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(data, Mapping):
            raise SpecError(
                f"a RunSpec must be built from a mapping, got {type(data).__name__}"
            )
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown RunSpec keys {unknown}; known keys: {sorted(known)}"
            )
        if "protocol" not in data:
            raise SpecError("a RunSpec dictionary must name a 'protocol'")
        return cls(**dict(data))

    def replace(self, **overrides: Any) -> RunSpec:
        """A copy of the spec with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------ #
    # Registry resolution                                                 #
    # ------------------------------------------------------------------ #
    @property
    def family(self) -> str:
        """The effective graph family (spec's or the protocol default)."""
        if self.graph is not None:
            return self.graph
        return self.entry().default_family

    def entry(self) -> _registry.ProtocolEntry:
        """The registered :class:`~repro.api.registry.ProtocolEntry`."""
        return _registry.PROTOCOLS.get(self.protocol)

    def build_protocol(self) -> Any:
        """A fresh protocol instance built from the registry factory."""
        entry = self.entry()
        if entry.factory is None:
            raise SpecError(
                f"protocol {self.protocol!r} has no factory (it is executed "
                f"through a custom runner)"
            )
        return entry.factory(**self.protocol_params)

    def build_graph(self, *, seed: int | None = None) -> Any:
        """The workload graph; *seed* overrides the spec's graph seed."""
        factory = _registry.GRAPH_FAMILIES.get(self.family)
        if seed is None:
            seed = self.graph_seed if self.graph_seed is not None else self.seed
        return factory(self.nodes, seed, **self.graph_params)

    def build_inputs(self, graph: Any) -> Mapping[int, Any] | None:
        """Per-node protocol inputs, or ``None`` for input-free protocols."""
        entry = self.entry()
        if entry.inputs_factory is None:
            if self.inputs:
                raise SpecError(
                    f"protocol {self.protocol!r} takes no inputs, "
                    f"got {sorted(self.inputs)}"
                )
            return None
        return entry.inputs_factory(graph, **self.inputs)

    def build_adversary(self) -> Any:
        """The adversary policy instance, or ``None`` for the engine default."""
        if self.adversary is None:
            return None
        factory = _registry.ADVERSARIES.get(self.adversary)
        return factory(**self.adversary_params)

    def build_churn(self) -> Any:
        """The churn policy instance, or ``None`` outside the dynamic environment."""
        if self.churn is None:
            return None
        factory = _registry.CHURN_POLICIES.get(self.churn)
        return factory(**self.churn_params)

    def workload_key(self) -> tuple:
        """Hashable identity of the compiled-table workload.

        Two specs with equal keys execute equivalent protocols in the same
        environment under the same requested backend, so they may share one
        compiled table.  Graph, seeds and budgets are deliberately excluded
        — tables are graph- and seed-independent.
        """
        return (
            self.protocol,
            _freeze(self.protocol_params),
            self.environment,
            self.backend,
        )
