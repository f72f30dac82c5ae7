"""Topology churn for the dynamic-graph environment.

The paper motivates networked finite state machines with biological and
sensor networks whose topology *changes*; this module supplies the
disturbance side of that story.  A :class:`ChurnPolicy` is a stateless
description of how the topology drifts (how many disturbances, what each
one does); binding it to a node count and a 64-bit seed via
:meth:`ChurnPolicy.start` yields a :class:`ChurnSchedule` whose event
sampling is a **pure function of (seed, disturbance index, draw index)** —
the same counter-based SplitMix64 construction as the adversary schedules
in :mod:`repro.scheduling.adversary`, so scalar and batch uniform draws
agree bitwise and a schedule realises the identical event sequence on
every backend, process, and platform.

A :class:`DynamicGraph` replays a schedule against a base graph: each
:meth:`DynamicGraph.advance` call samples the next disturbance's events,
applies them to the live edge set, and materialises a fresh **versioned
snapshot** — an ordinary immutable :class:`~repro.graphs.graph.Graph`
whose CSR arrays the engines consume as usual.  A superseded snapshot is
freed, arrays and all, once nothing references it, so a long churn run does
not accumulate O(m) buffers per version.

Node churn is modelled on a **fixed node universe**: ``node_off`` removes
every incident edge (the node keeps existing, isolated — engines and
result arrays never resize), and ``node_on`` restores exactly the edges
that were parked when the node went off (both endpoints permitting).  This
mirrors a sensor dying and rejoining with its old links.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.core.errors import GraphError
from repro.graphs.graph import Graph

_MASK64 = (1 << 64) - 1
_U01_SCALE = 2.0**-53

#: Stream tag keeping churn draws independent of the protocol and adversary
#: streams derived from the same spec seed.
_CHURN_STREAM = 0x4348_5552_4E00_0001

#: Rejection-sampling attempts per absent-pair draw before the event is
#: skipped (only dense graphs exhaust it; the skip is itself deterministic).
_PAIR_ATTEMPTS = 64


def _mix64(value: int) -> int:
    """The SplitMix64 finalizer (same construction as scheduling/adversary)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_churn_seed(seed: int | None) -> int:
    """The fallback churn seed derived from a protocol seed.

    Used when a spec supplies no explicit ``churn_seed``.  A fixed integer
    mix (never a string hash), so it is independent of ``PYTHONHASHSEED``
    and reproducible across processes — and distinct from both the protocol
    stream and :func:`repro.scheduling.adversary.derive_adversary_seed`.
    """
    base = (
        0x5EED_C4A2_90DD_77E3
        if seed is None
        else (seed & _MASK64) ^ 0x3C3C_C3C3_5A0F_F0A5
    )
    return _mix64(base)


def derive_segment_seed(seed: int | None, segment: int) -> int | None:
    """The protocol seed of dynamic segment *segment* (0 = the initial run).

    Segment 0 keeps the spec seed untouched, so a dynamic run's first
    segment is bitwise identical to the corresponding static run.  Later
    segments get independent derived streams: each post-disturbance
    continuation is then an ordinary seeded run, which is what reduces
    cross-backend parity of a whole dynamic run to the existing per-run
    parity contract.  ``None`` stays ``None`` (unseeded runs stay unseeded).
    """
    if segment == 0 or seed is None:
        return seed
    return _mix64((seed & _MASK64) ^ _mix64(_CHURN_STREAM + segment)) & 0x7FFF_FFFF


class ChurnEvent:
    """One applied topology change.

    ``kind`` is ``"add"`` / ``"remove"`` (edge events, ``u < v``) or
    ``"node_off"`` / ``"node_on"`` (node events, ``v is None``).  Instances
    are immutable value objects; :meth:`to_tuple` is the JSON-friendly form
    used in result metadata.
    """

    __slots__ = ("kind", "u", "v")

    KINDS = ("add", "remove", "node_off", "node_on")

    def __init__(self, kind: str, u: int, v: int | None = None) -> None:
        if kind not in self.KINDS:
            raise GraphError(f"unknown churn event kind {kind!r}")
        if kind in ("add", "remove"):
            if v is None:
                raise GraphError(f"edge event {kind!r} needs two endpoints")
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self loop on node {u} is not allowed")
            if u > v:
                u, v = v, u
        else:
            if v is not None:
                raise GraphError(f"node event {kind!r} takes a single node")
            u = int(u)
        self.kind = kind
        self.u = u
        self.v = v

    def to_tuple(self) -> tuple:
        return (self.kind, self.u) if self.v is None else (self.kind, self.u, self.v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChurnEvent) and self.to_tuple() == other.to_tuple()
        )

    def __hash__(self) -> int:
        return hash(self.to_tuple())

    def __repr__(self) -> str:
        return f"ChurnEvent{self.to_tuple()!r}"


class ChurnSchedule(ABC):
    """A bound churn policy: the deterministic event source of one run.

    Subclasses implement :meth:`events` by sampling through the counter
    draws below.  Every uniform is a pure function of ``(key, disturbance,
    draw index)``; the scalar and batch layers run the same integer mixing
    chain (:func:`_mix64` elementwise), so ``uniform_batch(d, range(k))``
    equals ``[uniform(d, i) for i in range(k)]`` bitwise — the property the
    Hypothesis suite pins.
    """

    def __init__(self, key: int, num_disturbances: int) -> None:
        self._key = key & _MASK64
        # Fold the first mix of the chain into the key, as the adversary
        # schedules do: per-event sampling sits on the replay hot path.
        self._base = _mix64(self._key ^ _CHURN_STREAM)
        self._num = int(num_disturbances)

    @property
    def num_disturbances(self) -> int:
        """How many disturbances this schedule describes."""
        return self._num

    # -- counter-based uniform draws ------------------------------------- #
    def uniform(self, disturbance: int, index: int) -> float:
        """Scalar uniform in ``[0, 1)`` for one ``(disturbance, draw)`` cell."""
        h = _mix64(self._base ^ disturbance)
        h = _mix64(h ^ index)
        return (_mix64(h) >> 11) * _U01_SCALE

    def uniform_batch(self, disturbance: int, indices) -> list[float]:
        """Batch uniforms, bitwise equal to :meth:`uniform` elementwise."""
        with np.errstate(over="ignore"):
            h = _mix64(self._base ^ disturbance)
            z = np.uint64(h) ^ np.asarray(list(indices)).astype(np.uint64)
            z = z + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
            z = z + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
            return list((z >> np.uint64(11)).astype(float) * _U01_SCALE)

    def _index(self, disturbance: int, draw: int, bound: int) -> int:
        """A uniform index in ``0..bound-1`` (bound must be positive)."""
        return min(int(self.uniform(disturbance, draw) * bound), bound - 1)

    # -- shared event samplers ------------------------------------------- #
    def _sample_pair(self, view: "DynamicGraph", disturbance: int, draw: int):
        """A uniformly sampled unordered pair of distinct *on* nodes.

        Returns ``(u, v, next_draw)`` or ``(None, None, next_draw)`` when
        fewer than two nodes are on.
        """
        on = view.on_nodes
        if len(on) < 2:
            return None, None, draw
        i = self._index(disturbance, draw, len(on))
        j = self._index(disturbance, draw + 1, len(on) - 1)
        if j >= i:  # classic distinct-pair trick: skip over the first index
            j += 1
        u, v = on[i], on[j]
        return min(u, v), max(u, v), draw + 2

    def _sample_absent_pair(self, view: "DynamicGraph", disturbance: int, draw: int):
        """A sampled non-edge between on nodes, or ``(None, None, draw')``."""
        for _ in range(_PAIR_ATTEMPTS):
            u, v, draw = self._sample_pair(view, disturbance, draw)
            if u is None:
                return None, None, draw
            if not view.has_edge(u, v):
                return u, v, draw
        return None, None, draw

    def _sample_existing_edge(self, view: "DynamicGraph", disturbance: int, draw: int):
        """A uniformly sampled existing edge, or ``(None, None, draw')``."""
        edges = view.current_edges
        if not edges:
            return None, None, draw
        u, v = edges[self._index(disturbance, draw, len(edges))]
        return u, v, draw + 1

    def _flip_events(
        self, view: "DynamicGraph", disturbance: int, draw: int, count: int, mode: str
    ) -> tuple[list[ChurnEvent], int]:
        """*count* sampled edge events in *mode* (``flip``/``remove``/``add``)."""
        events: list[ChurnEvent] = []
        for _ in range(count):
            if mode == "remove":
                u, v, draw = self._sample_existing_edge(view, disturbance, draw)
                kind = "remove"
            elif mode == "add":
                u, v, draw = self._sample_absent_pair(view, disturbance, draw)
                kind = "add"
            else:  # flip: a uniform pair, toggled
                u, v, draw = self._sample_pair(view, disturbance, draw)
                kind = "remove" if u is not None and view.has_edge(u, v) else "add"
            if u is not None:
                events.append(ChurnEvent(kind, u, v))
        return events, draw

    @abstractmethod
    def events(self, disturbance: int, view: "DynamicGraph") -> tuple[ChurnEvent, ...]:
        """The events of disturbance *disturbance* against the current *view*."""


class ChurnPolicy(ABC):
    """Factory for :class:`ChurnSchedule` instances.

    Policies are stateless descriptions registered under
    :data:`repro.api.registry.CHURN_POLICIES`; binding one to a node count
    and a churn seed (via :meth:`start`) yields the deterministic schedule
    a run replays.  ``disturbances`` is how many times the dynamic engine
    perturbs the topology (a run therefore has ``disturbances + 1``
    stabilisation segments).
    """

    name: str = "churn"
    disturbances: int = 4

    @abstractmethod
    def start(self, num_nodes: int, seed: int) -> ChurnSchedule:
        """Create the schedule for a *num_nodes*-node run under *seed*."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------- #
# Built-in policies                                                       #
# ---------------------------------------------------------------------- #
class _BurstSchedule(ChurnSchedule):
    def __init__(self, key, num, flips, mode, node_flips):
        super().__init__(key, num)
        self._flips = flips
        self._mode = mode
        self._node_flips = node_flips

    def events(self, disturbance, view):
        events, draw = self._flip_events(
            view, disturbance, 0, self._flips, self._mode
        )
        for _ in range(self._node_flips):
            on = view.on_nodes
            if self._index(disturbance, draw, 2) == 0 and view.off_nodes:
                off = view.off_nodes
                node = off[self._index(disturbance, draw + 1, len(off))]
                events.append(ChurnEvent("node_on", node))
            elif on:
                node = on[self._index(disturbance, draw + 1, len(on))]
                events.append(ChurnEvent("node_off", node))
            draw += 2
        return tuple(events)


class BurstChurn(ChurnPolicy):
    """Each disturbance applies a burst of *flips* sampled edge events.

    ``mode`` selects the event family: ``"flip"`` toggles uniformly sampled
    pairs (the k-edge-flip disturbance of the re-convergence experiments),
    ``"remove"`` deletes existing edges only (forest-preserving — the right
    churn for the tree-coloring protocol), ``"add"`` inserts non-edges only.
    ``node_flips`` additionally toggles that many sampled nodes per
    disturbance (off nodes park their incident edges; toggling back on
    restores them).
    """

    name = "burst"

    def __init__(
        self,
        flips: int = 4,
        disturbances: int = 4,
        mode: str = "flip",
        node_flips: int = 0,
    ) -> None:
        if mode not in ("flip", "remove", "add"):
            raise GraphError(f"unknown burst churn mode {mode!r}")
        if flips < 0 or node_flips < 0 or disturbances < 0:
            raise GraphError("burst churn parameters must be non-negative")
        self.flips = int(flips)
        self.disturbances = int(disturbances)
        self.mode = mode
        self.node_flips = int(node_flips)

    def start(self, num_nodes: int, seed: int) -> ChurnSchedule:
        return _BurstSchedule(
            seed, self.disturbances, self.flips, self.mode, self.node_flips
        )


class _RewireSchedule(ChurnSchedule):
    def __init__(self, key, num, rewires):
        super().__init__(key, num)
        self._rewires = rewires

    def events(self, disturbance, view):
        events: list[ChurnEvent] = []
        draw = 0
        for _ in range(self._rewires):
            removed, draw = self._flip_events(view, disturbance, draw, 1, "remove")
            added, draw = self._flip_events(view, disturbance, draw, 1, "add")
            events.extend(removed)
            events.extend(added)
        return tuple(events)


class PeriodicRewireChurn(ChurnPolicy):
    """Each disturbance rewires: *rewires* edges removed, as many inserted.

    Keeps the edge count (approximately — insertion can be skipped on
    near-complete graphs) constant while the wiring drifts, the classic
    rewiring model of dynamic-network literature.
    """

    name = "rewire"

    def __init__(self, rewires: int = 2, disturbances: int = 4) -> None:
        if rewires < 0 or disturbances < 0:
            raise GraphError("rewire churn parameters must be non-negative")
        self.rewires = int(rewires)
        self.disturbances = int(disturbances)

    def start(self, num_nodes: int, seed: int) -> ChurnSchedule:
        return _RewireSchedule(seed, self.disturbances, self.rewires)


class _DriftSchedule(ChurnSchedule):
    def __init__(self, key, num, rate, max_flips, mode):
        super().__init__(key, num)
        self._rate = rate
        self._max = max_flips
        self._mode = mode

    def events(self, disturbance, view):
        # Geometric burst size: keep drawing successes below the rate.
        count, draw = 1, 0
        while count < self._max and self.uniform(disturbance, draw) < self._rate:
            count += 1
            draw += 1
        draw += 1
        events, _ = self._flip_events(view, disturbance, draw, count, self._mode)
        return tuple(events)


class GeometricDriftChurn(ChurnPolicy):
    """Each disturbance flips a geometrically distributed number of edges.

    ``rate`` is the continuation probability: the burst size is
    ``1 + Geom(rate)`` truncated at ``max_flips``, so most disturbances are
    small with occasional heavy bursts — a drifting topology rather than a
    fixed-size shock.
    """

    name = "drift"

    def __init__(
        self,
        rate: float = 0.5,
        max_flips: int = 16,
        disturbances: int = 4,
        mode: str = "flip",
    ) -> None:
        if not (0.0 <= rate < 1.0):
            raise GraphError(f"drift rate must be in [0, 1), got {rate}")
        if max_flips < 1 or disturbances < 0:
            raise GraphError("drift churn parameters out of range")
        if mode not in ("flip", "remove", "add"):
            raise GraphError(f"unknown drift churn mode {mode!r}")
        self.rate = float(rate)
        self.max_flips = int(max_flips)
        self.disturbances = int(disturbances)
        self.mode = mode

    def start(self, num_nodes: int, seed: int) -> ChurnSchedule:
        return _DriftSchedule(
            seed, self.disturbances, self.rate, self.max_flips, self.mode
        )


class _EventListSchedule(ChurnSchedule):
    def __init__(self, key, disturbances):
        super().__init__(key, len(disturbances))
        self._disturbances = disturbances

    def events(self, disturbance, view):
        return self._disturbances[disturbance]


class EventListChurn(ChurnPolicy):
    """An explicit, fully scripted churn schedule.

    ``events`` is a sequence of disturbances, each a sequence of event
    tuples — ``("add", u, v)``, ``("remove", u, v)``, ``("node_off", u)``,
    ``("node_on", u)`` — exactly the JSON shape a spec's ``churn_params``
    carries.  No sampling happens at all; the seed is accepted (and
    ignored) so the policy is interchangeable with the random ones.
    """

    name = "events"

    def __init__(self, events: Sequence[Sequence] = ()) -> None:
        parsed: list[tuple[ChurnEvent, ...]] = []
        for disturbance in events:
            parsed.append(tuple(ChurnEvent(*entry) for entry in disturbance))
        self.events = tuple(parsed)
        self.disturbances = len(parsed)

    def start(self, num_nodes: int, seed: int) -> ChurnSchedule:
        for disturbance in self.events:
            for event in disturbance:
                ends = (event.u,) if event.v is None else (event.u, event.v)
                for node in ends:
                    if not (0 <= node < num_nodes):
                        raise GraphError(
                            f"churn event {event!r} references node {node} "
                            f"outside 0..{num_nodes - 1}"
                        )
        return _EventListSchedule(seed, self.events)


# ---------------------------------------------------------------------- #
# Replay                                                                  #
# ---------------------------------------------------------------------- #
class DynamicGraph:
    """Replays a :class:`ChurnSchedule` into versioned graph snapshots.

    The live topology is a mutable edge set over a **fixed node universe**
    ``0..n-1``; :meth:`advance` applies the next disturbance and freezes
    the result into an ordinary immutable :class:`~repro.graphs.graph.
    Graph` (version ``k`` after ``k`` disturbances).  Events that cannot
    apply — adding an existing edge, removing an absent one, touching an
    off node — are skipped deterministically and never appear in
    :attr:`last_events`, so recorded metadata lists exactly the changes
    that happened.
    """

    def __init__(self, base: Graph, schedule: ChurnSchedule) -> None:
        self._n = base.num_nodes
        self._schedule = schedule
        self._edges: set[tuple[int, int]] = set(base.edges)
        self._off: set[int] = set()
        self._parked: dict[int, tuple[tuple[int, int], ...]] = {}
        self._version = 0
        self._snapshot = base
        self._last_events: tuple[ChurnEvent, ...] = ()
        self._last_affected: frozenset[int] = frozenset()

    # -- read side (used by schedules and the dynamic engine) ------------- #
    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def version(self) -> int:
        """How many disturbances have been applied."""
        return self._version

    @property
    def num_disturbances(self) -> int:
        return self._schedule.num_disturbances

    @property
    def snapshot(self) -> Graph:
        """The current topology as an immutable versioned snapshot."""
        return self._snapshot

    @property
    def current_edges(self) -> tuple[tuple[int, int], ...]:
        return self._snapshot.edges

    @property
    def on_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in range(self._n) if v not in self._off)

    @property
    def off_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self._off))

    @property
    def last_events(self) -> tuple[ChurnEvent, ...]:
        """The events actually applied by the most recent :meth:`advance`."""
        return self._last_events

    @property
    def last_affected(self) -> frozenset[int]:
        """Nodes whose incident topology the last disturbance touched."""
        return self._last_affected

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edges

    # -- write side -------------------------------------------------------- #
    def advance(self) -> tuple[ChurnEvent, ...]:
        """Apply the next disturbance; returns the applied events."""
        if self._version >= self._schedule.num_disturbances:
            raise GraphError(
                f"schedule exhausted after {self._version} disturbances"
            )
        proposed = self._schedule.events(self._version, self)
        applied: list[ChurnEvent] = []
        affected: set[int] = set()
        for event in proposed:
            if self._apply(event, affected):
                applied.append(event)
        self._version += 1
        self._snapshot = Graph(self._n, list(self._edges))
        self._last_events = tuple(applied)
        self._last_affected = frozenset(affected)
        return self._last_events

    def _apply(self, event: ChurnEvent, affected: set[int]) -> bool:
        kind = event.kind
        if kind == "add":
            if (
                (event.u, event.v) in self._edges
                or event.u in self._off
                or event.v in self._off
                or event.v >= self._n
            ):
                return False
            self._edges.add((event.u, event.v))
            affected.update((event.u, event.v))
            return True
        if kind == "remove":
            if (event.u, event.v) not in self._edges:
                return False
            self._edges.remove((event.u, event.v))
            affected.update((event.u, event.v))
            return True
        if kind == "node_off":
            node = event.u
            if node in self._off or not (0 <= node < self._n):
                return False
            incident = tuple(
                edge for edge in sorted(self._edges) if node in edge
            )
            for edge in incident:
                self._edges.remove(edge)
                affected.update(edge)
            self._parked[node] = incident
            self._off.add(node)
            affected.add(node)
            return True
        # node_on: restore parked edges whose far endpoint is still on.
        node = event.u
        if node not in self._off:
            return False
        self._off.remove(node)
        for u, v in self._parked.pop(node, ()):
            other = v if u == node else u
            if other in self._off:
                continue
            self._edges.add((u, v))
            affected.update((u, v))
        affected.add(node)
        return True


def churn_policy_from_rng(
    policy: ChurnPolicy, num_nodes: int, rng: random.Random
) -> ChurnSchedule:
    """Bind *policy* with a key drawn from an explicit random stream.

    Convenience for direct (spec-less) use mirroring how adversary policies
    are bound; spec-driven runs derive the key with
    :func:`derive_churn_seed` instead.
    """
    return policy.start(num_nodes, rng.getrandbits(64))


__all__ = [
    "BurstChurn",
    "ChurnEvent",
    "ChurnPolicy",
    "ChurnSchedule",
    "DynamicGraph",
    "EventListChurn",
    "GeometricDriftChurn",
    "PeriodicRewireChurn",
    "churn_policy_from_rng",
    "derive_churn_seed",
    "derive_segment_seed",
]
