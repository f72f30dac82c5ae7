"""Unit tests for the dynamic-graph environment core.

Covers the seed-deterministic churn schedules (counter-based draws, event
generation), the :class:`DynamicGraph` snapshot lifecycle (versioning, event
application and skipping, node parking/restoring) and the CSR cache contract
the snapshots rely on.
"""

import pytest

from repro.core.errors import GraphError
from repro.graphs.dynamic import (
    BurstChurn,
    ChurnEvent,
    DynamicGraph,
    EventListChurn,
    GeometricDriftChurn,
    PeriodicRewireChurn,
    derive_churn_seed,
    derive_segment_seed,
)
from repro.graphs.generators import cycle_graph, gnp_random_graph
from repro.graphs.graph import Graph

ALL_POLICIES = (
    BurstChurn(flips=3, disturbances=3),
    PeriodicRewireChurn(rewires=2, disturbances=3),
    GeometricDriftChurn(disturbances=3),
    EventListChurn(events=[[("remove", 0, 1)], [("add", 0, 1)]]),
)


class TestSeedDerivation:
    def test_churn_seed_is_deterministic_and_seed_sensitive(self):
        assert derive_churn_seed(7) == derive_churn_seed(7)
        assert derive_churn_seed(7) != derive_churn_seed(8)
        # Unseeded specs still get a fixed, reproducible schedule key.
        assert derive_churn_seed(None) == derive_churn_seed(None)

    def test_segment_zero_keeps_the_spec_seed(self):
        assert derive_segment_seed(123, 0) == 123
        assert derive_segment_seed(None, 3) is None

    def test_later_segments_get_distinct_derived_seeds(self):
        seeds = [derive_segment_seed(9, k) for k in range(5)]
        assert len(set(seeds)) == len(seeds)


class TestChurnEvent:
    def test_edge_events_normalise_endpoint_order(self):
        assert ChurnEvent("add", 5, 2).to_tuple() == ("add", 2, 5)

    def test_node_events_take_a_single_node(self):
        assert ChurnEvent("node_off", 4).to_tuple() == ("node_off", 4)
        with pytest.raises(GraphError):
            ChurnEvent("node_off", 4, 5)

    def test_self_loops_and_unknown_kinds_are_rejected(self):
        with pytest.raises(GraphError):
            ChurnEvent("add", 3, 3)
        with pytest.raises(GraphError):
            ChurnEvent("teleport", 1, 2)


class TestScheduleDeterminism:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_same_seed_same_event_sequence(self, policy):
        base = gnp_random_graph(24, 0.2, seed=3)

        def replay():
            dyn = DynamicGraph(base, policy.start(base.num_nodes, 42))
            trail = []
            for _ in range(dyn.num_disturbances):
                trail.append(tuple(e.to_tuple() for e in dyn.advance()))
            return trail, tuple(dyn.snapshot.edges)

        assert replay() == replay()

    def test_different_seeds_diverge(self):
        base = gnp_random_graph(24, 0.2, seed=3)
        policy = BurstChurn(flips=4, disturbances=4)
        trails = []
        for key in (1, 2):
            dyn = DynamicGraph(base, policy.start(base.num_nodes, key))
            for _ in range(dyn.num_disturbances):
                dyn.advance()
            trails.append(tuple(dyn.snapshot.edges))
        assert trails[0] != trails[1]

    def test_uniform_batch_matches_scalar_bitwise(self):
        schedule = BurstChurn().start(16, 99)
        for disturbance in range(3):
            scalar = [schedule.uniform(disturbance, i) for i in range(32)]
            assert schedule.uniform_batch(disturbance, range(32)) == scalar


class TestDynamicGraph:
    def test_snapshots_are_versioned_and_immutable(self):
        base = cycle_graph(8)
        dyn = DynamicGraph(base, BurstChurn(flips=2, disturbances=2).start(8, 5))
        first = dyn.snapshot
        assert dyn.version == 0
        # Version 0 shares the (immutable) base graph; churn never mutates it.
        assert tuple(first.edges) == tuple(base.edges)
        dyn.advance()
        assert dyn.version == 1
        assert dyn.snapshot is not first
        assert tuple(base.edges) == tuple(cycle_graph(8).edges)

    def test_event_list_applies_and_skips(self):
        base = Graph(4, [(0, 1), (1, 2)])
        policy = EventListChurn(
            events=[
                # (2,3) applies; removing the absent (0,3) is skipped;
                # re-adding the present (0,1) is skipped.
                [("add", 2, 3), ("remove", 0, 3), ("add", 0, 1)],
            ]
        )
        dyn = DynamicGraph(base, policy.start(4, 0))
        applied = dyn.advance()
        assert [e.to_tuple() for e in applied] == [("add", 2, 3)]
        assert dyn.last_affected == frozenset({2, 3})
        assert dyn.has_edge(2, 3)

    def test_node_off_parks_and_node_on_restores(self):
        base = Graph(4, [(0, 1), (1, 2), (2, 3)])
        policy = EventListChurn(events=[[("node_off", 1)], [("node_on", 1)]])
        dyn = DynamicGraph(base, policy.start(4, 0))
        dyn.advance()
        assert dyn.off_nodes == (1,)
        assert not dyn.has_edge(0, 1) and not dyn.has_edge(1, 2)
        assert dyn.has_edge(2, 3)
        dyn.advance()
        assert dyn.off_nodes == ()
        assert sorted(dyn.snapshot.edges) == [(0, 1), (1, 2), (2, 3)]

    def test_advance_past_schedule_end_raises(self):
        base = cycle_graph(6)
        dyn = DynamicGraph(base, BurstChurn(disturbances=1).start(6, 1))
        dyn.advance()
        with pytest.raises(GraphError):
            dyn.advance()

    def test_remove_mode_only_removes(self):
        base = gnp_random_graph(20, 0.3, seed=8)
        policy = BurstChurn(flips=3, disturbances=3, mode="remove")
        dyn = DynamicGraph(base, policy.start(20, 11))
        previous = set(base.edges)
        for _ in range(dyn.num_disturbances):
            for event in dyn.advance():
                assert event.kind == "remove"
            current = set(dyn.snapshot.edges)
            assert current <= previous
            previous = current


class TestCsrCache:
    def test_snapshots_never_share_stale_csr(self):
        # Regression: each DynamicGraph snapshot is a fresh Graph, so the
        # CSR an engine reads always describes that snapshot's edges.
        base = gnp_random_graph(16, 0.3, seed=4)
        dyn = DynamicGraph(base, BurstChurn(flips=4, disturbances=2).start(16, 7))
        before = dyn.snapshot
        before.csr_adjacency()
        dyn.advance()
        after = dyn.snapshot
        indptr, indices = after.csr_adjacency()
        degree = {
            v: int(indptr[v + 1]) - int(indptr[v]) for v in range(after.num_nodes)
        }
        expected = {v: len(after.neighbors(v)) for v in range(after.num_nodes)}
        assert degree == expected
