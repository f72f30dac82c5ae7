"""Unit tests for the capability-negotiated backend API.

The registry (:mod:`repro.api.backends`) is the single source of truth the
engines, the session, the CLI census and the executor consult: one
``negotiate_backend`` call resolves a ``backend=`` request against a
workload shape.  These tests pin the negotiation semantics — the auto
climb order, the strict-request errors, the recorded rejection reasons —
and the *loud degradation* contract.  The shipped ladder is python →
vectorized; the ``turbo_available``/``turbo_missing`` fixtures (see
``conftest.py``) register a test-local tier above it that stands in for a
higher tier that is unavailable or cannot take the workload, which also
checks that a tier joins the ladder by registration alone.
"""

import pytest

from repro.api.backends import (
    AUTO_CLIMB_ORDER,
    BACKEND_TOKENS,
    BACKENDS,
    Workload,
    backend_census,
    negotiate_backend,
)
from repro.core.errors import ExecutionError, ProtocolNotVectorizableError


class TestRegistry:
    def test_every_token_is_registered_or_auto(self):
        assert set(BACKEND_TOKENS) == set(BACKENDS) | {"auto"}

    def test_the_shipped_ladder_is_python_then_vectorized(self):
        assert BACKEND_TOKENS == ("python", "vectorized", "auto")
        assert AUTO_CLIMB_ORDER == ("vectorized", "python")

    def test_ranks_are_distinct_and_orderable(self):
        ranks = [spec.rank for spec in BACKENDS.values()]
        assert len(set(ranks)) == len(ranks)
        assert AUTO_CLIMB_ORDER == tuple(
            sorted(BACKENDS, key=lambda name: -BACKENDS[name].rank)
        )

    def test_python_tier_is_the_universal_fallback(self):
        spec = BACKENDS["python"]
        assert spec.availability()[0] is True
        assert set(spec.environments) == {"sync", "async", "dynamic"}
        assert "interpreted" in spec.tabulation_modes

    def test_census_rows_are_rank_sorted_and_complete(self):
        rows = backend_census()
        assert [row["name"] for row in rows] == list(AUTO_CLIMB_ORDER)[::-1]
        for row in rows:
            assert {
                "name", "rank", "available", "detail", "description",
                "environments", "tabulation_modes", "supports_sharding",
            } <= set(row)

    def test_a_registered_tier_joins_the_census(self, turbo_missing):
        row = {r["name"]: r for r in backend_census()}["turbo"]
        assert row["rank"] == 2
        assert row["available"] is False
        assert row["detail"] == turbo_missing


class TestNegotiation:
    def test_auto_climbs_to_a_registered_higher_tier(self, turbo_available):
        negotiation = negotiate_backend(Workload(environment="sync"), "auto")
        assert negotiation.chosen == "turbo"
        assert negotiation.tiers == ("turbo", "vectorized", "python")
        assert negotiation.rejected == ()
        assert negotiation.rejection_note() is None

    def test_auto_degrades_loudly_past_an_unavailable_tier(self, turbo_missing):
        negotiation = negotiate_backend(Workload(environment="sync"), "auto")
        assert negotiation.chosen == "vectorized"
        assert negotiation.rejected == (("turbo", turbo_missing),)
        assert negotiation.rejection_note() == f"turbo tier skipped: {turbo_missing}"

    def test_strict_request_raises_the_real_reason(self, turbo_missing):
        with pytest.raises(ExecutionError, match=turbo_missing):
            negotiate_backend(Workload(environment="sync"), "turbo")

    def test_lazy_tabulation_rules_out_an_eager_only_tier(self, turbo_available):
        negotiation = negotiate_backend(
            Workload(environment="sync", tabulation="lazy"), "auto"
        )
        assert negotiation.chosen == "vectorized"
        assert negotiation.rejected[0][0] == "turbo"
        assert "lazy" in negotiation.rejected[0][1]

    def test_strict_eager_only_tier_rejects_lazy_tables_as_not_vectorizable(
        self, turbo_available
    ):
        with pytest.raises(ProtocolNotVectorizableError, match="eager closure"):
            negotiate_backend(
                Workload(environment="sync", tabulation="lazy"), "turbo"
            )

    def test_async_observer_falls_back_to_the_interpreter(self, turbo_available):
        negotiation = negotiate_backend(
            Workload(environment="async", observer=True), "auto"
        )
        assert negotiation.chosen == "python"
        assert {name for name, _ in negotiation.rejected} == {"turbo", "vectorized"}

    def test_strict_vectorized_observer_keeps_the_legacy_error(self):
        with pytest.raises(ExecutionError, match="per-transition observers"):
            negotiate_backend(
                Workload(environment="async", observer=True), "vectorized"
            )

    def test_strict_python_cannot_shard(self):
        with pytest.raises(ExecutionError, match="cannot shard"):
            negotiate_backend(Workload(environment="sync", shards=2), "python")

    def test_auto_keeps_python_as_fallback_despite_shards(self):
        # Under auto, shards degrade by dropping the shard preference, not
        # by ruling out the last-resort interpreter.
        negotiation = negotiate_backend(Workload(environment="sync", shards=2), "auto")
        assert "python" in negotiation.tiers

    @pytest.mark.parametrize("token", ["cuda", "kernel"])
    def test_unknown_token_is_an_execution_error(self, token):
        with pytest.raises(ExecutionError, match="unknown backend"):
            negotiate_backend(Workload(), token)


class TestEndToEndDegradation:
    """The loud-degradation contract through the real engines."""

    def test_sync_auto_reports_the_skipped_tier(self, turbo_missing):
        from repro.api import Simulation
        from repro.graphs.generators import path_graph
        from repro.protocols.mis import MISProtocol

        result = Simulation().run_protocol(
            path_graph(8), MISProtocol(), seed=0, backend="auto",
            raise_on_timeout=False,
        )
        assert result.metadata["backend"] == "vectorized"
        assert (
            f"turbo tier skipped: {turbo_missing}" in result.metadata["backend_reason"]
        )

    def test_sync_strict_request_raises_clearly(self, turbo_missing):
        from repro.api import Simulation
        from repro.graphs.generators import path_graph
        from repro.protocols.mis import MISProtocol

        with pytest.raises(ExecutionError, match=turbo_missing):
            Simulation().run_protocol(
                path_graph(8), MISProtocol(), seed=0, backend="turbo"
            )

    def test_async_strict_request_raises_clearly(self, turbo_missing):
        from repro.api import Simulation
        from repro.graphs.generators import path_graph
        from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs

        with pytest.raises(ExecutionError, match=turbo_missing):
            Simulation().run_protocol(
                path_graph(8), BroadcastProtocol(), environment="async",
                seed=0, inputs=broadcast_inputs(0), backend="turbo",
            )
