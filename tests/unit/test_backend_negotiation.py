"""Unit tests for the capability-negotiated backend API.

The registry (:mod:`repro.api.backends`) is the single source of truth the
engines, the session, the CLI census and the executor consult: one
``negotiate_backend`` call resolves a ``backend=`` request against a
workload shape.  These tests pin the negotiation semantics — the auto
climb order, the strict-request errors, the recorded rejection reasons —
and, skip-free on every host, the *loud degradation* contract: when numba
is absent, ``backend="auto"`` silently-but-reportedly falls back while
``backend="kernel"`` fails with the real reason.
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
from repro.scheduling import kernels


@pytest.fixture
def numba_absent(monkeypatch):
    """Force the kernel-tier probe to report numba as missing."""
    monkeypatch.setattr(kernels, "_FORCE_MODE", "absent")


@pytest.fixture
def kernel_available(monkeypatch):
    """Make the kernel tier report available on every host."""
    if not kernels.kernel_availability()[0]:
        monkeypatch.setattr(kernels, "_FORCE_MODE", "pure")


class TestRegistry:
    def test_every_token_is_registered_or_auto(self):
        assert set(BACKEND_TOKENS) == set(BACKENDS) | {"auto"}

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

    def test_census_reports_kernel_unavailability_detail(self, numba_absent):
        row = {r["name"]: r for r in backend_census()}["kernel"]
        assert row["available"] is False
        assert row["detail"] == "numba is not installed"


class TestNegotiation:
    def test_auto_climbs_to_kernel_when_available(self, kernel_available):
        negotiation = negotiate_backend(Workload(environment="sync"), "auto")
        assert negotiation.chosen == "kernel"
        assert negotiation.tiers == ("kernel", "vectorized", "python")
        assert negotiation.rejected == ()
        assert negotiation.rejection_note() is None

    def test_auto_degrades_loudly_without_numba(self, numba_absent):
        negotiation = negotiate_backend(Workload(environment="sync"), "auto")
        assert negotiation.chosen == "vectorized"
        assert negotiation.rejected == (("kernel", "numba is not installed"),)
        assert negotiation.rejection_note() == (
            "kernel tier skipped: numba is not installed"
        )

    def test_strict_kernel_raises_the_real_reason(self, numba_absent):
        with pytest.raises(ExecutionError, match="numba is not installed"):
            negotiate_backend(Workload(environment="sync"), "kernel")

    def test_lazy_tabulation_rules_out_the_kernel_tier(self, kernel_available):
        negotiation = negotiate_backend(
            Workload(environment="sync", tabulation="lazy"), "auto"
        )
        assert negotiation.chosen == "vectorized"
        assert negotiation.rejected[0][0] == "kernel"
        assert "lazy" in negotiation.rejected[0][1]

    def test_strict_kernel_rejects_lazy_tables_as_not_vectorizable(
        self, kernel_available
    ):
        with pytest.raises(ProtocolNotVectorizableError, match="eager closure"):
            negotiate_backend(
                Workload(environment="sync", tabulation="lazy"), "kernel"
            )

    def test_async_observer_falls_back_to_the_interpreter(self, kernel_available):
        negotiation = negotiate_backend(
            Workload(environment="async", observer=True), "auto"
        )
        assert negotiation.chosen == "python"
        assert {name for name, _ in negotiation.rejected} == {"kernel", "vectorized"}

    def test_strict_vectorized_observer_keeps_the_legacy_error(self):
        with pytest.raises(ExecutionError, match="per-transition observers"):
            negotiate_backend(
                Workload(environment="async", observer=True), "vectorized"
            )

    def test_strict_python_cannot_shard(self):
        with pytest.raises(ExecutionError, match="cannot shard"):
            negotiate_backend(Workload(environment="sync", shards=2), "python")

    def test_auto_keeps_python_as_fallback_despite_shards(self, numba_absent):
        # Under auto, shards degrade by dropping the shard preference, not
        # by ruling out the last-resort interpreter.
        negotiation = negotiate_backend(Workload(environment="sync", shards=2), "auto")
        assert "python" in negotiation.tiers

    def test_unknown_token_is_an_execution_error(self):
        with pytest.raises(ExecutionError, match="unknown backend"):
            negotiate_backend(Workload(), "cuda")


class TestEndToEndDegradation:
    """The loud-degradation contract through the real engines, skip-free."""

    def test_sync_auto_reports_the_skipped_kernel_tier(self, numba_absent):
        from repro.graphs.generators import path_graph
        from repro.protocols.mis import MISProtocol
        from repro.scheduling.sync_engine import run_synchronous

        result = run_synchronous(
            path_graph(8), MISProtocol(), seed=0, backend="auto",
            raise_on_timeout=False,
        )
        assert result.metadata["backend"] == "vectorized"
        assert (
            "kernel tier skipped: numba is not installed"
            in result.metadata["backend_reason"]
        )

    def test_sync_strict_kernel_raises_clearly(self, numba_absent):
        from repro.graphs.generators import path_graph
        from repro.protocols.mis import MISProtocol
        from repro.scheduling.sync_engine import run_synchronous

        with pytest.raises(ExecutionError, match="numba is not installed"):
            run_synchronous(path_graph(8), MISProtocol(), seed=0, backend="kernel")

    def test_async_strict_kernel_raises_clearly(self, numba_absent):
        from repro.graphs.generators import path_graph
        from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
        from repro.scheduling.async_engine import run_asynchronous

        with pytest.raises(ExecutionError, match="numba is not installed"):
            run_asynchronous(
                path_graph(8), BroadcastProtocol(), seed=0,
                inputs=broadcast_inputs(0), backend="kernel",
            )

    def test_sync_auto_climbs_to_kernel_when_available(self, kernel_available):
        from repro.graphs.generators import path_graph
        from repro.protocols.mis import MISProtocol
        from repro.scheduling.sync_engine import run_synchronous

        result = run_synchronous(
            path_graph(8), MISProtocol(), seed=0, backend="auto",
            raise_on_timeout=False,
        )
        assert result.metadata["backend"] == "kernel"
        assert "compiled kernels" in result.metadata["backend_reason"]
