"""Backend selection: two tiers, three strict errors, one reason per run.

A ``backend=`` request is checked where its engine is built — in
``sync_engine._make_engine`` (synchronous runs and dynamic segments) and in
``async_engine._run_asynchronous``.  These tests pin the strict errors
through every entry point, the reasons ``"auto"`` records, and that a
session's cached table bundle leaves the selection to the engine: a run
selects its tier once, exactly as it would without a session.
"""

import pytest

from repro.api import BACKEND_TOKENS, PROTOCOLS, RunSpec, Simulation, register_protocol
from repro.api.backends import backend_census
from repro.compilers import compile_to_asynchronous
from repro.core.errors import ExecutionError, ProtocolNotVectorizableError
from repro.core.protocol import TableProtocol, TransitionChoice
from repro.graphs.dynamic import BurstChurn
from repro.graphs.generators import path_graph
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.mis import MISProtocol
from repro.scheduling.async_engine import AUTO_VECTORIZE_MIN_NODES, _run_asynchronous
from repro.scheduling.dynamic_engine import _run_dynamic
from repro.scheduling.sync_engine import (
    _run_synchronous,
    build_table_bundle,
    precompile_tables,
    select_backend,
)

CANNOT_SHARD = (
    "shards= requires the vectorized backend; backend='python' "
    "interprets nodes serially and cannot shard"
)
NO_OBSERVERS = (
    "the vectorized asynchronous backend does not support "
    "per-transition observers; use backend='python'"
)


class Counting(BroadcastProtocol):
    """Counts up forever: its closure never ends, so no table takes it."""

    def initial_state(self, input_value=None):
        return 0

    def query_letter(self, state):
        return "TOKEN"

    def options(self, state, count):
        return (TransitionChoice(state + 1, "TOKEN"),)

    def is_output_state(self, state):
        return state >= 3


@pytest.fixture
def counting():
    """``Counting`` registered under a spec name for the test's duration."""
    register_protocol("counting-tmp", default_family="path")(Counting)
    yield "counting-tmp"
    PROTOCOLS.unregister("counting-tmp")


def _async_mis():
    return compile_to_asynchronous(MISProtocol())


class TestTokens:
    def test_the_tokens_are_the_two_tiers_and_auto(self):
        assert BACKEND_TOKENS == ("python", "vectorized", "auto")

    def test_the_census_has_one_row_per_tier(self):
        rows = backend_census()
        assert [row["name"] for row in rows] == ["python", "vectorized"]
        assert [row["tabulation_modes"] for row in rows] == [
            ["interpreted"],
            ["eager", "lazy"],
        ]
        assert [row["supports_sharding"] for row in rows] == [False, True]


class TestStrictErrors:
    """The three errors a request can raise, through every entry point."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda token: _run_synchronous(path_graph(4), MISProtocol(), backend=token),
            lambda token: _run_dynamic(
                path_graph(4), MISProtocol(), churn=BurstChurn(), backend=token
            ),
            lambda token: _run_asynchronous(path_graph(4), _async_mis(), backend=token),
            lambda token: Simulation().run_protocol(
                path_graph(4), MISProtocol(), backend=token, cache_key="k"
            ),
            lambda token: Simulation().run_protocol(
                path_graph(4), _async_mis(), environment="async", backend=token
            ),
            lambda token: select_backend(path_graph(4), MISProtocol(), token),
            lambda token: precompile_tables(MISProtocol(), token),
        ],
        ids=["sync", "dynamic", "async", "session", "session-async", "select", "precompile"],
    )
    def test_an_unknown_token_is_an_execution_error(self, run):
        with pytest.raises(ExecutionError) as info:
            run("kernel")
        assert str(info.value) == (
            "unknown backend 'kernel'; expected one of ('python', 'vectorized', 'auto')"
        )

    @pytest.mark.parametrize(
        "run",
        [
            lambda: _run_synchronous(path_graph(4), MISProtocol(), backend="python", shards=2),
            lambda: _run_dynamic(
                path_graph(4), MISProtocol(), churn=BurstChurn(), backend="python", shards=2
            ),
            lambda: _run_asynchronous(path_graph(4), _async_mis(), backend="python", shards=2),
            lambda: Simulation().run_protocol(
                path_graph(4), MISProtocol(), backend="python", shards=2, cache_key="k"
            ),
        ],
        ids=["sync", "dynamic", "async", "session"],
    )
    def test_python_cannot_shard(self, run):
        with pytest.raises(ExecutionError) as info:
            run()
        assert str(info.value) == CANNOT_SHARD

    def test_python_with_one_shard_is_the_unsharded_run(self):
        one = _run_synchronous(path_graph(6), MISProtocol(), seed=1, backend="python", shards=1)
        none = _run_synchronous(path_graph(6), MISProtocol(), seed=1, backend="python")
        assert one.summary_fields() == none.summary_fields()
        assert one.metadata == none.metadata

    @pytest.mark.parametrize(
        "run",
        [
            lambda observer: _run_asynchronous(
                path_graph(4), _async_mis(), backend="vectorized", observer=observer
            ),
            lambda observer: Simulation().run_protocol(
                path_graph(4),
                _async_mis(),
                environment="async",
                backend="vectorized",
                observer=observer,
                cache_key="k",
            ),
        ],
        ids=["primitive", "session"],
    )
    def test_vectorized_refuses_an_async_observer(self, run):
        with pytest.raises(ExecutionError) as info:
            run(lambda record: None)
        assert str(info.value) == NO_OBSERVERS


class TestAutoReasons:
    def test_auto_interprets_an_async_observer_at_any_size(self):
        records = []
        result = _run_asynchronous(
            path_graph(AUTO_VECTORIZE_MIN_NODES),
            _async_mis(),
            seed=1,
            max_events=2_000,
            raise_on_timeout=False,
            backend="auto",
            observer=records.append,
        )
        assert records
        assert result.metadata["backend"] == "python"
        assert result.metadata["backend_reason"] == (
            "per-transition observers require the interpreted engine"
        )

    def test_a_sync_observer_stays_vectorized(self):
        rounds = []
        result = _run_synchronous(
            path_graph(6),
            MISProtocol(),
            seed=1,
            backend="auto",
            observer=lambda index, states: rounds.append(index),
        )
        assert rounds == list(range(1, result.rounds + 1))
        assert result.metadata["backend"] == "vectorized"
        assert result.metadata["backend_reason"] == "reachable closure enumerated; eager table"

    def test_a_caller_supplied_table_is_labelled_so(self):
        _, compiled, _ = precompile_tables(MISProtocol(), "auto")
        result = _run_synchronous(
            path_graph(6), MISProtocol(), seed=1, backend="auto", compiled=compiled
        )
        assert result.metadata["backend_reason"] == "caller-supplied; eager table"

    def test_a_refused_protocol_falls_back_under_auto_only(self):
        result = _run_synchronous(
            path_graph(3), Counting(), seed=1, backend="auto", max_rounds=5, raise_on_timeout=False
        )
        assert (result.metadata["backend"], result.metadata["backend_mode"]) == (
            "python",
            "interpreted",
        )
        assert result.metadata["backend_reason"].startswith("auto fell back to the interpreter: ")
        with pytest.raises(ProtocolNotVectorizableError):
            _run_synchronous(path_graph(3), Counting(), seed=1, backend="vectorized")


class TestSessionSelectsOnce:
    """A session's bundle records what its compile step found; the engine
    selects the tier from it as it would without a session."""

    @pytest.mark.parametrize(
        "extra", [{}, {"environment": "dynamic", "churn": "burst"}], ids=["sync", "dynamic"]
    )
    def test_auto_drops_shards_when_the_bundle_refuses_the_protocol(self, counting, extra):
        spec = RunSpec(protocol=counting, nodes=6, shards=2, max_rounds=5, **extra)
        result = Simulation().simulate(spec, raise_on_timeout=False)
        assert result.metadata["backend"] == "python"
        assert result.metadata["backend_mode"] == "interpreted"
        assert result.metadata["shard_count"] == 1
        assert result.metadata["backend_reason"].startswith(
            "auto fell back to the interpreter (shards=2 dropped): "
        )

    def test_a_refused_tabulation_runs_once_per_workload(self, counting, monkeypatch):
        from repro.api import session as session_module

        calls = []

        def counted(protocol, backend):
            calls.append(backend)
            return build_table_bundle(protocol, backend)

        monkeypatch.setattr(session_module, "build_table_bundle", counted)
        session = Simulation()
        spec = RunSpec(protocol=counting, nodes=4, max_rounds=5)
        results = [session.simulate(spec, raise_on_timeout=False) for _ in range(3)]
        assert calls == ["auto"]
        assert session.cache_info() == {"hits": 2, "misses": 1, "entries": 1}
        for result in results:
            assert result.metadata["backend"] == "python"
            assert result.metadata["backend_reason"].startswith(
                "auto fell back to the interpreter: "
            )

    def test_an_engine_fallback_is_reported_as_one(self):
        class Seeded(TableProtocol):
            def initial_state(self, input_value=None):
                return "B" if input_value == 1 else "A"

        step = [("D", "x")]
        protocol = Seeded(
            "seeded",
            ["A", "B", "D"],
            ["x"],
            "x",
            1,
            {"A": "x", "B": "x", "D": "x"},
            {("A", 0): step, ("A", 1): step, ("B", 0): step, ("B", 1): step},
            input_states=["A"],
            output_states=["D"],
        )
        result = Simulation().run_protocol(
            path_graph(4), protocol, seed=1, inputs={0: 1}, backend="auto", cache_key="k"
        )
        assert (result.metadata["backend"], result.metadata["backend_mode"]) == (
            "python",
            "interpreted",
        )
        assert result.metadata["backend_reason"].startswith(
            "auto fell back to the interpreter: initial state 'B' is missing "
            "from the compiled table"
        )

    def test_an_unsharded_lazy_run_names_the_session_table(self):
        result = Simulation().run_protocol(
            path_graph(8),
            compile_to_asynchronous(BroadcastProtocol()),
            seed=1,
            inputs=broadcast_inputs(0),
            shards=2,
            cache_key="k",
        )
        assert result.metadata["backend_mode"] == "lazy"
        assert result.metadata["backend_reason"] == (
            "shards=2 requested but a lazy table was supplied (sharding requires "
            "the eager closure); ran unsharded (protocol hints a lazy tabulation; "
            "lazy table (session-precompiled))"
        )

    @pytest.mark.parametrize("shards", [None, 2])
    def test_cache_key_selects_the_tier_of_the_plain_run(self, shards):
        def run(**cache):
            return Simulation().run_protocol(
                path_graph(3),
                Counting(),
                seed=1,
                max_rounds=5,
                raise_on_timeout=False,
                shards=shards,
                **cache,
            )

        plain, cached = run(), run(cache_key="k")
        assert plain.summary_fields() == cached.summary_fields()
        for key in ("backend", "backend_mode", "shard_count"):
            assert plain.metadata.get(key) == cached.metadata.get(key), key

    def test_precompile_tables_reports_a_refusal_as_the_interpreter(self):
        assert precompile_tables(Counting(), "auto") == ("python", None, None)
        with pytest.raises(ProtocolNotVectorizableError):
            precompile_tables(Counting(), "vectorized")
