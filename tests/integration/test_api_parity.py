"""Acceptance parity matrix: RunSpec executions replay the object-level path.

A :class:`~repro.api.RunSpec` built from a plain dictionary must reproduce,
seed for seed, the same :class:`ExecutionResult` a hand-built graph and
protocol produce through :meth:`~repro.api.Simulation.run_protocol` — across
all four engines: {sync, async} × {python, vectorized} — for multiple
registered protocols.  This is what makes the facade a safe drop-in for
every recorded experiment and the serialized spec a trustworthy unit of
distributed work.
"""

import pytest

from repro.api import RunSpec, Simulation
from repro.api.registry import GRAPH_FAMILIES
from repro.compilers import compile_to_asynchronous
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.coloring import TreeColoringProtocol
from repro.protocols.mis import MISProtocol
from repro.scheduling.adversary import UniformRandomAdversary

#: (registry name, protocol class, graph family, inputs-dict, legacy inputs)
PROTOCOL_CASES = [
    ("mis", MISProtocol, "gnp_dense", {}, None),
    ("coloring", TreeColoringProtocol, "random_tree", {}, None),
    ("broadcast", BroadcastProtocol, "path", {"source": 0}, broadcast_inputs(0)),
]

BACKENDS = ["python", "vectorized"]


class TestSynchronousParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "name, protocol_cls, family, inputs, legacy_inputs",
        PROTOCOL_CASES,
        ids=[case[0] for case in PROTOCOL_CASES],
    )
    def test_spec_from_dict_replays_legacy_run(
        self, name, protocol_cls, family, inputs, legacy_inputs, backend
    ):
        spec = RunSpec.from_dict(
            {
                "protocol": name,
                "nodes": 24,
                "graph": family,
                "seed": 13,
                "backend": backend,
                "inputs": inputs,
            }
        )
        facade = Simulation().simulate(spec)
        graph = GRAPH_FAMILIES.get(family)(24, 13)
        legacy = Simulation().run_protocol(
            graph,
            protocol_cls(),
            seed=13,
            inputs=legacy_inputs,
            backend=backend,
        )
        assert facade.summary_fields() == legacy.summary_fields()
        assert facade.metadata["backend"] == legacy.metadata["backend"]


class TestAsynchronousParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "name, protocol_cls, family, inputs, legacy_inputs",
        [case for case in PROTOCOL_CASES if case[0] != "coloring"],
        ids=[case[0] for case in PROTOCOL_CASES if case[0] != "coloring"],
    )
    def test_spec_from_dict_replays_legacy_run(
        self, name, protocol_cls, family, inputs, legacy_inputs, backend
    ):
        spec = RunSpec.from_dict(
            {
                "protocol": name,
                "nodes": 12,
                "graph": family,
                "seed": 21,
                "backend": backend,
                "environment": "async",
                "adversary": "uniform",
                "adversary_seed": 77,
                "inputs": inputs,
            }
        )
        facade = Simulation().simulate(spec)
        graph = GRAPH_FAMILIES.get(family)(12, 21)
        legacy = Simulation().run_protocol(
            graph,
            compile_to_asynchronous(protocol_cls()),
            environment="async",
            seed=21,
            adversary=UniformRandomAdversary(),
            adversary_seed=77,
            inputs=legacy_inputs,
            backend=backend,
        )
        assert facade.reached_output and legacy.reached_output
        assert facade.final_states == legacy.final_states
        assert facade.outputs == legacy.outputs
        assert facade.time_units == legacy.time_units
        assert facade.elapsed_time == legacy.elapsed_time
        assert facade.total_node_steps == legacy.total_node_steps
        assert facade.seed == legacy.seed


class TestSessionWarmTables:
    def test_compiled_table_survives_spec_variations(self):
        # Varying graph/seed must reuse the same cached table: the workload
        # key excludes them by design.
        session = Simulation()
        base = RunSpec(protocol="mis", nodes=16, seed=1, backend="vectorized")
        session.simulate(base)
        session.simulate(base.replace(nodes=24, seed=9, graph="cycle"))
        assert session.cache_hits == 1
        # A different backend token is a different workload.
        session.simulate(base.replace(backend="python"))
        assert session.cache_misses == 2
