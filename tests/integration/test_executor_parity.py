"""Pooled-vs-serial parity matrix for the multiprocess RunSpec executor.

The executor's headline risk is *silent nondeterminism*: a pooled run that
drifts from serial execution would corrupt every sweep-derived claim without
failing anything.  This suite pins the determinism contract across the full
matrix — {sync, async} × {python, vectorized} × {mis, coloring, broadcast}
× workers ∈ {1, 2, 4} — for both ``repeat()`` and ``sweep()``: results must
be **bitwise-identical** to serial execution, in the serial order.
"""

import pytest

from repro.api import RunSpec, Simulation

WORKER_COUNTS = (1, 2, 4)

#: (environment, backend, protocol, spec extras) — every spec-runnable
#: protocol on both engines in both environments, sized to stay fast.
MATRIX = [
    (environment, backend, protocol)
    for environment in ("sync", "async")
    for backend in ("python", "vectorized")
    for protocol in ("mis", "coloring", "broadcast")
]


def _spec(environment: str, backend: str, protocol: str) -> RunSpec:
    extras = {}
    if protocol == "broadcast":
        extras["inputs"] = {"source": 1}
    if environment == "async":
        extras["adversary"] = "uniform"
    return RunSpec(
        protocol=protocol,
        nodes=10,
        environment=environment,
        backend=backend,
        seed=5,
        **extras,
    )


def _fingerprint(result):
    """Everything two identical executions must agree on, bitwise."""
    return (
        result.summary_fields(),
        result.time_units,
        result.elapsed_time,
        result.metadata,
    )


@pytest.mark.parametrize("environment,backend,protocol", MATRIX)
def test_pooled_repeat_matches_serial_bitwise(environment, backend, protocol):
    spec = _spec(environment, backend, protocol)
    serial = [_fingerprint(r) for r in Simulation().repeat(spec, 3)]
    for workers in WORKER_COUNTS:
        pooled = [
            _fingerprint(r)
            for r in Simulation().repeat(spec, 3, workers=workers)
        ]
        assert pooled == serial, f"repeat drifted at workers={workers}"


@pytest.mark.parametrize("environment,backend", [
    ("sync", "python"),
    ("sync", "vectorized"),
    ("async", "python"),
    ("async", "vectorized"),
])
@pytest.mark.parametrize("protocol", ["mis", "coloring", "broadcast"])
def test_pooled_sweep_matches_serial_bitwise(environment, backend, protocol):
    spec = _spec(environment, backend, protocol)
    kwargs = dict(sizes=[6, 9], repetitions=2)
    if environment == "async":
        kwargs["adversaries"] = ["uniform", "bursty"]
        kwargs["repetitions"] = 1
    serial = Simulation().sweep(spec, **kwargs)
    for workers in WORKER_COUNTS:
        pooled = Simulation().sweep(spec, **kwargs, workers=workers)
        assert pooled.records == serial.records, f"sweep drifted at workers={workers}"
        assert pooled.protocol_name == serial.protocol_name


def test_pooled_e1_style_sweep_matches_serial():
    """Two families × three sizes up to n = 256 × two repetitions on the
    interpreter, serial against four workers."""
    spec = RunSpec(protocol="mis", seed=1, backend="python")
    kwargs = dict(families=["gnp_sparse", "random_tree"], sizes=[64, 128, 256], repetitions=2)
    # workers=1 pins the serial baseline explicitly — passing None would
    # consult REPRO_WORKERS and silently pool the baseline too.
    serial = Simulation().sweep(spec, workers=1, **kwargs)
    pooled = Simulation().sweep(spec, workers=4, **kwargs)
    assert pooled.records == serial.records
    assert serial.all_valid()


def test_sweep_builds_graph_params_on_every_path(tmp_path):
    """Serial, pooled and stored cells all build the spec's parametrised graph."""
    spec = RunSpec(
        protocol="mis", graph="random_geometric", graph_params={"radius": 0.6}, seed=3
    )
    kwargs = dict(sizes=[12, 16], repetitions=2)
    serial = Simulation().sweep(spec, workers=1, **kwargs)
    pooled = Simulation().sweep(spec, workers=2, **kwargs)
    stored = Simulation(store=tmp_path).sweep(spec, workers=1, **kwargs)
    assert pooled.records == serial.records
    assert stored.records == serial.records


class TestAsyncSweepSchema:
    """The asynchronous sweep axis introduced alongside the executor."""

    def test_records_carry_the_adversary_label(self):
        sweep = Simulation().sweep(
            RunSpec(protocol="mis", seed=3, environment="async"),
            sizes=[8],
            adversaries=["uniform", "bursty"],
            repetitions=2,
        )
        assert sweep.adversaries() == ["bursty", "uniform"]
        assert len(sweep.records) == 4
        assert all(record.rounds is None for record in sweep.records)
        assert all(record.cost > 0 for record in sweep.records if record.reached_output)

    def test_every_adversary_runs_on_the_same_graph(self):
        sweep = Simulation().sweep(
            RunSpec(protocol="mis", seed=3, environment="async"),
            sizes=[10],
            families=["gnp_sparse"],
            adversaries=["uniform", "bursty", "exponential"],
            repetitions=1,
        )
        edges = {record.graph_edges for record in sweep.records}
        assert len(edges) == 1

    def test_async_graphs_match_the_sync_sweep(self):
        sync = Simulation().sweep(
            RunSpec(protocol="mis", seed=3), sizes=[8, 12], repetitions=1
        )
        asynchronous = Simulation().sweep(
            RunSpec(protocol="mis", seed=3, environment="async"),
            sizes=[8, 12],
            adversaries=["uniform"],
            repetitions=1,
        )
        assert [(r.size, r.graph_edges) for r in sync.records] == [
            (r.size, r.graph_edges) for r in asynchronous.records
        ]

    def test_default_adversary_axis_is_the_specs_adversary(self):
        sweep = Simulation().sweep(
            RunSpec(protocol="mis", seed=3, environment="async", adversary="bursty"),
            sizes=[8],
            repetitions=1,
        )
        assert [record.adversary for record in sweep.records] == ["bursty"]

    def test_adversaries_rejected_for_sync_specs(self):
        from repro.core.errors import SpecError

        with pytest.raises(SpecError, match="async"):
            Simulation().sweep(
                RunSpec(protocol="mis", seed=3),
                sizes=[8],
                adversaries=["uniform"],
            )
