"""Parameter sweeps: run a protocol across graph families, sizes and seeds.

The experiment harness (and the benchmarks regenerating the paper's claims)
all funnel through one sweep implementation: given a protocol factory, a set
of graph families and a list of sizes, it produces one :class:`SweepRecord`
per (family, size, repetition) containing the measured cost and the verified
solution quality.  The public entry point is
:meth:`repro.api.Simulation.sweep` (spec-driven, with warm compiled-table
caching); the historical :func:`sweep_protocol` free function remains as a
deprecated shim.  Per-cell seeds come from
:class:`repro.api.seeds.SeedPolicy`, the single home of the derivation rules.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.api.seeds import SeedPolicy
from repro.core.budgets import DEFAULT_MAX_ROUNDS
from repro.core.protocol import ExtendedProtocol, Protocol
from repro.core.results import ExecutionResult
from repro.graphs.graph import Graph
from repro.scheduling.sync_engine import _run_synchronous, precompile_tables

GraphFactory = Callable[[int, int | None], Graph]
ProtocolFactory = Callable[[], ExtendedProtocol | Protocol]
Validator = Callable[[Graph, ExecutionResult], bool]


@dataclass
class SweepRecord:
    """One measured execution inside a sweep.

    ``cost`` is the run's natural cost: synchronous rounds, or normalised
    time units for asynchronous cells.  ``adversary`` names the adversary of
    an asynchronous cell and stays ``""`` for synchronous records, keeping
    historical records and serialized sweeps unchanged.  ``churn`` likewise
    names the churn policy of a dynamic cell (``""`` otherwise); dynamic
    records measure total rounds across all stabilisation segments, with the
    per-disturbance breakdown in the run metadata.
    """

    family: str
    size: int
    repetition: int
    graph_nodes: int
    graph_edges: int
    cost: float
    rounds: int | None
    reached_output: bool
    valid: bool
    adversary: str = ""
    churn: str = ""
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepResult:
    """All records of a sweep plus convenient aggregations."""

    protocol_name: str
    records: list[SweepRecord]

    def costs(
        self,
        family: str | None = None,
        size: int | None = None,
        adversary: str | None = None,
        churn: str | None = None,
    ) -> list[float]:
        """Measured costs filtered by family, size, adversary and/or churn."""
        return [
            record.cost
            for record in self.records
            if (family is None or record.family == family)
            and (size is None or record.size == size)
            and (adversary is None or record.adversary == adversary)
            and (churn is None or record.churn == churn)
        ]

    def sizes(self) -> list[int]:
        return sorted({record.size for record in self.records})

    def families(self) -> list[str]:
        return sorted({record.family for record in self.records})

    def adversaries(self) -> list[str]:
        """Adversary labels of asynchronous records (empty for sync sweeps)."""
        return sorted({record.adversary for record in self.records if record.adversary})

    def churns(self) -> list[str]:
        """Churn-policy labels of dynamic records (empty for static sweeps)."""
        return sorted({record.churn for record in self.records if record.churn})

    def all_valid(self) -> bool:
        return all(record.valid and record.reached_output for record in self.records)

    def mean_cost_by_size(self, family: str | None = None) -> dict[int, float]:
        """Size → mean cost (over repetitions and, if unspecified, families)."""
        result: dict[int, float] = {}
        for size in self.sizes():
            values = self.costs(family=family, size=size)
            if values:
                result[size] = sum(values) / len(values)
        return result


def _sweep(
    protocol_factory: ProtocolFactory,
    families: Mapping[str, GraphFactory],
    sizes: Sequence[int],
    *,
    repetitions: int = 3,
    base_seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    validator: Validator | None = None,
    inputs_for: Callable[[Graph], Mapping[int, Any]] | None = None,
    extra_metrics: Callable[[Graph, ExecutionResult], dict[str, Any]] | None = None,
    backend: str = "auto",
    precompiled: tuple | None = None,
) -> SweepResult:
    """The sweep implementation shared by the facade and the legacy shim.

    ``precompiled`` optionally supplies the ``(backend, compiled, table)``
    bundle from a :class:`~repro.api.Simulation` session's cache; when
    absent the compile step is paid here, once for the whole sweep.  Seeds
    come from :meth:`SeedPolicy.sweep_cell`: the graph of a cell is built
    from the raw cell seed and the run uses its successor — bitwise the
    historical derivation.
    """
    records: list[SweepRecord] = []
    protocol_name = protocol_factory().name
    if precompiled is None:
        precompiled = precompile_tables(protocol_factory(), backend)
    backend, compiled, table = precompiled
    policy = SeedPolicy(base_seed)
    for family_name, factory in families.items():
        for size in sizes:
            for repetition in range(repetitions):
                seeds = policy.sweep_cell(family_name, size, repetition)
                graph = factory(size, seeds.graph_seed)
                run_inputs = inputs_for(graph) if inputs_for is not None else None
                result = _run_synchronous(
                    graph,
                    protocol_factory(),
                    seed=seeds.run_seed,
                    inputs=run_inputs,
                    max_rounds=max_rounds,
                    raise_on_timeout=False,
                    backend=backend,
                    compiled=compiled,
                    table=table,
                )
                valid = result.reached_output and (
                    validator is None or validator(graph, result)
                )
                extra = extra_metrics(graph, result) if extra_metrics else {}
                records.append(
                    SweepRecord(
                        family=family_name,
                        size=size,
                        repetition=repetition,
                        graph_nodes=graph.num_nodes,
                        graph_edges=graph.num_edges,
                        cost=result.cost,
                        rounds=result.rounds,
                        reached_output=result.reached_output,
                        valid=valid,
                        extra=extra,
                    )
                )
    return SweepResult(protocol_name=protocol_name, records=records)


def sweep_protocol(
    protocol_factory: ProtocolFactory,
    families: Mapping[str, GraphFactory],
    sizes: Sequence[int],
    *,
    repetitions: int = 3,
    base_seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    validator: Validator | None = None,
    inputs_for: Callable[[Graph], Mapping[int, Any]] | None = None,
    extra_metrics: Callable[[Graph, ExecutionResult], dict[str, Any]] | None = None,
    backend: str = "auto",
) -> SweepResult:
    """Deprecated shim: delegate to :meth:`repro.api.Simulation.sweep`.

    Records are bitwise-identical to earlier releases (same per-cell seeds,
    same shared compiled table); only the entry point moved.  Prefer a
    :class:`repro.api.Simulation` session, which additionally keeps the
    compiled table warm across *multiple* sweeps/repeats.
    """
    from repro.api.session import Simulation
    from repro.scheduling.sync_engine import _deprecated

    _deprecated("sweep_protocol()", "repro.api.Simulation.sweep()")
    return Simulation().sweep_protocol_objects(
        protocol_factory,
        families,
        sizes,
        repetitions=repetitions,
        base_seed=base_seed,
        max_rounds=max_rounds,
        validator=validator,
        inputs_for=inputs_for,
        extra_metrics=extra_metrics,
        backend=backend,
    )


def geometric_sizes(start: int, stop: int, factor: int = 2) -> list[int]:
    """Sizes ``start, start·factor, ...`` up to and including *stop*."""
    sizes = []
    size = start
    while size <= stop:
        sizes.append(size)
        size *= factor
    return sizes


def run_many(
    graphs: Iterable[tuple[str, Graph]],
    protocol_factory: ProtocolFactory,
    *,
    repetitions: int = 3,
    base_seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    validator: Validator | None = None,
    backend: str = "auto",
) -> SweepResult:
    """Like a sweep but over an explicit list of labelled graphs.

    The per-cell seed rule is :meth:`SeedPolicy.cell_seed` on
    ``(label, num_nodes, repetition)`` — unchanged from earlier releases.
    """
    protocol_name = protocol_factory().name
    records: list[SweepRecord] = []
    backend, compiled, table = precompile_tables(protocol_factory(), backend)
    policy = SeedPolicy(base_seed)
    for label, graph in graphs:
        for repetition in range(repetitions):
            seed = policy.cell_seed(label, graph.num_nodes, repetition)
            result = _run_synchronous(
                graph,
                protocol_factory(),
                seed=seed,
                max_rounds=max_rounds,
                raise_on_timeout=False,
                backend=backend,
                compiled=compiled,
                table=table,
            )
            valid = result.reached_output and (validator is None or validator(graph, result))
            records.append(
                SweepRecord(
                    family=label,
                    size=graph.num_nodes,
                    repetition=repetition,
                    graph_nodes=graph.num_nodes,
                    graph_edges=graph.num_edges,
                    cost=result.cost,
                    rounds=result.rounds,
                    reached_output=result.reached_output,
                    valid=valid,
                )
            )
    return SweepResult(protocol_name=protocol_name, records=records)
