"""Parameter sweeps: run a protocol across graph families, sizes and seeds.

The experiment harness (and the benchmarks regenerating the paper's claims)
all funnel through one sweep implementation,
:meth:`repro.api.Simulation.sweep`: given a spec, a set of graph families
and a list of sizes, it produces one :class:`SweepRecord` per cell
containing the measured cost and the verified solution quality.  This module
holds the record types it returns.  Per-cell seeds come from
:class:`repro.api.seeds.SeedPolicy`, the single home of the derivation rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


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


def geometric_sizes(start: int, stop: int, factor: int = 2) -> list[int]:
    """Sizes ``start, start·factor, ...`` up to and including *stop*."""
    sizes = []
    size = start
    while size <= stop:
        sizes.append(size)
        size *= factor
    return sizes
