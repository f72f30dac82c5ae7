"""Plain-text tables and experiment reports.

``repro experiment`` prints the series the paper's claims are about (rounds
vs ``n``, overhead ratios, decay factors, ...).  These helpers render them
as aligned ASCII tables.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned ASCII table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [
        "  ".join(str(header).ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


@dataclass
class ExperimentReport:
    """A reproduced experiment: identifier, claim, measured rows, verdict."""

    experiment_id: str
    title: str
    paper_claim: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    conclusion: str = ""
    passed: bool | None = None

    def add_row(self, *cells: Any) -> None:
        self.rows.append(cells)

    def render(self) -> str:
        lines = [
            f"=== {self.experiment_id}: {self.title} ===",
            f"paper claim : {self.paper_claim}",
            format_table(self.headers, self.rows),
        ]
        if self.conclusion:
            lines.append(f"measured    : {self.conclusion}")
        if self.passed is not None:
            lines.append(f"shape holds : {'yes' if self.passed else 'NO'}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
