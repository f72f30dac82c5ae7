#!/usr/bin/env python3
"""Mini scaling study: regenerate the headline growth curves on your laptop.

This is a lighter-weight version of experiments E1 and E2 (``python -m
repro experiment E1`` prints the full report): it sweeps the Stone Age MIS
and the tree 3-coloring protocols over doubling network sizes, prints rounds
alongside the log-normalised columns the theorems predict, and reports which
growth function fits the measurements best.

Both sweeps run through one :class:`repro.api.Simulation` session, so the
compiled transition tables stay warm across them, and each workload is a
declarative :class:`repro.api.RunSpec`.  The default ``backend="auto"``
selects the vectorized batch engine, which is what makes the 4096-node upper
sizes finish in seconds on a laptop; pass ``--backend python`` to compare
against the interpreted reference engine — the measured rounds are identical
either way.  ``--quick`` shrinks the workload to CI-smoke size.
"""

from __future__ import annotations

import argparse
import math

from repro.analysis import best_growth_fit, format_table, geometric_sizes
from repro.api import RunSpec, Simulation
from repro.protocols.coloring import coloring_from_result
from repro.protocols.mis import mis_from_result
from repro.verification import is_maximal_independent_set, is_proper_coloring

MIS_FAMILY_NAMES = ["random_tree", "gnp_sparse", "cycle", "grid"]
TREE_FAMILY_NAMES = ["random_tree", "path", "star", "binary_tree"]


# Module-level validators (not lambdas) so ``--workers`` can ship them to
# the worker processes of a pooled sweep.
def _valid_mis(graph, result) -> bool:
    return is_maximal_independent_set(graph, mis_from_result(result))


def _valid_coloring(graph, result) -> bool:
    return is_proper_coloring(graph, coloring_from_result(result))


def mis_study(session: Simulation, sizes: list[int], repetitions: int, backend: str,
              workers: int | None) -> None:
    sweep = session.sweep(
        RunSpec(protocol="mis", seed=1, backend=backend),
        families=MIS_FAMILY_NAMES,
        sizes=sizes,
        repetitions=repetitions,
        validator=_valid_mis,
        workers=workers,
    )
    by_size = sweep.mean_cost_by_size()
    rows = [
        (n, round(by_size[n], 1), round(by_size[n] / math.log2(n) ** 2, 3))
        for n in sorted(by_size)
    ]
    print("== MIS rounds vs n (Theorem 4.5 predicts O(log^2 n)) ==")
    print(format_table(["n", "mean rounds", "rounds / log2^2(n)"], rows))
    fit = best_growth_fit(list(by_size), list(by_size.values()))
    print(f"best fit: {fit.label}  (R^2 = {fit.r_squared:.3f}); "
          f"all runs produced valid MIS's: {sweep.all_valid()}\n")


def coloring_study(session: Simulation, sizes: list[int], repetitions: int, backend: str,
                   workers: int | None) -> None:
    sweep = session.sweep(
        RunSpec(protocol="coloring", seed=2, backend=backend),
        families=TREE_FAMILY_NAMES,
        sizes=sizes,
        repetitions=repetitions,
        validator=_valid_coloring,
        workers=workers,
    )
    by_size = sweep.mean_cost_by_size()
    rows = [
        (n, round(by_size[n], 1), round(by_size[n] / math.log2(n), 3))
        for n in sorted(by_size)
    ]
    print("== Tree 3-coloring rounds vs n (Theorem 5.4 predicts O(log n)) ==")
    print(format_table(["n", "mean rounds", "rounds / log2(n)"], rows))
    fit = best_growth_fit(list(by_size), list(by_size.values()))
    print(f"best fit: {fit.label}  (R^2 = {fit.r_squared:.3f}); "
          f"all runs produced proper 3-colorings: {sweep.all_valid()}")


def main() -> None:
    parser = argparse.ArgumentParser(description="Stone Age scaling study")
    parser.add_argument("--max-size", type=int, default=4096,
                        help="largest network size in the doubling ladder")
    parser.add_argument("--repetitions", type=int, default=2)
    parser.add_argument("--backend", choices=("python", "vectorized", "auto"),
                        default="auto")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for smoke tests (overrides --max-size)")
    parser.add_argument("--workers", type=int, default=None,
                        help="shard sweep cells over this many worker processes "
                             "(results are identical to serial execution)")
    args = parser.parse_args()
    max_size = 64 if args.quick else args.max_size
    repetitions = 1 if args.quick else args.repetitions
    sizes = geometric_sizes(16, max_size)
    session = Simulation()
    mis_study(session, sizes, repetitions, args.backend, args.workers)
    coloring_study(session, sizes, repetitions, args.backend, args.workers)


if __name__ == "__main__":
    main()
