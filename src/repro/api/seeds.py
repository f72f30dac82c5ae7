"""Seed derivation for multi-run workloads.

Every repeated or swept execution needs one protocol seed per run, all
derived deterministically from a single base seed so that the whole workload
is reproducible from one integer.  A repetition adds its index to the base
seed, and a sweep cell hashes its ``(family, size, repetition)`` coordinates
through ``random.Random``.  :class:`SeedPolicy` is the one home of both
rules — ``repeat()``, ``sweep()`` and the pooled executor all derive their
seeds here — and a regression test pins the derived values bit-for-bit to
the historical ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Upper bound (exclusive) of every derived cell seed; kept at the historical
#: value so derived seeds are bitwise-identical to earlier releases.
_CELL_SEED_BOUND = 2**31


@dataclass(frozen=True)
class CellSeeds:
    """The two seeds of one sweep cell: graph generation and protocol run."""

    graph_seed: int
    run_seed: int


@dataclass(frozen=True)
class SeedPolicy:
    """Derives every seed of a multi-run workload from one base seed.

    The policy is a frozen value object: construct it from the workload's
    ``base_seed`` and ask it for per-run seeds.  Two derivation rules are
    provided, matching the two workload shapes:

    * :meth:`repetition_seed` — repeated runs on one fixed graph
      (``repeat``): seed of repetition ``i`` is ``base_seed + i``;
    * :meth:`cell_seed` / :meth:`sweep_cell` — sweeps over
      ``(family, size, repetition)`` cells: the cell coordinates are hashed
      through ``random.Random`` so neighbouring cells get well-mixed,
      independent-looking seeds even for tiny base seeds.

    Both rules reproduce the historical derivations bit-for-bit (locked by
    ``tests/unit/test_api_seeds.py``), so workloads re-expressed through the
    :class:`~repro.api.Simulation` facade replay their original executions.
    """

    base_seed: int = 0

    def repetition_seed(self, repetition: int) -> int:
        """Seed of repetition *repetition* on a fixed workload."""
        return self.base_seed + repetition

    def cell_seed(self, family: str, size: int, repetition: int) -> int:
        """Deterministic, well-mixed seed for one sweep cell."""
        mixer = random.Random(f"{self.base_seed}|{family}|{size}|{repetition}")
        return mixer.randrange(_CELL_SEED_BOUND)

    def sweep_cell(self, family: str, size: int, repetition: int) -> CellSeeds:
        """Graph and run seeds of one ``(family, size, repetition)`` cell.

        The graph is generated from the raw cell seed and the protocol run
        uses the successor, so the two random streams never coincide.
        """
        seed = self.cell_seed(family, size, repetition)
        return CellSeeds(graph_seed=seed, run_seed=seed + 1)

    def async_cell_seed(
        self, family: str, size: int, repetition: int, adversary: str | None
    ) -> int:
        """Run seed of one asynchronous sweep cell (adversary-dependent)."""
        mixer = random.Random(
            f"{self.base_seed}|{family}|{size}|{repetition}|{adversary or ''}"
        )
        return mixer.randrange(_CELL_SEED_BOUND)

    def dynamic_cell_seed(
        self, family: str, size: int, repetition: int, churn: str | None
    ) -> int:
        """Run seed of one dynamic sweep cell (churn-dependent)."""
        mixer = random.Random(
            f"{self.base_seed}|{family}|{size}|{repetition}|churn:{churn or ''}"
        )
        return mixer.randrange(_CELL_SEED_BOUND)

    def dynamic_sweep_cell(
        self, family: str, size: int, repetition: int, churn: str | None
    ) -> CellSeeds:
        """Seeds of one dynamic ``(family, size, churn, repetition)`` cell.

        Mirrors :meth:`async_sweep_cell`: the *graph* seed ignores the churn
        policy — every churn policy of a cell, and the static sweep of the
        same base seed, start from the *identical* base graph, which is what
        lets the re-convergence experiment compare policies per graph.  Only
        the run seed (and through it the derived churn-schedule seed) mixes
        the policy name in.  The ``churn:`` prefix keeps the stream distinct
        from :meth:`async_cell_seed` for equal policy/adversary names.
        """
        return CellSeeds(
            graph_seed=self.cell_seed(family, size, repetition),
            run_seed=self.dynamic_cell_seed(family, size, repetition, churn),
        )

    def async_sweep_cell(
        self, family: str, size: int, repetition: int, adversary: str | None
    ) -> CellSeeds:
        """Seeds of one asynchronous ``(family, size, adversary, repetition)`` cell.

        The *graph* seed deliberately ignores the adversary — it is the same
        :meth:`cell_seed` the synchronous rule uses — so every adversary of a
        cell, and the synchronous sweep of the same base seed, all execute on
        the *identical* graph.  That shared-graph property is what lets the
        synchronizer-overhead experiment (E3) compute per-graph overhead
        ratios straight from two sweeps.  Only the *run* seed mixes the
        adversary in, keeping the protocol coin streams independent across
        adversaries.
        """
        return CellSeeds(
            graph_seed=self.cell_seed(family, size, repetition),
            run_seed=self.async_cell_seed(family, size, repetition, adversary),
        )
