"""Regression lock on the centralised seed derivation (SeedPolicy).

The values below were produced by the historical, duplicated derivations
(the repetition loop's ``base_seed + i`` and the sweep harness's
``random.Random(f"{base}|{family}|{size}|{rep}")`` hash) before they were
centralised; :class:`repro.api.SeedPolicy` must reproduce them bit-for-bit
forever, or every recorded experiment changes identity.
"""

import random

from repro.api import SeedPolicy


class TestRepetitionSeeds:
    def test_matches_the_historical_rule(self):
        policy = SeedPolicy(base_seed=40)
        assert [policy.repetition_seed(i) for i in range(4)] == [40, 41, 42, 43]

    def test_default_base_seed_is_zero(self):
        assert SeedPolicy().repetition_seed(5) == 5


class TestSweepCellSeeds:
    # (family, size, repetition) -> (seed for base 0, seed for base 9),
    # captured from the pre-centralisation implementation.
    GOLDEN = {
        ("gnp_sparse", 64, 0): (331636928, 835444485),
        ("random_tree", 128, 2): (123476623, 1112064154),
        ("path", 16, 1): (952250842, 1755001797),
    }

    def test_golden_values(self):
        for (family, size, repetition), (expected0, expected9) in self.GOLDEN.items():
            assert SeedPolicy(0).cell_seed(family, size, repetition) == expected0
            assert SeedPolicy(9).cell_seed(family, size, repetition) == expected9

    def test_matches_the_historical_formula(self):
        policy = SeedPolicy(base_seed=7)
        for family in ("gnp_sparse", "star"):
            for size in (16, 100):
                for repetition in range(3):
                    legacy = random.Random(f"7|{family}|{size}|{repetition}").randrange(2**31)
                    assert policy.cell_seed(family, size, repetition) == legacy

    def test_sweep_cell_pairs_graph_and_run_seeds(self):
        policy = SeedPolicy(base_seed=3)
        seeds = policy.sweep_cell("cycle", 32, 1)
        assert seeds.graph_seed == policy.cell_seed("cycle", 32, 1)
        assert seeds.run_seed == seeds.graph_seed + 1

    def test_distinct_cells_get_distinct_seeds(self):
        policy = SeedPolicy(base_seed=0)
        seeds = {
            policy.cell_seed(family, size, repetition)
            for family in ("a", "b")
            for size in (8, 16)
            for repetition in range(3)
        }
        assert len(seeds) == 12
