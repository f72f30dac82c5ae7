"""Pooled-sweep speedup: the multiprocess executor on an E1-style workload.

Shards an E1-style MIS scaling sweep (families × sizes × repetitions on the
interpreted backend, so each cell is CPU-bound) over a 4-worker process pool
and compares wall-clock time against the serial sweep.  The records must be
bitwise-identical — the pool buys time, never different numbers — and the
headline target is a ≥ 2× win.  Like every wall-clock assertion in this
suite the target is soft (warning, ``REPRO_STRICT_SPEEDUP=1`` makes it
hard); on boxes without at least two usable cores the speedup half is
skipped and only the parity contract is checked.
"""

from __future__ import annotations

import os
import time

from repro.analysis.reporting import ExperimentReport
from repro.api import RunSpec, Simulation

from speedup import soft_assert_speedup

POOL_SPEEDUP_TARGET = 2.0
POOL_WORKERS = 4

SIZES = [64, 128, 256]
REPETITIONS = 2
FAMILIES = ["gnp_sparse", "random_tree"]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _sweep(workers: int):
    # workers=1 pins the serial baseline explicitly — passing None would
    # consult REPRO_WORKERS and silently pool the baseline too.
    return Simulation().sweep(
        RunSpec(protocol="mis", seed=1, backend="python"),
        families=FAMILIES,
        sizes=SIZES,
        repetitions=REPETITIONS,
        workers=workers,
    )


def test_bench_pooled_sweep_speedup(experiment_recorder):
    start = time.perf_counter()
    serial = _sweep(1)
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    pooled = _sweep(POOL_WORKERS)
    pooled_time = time.perf_counter() - start

    # Determinism first: pooled results are the serial results, bitwise.
    assert pooled.records == serial.records
    assert serial.all_valid()

    ratio = serial_time / pooled_time
    report = ExperimentReport(
        experiment_id="EXEC",
        title="Multiprocess executor: pooled E1-style sweep",
        paper_claim="sharding independent cells over workers is pure speedup",
        headers=["cells", "workers", "serial s", "pooled s", "speedup", "cpus"],
    )
    report.add_row(
        len(serial.records),
        POOL_WORKERS,
        round(serial_time, 2),
        round(pooled_time, 2),
        round(ratio, 2),
        _usable_cpus(),
    )
    report.conclusion = (
        f"{len(serial.records)} cells, {POOL_WORKERS} workers: "
        f"{serial_time:.2f}s serial vs {pooled_time:.2f}s pooled "
        f"({ratio:.2f}x), records bitwise-identical"
    )
    report.passed = True
    experiment_recorder(report)

    if _usable_cpus() >= 2:
        soft_assert_speedup(
            ratio,
            f"pooled {POOL_WORKERS}-worker E1-style sweep",
            target=POOL_SPEEDUP_TARGET,
        )


def test_bench_pooled_tables_are_published_not_rebuilt():
    """Shared-table publication: workers never pay the table-build cost.

    Before publication every pool worker re-compiled each distinct
    workload's tables on first use — a k x build cost for k workers.  Now
    the parent compiles each workload once and hands the bundles to the
    pool initializer, which seeds every worker's session cache — so *all*
    worker-side lookups are cache hits, which the merged cache counters
    make directly observable.
    """
    session = Simulation()
    sweep = session.sweep(
        RunSpec(protocol="mis", seed=1),
        families=FAMILIES,
        sizes=[32, 64],
        repetitions=REPETITIONS,
        workers=2,
    )
    assert sweep.all_valid()
    info = session.cache_info()
    cells = len(sweep.records)
    # One lookup per cell, all hits: the k x rebuild cost is gone.
    assert info["hits"] == cells
    assert info["misses"] == 0
    # Compiled tables depend on the protocol alone (not graph family or
    # size), so the whole sweep is one published workload — one entry,
    # built exactly once, parent-side.
    assert info["entries"] == 1
