"""Sharded asynchronous execution: time-bucketed event batches over shards.

The async sharded backend (`repro/scheduling/sharded_async_engine.py`)
splits the node set of one asynchronous run across shared-memory workers
and exchanges only cut-edge deliveries at bucket boundaries.  The default
smoke half verifies the contract cheaply — bitwise parity with the
unsharded run plus partition counters in ``extra_info``.  The
large half (gated behind ``REPRO_BENCH_LARGE=1``, CI's benchmark-smoke
leg) times ``shards=4`` against ``shards=1`` under the synchronous
adversary — the widest buckets, i.e. the best case the bucket contract
promises — on a ``2**15``-node graph with a soft ≥ 2× target.

Wall-clock targets are soft everywhere (``REPRO_STRICT_SPEEDUP=1`` makes
them hard) and skipped outright on single-core boxes, where sharding can
only lose.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.reporting import ExperimentReport
from repro.api import RunSpec, Simulation
from repro.scheduling.shard_pool import sharding_supported

from speedup import soft_assert_speedup

ASYNC_SHARD_SPEEDUP_TARGET = 2.0
SMOKE_NODES = 512
SMOKE_MAX_EVENTS = 200_000
LARGE_NODES = 2**15
#: Fixed event budget for the timed pair: parity holds on truncated runs
#: (both engines count identical per-bucket events), so timing a fixed
#: budget compares the bucket loops without waiting for MIS termination
#: at this size.
LARGE_MAX_EVENTS = 2_000_000

pytestmark = pytest.mark.skipif(
    not sharding_supported(), reason="platform lacks POSIX shared memory"
)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _simulate(nodes: int, shards: int, *, adversary: str = "synchronous",
              max_events: int, seed: int = 1):
    return Simulation().simulate(
        RunSpec(
            protocol="mis",
            nodes=nodes,
            graph="gnp_sparse",
            seed=seed,
            environment="async",
            adversary=adversary,
            shards=shards,
            max_events=max_events,
        ),
        raise_on_timeout=False,
    )


def test_bench_sharded_async_run_smoke(benchmark):
    """Default smoke: a sharded async run, parity-checked and counted."""
    reference = _simulate(
        SMOKE_NODES, 1, adversary="uniform", max_events=SMOKE_MAX_EVENTS
    )

    result = benchmark(
        _simulate, SMOKE_NODES, 2, adversary="uniform",
        max_events=SMOKE_MAX_EVENTS,
    )

    assert result.summary_fields() == reference.summary_fields()
    assert result.total_node_steps == reference.total_node_steps
    assert result.time_units == reference.time_units
    assert result.metadata["backend_mode"] == "sharded"
    benchmark.extra_info["shards"] = result.metadata["shard_count"]
    benchmark.extra_info["cut_edges"] = result.metadata["cut_edges"]
    benchmark.extra_info["halo_bytes_per_bucket"] = result.metadata[
        "halo_bytes_per_bucket"
    ]
    benchmark.extra_info["events"] = result.total_node_steps


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE") != "1",
    reason="large shard benchmarks run only with REPRO_BENCH_LARGE=1",
)
def test_bench_async_shard_speedup_large(experiment_recorder):
    """shards=4 vs shards=1 on a 2**15-node graph: soft >= 2x target."""
    start = time.perf_counter()
    serial = _simulate(LARGE_NODES, 1, max_events=LARGE_MAX_EVENTS)
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    sharded = _simulate(LARGE_NODES, 4, max_events=LARGE_MAX_EVENTS)
    sharded_time = time.perf_counter() - start

    # Determinism first: sharding buys time, never different numbers.
    assert sharded.summary_fields() == serial.summary_fields()
    assert sharded.total_node_steps == serial.total_node_steps
    assert sharded.time_units == serial.time_units

    ratio = serial_time / sharded_time
    report = ExperimentReport(
        experiment_id="SHARD-ASYNC",
        title="Sharded asynchronous execution on one large graph",
        paper_claim="bucket-boundary halo exchange shards asynchronous time",
        headers=["nodes", "shards", "serial s", "sharded s", "speedup", "cut", "cpus"],
    )
    report.add_row(
        LARGE_NODES,
        4,
        round(serial_time, 2),
        round(sharded_time, 2),
        round(ratio, 2),
        sharded.metadata["cut_edges"],
        _usable_cpus(),
    )
    report.conclusion = (
        f"n={LARGE_NODES}: {serial_time:.2f}s unsharded vs "
        f"{sharded_time:.2f}s over 4 shards ({ratio:.2f}x, "
        f"cut={sharded.metadata['cut_edges']})"
    )
    experiment_recorder(report)
    if _usable_cpus() >= 2:
        soft_assert_speedup(
            ratio, f"sharded async run at n={LARGE_NODES}",
            ASYNC_SHARD_SPEEDUP_TARGET,
        )
