"""Intra-run sharded execution: one huge graph split across shard workers.

The sharded backend (`repro/scheduling/sharded_engine.py`) splits a single
synchronous run's node set across shared-memory workers after a BFS
locality pass, exchanging only boundary-crossing letters per round.  The
default smoke half verifies the contract cheaply — bitwise parity with the
unsharded run plus the partition counters tagged into
``extra_info`` for the perf-trajectory log.  The large half (gated behind
``REPRO_BENCH_LARGE=1``, CI's benchmark-smoke leg) times ``shards=4``
against ``shards=1`` on a ``2**17``-node graph with a soft ≥ 2× target,
and completes a million-node smoke run — the "one huge graph" headline.

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
from repro.scheduling.kernels import kernel_availability
from repro.scheduling.sharded_engine import sharding_supported

from speedup import soft_assert_speedup

SHARD_SPEEDUP_TARGET = 2.0
KERNEL_SPEEDUP_TARGET = 3.0
SMOKE_NODES = 512
KERNEL_NODES = 1025
LARGE_NODES = 2**17
HUGE_NODES = 10**6

pytestmark = pytest.mark.skipif(
    not sharding_supported(), reason="platform lacks POSIX shared memory"
)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _simulate(nodes: int, shards: int, *, seed: int = 1):
    return Simulation().simulate(
        RunSpec(protocol="mis", nodes=nodes, graph="gnp_sparse", seed=seed, shards=shards)
    )


def test_bench_sharded_run_smoke(benchmark):
    """Default smoke: a sharded mid-size run, parity-checked and counted."""
    reference = _simulate(SMOKE_NODES, 1)

    result = benchmark(_simulate, SMOKE_NODES, 2)

    assert result.summary_fields() == reference.summary_fields()
    assert result.metadata["backend_mode"] == "sharded"
    benchmark.extra_info["shards"] = result.metadata["shard_count"]
    benchmark.extra_info["cut_edges"] = result.metadata["cut_edges"]
    benchmark.extra_info["halo_bytes_per_round"] = result.metadata[
        "halo_bytes_per_round"
    ]
    benchmark.extra_info["rounds"] = result.rounds


@pytest.mark.skipif(
    not kernel_availability()[0],
    reason="kernel tier unavailable (numba is not installed)",
)
def test_bench_kernel_vs_vectorized(experiment_recorder):
    """Compiled kernels vs the NumPy round loop at n=1025: soft >= 3x.

    Each backend gets its own warmed session — the first run pays the
    table build (and, for the kernel tier, the one-time numba JIT, cached
    on disk across processes) so the timed runs measure the round loops
    alone.  Parity is asserted on every timed seed: the kernel tier buys
    time, never different numbers.
    """
    repetitions = 3
    times: dict[str, float] = {}
    results: dict[tuple[str, int], object] = {}
    for backend in ("vectorized", "kernel"):
        session = Simulation()
        spec = RunSpec(
            protocol="mis", nodes=KERNEL_NODES, graph="gnp_sparse",
            seed=1, backend=backend,
        )
        session.simulate(spec)  # warm: tabulation + JIT outside the clock
        start = time.perf_counter()
        for seed in range(2, 2 + repetitions):
            results[backend, seed] = session.simulate(spec.replace(seed=seed))
        times[backend] = time.perf_counter() - start

    for seed in range(2, 2 + repetitions):
        assert (
            results["kernel", seed].summary_fields()
            == results["vectorized", seed].summary_fields()
        )
        assert results["kernel", seed].metadata["backend"] == "kernel"

    ratio = times["vectorized"] / times["kernel"]
    report = ExperimentReport(
        experiment_id="KERNEL",
        title="Compiled kernel tier vs vectorized NumPy rounds",
        paper_claim="the negotiated tier ladder is pure speedup per rank",
        headers=["nodes", "reps", "numpy s", "kernel s", "speedup"],
    )
    report.add_row(
        KERNEL_NODES,
        repetitions,
        round(times["vectorized"], 3),
        round(times["kernel"], 3),
        round(ratio, 2),
    )
    report.conclusion = (
        f"n={KERNEL_NODES}: {times['vectorized']:.3f}s NumPy vs "
        f"{times['kernel']:.3f}s compiled ({ratio:.2f}x), bitwise-identical"
    )
    report.passed = True
    experiment_recorder(report)
    soft_assert_speedup(
        ratio, f"kernel tier at n={KERNEL_NODES}", KERNEL_SPEEDUP_TARGET
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE") != "1",
    reason="large shard benchmarks run only with REPRO_BENCH_LARGE=1",
)
def test_bench_shard_speedup_large(experiment_recorder):
    """shards=4 vs shards=1 on a 2**17-node graph: soft >= 2x target."""
    start = time.perf_counter()
    serial = _simulate(LARGE_NODES, 1)
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    sharded = _simulate(LARGE_NODES, 4)
    sharded_time = time.perf_counter() - start

    # Determinism first: sharding buys time, never different numbers.
    assert sharded.summary_fields() == serial.summary_fields()

    ratio = serial_time / sharded_time
    report = ExperimentReport(
        experiment_id="SHARD",
        title="Intra-run sharded execution on one large graph",
        paper_claim="halo exchange over cut edges keeps shard scaling near-linear",
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
            ratio, "sharded run at n=2**17", SHARD_SPEEDUP_TARGET
        )


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE") != "1",
    reason="large shard benchmarks run only with REPRO_BENCH_LARGE=1",
)
def test_bench_million_node_smoke():
    """A million-node sharded run completes and stays within sane rounds."""
    result = _simulate(HUGE_NODES, 4, seed=3)
    assert result.reached_output
    assert result.metadata["shard_count"] == 4
    assert result.metadata["halo_bytes_per_round"] == (
        2 * result.metadata["cut_edges"] * 8
    )
