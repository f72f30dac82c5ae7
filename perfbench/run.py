"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engines --seed 1 --seconds 50 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` runs the layer-by-layer replay
instead and prints the per-layer metrics.  Every answer is checked; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (host facts,
tiers, every metric with notes, spans of a traced run) is written to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.

The library is imported from ``src/`` of the same checkout; without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("engines", "store-service")
SETUP_SAMPLES = 3


def _fatal(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env(work: Path) -> dict:
    """Environment for every process the benchmark starts.

    ``REPRO_*`` variables would change worker and shard counts behind the
    benchmark's back, so they are dropped.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(work / "tmp")
    return env


def _import_library() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        _fatal(f"no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _fatal(f"imported repro from {repro.__file__}, not from {SRC}")


def _setup_probe(args) -> None:
    """Child mode: time import plus the warm-up operation, print seconds."""
    start = time.perf_counter()
    _import_library()
    import workloads

    run = workloads.Run(args.setup_probe, args.seed, 0, Path(args.work), {})
    workloads.warm_up(run)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _measure_setup(run, workloads) -> tuple[list[float], object]:
    """Set up :data:`SETUP_SAMPLES` times; returns samples and a live server.

    ``engines`` sets up in fresh child interpreters.  ``store-service``
    starts the service and warms the sweep in this process; the last server
    started is kept for the run.
    """
    samples: list[float] = []
    if run.workload == "store-service":
        server = None
        for index in range(SETUP_SAMPLES):
            if server is not None:
                server.stop()
            seconds, server = workloads.start_store_service(run, index)
            samples.append(seconds)
        return samples, server
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", run.workload,
             "--seed", str(run.seed), "--work", str(run.work)],
            capture_output=True, text=True, env=run.env, timeout=120, check=False,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr[-500:]}")
        samples.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
    return samples, None


# ---------------------------------------------------------------------- #
# Resource hygiene                                                        #
# ---------------------------------------------------------------------- #
def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro")}
    except OSError:
        return set()


def _live_children() -> list[str]:
    """Command lines of this process's live children."""
    import multiprocessing

    multiprocessing.active_children()  # reaps finished pool and shard workers
    me = str(os.getpid())
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if fields[1] == me and fields[0] != "Z":
            found.append(cmdline.strip())
    return found


def _hygiene(run, shm_before: set[str]) -> list[str]:
    """Leaks after a workload; each one counts as a failed operation."""
    from multiprocessing import resource_tracker

    leaks = [f"shared-memory segment left: {name}"
             for name in sorted(_shm_segments() - shm_before)]
    # The stdlib's tracker process would unlink leaked segments when it
    # stops, so it is stopped (and waited for) only after the check above.
    resource_tracker._resource_tracker._stop()
    leaks += [f"child process alive: {cmd}" for cmd in _live_children()]
    leftovers = [p.name for p in run.work.iterdir()
                 if p.name != "tmp" and not p.name.startswith("pymp-")]
    leftovers += [f"tmp/{p.name}" for p in (run.work / "tmp").iterdir()
                  if not p.name.startswith("pymp-")]
    leaks += [f"temporary directory left: {name}" for name in leftovers]
    return leaks


def _peak_rss_mb() -> dict[str, float]:
    """Peak resident set of this process and of its largest waited-for child."""
    return {  # ru_maxrss is in KiB on Linux
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def _host_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------- #
# Main                                                                    #
# ---------------------------------------------------------------------- #
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        _setup_probe(args)
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        # Every workload in its own interpreter, so none inherits another's
        # memory peak or children.
        status = 0
        for workload in WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=False,
            )
            status = status or done.returncode
        sys.exit(status)

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fatal(f"cannot read BENCHMARK.json: {exc}")
    _import_library()
    import workloads

    work = OUT / f"work-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = _child_env(work)
    os.environ["TMPDIR"] = env["TMPDIR"]
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    run = workloads.Run(args.workload, args.seed, args.seconds, work, env)
    shm_before = _shm_segments()

    server = None
    setup_samples: list[float] = []
    try:
        setup_samples, server = _measure_setup(run, workloads)
        if args.trace:
            measured = workloads.traced(run, server)
        else:
            measured = {
                "engines": workloads.engines,
                "store-service": lambda r: workloads.store_service(r, server),
            }[args.workload](run)
    except Exception as exc:  # noqa: BLE001 — reported as a failed run below
        run.attempted += 1
        run.fail("workload", f"{type(exc).__name__}: {exc}")
        measured = workloads.Measured({}, {})
    finally:
        if server is not None:
            server.stop()
        for path in work.glob("serve-store-*"):
            shutil.rmtree(path, ignore_errors=True)

    leaks = _hygiene(run, shm_before)
    run.attempted += 1
    for leak in leaks:
        run.fail("hygiene", leak)
    shutil.rmtree(work, ignore_errors=True)

    metrics = dict(measured.metrics)
    metrics["setup_s"] = median(setup_samples) if setup_samples else None
    rss = _peak_rss_mb()
    metrics["peak_rss_mb"] = max(rss.values())
    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in declared[section]}
    printed = {}
    for name, unit in units.items():
        value = metrics.get(name)
        if value is None:
            print(f"perfbench: metric {name} not measured "
                  f"({measured.notes.get(name, 'no sample')})", file=sys.stderr)
            continue
        printed[name] = {"value": value, "unit": unit}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": _host_facts(),
        "tiers": run.tiers,
        "expected_tiers": {
            leg: {"backend": b, "backend_mode": m}
            for leg, (b, m) in workloads.EXPECTED_TIERS[args.workload].items()
        },
        "setup_s_samples": setup_samples,
        "peak_rss_mb": rss,
        "metrics": metrics,
        "notes": measured.notes,
        "detail": measured.detail,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, entry in printed.items():
        print(f"{args.workload:16} {name:42} {entry['value']:.6g} {entry['unit']}")
    for name, value in measured.detail.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"{args.workload:16} {name:42} {value:.6g}")
    print(f"{args.workload:16} {'failed_frac':42} {record['failed_frac']:.6g}")
    for failure in run.failures[:10]:
        print(f"failed: {failure['op']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and len(printed) == len(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": printed,
    }))


if __name__ == "__main__":
    main()
