"""The two benchmark workloads, timed and traced.

Every workload drives the library from outside, through its public calls,
and checks every answer it times.  A workload function returns a
:class:`Measured` holding the end-to-end metrics (timed mode) or the
per-layer metrics (traced mode) plus the detail written to the result file.

Each workload has four legs, a to d, and why each exists:

* ``engines``, single big or adversarial runs in this process:
  a and b, synchronous MIS and tree colouring on ``random_tree`` at n=2^17,
  where graph build and vectorized rounds dominate (plus MIS runs at
  ``shards=2`` for the result file); c and d, asynchronous MIS under the
  ``uniform`` adversary (wide time buckets) and the ``exponential`` one
  (buckets collapse to one step), where compiled lazy tables and the
  time-bucketed engine dominate.  Store, executor and service are bypassed.
* ``store-service``, many small runs behind the result store:
  a and b, a pooled MIS sweep with a dynamic-churn group, cold against a
  fresh store and then warm against the same store, where per-run fixed
  costs dominate (pool spawn, table publication, store I/O, the quadratic
  ``gnp_sparse`` build); c and d, a ``repro serve`` subprocess driven by a
  closed loop of two clients, fresh specs (executed, written) and
  resubmitted ones (read back from the store).

The legs of a workload take turns all through a run.  On a shared host the
machine runs slower or faster for tens of seconds at a time; a leg sampled
across one long run averages that out, where a short run of its own would
catch one such stretch.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

from tracer import Tracer

from repro.api import PROTOCOLS, ResultStore, RunSpec, Simulation, run_specs
from repro.api import store as store_api
from repro.compilers import compile_to_asynchronous
from repro.graphs.partition import partition_graph
from repro.scheduling.compiled import LazyStrictTable
from repro.scheduling.sync_engine import precompile_tables
from repro.scheduling.vectorized_async_engine import VectorizedAsynchronousEngine
from repro.scheduling.vectorized_engine import VectorizedEngine

LARGE_NODES = 2**17

#: The uniform leg runs above ``AUTO_VECTORIZE_MIN_NODES`` (192), so the
#: default ``backend="auto"`` batches it.  The exponential leg pins the
#: batched tier explicitly: its buckets hold one step at any size, and the
#: pin keeps a small, quick graph on the tier being measured.
UNIFORM_SPEC = dict(
    protocol="mis", graph="random_tree", environment="async",
    adversary="uniform", nodes=257,
)
EXPONENTIAL_SPEC = dict(
    protocol="mis", graph="random_tree", environment="async",
    adversary="exponential", nodes=33, backend="vectorized",
)

SWEEP_FAMILIES = ["random_tree", "gnp_sparse"]
SWEEP_SIZES = [256, 1024, 2048]
SWEEP_REPETITIONS = 2
DYNAMIC_SIZES = [512, 1024]
DYNAMIC_REPETITIONS = 2

SERVE_CLIENTS = 2
#: Jobs per turn of the serve legs, and in the traced run's closed loop.
SERVE_TURN_JOBS = 24
SERVE_TRACED_JOBS = 100
SERVE_SIZES = [1024, 2048]
SERVE_KINDS = [(p, n) for n in SERVE_SIZES for p in ("mis", "coloring")]
SERVE_POLL_S = 0.01
SERVE_JOB_TIMEOUT_S = 60.0
SERVICE_METRICS = ("service.post_ms_p50", "service.queue_wait_ms_p50",
                   "service.execute_ms_p50", "service.polls_per_job")

#: The tier each leg is expected to run on, as ``(backend, backend_mode)``;
#: ``None`` leaves the mode unchecked (asynchronous runs record none).
EXPECTED_TIERS = {
    "engines": {
        "mis": ("vectorized", "eager"),
        "coloring": ("vectorized", "eager"),
        "mis-sharded": ("vectorized", "sharded"),
        "uniform": ("vectorized", None),
        "exponential": ("vectorized", None),
    },
    "store-service": {
        "cell": ("vectorized", None),
        "job": ("vectorized", "eager"),
    },
}


# ---------------------------------------------------------------------- #
# Bookkeeping                                                             #
# ---------------------------------------------------------------------- #
@dataclass
class Run:
    """One benchmark invocation: its inputs, scratch space and failure tally."""

    workload: str
    seed: int
    seconds: float
    work: Path
    env: dict
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    tiers: dict = field(default_factory=dict)
    def op_seed(self, index: int) -> int:
        """The protocol seed of the workload's *index*-th operation."""
        return self.seed * 100_000 + index

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append({"op": what, "reason": reason})

    def timed(self, what: str, call):
        """``(seconds, value)`` of one attempted call; value ``None`` on error."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, value

    def check_tier(self, leg: str, metadata: dict) -> bool:
        backend = metadata.get("backend")
        mode = metadata.get("backend_mode")
        self.tiers.setdefault(leg, {"backend": backend, "backend_mode": mode})
        want_backend, want_mode = EXPECTED_TIERS[self.workload][leg]
        if backend != want_backend or (want_mode is not None and mode != want_mode):
            self.fail(
                leg,
                f"ran on tier {backend}/{mode}, expected {want_backend}/{want_mode}",
            )
            return False
        return True

    def check_result(self, leg: str, spec, result) -> bool:
        """Validator, output reached and tier; counts a failure otherwise."""
        if not result.reached_output:
            self.fail(leg, "no output configuration reached")
            return False
        validator = PROTOCOLS.get(spec.protocol).validator
        if not validator(result.graph, result):
            self.fail(leg, "validator rejected the result")
            return False
        return self.check_tier(leg, result.metadata)


@dataclass
class Measured:
    """A workload's metrics (name -> number or ``None``) plus its detail."""

    metrics: dict
    detail: dict
    notes: dict = field(default_factory=dict)


def _sum_rate(samples) -> float | None:
    """Units per second over ``(seconds, units)`` samples, time-weighted."""
    seconds = sum(s for s, _ in samples)
    return sum(u for _, u in samples) / seconds if seconds > 0 else None


def _p50(values):
    return median(values) if values else None


def _p95(values):
    """The 95th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 200:
        return None
    return quantiles(values, n=20)[-1]


def node_steps(graph, result) -> dict:
    """Sweep ``extra_metrics``: the cell's node steps (picklable by name)."""
    return {"node_steps": result.total_node_steps}


# ---------------------------------------------------------------------- #
# Warm-up: the untimed operation that ends set-up                         #
# ---------------------------------------------------------------------- #
def warm_up(run: Run) -> Simulation:
    """Import-time and first-use costs of *run*'s workload: compile, spawn."""
    session = Simulation()
    # A fixed seed: the set-up does the same work whatever the run's seed.
    seed = 99_000
    if run.workload == "engines":
        for protocol, shards in (("mis", None), ("coloring", None), ("mis", 2)):
            session.simulate(
                RunSpec(protocol=protocol, graph="random_tree", nodes=2048,
                        seed=seed, shards=shards)
            )
        # The uniform warm-up stays above the 192-node batching threshold; an
        # event budget cuts it short, since only the tables need warming.
        for params, nodes in ((UNIFORM_SPEC, 193), (EXPONENTIAL_SPEC, 9)):
            spec = RunSpec(**{**params, "nodes": nodes, "seed": seed,
                              "max_events": 200_000})
            session.simulate(spec, raise_on_timeout=False)
    else:
        scratch = run.work / "warm-up-store"
        try:
            Simulation(store=scratch).sweep(
                RunSpec(protocol="mis", seed=seed), sizes=[64, 128],
                repetitions=1, workers=2, extra_metrics=node_steps,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return session


def _run_cycles(run: Run, cycle) -> None:
    """Calls *cycle* until about ``run.seconds`` have passed.

    Only whole cycles run, so the mix of operations is the same in every run;
    a further cycle starts only while it is expected to end near the limit.
    """
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle()
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= run.seconds:
            return


def _engine_legs(run: Run, cycle: list) -> tuple[dict, list]:
    """Times ``simulate()`` over ``(leg, spec parameters)`` cycles, fresh seeds."""
    session = warm_up(run)
    samples: dict = {leg: [] for leg, _ in cycle}
    ops: list = []

    def one_cycle() -> None:
        for leg, params in cycle:
            spec = RunSpec(**params, seed=run.op_seed(len(ops)))
            wall, result = run.timed(leg, lambda: session.simulate(spec))
            ops.append({"leg": leg, "seed": spec.seed, "s": wall})
            if result is None or not run.check_result(leg, spec, result):
                continue
            samples[leg].append((wall, result.total_node_steps))
            ops[-1].update(steps=result.total_node_steps, rounds=result.rounds,
                           messages=result.total_messages)

    _run_cycles(run, one_cycle)
    return samples, ops


# ---------------------------------------------------------------------- #
# engines                                                                 #
# ---------------------------------------------------------------------- #
def _large(protocol: str, shards=None) -> dict:
    return dict(protocol=protocol, graph="random_tree", nodes=LARGE_NODES, shards=shards)


#: One operation of each leg per cycle, the big synchronous runs apart.
ENGINE_CYCLE = [
    ("mis", _large("mis")), ("uniform", UNIFORM_SPEC),
    ("coloring", _large("coloring")), ("exponential", EXPONENTIAL_SPEC),
]
#: ``shards=2`` MIS runs made after the timed loop and reported in the result
#: file only: on two cores their speed follows how busy the machine's other
#: tenants keep the second core, which swings it by more between runs than
#: any regression bound could allow.
SHARDED_RUNS = 2


def _sharded_runs(run: Run, ops: list) -> list:
    session = Simulation()
    samples = []
    for index in range(SHARDED_RUNS):
        spec = RunSpec(**_large("mis", 2), seed=run.op_seed(30_000 + index))
        wall, result = run.timed("mis-sharded", lambda: session.simulate(spec))
        ops.append({"leg": "mis-sharded", "seed": spec.seed, "s": wall})
        if result is not None and run.check_result("mis-sharded", spec, result):
            samples.append((wall, result.total_node_steps))
    return samples


def engines(run: Run) -> Measured:
    samples, ops = _engine_legs(run, ENGINE_CYCLE)
    sharded = _sharded_runs(run, ops)
    unsharded = samples["mis"] + samples["coloring"]
    metrics = {
        "leg_a_per_s": _sum_rate(samples["mis"]),
        "leg_b_per_s": _sum_rate(samples["coloring"]),
        "leg_c_per_s": _sum_rate(samples["uniform"]),
        "leg_d_per_s": _sum_rate(samples["exponential"]),
    }
    detail = {
        "run_s_p50": _p50([s for s, _ in unsharded]),
        "node_steps_per_s": _sum_rate(unsharded),
        "sharded_run_s_p50": _p50([s for s, _ in sharded]),
        "sharded_node_steps_per_s": _sum_rate(sharded),
        "mis_run_s_p50": _p50([s for s, _ in samples["mis"]]),
        "coloring_run_s_p50": _p50([s for s, _ in samples["coloring"]]),
        "uniform_steps_per_s": metrics["leg_c_per_s"],
        "exponential_steps_per_s": metrics["leg_d_per_s"],
        "samples": {**{leg: len(values) for leg, values in samples.items()},
                    "mis-sharded": len(sharded)},
        "ops": ops,
    }
    return Measured(metrics, detail)


# ---------------------------------------------------------------------- #
# store-service: the sweep legs                                           #
# ---------------------------------------------------------------------- #
def _sweep_pass(session: Simulation, seed: int) -> list:
    static = session.sweep(
        RunSpec(protocol="mis", seed=seed), families=SWEEP_FAMILIES,
        sizes=SWEEP_SIZES, repetitions=SWEEP_REPETITIONS, workers=2,
        extra_metrics=node_steps,
    )
    dynamic = session.sweep(
        RunSpec(protocol="mis", seed=seed, environment="dynamic", churn="burst"),
        families=["random_tree"], sizes=DYNAMIC_SIZES,
        repetitions=DYNAMIC_REPETITIONS, workers=2, extra_metrics=node_steps,
    )
    return list(static.records) + list(dynamic.records)


def _check_sweep_cycle(run: Run, what: str, cold, warm, cold_store, warm_store,
                       root: Path) -> int:
    """Checks one cold/warm pair; returns the cells whose answers held."""
    good = 0
    for record in cold:
        if record.reached_output and record.valid:
            good += 1
        else:
            run.fail(what, f"cold cell {record.family}/{record.size} invalid")
    if warm != cold:
        run.fail(what, "warm records differ from cold records")
    if cold_store.writes != len(cold):
        run.fail(what, f"cold pass wrote {cold_store.writes} of {len(cold)} cells")
    if warm_store.hits != len(warm) or warm_store.misses or warm_store.writes:
        run.fail(what, f"warm pass was not all hits: {warm_store.stats()}")
    # The tier of every cell, read back from its stored entry.
    reader = ResultStore(root)
    for path in sorted(root.glob("??/*.json")):
        payload = reader.get(path.stem)
        if payload is None:
            run.fail(what, f"unreadable store entry {path.name}")
        else:
            run.check_tier("cell", payload["metadata"])
    return good


def _sweep_turn(run: Run, index: int, samples: dict) -> None:
    """One cold pass against a fresh store, then a warm pass against it."""
    seed = run.op_seed(index)
    root = run.work / f"sweep-store-{index}"
    try:
        cold_session = Simulation(store=root)
        cold_wall, cold = run.timed("cold-pass", lambda: _sweep_pass(cold_session, seed))
        warm_session = Simulation(store=root)
        warm_wall, warm = run.timed("warm-pass", lambda: _sweep_pass(warm_session, seed))
        if cold is None or warm is None:
            return
        # Each cell of both passes is one attempted operation.
        run.attempted += len(cold) + len(warm) - 2
        good = _check_sweep_cycle(run, f"sweep-{index}", cold, warm,
                                  cold_session.store, warm_session.store, root)
        if good == len(cold) and warm == cold:
            samples["cold"].append((cold_wall, len(cold)))
            samples["warm"].append((warm_wall, len(warm)))
            samples["steps"].append((cold_wall, sum(r.extra["node_steps"] for r in cold)))
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------- #
# store-service: the serve legs                                           #
# ---------------------------------------------------------------------- #
class ServeProcess:
    """A ``python -m repro serve`` subprocess on an ephemeral port.

    ``--max-jobs 1`` keeps the in-memory job table at one finished job, so a
    resubmitted spec is answered by the result store, not by the table.
    """

    def __init__(self, run: Run, store: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--host", "127.0.0.1", "--port", "0", "--max-jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=run.env,
            text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))
        conn = self.connect()
        try:
            status, _ = _request(conn, "GET", "/healthz")
        finally:
            conn.close()
        if status != 200:
            self.stop()
            raise RuntimeError(f"/healthz answered {status}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()


def _request(conn, method: str, path: str, body: bytes | None = None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


@dataclass
class Job:
    spec: dict
    kind: str  # "cold" (fresh seed) or "warm" (resubmitted finished spec)
    latency_s: float = 0.0
    post_s: float = 0.0
    polls: int = 0
    job_id: str = ""
    body: bytes = b""
    error: str | None = None
    events: str = ""


def _run_job(conn, job: Job) -> None:
    start = time.perf_counter()
    status, body = _request(conn, "POST", "/jobs", json.dumps(job.spec).encode())
    job.post_s = time.perf_counter() - start
    if status not in (200, 202):
        raise RuntimeError(f"POST /jobs answered {status}: {body[:200]!r}")
    job.job_id = json.loads(body)["job"]
    while True:
        status, body = _request(conn, "GET", f"/jobs/{job.job_id}/result")
        if status == 200:
            break
        if status != 409:
            raise RuntimeError(f"GET result answered {status}: {body[:200]!r}")
        if json.loads(body).get("status") == "failed":
            raise RuntimeError(f"job failed: {json.loads(body).get('error')}")
        if time.perf_counter() - start > SERVE_JOB_TIMEOUT_S:
            raise RuntimeError("job did not finish in time")
        job.polls += 1
        time.sleep(SERVE_POLL_S)
    job.latency_s = time.perf_counter() - start
    job.body = body


def start_store_service(run: Run, index: int):
    """``(seconds, server)``: the service started until it answered a first
    job, and the sweep's first pool spawned."""
    store = run.work / f"serve-store-{index}"
    start = time.perf_counter()
    server = ServeProcess(run, store)
    conn = server.connect()
    try:
        _run_job(conn, Job(spec={"protocol": "mis", "graph": "random_tree",
                                 "nodes": 256, "seed": 99_000},
                           kind="cold"))
        warm_up(run)
    except BaseException:
        server.stop()
        raise
    finally:
        conn.close()
    return time.perf_counter() - start, server


@dataclass
class Loop:
    """The closed loop's jobs and answered fresh specs, across its turns."""

    jobs: list = field(default_factory=list)
    finished: list = field(default_factory=list)
    fresh: int = 0
    turns: int = 0
    seconds: float = 0.0


def closed_loop(run: Run, server: ServeProcess, loop: Loop, count: int,
                tracer: Tracer | None = None) -> None:
    """Two clients, each sending its next job after the previous reply, until
    *count* more jobs are answered."""
    lock = threading.Lock()
    target = len(loop.jobs) + count
    turn = loop.turns
    loop.turns += 1
    stop = threading.Event()
    start = time.perf_counter()

    def client(index: int) -> None:
        # Each client alternates fresh and resubmitted specs and rotates the
        # fresh ones through every protocol and size, so every run has the
        # same mix; only the seeds and the resubmitted picks vary.
        rng = random.Random(f"{run.seed}|{turn}|client{index}")
        kinds = itertools.cycle(SERVE_KINDS[index:] + SERVE_KINDS[:index])
        conn = server.connect()
        sent = 0
        try:
            while not stop.is_set():
                sent += 1
                with lock:
                    if loop.finished and sent % 2 == 0:
                        job = Job(spec=rng.choice(loop.finished), kind="warm")
                    else:
                        loop.fresh += 1
                        protocol, nodes = next(kinds)
                        job = Job(spec={
                            "protocol": protocol, "graph": "random_tree",
                            "nodes": nodes, "seed": run.op_seed(10_000 + loop.fresh),
                        }, kind="cold")
                try:
                    _run_job(conn, job)
                except Exception as exc:  # noqa: BLE001 — counted as a failed job
                    job.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = server.connect()
                if tracer is not None and job.error is None:
                    status, events = _request(conn, "GET", f"/jobs/{job.job_id}/events")
                    job.events = events.decode() if status == 200 else ""
                with lock:
                    loop.jobs.append(job)
                    if job.kind == "cold" and job.error is None:
                        loop.finished.append(job.spec)
                    if len(loop.jobs) >= target:
                        stop.set()
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    loop.seconds += time.perf_counter() - start


def _check_jobs(run: Run, jobs: list[Job]) -> list[Job]:
    """Validates cold answers, compares warm bytes with cold; returns the good."""
    cold_bytes: dict[str, bytes] = {}
    good = []
    for job in jobs:
        run.attempted += 1
        if job.error is not None:
            run.fail("job", job.error)
            continue
        key = json.dumps(job.spec, sort_keys=True)
        if job.kind == "cold":
            try:
                spec = RunSpec.from_dict(job.spec)
                payload = store_api.decode_value(json.loads(job.body))
                result = store_api.payload_to_result(payload, spec.build_graph())
            except Exception as exc:  # noqa: BLE001 — an undecodable answer fails
                run.fail("job", f"undecodable result: {type(exc).__name__}: {exc}")
                continue
            if not run.check_result("job", spec, result):
                continue
            cold_bytes[key] = job.body
        elif job.body != cold_bytes.get(key):
            run.fail("job", "warm answer bytes differ from the cold answer")
            continue
        good.append(job)
    return good


def store_service(run: Run, server: ServeProcess) -> Measured:
    samples: dict = {"cold": [], "warm": [], "steps": []}
    loop = Loop()
    indexes = itertools.count()

    def cycle() -> None:
        _sweep_turn(run, next(indexes), samples)
        closed_loop(run, server, loop, SERVE_TURN_JOBS)

    _run_cycles(run, cycle)
    # Cold answers first, so every warm answer has its cold bytes to match.
    good = _check_jobs(run, sorted(loop.jobs, key=lambda job: job.kind != "cold"))
    cold = [job.latency_s * 1000 for job in good if job.kind == "cold"]
    warm = [job.latency_s * 1000 for job in good if job.kind == "warm"]
    every = cold + warm
    metrics = {
        "leg_a_per_s": _sum_rate(samples["cold"]),
        "leg_b_per_s": _sum_rate(samples["warm"]),
        "leg_c_per_s": 1000 / median(cold) if cold else None,
        "leg_d_per_s": 1000 / median(warm) if warm else None,
    }
    detail = {
        "cold_cells_per_s": metrics["leg_a_per_s"],
        "warm_cells_per_s": metrics["leg_b_per_s"],
        "cold_node_steps_per_s": _sum_rate(samples["steps"]),
        "cells_per_pass": samples["cold"][0][1] if samples["cold"] else None,
        "jobs_per_s": len(good) / loop.seconds if loop.seconds > 0 else None,
        "latency_ms_p50": _p50(every),
        "latency_ms_p95": _p95(every),
        "cold_latency_ms_p50": _p50(cold),
        "warm_latency_ms_p50": _p50(warm),
        "samples": {"cold_pass": len(samples["cold"]), "warm_pass": len(samples["warm"]),
                    "cold_jobs": len(cold), "warm_jobs": len(warm), "jobs": len(every)},
        "clients": SERVE_CLIENTS,
        "loop": "closed",
    }
    return Measured(metrics, detail)


# ---------------------------------------------------------------------- #
# Traced runs: the simulate() path replayed layer by layer                #
# ---------------------------------------------------------------------- #
def _tables(spec: RunSpec, tables: dict):
    """The replay's table cache, keyed like the session's: one per workload."""
    key = spec.workload_key()
    if key not in tables:
        if spec.environment == "async":
            compiled = compile_to_asynchronous(spec.build_protocol())
            tables[key] = (compiled, LazyStrictTable(compiled))
        else:
            tables[key] = precompile_tables(spec.build_protocol(), "auto")[1:]
    return tables[key]


def _replay(tracer: Tracer, spec: RunSpec, graph, counts: dict, tables: dict):
    """The engine part of ``simulate(spec)`` through the public constructors."""
    inputs = spec.build_inputs(graph)
    if spec.environment == "async":
        compiled, table = _tables(spec, tables)
        with tracer.span("vectorized_async_engine.init"):
            engine = VectorizedAsynchronousEngine(
                graph, compiled, adversary=spec.build_adversary(), seed=spec.seed,
                adversary_seed=spec.adversary_seed, inputs=inputs, table=table,
            )
        with tracer.span(f"vectorized_async_engine.{spec.adversary}_run"):
            result = engine.run(max_events=spec.max_events)
        counts["vectorized_async_engine.node_steps"] = result.total_node_steps
        counts["vectorized_async_engine.messages"] = result.total_messages
        counts["vectorized_async_engine.emit_ratio"] = (
            result.total_messages / result.total_node_steps
        )
        return result
    compiled, table = _tables(spec, tables)
    with tracer.span("vectorized_engine.init"):
        engine = VectorizedEngine(graph, spec.build_protocol(), seed=spec.seed,
                                  inputs=inputs, compiled=compiled, table=table)
    with tracer.span("vectorized_engine.rounds") as rounds_span:
        while (engine.round_index < spec.max_rounds
               and not engine.in_output_configuration()):
            engine.step_round()
    with tracer.span("vectorized_engine.result"):
        result = engine.run(max_rounds=spec.max_rounds)
    rounds = engine.round_index
    counts["vectorized_engine.rounds"] = rounds
    counts["vectorized_engine.round_ms"] = (
        (rounds_span["end"] - rounds_span["start"]) * 1000 / rounds if rounds else 0.0
    )
    return result


def layer_walk(run: Run, tracer: Tracer, session: Simulation, spec: RunSpec,
               tables: dict) -> dict:
    """Replays ``simulate(spec)`` one layer at a time and checks the split.

    The untraced ``simulate(spec)`` is the reference: the replay's
    ``summary_fields()`` must equal it, otherwise the split is reported
    invalid.  Like the session, the replay reuses one table per workload;
    the compile steps are timed apart, from scratch.
    """
    record: dict = {"spec": spec.to_dict()}
    # Collect the previous walk's garbage first, so neither side pays for it.
    gc.collect()
    reference_wall, reference = run.timed("reference", lambda: session.simulate(spec))
    if reference is None:
        record["valid"] = False
        record["reason"] = "reference simulate() failed"
        return record
    tracer.new_op()
    counts: dict = {}
    gc.collect()
    with tracer.span("op") as op_span:
        with tracer.span("graphs.build"):
            graph = spec.build_graph()
        with tracer.span("graphs.csr"):
            graph.csr_adjacency()
        try:
            result = _replay(tracer, spec, graph, counts, tables)
        except (AttributeError, TypeError, ImportError) as exc:
            result = None
            record["reason"] = f"seam gone: {type(exc).__name__}: {exc}"
    traced_wall = op_span["end"] - op_span["start"]
    if result is None:
        record["valid"] = None
    else:
        record["valid"] = result.summary_fields() == reference.summary_fields()
        if not record["valid"]:
            record["reason"] = "replay summary_fields differ from simulate()"
    record["overhead_frac"] = (traced_wall - reference_wall) / reference_wall
    # What simulate() spends outside the replayed layers: the op's own time.
    counts["session.other_s"] = reference_wall - (
        traced_wall - tracer.self_times()[tracer.op]["op"]
    )
    checked = result if result is not None else reference
    with tracer.span("verification.validate"):
        ok = PROTOCOLS.get(spec.protocol).validator(checked.graph, checked)
    if not ok:
        run.fail("replay", "validator rejected the replayed result")
    with tracer.span("graphs.partition"):
        counts["graphs.cut_edges"] = partition_graph(graph, 2).cut_edges
    with tracer.span("compiled.sync_table"):
        precompile_tables(spec.build_protocol(), "auto")
    with tracer.span("compiled.async_table"):
        LazyStrictTable(compile_to_asynchronous(spec.build_protocol()))
    _store_walk(run, tracer, spec, checked, graph, counts)
    for name, value in counts.items():
        tracer.count(name, value)
    record["counts"] = counts
    return record


def _store_walk(run: Run, tracer: Tracer, spec: RunSpec, result, graph,
                counts: dict) -> None:
    root = run.work / f"probe-store-{tracer.op}"
    try:
        probe = ResultStore(root)
        digest = store_api.spec_hash(spec)
        with tracer.span("store.canonical_json"):
            store_api.canonical_json(store_api.result_to_payload(result))
        with tracer.span("store.put"):
            probe.put(digest, store_api.result_to_payload(result), spec=spec.to_dict())
        with tracer.span("store.get"):
            probe.get(digest)
        with tracer.span("store.fetch"):
            fetched = store_api.fetch(probe, spec, graph=graph)
        counts["store.entry_bytes"] = probe.path_for(digest).stat().st_size
        if fetched is None or fetched.summary_fields() != result.summary_fields():
            run.fail("store-probe", "fetched result differs from the stored one")
        stats = probe.stats()
        for name in ("hits", "misses", "writes", "corrupt"):
            counts[f"store.{name}"] = stats[name]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def executor_walk(run: Run, tracer: Tracer, specs: list) -> None:
    """``run_specs`` on one miss batch, serial and then pooled."""
    tracer.new_op()
    with tracer.span("executor.serial"):
        serial = run_specs(specs, workers=1, session=Simulation())
    pooled_session = Simulation()
    with tracer.span("executor.pooled"):
        pooled = run_specs(specs, workers=2, session=pooled_session)
    info = pooled_session.cache_info()
    tracer.count("executor.adopted_tables", info["hits"])
    tracer.count("executor.worker_table_misses", info["misses"])
    run.attempted += 1
    if [r.summary_fields() for r in serial] != [r.summary_fields() for r in pooled]:
        run.fail("executor", "pooled results differ from serial results")


def sharded_walk(run: Run, tracer: Tracer, session: Simulation, spec: RunSpec) -> None:
    tracer.new_op()
    with tracer.span("sharded_engine.run"):
        _, result = run.timed("sharded", lambda: session.simulate(spec.replace(shards=2)))
    if result is None:
        return
    meta = result.metadata
    tracer.count("sharded_engine.halo_bytes_per_round",
                 meta.get("halo_bytes_per_round", meta.get("halo_bytes_per_bucket", 0)))
    if not result.reached_output or not PROTOCOLS.get(spec.protocol).validator(
            result.graph, result):
        run.fail("sharded", "sharded result invalid")


def _walk_specs(run: Run) -> list[RunSpec]:
    """The specs whose path a traced run replays, one per workload leg."""
    seed = run.op_seed(50_000)
    if run.workload == "engines":
        return [RunSpec(**params, seed=seed) for _, params in ENGINE_CYCLE]
    return [RunSpec(protocol="mis", graph=family, nodes=max(SWEEP_SIZES), seed=seed)
            for family in SWEEP_FAMILIES] + [
        RunSpec(protocol=p, graph="random_tree", nodes=max(SERVE_SIZES), seed=seed)
        for p in ("mis", "coloring")]


def traced(run: Run, server: ServeProcess | None = None) -> Measured:
    """The traced run: layer replays (and the workload's own traced loop)."""
    tracer = Tracer()
    session = warm_up(run)
    detail: dict = {"walks": []}
    specs = _walk_specs(run)
    on_path: dict = {}
    if run.workload == "store-service":
        on_path = _traced_sweep(run, tracer)
        on_path.update(_traced_serve(run, tracer, server, detail))
    sharded_walk(run, tracer, session, specs[0].replace(seed=run.op_seed(40_000)))
    executor_walk(run, tracer, [specs[0].replace(seed=run.op_seed(40_000 + k))
                                for k in (1, 2)])
    # The layer replays get the run's seconds, every leg at least once.
    start = time.perf_counter()
    tables: dict = {}
    index = 0
    while index < len(specs) or time.perf_counter() - start < run.seconds:
        spec = specs[index % len(specs)].replace(seed=run.op_seed(50_000 + index))
        index += 1
        detail["walks"].append(layer_walk(run, tracer, session, spec, tables))
    metrics = _layer_metrics(tracer)
    info = session.cache_info()
    metrics["session.table_hits"] = info["hits"]
    metrics["session.table_misses"] = info["misses"]
    metrics.update(on_path)
    notes = {}
    for name in SERVICE_METRICS:
        metrics.setdefault(name, None)
    for name, value in metrics.items():
        if value is None:
            notes[name] = "layer not on this workload's path"
    invalid = [w["reason"] for w in detail["walks"] if not w.get("valid")]
    if invalid:
        # An invalid split leaves the end-to-end run alone; its engine
        # numbers are withheld instead.
        for name in metrics:
            if name.startswith(("vectorized_engine.", "vectorized_async_engine.")):
                metrics[name] = None
                notes[name] = f"layer split invalid: {invalid[0]}"
    overheads = [w["overhead_frac"] for w in detail["walks"] if "overhead_frac" in w]
    detail["trace_overhead_frac"] = _p50(overheads)
    detail["replay_valid"] = not invalid
    detail["trace"] = tracer.export()
    return Measured(metrics, detail, notes)


def _layer_metrics(tracer: Tracer) -> dict:
    metrics: dict = {}
    for name, key, scale in (
        ("graphs.build", "graphs.build_s", 1),
        ("graphs.csr", "graphs.csr_s", 1),
        ("graphs.partition", "graphs.partition_s", 1),
        ("compiled.sync_table", "compiled.sync_table_s", 1),
        ("compiled.async_table", "compiled.async_table_s", 1),
        ("vectorized_engine.init", "vectorized_engine.init_s", 1),
        ("vectorized_engine.result", "vectorized_engine.result_s", 1),
        ("vectorized_async_engine.init", "vectorized_async_engine.init_s", 1),
        ("vectorized_async_engine.uniform_run", "vectorized_async_engine.uniform_run_s", 1),
        ("vectorized_async_engine.exponential_run",
         "vectorized_async_engine.exponential_run_s", 1),
        ("verification.validate", "verification.validate_s", 1),
        ("sharded_engine.run", "sharded_engine.run_s", 1),
        ("store.canonical_json", "store.canonical_json_ms", 1000),
        ("store.put", "store.put_ms", 1000),
        ("store.get", "store.get_ms", 1000),
        ("store.fetch", "store.fetch_ms", 1000),
        ("executor.serial", "executor.serial_s", 1),
        ("executor.pooled", "executor.pooled_s", 1),
    ):
        value = tracer.median_self_time(name)
        metrics[key] = value * scale if value is not None else None
    for name in (
        "graphs.cut_edges", "vectorized_engine.rounds", "vectorized_engine.round_ms",
        "vectorized_async_engine.node_steps", "vectorized_async_engine.messages",
        "vectorized_async_engine.emit_ratio", "session.other_s", "store.entry_bytes",
        "sharded_engine.halo_bytes_per_round", "executor.adopted_tables",
        "executor.worker_table_misses", "store.hits", "store.misses",
        "store.writes", "store.corrupt",
    ):
        metrics[name] = tracer.median_count(name)
    return metrics


def _traced_sweep(run: Run, tracer: Tracer) -> dict:
    """One traced cold/warm sweep pair; returns its on-path store counters."""
    root = run.work / "sweep-store-traced"
    try:
        tracer.new_op()
        cold_session = Simulation(store=root)
        with tracer.span("executor.sweep_cold"):
            cold = _sweep_pass(cold_session, run.op_seed(60_000))
        warm_session = Simulation(store=root)
        with tracer.span("store.sweep_warm"):
            warm = _sweep_pass(warm_session, run.op_seed(60_000))
        run.attempted += len(cold) + len(warm)
        _check_sweep_cycle(run, "traced-sweep", cold, warm, cold_session.store,
                           warm_session.store, root)
        cold_stats, warm_stats = cold_session.store.stats(), warm_session.store.stats()
        tables = cold_session.cache_info()
        return {
            "session.table_hits": tables["hits"],
            "session.table_misses": tables["misses"],
            "store.hits": warm_stats["hits"],
            "store.misses": cold_stats["misses"],
            "store.writes": cold_stats["writes"],
            "store.corrupt": cold_stats["corrupt"] + warm_stats["corrupt"],
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _traced_serve(run: Run, tracer: Tracer, server: ServeProcess, detail: dict) -> dict:
    """The closed loop, reading each job's ledger; its service metrics.

    The service's own ``/stats`` go to *detail*: the store and table counters
    reported as metrics are the sweep's.
    """
    loop = Loop()
    closed_loop(run, server, loop, SERVE_TRACED_JOBS, tracer=tracer)
    good = _check_jobs(run, sorted(loop.jobs, key=lambda job: job.kind != "cold"))
    queue_wait, execute = [], []
    for job in good:
        events = {}
        for line in job.events.splitlines():
            event = json.loads(line)
            events.setdefault(event["event"], event["ts"])
        # The ledger's "finished" line may land after the answer was served.
        if "started" in events and "finished" in events:
            queue_wait.append((events["started"] - events["queued"]) * 1000)
            execute.append((events["finished"] - events["started"]) * 1000)
    conn = server.connect()
    try:
        _, body = _request(conn, "GET", "/stats")
    finally:
        conn.close()
    detail["service_stats"] = json.loads(body)
    return {
        "service.post_ms_p50": _p50([job.post_s * 1000 for job in good]),
        "service.queue_wait_ms_p50": _p50(queue_wait),
        "service.execute_ms_p50": _p50(execute),
        "service.polls_per_job": (
            sum(job.polls for job in good) / len(good) if good else None
        ),
    }
