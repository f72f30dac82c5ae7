"""Integration determinism harness for the result store and job service.

The tentpole claim of the store is *replay without execution*: once a
seeded workload ran cold, rerunning it against the same store must
(a) perform **zero** engine executions — counter-asserted via
:mod:`repro.core.counters`, which every engine primitive increments — and
(b) reproduce the cold run's records and payloads **bitwise**, under both
serial and pooled (``workers=2``) execution.  The service smoke test then
drives the same contract over HTTP: submit, poll, fetch; resubmits are
deduplicated and answered from the store byte-for-byte.
"""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.api import RunSpec, Simulation, run_specs
from repro.api.store import canonical_json, result_to_payload, spec_hash
from repro.core.counters import engine_runs

SWEEP_KWARGS = {
    "families": ["gnp_sparse", "random_tree"],
    "sizes": [16, 24],
    "repetitions": 2,
}
SWEEP_SPEC = RunSpec(protocol="mis", seed=11)
CELLS = 2 * 2 * 2


def _record_tuples(sweep):
    return [
        (
            record.family,
            record.size,
            record.repetition,
            record.graph_nodes,
            record.graph_edges,
            record.cost,
            record.rounds,
            record.reached_output,
            record.valid,
            record.adversary,
            record.extra,
        )
        for record in sweep.records
    ]


# ---------------------------------------------------------------------- #
# The determinism harness: cold then warm, serial and pooled              #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("warm_workers", [None, 2], ids=["serial", "workers2"])
def test_warm_sweep_runs_zero_engines_and_is_bitwise_identical(
    tmp_path, warm_workers
):
    cold_session = Simulation(store=tmp_path / "store")
    before_cold = engine_runs()
    cold = cold_session.sweep(SWEEP_SPEC, **SWEEP_KWARGS)
    assert engine_runs() - before_cold == CELLS
    assert cold_session.store.stats()["writes"] == CELLS
    assert cold_session.store.stats()["entries"] == CELLS

    warm_session = Simulation(store=tmp_path / "store")
    before_warm = engine_runs()
    warm = warm_session.sweep(SWEEP_SPEC, workers=warm_workers, **SWEEP_KWARGS)
    assert engine_runs() == before_warm  # ZERO engine executions
    stats = warm_session.store.stats()
    assert stats["hits"] == CELLS
    assert stats["misses"] == 0
    assert stats["writes"] == 0
    assert _record_tuples(warm) == _record_tuples(cold)


@pytest.mark.parametrize("cold_workers", [None, 2], ids=["serial", "workers2"])
def test_pooled_and_serial_cold_runs_fill_identical_stores(
    tmp_path, cold_workers
):
    """The store contents are execution-strategy-independent, byte for byte."""
    session = Simulation(store=tmp_path / "store")
    session.sweep(SWEEP_SPEC, workers=cold_workers, **SWEEP_KWARGS)
    entries = {
        path.name: path.read_bytes() for path in session.store._entry_paths()
    }
    assert len(entries) == CELLS

    other = Simulation(store=tmp_path / "other")
    other.sweep(
        SWEEP_SPEC, workers=2 if cold_workers is None else None, **SWEEP_KWARGS
    )
    other_entries = {
        path.name: path.read_bytes() for path in other.store._entry_paths()
    }
    assert other_entries == entries


@pytest.mark.parametrize("warm_workers", [None, 2], ids=["serial", "workers2"])
def test_warm_repeat_is_bitwise_identical(tmp_path, warm_workers):
    spec = RunSpec(protocol="coloring", nodes=20, seed=4, graph="random_tree")
    cold = Simulation(store=tmp_path / "store").repeat(spec, 4)

    warm_session = Simulation(store=tmp_path / "store")
    before = engine_runs()
    warm = warm_session.repeat(spec, 4, workers=warm_workers)
    assert engine_runs() == before
    assert warm == cold
    assert [
        canonical_json(result_to_payload(result)) for result in warm
    ] == [canonical_json(result_to_payload(result)) for result in cold]


def test_warm_run_specs_dispatches_no_pool_tasks(tmp_path):
    specs = [RunSpec(protocol="mis", nodes=n, seed=s) for n in (16, 24) for s in (1, 2)]
    session = Simulation(store=tmp_path / "store")
    cold = run_specs(specs, workers=2, session=session)

    warm_session = Simulation(store=tmp_path / "store")
    before = engine_runs()
    warm = run_specs(specs, workers=2, session=warm_session)
    assert engine_runs() == before
    assert warm == cold
    assert warm_session.store.stats()["hits"] == len(specs)


def test_partial_warm_store_runs_only_the_missing_cells(tmp_path):
    """A half-warm store executes exactly the missing half."""
    session = Simulation(store=tmp_path / "store")
    session.sweep(SWEEP_SPEC, families=["gnp_sparse"], sizes=[16, 24], repetitions=2)

    before = engine_runs()
    full = Simulation(store=tmp_path / "store")
    sweep = full.sweep(SWEEP_SPEC, **SWEEP_KWARGS)
    assert engine_runs() - before == CELLS // 2  # only random_tree cells ran
    stats = full.store.stats()
    assert stats["hits"] == CELLS // 2
    assert stats["entries"] == CELLS
    assert len(sweep.records) == CELLS


# ---------------------------------------------------------------------- #
# The job service, over real HTTP                                         #
# ---------------------------------------------------------------------- #
@pytest.fixture()
def service_url(tmp_path):
    from repro.api.service import JobService, make_server

    service = JobService(tmp_path / "store")
    server = make_server(service)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url, *, raw=False):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            body = response.read()
            return response.status, body if raw else json.loads(body)
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _wait_done(base, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = _get(f"{base}/jobs/{job_id}")
        if status["status"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in time")


def test_service_job_lifecycle_and_cached_resubmit(service_url):
    base, service = service_url
    spec = {"protocol": "mis", "nodes": 24, "seed": 9}
    digest = spec_hash(RunSpec.from_dict(spec))

    code, submitted = _post(f"{base}/jobs", spec)
    assert code in (200, 202)
    assert submitted["job"] == digest  # the job id IS the spec hash
    status = _wait_done(base, digest)
    assert status["status"] == "done"
    assert status["error"] is None

    code, payload = _get(f"{base}/jobs/{digest}/result", raw=True)
    assert code == 200
    decoded = json.loads(payload)
    assert decoded["reached_output"] is True

    # Resubmission: same job, no new execution.
    before = engine_runs()
    code, resubmitted = _post(f"{base}/jobs", spec)
    assert code == 200
    assert resubmitted["job"] == digest
    assert resubmitted["status"] == "done"
    assert engine_runs() == before

    # The ledger streams the lifecycle.
    code, events = _get(f"{base}/jobs/{digest}/events", raw=True)
    kinds = [json.loads(line)["event"] for line in events.decode().splitlines()]
    assert kinds[:3] == ["queued", "started", "finished"]

    code, stats = _get(f"{base}/stats")
    assert stats["jobs"]["done"] >= 1
    assert stats["store"]["writes"] == 1


def test_fresh_service_serves_byte_identical_results(tmp_path):
    """A brand-new service over a warm store answers without executing."""
    from repro.api.service import JobService, make_server

    spec = {"protocol": "coloring", "nodes": 16, "seed": 3, "graph": "random_tree"}

    def run_service(expect_cached):
        service = JobService(tmp_path / "store")
        server = make_server(service)
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://{host}:{port}"
        try:
            _, submitted = _post(f"{base}/jobs", spec)
            assert submitted["cached"] is expect_cached
            _wait_done(base, submitted["job"])
            _, payload = _get(f"{base}/jobs/{submitted['job']}/result", raw=True)
            return payload
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    cold_payload = run_service(expect_cached=False)
    before = engine_runs()
    warm_payload = run_service(expect_cached=True)
    assert engine_runs() == before
    assert warm_payload == cold_payload  # byte-identical across processes


def test_service_rejects_malformed_specs(service_url):
    base, _ = service_url
    assert _post(f"{base}/jobs", {"protocol": "no-such-protocol"})[0] == 400
    assert _post(f"{base}/jobs", {"protocol": "mis", "bogus_key": 1})[0] == 400
    assert _get(f"{base}/jobs/ffffffff")[0] == 404
    assert _get(f"{base}/healthz")[1] == {"ok": True}


def test_kernel_backend_is_refused_everywhere_cold_or_warm(service_url, tmp_path):
    """``backend="kernel"`` names no tier: the spec, the CLI and the service
    all refuse it up front.  The spec hash ignores ``backend``, so a store
    warmed by the ``"auto"`` twin of the spec must not serve it either."""
    from repro.cli import main
    from repro.core.errors import SpecError

    base, _ = service_url
    fields = {"protocol": "mis", "nodes": 32, "seed": 3}
    with pytest.raises(SpecError, match="unknown backend 'kernel'"):
        RunSpec(**fields, backend="kernel")

    store = tmp_path / "cli-store"
    run = ["run", "mis", "--nodes", "32", "--seed", "3", "--store", str(store)]
    spec_file = tmp_path / "kernel.json"
    spec_file.write_text(json.dumps({**fields, "backend": "kernel"}))
    for warm in (False, True):
        if warm:  # the auto twin fills the CLI store and the service store
            assert main(run) == 0
            _, submitted = _post(f"{base}/jobs", fields)
            assert _wait_done(base, submitted["job"])["status"] == "done"
        with pytest.raises(SystemExit) as exit_info:
            main([*run, "--backend", "kernel"])
        assert exit_info.value.code == 2
        assert main(["run", "--spec", str(spec_file), "--store", str(store)]) == 2
        code, body = _post(f"{base}/jobs", {**fields, "backend": "kernel"})
        assert code == 400
        assert "unknown backend 'kernel'" in body["error"]


def _wait_service_done(service, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.job(job_id)
        if job is not None and job["status"] in ("done", "failed"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish in time")


def test_finalization_failure_fails_the_job_not_the_drain_thread(
    tmp_path, monkeypatch
):
    """An unencodable result fails its own job; later jobs still drain."""
    from repro.api import service as service_mod
    from repro.core.errors import StorePayloadError

    real = service_mod.result_to_payload
    calls = {"n": 0}

    def flaky(result):
        calls["n"] += 1
        if calls["n"] == 1:
            raise StorePayloadError("no canonical store encoding")
        return real(result)

    monkeypatch.setattr(service_mod, "result_to_payload", flaky)
    service = service_mod.JobService(tmp_path / "store")
    try:
        first = service.submit({"protocol": "mis", "nodes": 16, "seed": 101})
        failed = _wait_service_done(service, first["job"])
        assert failed["status"] == "failed"
        assert "StorePayloadError" in failed["error"]

        # The drain thread survived: a subsequent submission completes.
        second = service.submit({"protocol": "mis", "nodes": 16, "seed": 102})
        done = _wait_service_done(service, second["job"])
        assert done["status"] == "done"
        assert service.result_json(second["job"]) is not None
    finally:
        service.close()


def test_unknown_post_drains_body_and_keeps_connection_in_sync(service_url):
    """A 404'd POST body must not desync a keep-alive connection."""
    import http.client
    from urllib.parse import urlsplit

    base, _ = service_url
    parts = urlsplit(base)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.request("POST", "/nope", body=json.dumps({"pad": "x" * 512}))
        response = conn.getresponse()
        assert response.status == 404
        response.read()

        # Same persistent connection: the next request must parse cleanly.
        conn.request(
            "POST", "/jobs", body=json.dumps({"protocol": "mis", "nodes": 16, "seed": 5})
        )
        response = conn.getresponse()
        assert response.status in (200, 202)
        assert json.loads(response.read())["job"]
    finally:
        conn.close()


def test_finished_jobs_are_evicted_and_reserved_from_store(tmp_path):
    """The job table stays bounded; evicted cacheable jobs answer from disk."""
    from repro.api.service import JobService

    service = JobService(tmp_path / "store", max_finished_jobs=2)
    try:
        ids = []
        for seed in range(4):
            summary = service.submit({"protocol": "mis", "nodes": 16, "seed": seed})
            ids.append(summary["job"])
            _wait_service_done(service, summary["job"])
        assert len(service._jobs) <= 2

        oldest = ids[0]
        assert oldest not in service._jobs  # evicted from memory...
        job = service.job(oldest)  # ...but still answerable from the store
        assert job["status"] == "done"
        payload = service.result_json(oldest)
        assert json.loads(payload)["reached_output"] is True
    finally:
        service.close()


def test_evicted_job_reads_the_store_once_per_request(tmp_path):
    """GET of an evicted job's status or result is one store read."""
    from repro.api.service import JobService, make_server

    service = JobService(tmp_path / "store", max_finished_jobs=1)
    server = make_server(service)
    host, port = server.server_address[:2]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://{host}:{port}"
    try:
        ids = []
        for seed in (1, 2):
            _, submitted = _post(f"{base}/jobs", {"protocol": "mis", "nodes": 16, "seed": seed})
            ids.append(submitted["job"])
            _wait_done(base, submitted["job"])
        assert ids[0] not in service._jobs
        for path in (f"/jobs/{ids[0]}/result", f"/jobs/{ids[0]}"):
            hits = service.store.hits
            code, _ = _get(base + path, raw=True)
            assert code == 200
            assert service.store.hits == hits + 1, path
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_a_finished_job_evicts_the_older_one_before_it_reports(tmp_path):
    """With room for one finished job, job 1 has left the table by the time
    job 2's ``finished`` line is written: finishing and evicting are one
    step, so no poller sees job 2 done beside job 1."""
    from repro.api.service import JobService

    service = JobService(tmp_path / "store", max_finished_jobs=1)
    try:
        first = service.submit({"protocol": "mis", "nodes": 16, "seed": 1})["job"]
        _wait_service_done(service, first)
        seen = {}
        append = service.ledger.append

        def watch(job_id, event, **fields):
            if event == "finished":
                seen[job_id] = first in service._jobs
            append(job_id, event, **fields)

        service.ledger.append = watch
        second = service.submit({"protocol": "mis", "nodes": 16, "seed": 2})["job"]
        _wait_service_done(service, second)
        deadline = time.monotonic() + 30
        while second not in seen and time.monotonic() < deadline:
            time.sleep(0.01)
        assert seen == {second: False}
    finally:
        service.close()


def test_resubmitted_spec_round_trip_waits_for_no_delayed_ack(service_url):
    """Replies go out with TCP_NODELAY: on a keep-alive connection a reply
    whose body follows its headers does not wait for the client's delayed
    ACK (about 40 ms on Linux) before the body leaves the server."""
    base, _ = service_url
    spec = {"protocol": "mis", "nodes": 16, "seed": 8}
    _, submitted = _post(f"{base}/jobs", spec)
    _wait_done(base, submitted["job"])
    parts = urlsplit(base)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    body = json.dumps(spec)
    round_trips = []
    try:
        for _ in range(20):
            start = time.perf_counter()
            conn.request("POST", "/jobs", body=body)
            response = conn.getresponse()
            assert json.loads(response.read())["status"] == "done"
            round_trips.append(time.perf_counter() - start)
    finally:
        conn.close()
    assert statistics.median(round_trips) < 0.020, round_trips


def test_service_runs_unseeded_specs_without_caching(service_url):
    base, service = service_url
    spec = {"protocol": "mis", "nodes": 16, "seed": None}
    _, first = _post(f"{base}/jobs", spec)
    _, second = _post(f"{base}/jobs", spec)
    assert first["job"] != second["job"]  # never deduplicated
    _wait_done(base, first["job"])
    _wait_done(base, second["job"])
    stats = service.stats()
    assert stats["store"]["writes"] == 0
    assert stats["store"]["entries"] == 0
