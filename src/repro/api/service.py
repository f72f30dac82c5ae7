"""A stdlib spec job service in front of the content-addressable store.

The service turns the library into a long-running simulation endpoint: a
client POSTs a :class:`~repro.api.RunSpec` JSON document, the service
answers with a job whose identifier *is* the spec's canonical hash, and the
result — once computed — is the store's canonical payload, byte-identical
no matter how often or where the spec runs.  Three properties follow
directly from the PR 5/PR 6 determinism contracts:

* **Deduplication is free** — two clients submitting the same seeded spec
  share one job (same hash, same in-flight entry) and one result; a spec
  whose hash is already in the :class:`~repro.api.store.ResultStore` is
  answered without touching the execution engines at all.
* **Unseeded specs still run** — they get a unique job id (the hash plus a
  submission counter), are never deduplicated against each other and their
  results are never persisted (the store's escape hatch).
* **Status is a ledger, not a field** — every transition is appended to a
  per-job JSONL ledger (``queued`` → ``started`` → ``finished``/``failed``),
  so clients can stream progress and post-mortems survive the process.

Everything is standard library: ``http.server.ThreadingHTTPServer`` accepts
requests, a single daemon drain thread batches queued jobs and dispatches
them through :func:`repro.api.executor.run_specs` — pooled across worker
processes when the service was configured with ``workers > 1``.

Endpoints::

    POST /jobs            spec JSON -> {"job", "status", "cached", ...}
    GET  /jobs/<id>       job status summary
    GET  /jobs/<id>/result   canonical result payload (409 until done)
    GET  /jobs/<id>/events   the job's JSONL ledger (text/plain)
    GET  /stats           store counters + job-state census
    GET  /healthz         liveness probe

Start one from the command line with ``python -m repro serve --store DIR``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections.abc import Mapping
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.api.executor import run_specs
from repro.api.session import Simulation
from repro.api.spec import RunSpec
from repro.api.store import (
    ResultStore,
    canonical_json,
    result_to_payload,
    spec_cacheable,
    spec_hash,
)
from repro.core.errors import SpecError, StoneAgeError

#: Job lifecycle states, in order of appearance.
JOB_STATES = ("queued", "running", "done", "failed")

_STOP = object()


class JobLedger:
    """Append-only JSONL event logs, one file per job.

    Events are single JSON objects per line with at least ``job``,
    ``event`` and ``ts`` keys; extra keyword fields ride along verbatim.
    The ledger is the authoritative job history — the in-memory job table
    only caches the latest state for quick status answers.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.jsonl"

    def append(self, job_id: str, event: str, **fields: Any) -> None:
        record = {"job": job_id, "event": event, "ts": round(time.time(), 6)}
        record.update(fields)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            with open(self.path(job_id), "a", encoding="utf-8") as handle:
                handle.write(line + "\n")

    def events(self, job_id: str) -> list[dict[str, Any]]:
        """Parsed events of one job, oldest first (missing job: empty)."""
        try:
            text = self.path(job_id).read_text(encoding="utf-8")
        except OSError:
            return []
        events = []
        for line in text.splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
        return events

    def raw(self, job_id: str) -> str:
        """The job's ledger file verbatim (empty string when absent)."""
        try:
            return self.path(job_id).read_text(encoding="utf-8")
        except OSError:
            return ""


class JobService:
    """Spec-hash-addressed job queue over a result store.

    One instance owns a :class:`~repro.api.Simulation` session (with the
    store attached), a job table keyed by job id, a FIFO queue and one
    daemon drain thread.  The drain thread batches whatever is queued and
    executes the batch through :func:`~repro.api.executor.run_specs`, so a
    multi-client burst of specs is dispatched to the worker pool exactly
    like a programmatic ``run_specs`` call — and every seeded result lands
    in the store for the next submission to hit.
    """

    def __init__(
        self,
        store: ResultStore | str | Path,
        *,
        ledger_dir: str | Path | None = None,
        workers: int | None = None,
        max_finished_jobs: int = 256,
    ) -> None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.session = Simulation(store=store)
        self.ledger = JobLedger(
            ledger_dir if ledger_dir is not None else store.root / "ledger"
        )
        self.workers = workers
        #: Finished (done/failed) jobs kept in memory; the oldest beyond
        #: this cap are evicted so a long-running service does not retain
        #: every result ever computed — cacheable results are re-served
        #: from the store on demand, their ledger files remain on disk.
        self.max_finished_jobs = max(1, int(max_finished_jobs))
        self._jobs: dict[str, dict[str, Any]] = {}
        self._order: list[str] = []
        self._unseeded = 0
        self._lock = threading.RLock()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._drain = threading.Thread(
            target=self._drain_loop, name="repro-job-drain", daemon=True
        )
        self._drain.start()

    # -- submission ----------------------------------------------------- #
    def submit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Accept one spec document; return the job summary.

        Raises :class:`~repro.core.errors.StoneAgeError` (``SpecError``)
        for malformed specs — the HTTP layer maps that to a 400.  A seeded
        spec deduplicates against any live job with the same hash and is
        answered straight from the store when its hash is present.
        """
        spec = RunSpec.from_dict(dict(payload))
        entry = spec.entry()  # raises RegistryError for unknown protocols
        if not entry.spec_runnable:
            raise SpecError(
                f"protocol {spec.protocol!r} is not spec-runnable and cannot "
                f"be served as a job"
            )
        digest = spec_hash(spec)
        cacheable = spec_cacheable(spec)
        with self._lock:
            if cacheable:
                existing = self._jobs.get(digest)
                if existing is not None and existing["status"] != "failed":
                    summary = self._summary(existing)
                    summary["deduplicated"] = True
                    return summary
                job_id = digest
                cached = self.store.get(digest)
                if cached is not None:
                    job = self._register(job_id, spec, status="done")
                    job["result_json"] = canonical_json(cached)
                    self.ledger.append(job_id, "queued", hash=digest)
                    self.ledger.append(job_id, "finished", cached=True)
                    return self._summary(job, cached=True)
            else:
                self._unseeded += 1
                job_id = f"{digest}-u{self._unseeded}"
            job = self._register(job_id, spec, status="queued")
            self.ledger.append(job_id, "queued", hash=digest, cacheable=cacheable)
            self._queue.put(job_id)
            return self._summary(job)

    def _register(self, job_id: str, spec: RunSpec, *, status: str) -> dict[str, Any]:
        job = {
            "id": job_id,
            "spec": spec.to_dict(),
            "status": status,
            "error": None,
            "result_json": None,
        }
        with self._lock:
            self._jobs[job_id] = job
            self._order.append(job_id)
        self._evict_finished()
        return job

    def _summary(self, job: dict[str, Any], *, cached: bool = False) -> dict[str, Any]:
        return {
            "job": job["id"],
            "status": job["status"],
            "cached": cached,
            "error": job["error"],
        }

    # -- queries -------------------------------------------------------- #
    def job(self, job_id: str) -> dict[str, Any] | None:
        """A snapshot of one job, result included; ``None`` when unknown.

        An evicted cacheable job is rebuilt from its store entry, so one
        call reads the store at most once.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return dict(job)
        return self._job_from_store(job_id)

    def result_json(self, job_id: str) -> str | None:
        """The canonical result payload of a finished job, or ``None``."""
        job = self.job(job_id)
        return job["result_json"] if job is not None and job["status"] == "done" else None

    def _job_from_store(self, job_id: str) -> dict[str, Any] | None:
        """Rebuild an evicted cacheable job's view from the store.

        A cacheable job's id *is* its spec hash, so a finished job evicted
        from the in-memory table is still answerable as long as its store
        entry lives (``spec`` is no longer known — the entry holds only the
        payload).  Non-hash ids (unseeded ``-uN`` jobs) have no store entry
        and stay 404 once evicted.
        """
        if len(job_id) != 64 or any(c not in "0123456789abcdef" for c in job_id):
            return None
        payload = self.store.get(job_id)
        if payload is None:
            return None
        return {
            "id": job_id,
            "spec": None,
            "status": "done",
            "error": None,
            "result_json": canonical_json(payload),
        }

    def _evict_finished(self) -> None:
        """Drop the oldest finished jobs beyond ``max_finished_jobs``."""
        with self._lock:
            finished = [
                job_id
                for job_id in self._order
                if self._jobs[job_id]["status"] in ("done", "failed")
            ]
            excess = len(finished) - self.max_finished_jobs
            if excess <= 0:
                return
            for job_id in finished[:excess]:
                del self._jobs[job_id]
            self._order = [job_id for job_id in self._order if job_id in self._jobs]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            census = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                census[job["status"]] = census.get(job["status"], 0) + 1
        return {
            "jobs": census,
            "store": self.store.stats(),
            "tables": {
                key: value
                for key, value in self.session.cache_info().items()
                if key != "store"
            },
        }

    # -- execution ------------------------------------------------------ #
    def _drain_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            batch = [item]
            stop = False
            while True:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stop = True
                    break
                batch.append(extra)
            try:
                self._run_batch(batch)
            except Exception as exc:  # noqa: BLE001 — no job may kill the drain
                self._fail_batch(batch, exc)
            if stop:
                return

    def _run_batch(self, job_ids: list[str]) -> None:
        jobs = []
        with self._lock:
            for job_id in job_ids:
                job = self._jobs.get(job_id)
                if job is not None and job["status"] == "queued":
                    job["status"] = "running"
                    jobs.append(job)
        for job in jobs:
            self.ledger.append(job["id"], "started")
        specs = [RunSpec.from_dict(job["spec"]) for job in jobs]
        results: list[Any] = [None] * len(jobs)
        batched = len(jobs) > 1
        if batched:
            try:
                results = run_specs(
                    specs,
                    workers=self.workers,
                    session=self.session,
                    raise_on_timeout=False,
                )
            except Exception:  # noqa: BLE001 — isolate the poisoned spec below
                batched = False
                results = [None] * len(jobs)
        if not batched:
            for index, spec in enumerate(specs):
                try:
                    results[index] = self.session.simulate(
                        spec, raise_on_timeout=False
                    )
                except Exception as exc:  # noqa: BLE001 — job must fail, not thread
                    results[index] = exc
        for job, result in zip(jobs, results):
            try:
                if isinstance(result, Exception):
                    self._fail(job, f"{type(result).__name__}: {result}")
                    continue
                payload = canonical_json(result_to_payload(result))
                # Finish and evict in one critical section: a poller that
                # sees this job done never sees an older one past the cap.
                with self._lock:
                    job["status"] = "done"
                    job["result_json"] = payload
                    self._evict_finished()
                self.ledger.append(
                    job["id"], "finished", reached_output=bool(result.reached_output)
                )
            except Exception as exc:  # noqa: BLE001 — finalization must not
                # escape: an unencodable payload (StorePayloadError) or a
                # ledger OSError fails this one job, not the drain thread —
                # which would leave every later submission queued forever.
                self._fail(job, f"{type(exc).__name__}: {exc}")

    def _fail(self, job: dict[str, Any], error: str) -> None:
        with self._lock:
            job["status"] = "failed"
            job["error"] = error
            self._evict_finished()
        try:
            self.ledger.append(job["id"], "failed", error=error)
        except OSError:
            pass  # the in-memory state already answers status queries

    def _fail_batch(self, job_ids: list[str], exc: Exception) -> None:
        """Last-resort containment: fail whatever the aborted batch left live."""
        error = f"batch aborted: {type(exc).__name__}: {exc}"
        with self._lock:
            jobs = [
                self._jobs[job_id]
                for job_id in job_ids
                if job_id in self._jobs
                and self._jobs[job_id]["status"] in ("queued", "running")
            ]
        for job in jobs:
            self._fail(job, error)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the drain thread after the current batch."""
        self._queue.put(_STOP)
        self._drain.join(timeout=timeout)


# ---------------------------------------------------------------------- #
# The HTTP layer                                                          #
# ---------------------------------------------------------------------- #
class _JobRequestHandler(BaseHTTPRequestHandler):
    """Routes the fixed endpoint set onto the server's :class:`JobService`."""

    server_version = "repro-jobs/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a reply goes out as headers and body in two sends, and
    # with Nagle's algorithm on the body waits for the client's delayed ACK
    # of the headers (about 40 ms on Linux) on every keep-alive request.
    disable_nagle_algorithm = True

    @property
    def service(self) -> JobService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------- #
    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(code, body, "application/json")

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    # -- verbs ---------------------------------------------------------- #
    def do_POST(self) -> None:  # noqa: N802 — http.server API
        if self.path.rstrip("/") != "/jobs":
            # Drain the body first: under keep-alive, unread bytes would be
            # parsed as the start of the next request on this connection.
            self._read_body()
            self._send_json(404, {"error": f"unknown endpoint {self.path!r}"})
            return
        try:
            payload = json.loads(self._read_body() or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("spec document must be a JSON object")
            summary = self.service.submit(payload)
        except (ValueError, StoneAgeError) as error:
            self._send_json(400, {"error": str(error)})
            return
        self._send_json(202 if summary["status"] == "queued" else 200, summary)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        parts = [part for part in self.path.split("/") if part]
        if parts == ["healthz"]:
            self._send_json(200, {"ok": True})
        elif parts == ["stats"]:
            self._send_json(200, self.service.stats())
        elif len(parts) >= 2 and parts[0] == "jobs":
            self._get_job(parts[1], parts[2:])
        else:
            self._send_json(404, {"error": f"unknown endpoint {self.path!r}"})

    def _get_job(self, job_id: str, rest: list[str]) -> None:
        job = self.service.job(job_id)  # the one store read of this request
        if job is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        if not rest:
            self._send_json(
                200,
                {
                    "job": job["id"],
                    "status": job["status"],
                    "error": job["error"],
                    "spec": job["spec"],
                },
            )
        elif rest == ["result"]:
            if job["status"] != "done":
                self._send_json(
                    409, {"job": job_id, "status": job["status"], "error": job["error"]}
                )
            else:
                self._send(200, job["result_json"].encode("utf-8"), "application/json")
        elif rest == ["events"]:
            self._send(
                200, self.service.ledger.raw(job_id).encode("utf-8"), "text/plain"
            )
        else:
            self._send_json(404, {"error": f"unknown endpoint {self.path!r}"})


def make_server(
    service: JobService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to *service*.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``), which is how the integration tests run a
    real client/server round trip without port conflicts.
    """
    server = ThreadingHTTPServer((host, port), _JobRequestHandler)
    server.service = service  # type: ignore[attr-defined]
    return server


def serve(
    store: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8008,
    workers: int | None = None,
    ledger_dir: str | Path | None = None,
    max_finished_jobs: int = 256,
) -> None:  # pragma: no cover — interactive entry point
    """Run a job service until interrupted (the ``repro serve`` command)."""
    service = JobService(
        store,
        workers=workers,
        ledger_dir=ledger_dir,
        max_finished_jobs=max_finished_jobs,
    )
    server = make_server(service, host=host, port=port)
    server.verbose = True  # type: ignore[attr-defined]
    bound_host, bound_port = server.server_address[:2]
    # Flushed: a caller reading the port from a pipe waits for this line.
    print(f"serving spec jobs on http://{bound_host}:{bound_port} "
          f"(store: {service.store.root})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
