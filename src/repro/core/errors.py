"""Exception hierarchy for the Stone Age / nFSM reproduction library.

All library errors derive from :class:`StoneAgeError` so that callers can
catch every library-specific failure with a single ``except`` clause while
still being able to distinguish configuration problems from runtime ones.
"""

from __future__ import annotations


class StoneAgeError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class ProtocolSpecificationError(StoneAgeError):
    """A protocol definition violates the nFSM model of Section 2.

    Typical causes are an initial letter outside the communication alphabet,
    a query letter assigned to a state that is not part of the state set, or
    a transition that targets an unknown state.
    """


class ExecutionError(StoneAgeError):
    """An execution engine encountered an inconsistent runtime condition."""


class OutputNotReachedError(ExecutionError):
    """The execution hit its step/round budget before reaching an output
    configuration.

    The partially executed result is attached so callers can inspect how far
    the run progressed.
    """

    def __init__(self, message: str, result: object | None = None) -> None:
        super().__init__(message)
        self.result = result


class ProtocolNotVectorizableError(ExecutionError):
    """A protocol cannot be compiled for the vectorized batch backend.

    Raised when the reachable state set cannot be enumerated within the
    configured limits (lazy protocols with huge state spaces) or when the
    transition relation rejects one of the observations the tabulation must
    enumerate.  With ``backend="auto"`` the engines catch this error and fall
    back to the interpreted engine.
    """


class ShardingUnavailableError(ExecutionError):
    """A run cannot execute on the sharded backend as requested.

    Raised during sharded-engine construction when the workload shape rules
    multi-worker execution out — a protocol whose tabulation hint demands a
    lazy (incrementally grown) table, or a platform without POSIX shared
    memory.  The backend selection in :func:`repro.scheduling.sync_engine.
    _run_synchronous` catches it and falls back to the *unsharded* vectorized
    engine, recording the reason in result metadata — results are identical
    either way, only the parallelism is lost.
    """


class ExecutorError(ExecutionError):
    """The multiprocess spec executor could not dispatch or merge a workload.

    Raised before any worker runs when a pooled workload is not serializable
    (e.g. a custom graph-family factory or validator that cannot be pickled
    was combined with an explicit ``workers=`` request), and after execution
    when the pool infrastructure itself failed.
    """


class WorkerCrashError(ExecutorError):
    """A worker process failed while executing one serialized spec.

    The failure is *structured*: the offending spec (as its ``to_dict``
    payload) and the worker-side traceback are attached, so a poisoned cell
    in a large sweep surfaces as one actionable error instead of a hung
    pool or a bare ``BrokenProcessPool``.
    """

    def __init__(
        self,
        message: str,
        *,
        spec: dict | None = None,
        worker_traceback: str | None = None,
    ) -> None:
        super().__init__(message)
        self.spec = spec
        self.worker_traceback = worker_traceback


class StoreError(StoneAgeError):
    """The content-addressable result store could not serve a request.

    Store *reads* never raise this during normal operation — corrupt or
    stale entries degrade to cache misses (recompute-and-repair) — so it
    only surfaces for genuinely unservable requests, such as asking for the
    canonical hash of a value that has no canonical form.
    """


class StorePayloadError(StoreError):
    """A value cannot be canonically serialized for the result store.

    Raised when a spec parameter or a result field carries a type outside
    the store's canonical encoding (JSON scalars, lists, tuples, sets,
    bytes and dicts).  Callers writing cache entries treat this as a
    bypass — the run still happens, its result just is not cached.
    """


class RegistryError(StoneAgeError):
    """A named registry lookup or registration failed.

    Raised by the :mod:`repro.api` registries when a protocol, graph family
    or adversary name is unknown (the message lists the registered names) or
    when a registration would silently overwrite an existing entry.
    """


class SpecError(StoneAgeError):
    """A :class:`repro.api.RunSpec` is malformed or cannot be resolved.

    Typical causes are an unknown environment/backend token, an unknown key
    in a spec dictionary, or spec inputs handed to a protocol that does not
    accept any.
    """


class GraphError(StoneAgeError):
    """A graph argument is malformed (e.g. self loop, unknown endpoint)."""


class CompilationError(StoneAgeError):
    """A protocol compiler (synchronizer / multi-query lowering) was applied
    to a protocol it cannot handle."""


class AutomatonError(StoneAgeError):
    """A linear bounded automaton definition or execution is invalid."""


class VerificationError(StoneAgeError):
    """A produced solution failed verification against the problem spec."""
