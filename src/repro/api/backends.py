"""Capability-negotiated backend selection: one registry, one negotiation.

Before this module, every engine owned a private slice of backend policy:
:mod:`repro.scheduling.sync_engine` knew which strings were legal and when
to fall back, :mod:`repro.scheduling.async_engine` re-implemented the same
climb with different constants, and the sharded front end had its own
opinions about lazy tables.  Adding the compiled-kernel tier made that
string soup untenable, so selection is now data plus one function:

* :class:`BackendSpec` — what one execution tier *is*: which environments
  it serves, which table flavours it executes, whether it can shard or
  host per-transition observers, and whether it needs compiled kernels
  present at import time.
* :data:`BACKENDS` — the registry mapping tier name to spec.  Third-party
  tiers would register here; everything downstream (negotiation, the CLI
  census, the docs table) is derived from it.
* :func:`negotiate_backend` — the single decision point.  Given a
  :class:`Workload` description and the requested ``backend=`` string it
  returns a :class:`BackendNegotiation`: the ordered tiers to attempt and
  every (tier, reason) pair that was ruled out.  ``backend="auto"`` climbs
  python → vectorized → kernel and *degrades loudly*: each skipped tier's
  reason rides along into ``BackendSelection.rejected`` and ultimately
  ``result.metadata["backend_reason"]``.

The legacy strings (``"python"``, ``"vectorized"``, ``"auto"``) remain
valid aliases with unchanged semantics — no deprecation churn; this module
redesigns *selection*, not the parameter surface.  Strict requests fail
fast: an impossible combination (``backend="kernel"`` without numba,
``backend="python"`` with ``shards >= 2``) raises here, with the same message
the engines used to raise, instead of deep inside an engine constructor.

Capability mismatches that only the compile step can discover (a protocol
whose closure does not enumerate) are *not* negotiated here — the attempt
order in ``tiers`` lets the engine constructors discover them, and the
callers append those failures to the same rejected list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ExecutionError, ProtocolNotVectorizableError

#: Every value the ``backend=`` execution parameter accepts.
BACKEND_TOKENS = ("python", "vectorized", "kernel", "auto")

#: The climb order of ``backend="auto"``: best tier first.
AUTO_CLIMB_ORDER = ("kernel", "vectorized", "python")


@dataclass(frozen=True)
class BackendSpec:
    """Declared capabilities of one execution tier.

    Attributes
    ----------
    name:
        The tier's ``backend=`` string.
    rank:
        Position on the speed ladder; ``"auto"`` prefers the highest
        available rank.
    description:
        One-line summary for the CLI census and the docs.
    environments:
        Environments the tier serves (``"sync"``, ``"async"``,
        ``"dynamic"`` — the last is executed as a sequence of warm-started
        synchronous segments, so every synchronous tier serves it).
    tabulation_modes:
        Table flavours the tier can execute.  ``"interpreted"`` means the
        tier needs no table at all and accepts every workload.
    observer_environments:
        Environments in which the tier supports observers.  Synchronous
        per-round observers batch naturally; asynchronous per-transition
        observers are incompatible with event bucketing, so only the
        interpreter hosts them.
    supports_sharding:
        Whether ``shards=`` (intra-run shared-memory workers) composes
        with the tier.
    requires_compiled_kernels:
        Whether availability depends on the numba import probe of
        :mod:`repro.scheduling.kernels`.
    """

    name: str
    rank: int
    description: str
    environments: tuple[str, ...]
    tabulation_modes: tuple[str, ...]
    observer_environments: tuple[str, ...]
    supports_sharding: bool
    requires_compiled_kernels: bool = False

    def availability(self) -> tuple[bool, str]:
        """Whether this tier can run on this host, plus a detail string."""
        if self.requires_compiled_kernels:
            from repro.scheduling.kernels import kernel_availability

            return kernel_availability()
        if self.name == "python":
            return True, "always available (stdlib interpreter)"
        try:
            import numpy
        except ImportError:  # pragma: no cover - minimal installs only
            return False, "NumPy is not installed"
        return True, f"numpy {numpy.__version__}"


#: The tier registry.  Ordered by rank; ``negotiate_backend`` and the CLI
#: ``--list-backends`` census are both derived from it.
BACKENDS: dict[str, BackendSpec] = {
    "python": BackendSpec(
        name="python",
        rank=0,
        description="object-level interpreter; the bitwise reference engine",
        environments=("sync", "async", "dynamic"),
        tabulation_modes=("interpreted",),
        observer_environments=("sync", "async", "dynamic"),
        supports_sharding=False,
    ),
    "vectorized": BackendSpec(
        name="vectorized",
        rank=1,
        description="NumPy dense-table array rounds / time-bucketed events",
        environments=("sync", "async", "dynamic"),
        tabulation_modes=("eager", "lazy"),
        observer_environments=("sync", "dynamic"),
        supports_sharding=True,
    ),
    "kernel": BackendSpec(
        name="kernel",
        rank=2,
        description="numba @njit(cache=True) compiled round/bucket loops",
        environments=("sync", "async", "dynamic"),
        tabulation_modes=("eager",),
        observer_environments=("sync", "dynamic"),
        supports_sharding=True,
        requires_compiled_kernels=True,
    ),
}


@dataclass(frozen=True)
class Workload:
    """The selection-relevant shape of one execution.

    ``tabulation`` is the table flavour the run will use (the protocol's
    ``tabulation_hint()``, or the flavour of a caller-supplied table);
    ``observer`` means a per-round/per-transition callback is attached.
    """

    environment: str = "sync"
    tabulation: str = "eager"
    shards: int | None = None
    observer: bool = False


@dataclass(frozen=True)
class BackendNegotiation:
    """The outcome of :func:`negotiate_backend`.

    ``tiers`` is the non-empty attempt order (best tier first — the caller
    constructs engines in this order and demotes on compile-time failures);
    ``rejected`` holds every ``(tier, reason)`` ruled out up front, so a
    degraded selection can always say *why*.
    """

    requested: str
    tiers: tuple[str, ...]
    rejected: tuple[tuple[str, str], ...]

    @property
    def chosen(self) -> str:
        """The tier the negotiation settled on (before attempt failures)."""
        return self.tiers[0]

    def rejection_note(self) -> str | None:
        """One human-readable clause per rejected tier, or ``None``."""
        if not self.rejected:
            return None
        return "; ".join(f"{name} tier skipped: {reason}" for name, reason in self.rejected)


def _tier_rejection(
    spec: BackendSpec, workload: Workload, *, strict: bool
) -> tuple[str, Exception] | None:
    """Why *spec* cannot take *workload*, or ``None`` when it can.

    Returns ``(reason, error)`` — the short reason recorded under ``"auto"``
    and the exception a strict request raises.  The error types and texts
    mirror what the engines raised before negotiation was centralised.
    """
    available, detail = spec.availability()
    if not available:
        return detail, ExecutionError(
            f"backend={spec.name!r} requested but the {spec.name} tier is "
            f"unavailable: {detail}"
        )
    if workload.environment not in spec.environments:
        return (
            f"does not serve the {workload.environment} environment",
            ExecutionError(
                f"backend={spec.name!r} does not serve the "
                f"{workload.environment} environment"
            ),
        )
    if (
        "interpreted" not in spec.tabulation_modes
        and workload.tabulation not in spec.tabulation_modes
    ):
        return (
            f"the protocol hints a {workload.tabulation} tabulation "
            f"(the {spec.name} tier runs the eager closure only)",
            ProtocolNotVectorizableError(
                f"the protocol hints a {workload.tabulation} tabulation; the "
                f"{spec.name} backend runs the eager closure only"
            ),
        )
    if workload.observer and workload.environment not in spec.observer_environments:
        return (
            "per-transition observers require the interpreted engine",
            ExecutionError(
                f"the {spec.name} asynchronous backend does not support "
                "per-transition observers; use backend='python'"
            ),
        )
    if strict and (workload.shards or 1) >= 2 and not spec.supports_sharding:
        # Under "auto" the shard preference degrades by *dropping shards*,
        # not by ruling the interpreter out as the last-resort tier.
        return (
            "cannot shard",
            ExecutionError(
                "shards= requires the vectorized backend; backend='python' "
                "interprets nodes serially and cannot shard"
            ),
        )
    return None


def negotiate_backend(workload: Workload, requested: str = "auto") -> BackendNegotiation:
    """Resolve the ``backend=`` request for *workload* into an attempt plan.

    ``"auto"`` climbs the registry by rank and records every skipped tier;
    a named tier is validated strictly — impossible requests raise the
    same errors the engines historically raised (:class:`ExecutionError`
    for availability/observer/shard conflicts,
    :class:`ProtocolNotVectorizableError` for table-flavour conflicts, so
    existing ``try/except`` call sites keep working).
    """
    if requested not in BACKEND_TOKENS:
        raise ExecutionError(
            f"unknown backend {requested!r}; expected one of {BACKEND_TOKENS}"
        )
    strict = requested != "auto"
    candidates = (requested,) if strict else AUTO_CLIMB_ORDER
    tiers: list[str] = []
    rejected: list[tuple[str, str]] = []
    for name in candidates:
        rejection = _tier_rejection(BACKENDS[name], workload, strict=strict)
        if rejection is None:
            tiers.append(name)
            continue
        reason, error = rejection
        if strict:
            raise error
        rejected.append((name, reason))
    if not tiers:  # pragma: no cover - the python tier always qualifies
        raise ExecutionError(
            f"no backend tier can execute this workload: "
            f"{'; '.join(reason for _, reason in rejected)}"
        )
    return BackendNegotiation(requested, tuple(tiers), tuple(rejected))


def backend_census() -> list[dict]:
    """Availability and capabilities of every registered tier on this host.

    Powers ``repro run --list-backends``; each row carries the tier name,
    its availability (with the degradation detail when unavailable), the
    description and the capability flags — all derived from the registry,
    so a new tier shows up everywhere by registering one spec.
    """
    rows = []
    for spec in sorted(BACKENDS.values(), key=lambda s: s.rank):
        available, detail = spec.availability()
        rows.append(
            {
                "name": spec.name,
                "rank": spec.rank,
                "available": available,
                "detail": detail,
                "description": spec.description,
                "environments": list(spec.environments),
                "tabulation_modes": list(spec.tabulation_modes),
                "supports_sharding": spec.supports_sharding,
            }
        )
    return rows
