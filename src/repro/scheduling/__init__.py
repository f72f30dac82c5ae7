"""Execution engines and adversarial asynchrony policies.

The scheduling layer is organised around one *compiled-execution core*
(:mod:`repro.scheduling.compiled`) consumed by two engine families:

======================  ==========================  ============================
environment             interpreted reference       vectorized batch backend
======================  ==========================  ============================
synchronous rounds      :class:`SynchronousEngine`  :class:`VectorizedEngine`
adversarial timing      :class:`AsynchronousEngine` :class:`VectorizedAsynchronousEngine`
======================  ==========================  ============================

Both :func:`run_synchronous` and :func:`run_asynchronous` take
``backend="python" | "vectorized" | "auto"``; for any given seed every
backend of an environment produces identical results (terminating runs).
``auto`` resolves the ladder through
:func:`repro.api.backends.negotiate_backend` and degrades loudly (the
skipped tier and reason land in ``metadata["backend_reason"]``).

The free-function entry points (``run_synchronous``, ``run_asynchronous``,
``repeat_synchronous``) are deprecated shims since the introduction of the
:class:`repro.api.Simulation` facade — they delegate to it and emit
``DeprecationWarning``; results are unchanged.  New code should construct a
session and go through ``simulate()`` / ``repeat()`` / ``sweep()`` (or the
``*_protocol`` object-level variants).
"""

from repro.scheduling.adversary import (
    AdversaryPolicy,
    AdversarySchedule,
    BurstyAdversary,
    CounterBasedSchedule,
    ExponentialAdversary,
    SkewedRatesAdversary,
    SynchronousAdversary,
    TargetedLaggardAdversary,
    UniformRandomAdversary,
    default_adversary_suite,
    derive_adversary_seed,
)
from repro.scheduling.async_engine import (
    AsynchronousEngine,
    run_asynchronous,
)
from repro.scheduling.compiled import (
    CompiledProtocol,
    LazyExtendedTable,
    LazyStrictTable,
    compile_protocol,
)
from repro.scheduling.sync_engine import (
    BackendSelection,
    SynchronousEngine,
    precompile_tables,
    repeat_synchronous,
    run_synchronous,
    select_backend,
)
from repro.scheduling.vectorized_async_engine import VectorizedAsynchronousEngine
from repro.scheduling.vectorized_engine import VectorizedEngine

__all__ = [
    "AdversaryPolicy",
    "AdversarySchedule",
    "AsynchronousEngine",
    "BackendSelection",
    "BurstyAdversary",
    "CompiledProtocol",
    "CounterBasedSchedule",
    "ExponentialAdversary",
    "LazyExtendedTable",
    "LazyStrictTable",
    "SkewedRatesAdversary",
    "SynchronousAdversary",
    "SynchronousEngine",
    "TargetedLaggardAdversary",
    "UniformRandomAdversary",
    "VectorizedAsynchronousEngine",
    "VectorizedEngine",
    "compile_protocol",
    "default_adversary_suite",
    "derive_adversary_seed",
    "precompile_tables",
    "repeat_synchronous",
    "run_asynchronous",
    "run_synchronous",
    "select_backend",
]
