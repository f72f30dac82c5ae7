"""Execution engines and adversarial asynchrony policies.

The scheduling layer is organised around one *compiled-execution core*
(:mod:`repro.scheduling.compiled`) consumed by two engine families:

======================  ==========================  ============================
environment             interpreted reference       vectorized batch backend
======================  ==========================  ============================
synchronous rounds      :class:`SynchronousEngine`  :class:`VectorizedEngine`
adversarial timing      :class:`AsynchronousEngine` :class:`VectorizedAsynchronousEngine`
======================  ==========================  ============================

Both environments take ``backend="python" | "vectorized" | "auto"``
(on a :class:`~repro.api.RunSpec` or
:meth:`repro.api.Simulation.run_protocol`); for any given seed every
backend of an environment produces identical results (terminating runs).
``auto`` picks the tier where the engine is built and degrades loudly (an
interpreter fallback and its reason land in ``metadata["backend_reason"]``).

Runs go through a :class:`repro.api.Simulation` session: ``simulate()`` /
``repeat()`` / ``sweep()`` for registry-described workloads and
``run_protocol()`` for an already-constructed graph and protocol.
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
from repro.scheduling.async_engine import AsynchronousEngine
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
    "select_backend",
]
