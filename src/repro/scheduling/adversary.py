"""Adversarial asynchrony policies (paper Section 2, "Asynchrony").

An adversarial policy fixes, for every node ``v`` and step ``t``, the step
length ``L_{v,t}`` and, for every neighbour ``u``, the delivery delay
``D_{v,t,u}`` of the message transmitted by ``v`` in step ``t``.  The
adversary is *oblivious*: it cannot observe the protocol's coin tosses, so a
policy is drawn from its own random stream before/independently of the
protocol execution.

The paper quantifies over *all* policies.  We obviously cannot enumerate
them, so the library ships a family of representative policies (synchronous,
uniformly random, exponential, skewed per-node rates, bursty, targeted
laggard) and the correctness experiments run against every member of the
family.  New policies are easy to add: subclass :class:`AdversaryPolicy` and
return an :class:`AdversarySchedule` from :meth:`AdversaryPolicy.start`.

Sampling interface
------------------
A schedule exposes two layers:

* the scalar methods :meth:`AdversarySchedule.step_length` and
  :meth:`AdversarySchedule.delivery_delay` — one timing parameter per call,
  used by the interpreted event-at-a-time engine;
* the batch methods :meth:`AdversarySchedule.step_lengths` and
  :meth:`AdversarySchedule.delivery_delays` — whole NumPy arrays of timing
  parameters, used by the vectorized asynchronous engine.  The base class
  provides a scalar-loop fallback so custom policies only have to implement
  the scalar pair.

All six shipped policies derive from :class:`CounterBasedSchedule`: their
timings are *pure functions* of the draw coordinates ``(node, step)`` /
``(sender, step, receiver)``, obtained by hashing the coordinates together
with a per-run key (SplitMix64).  Purity is what makes the two engines
interchangeable — the same coordinate yields the bitwise-identical float no
matter in which order (or in which batch shape) it is sampled, so the
interpreted and the vectorized engine observe the *same* adversary.
Schedules advertise this property via
:attr:`AdversarySchedule.batch_capable`; the vectorized engine refuses (and
``backend="auto"`` downgrades) schedules that merely fall back to the scalar
loop, because a stateful random stream sampled in a different order would
silently realise a different — if still legitimate — adversary.

All timings are positive finite floats; the engine normalises the measured
run-time by the maximum parameter it actually used, as required by the
paper's run-time definition.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

import numpy as np

from repro.core.errors import ExecutionError
from repro.graphs.graph import Graph

_MASK64 = (1 << 64) - 1
_U01_SCALE = 2.0**-53

#: Stream tags keeping step-length and delivery-delay draws independent.
_STEP_STREAM = 0x5354_4550
_DELAY_STREAM = 0x4445_4C59


def mix64(value: int) -> int:
    """The SplitMix64 finalizer: a 64-bit bijective hash with good diffusion."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_adversary_seed(seed: int | None) -> int:
    """The fallback adversary seed derived from a protocol seed.

    Both asynchronous engines use this when the caller supplies no explicit
    ``adversary_seed``.  The derivation is a fixed integer mix — unlike
    hashing a string-bearing tuple it does not depend on ``PYTHONHASHSEED``,
    so executions are reproducible across processes.
    """
    base = 0x5EED_AD5E_12B9_B0A1 if seed is None else (seed & _MASK64) ^ 0xA5A5_5A5A_0F0F_F0F0
    return mix64(base)


def _mix64_np(z):
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _u01_np(base: int, a, b, c=None):
    """Uniform variates in ``[0, 1)`` for whole coordinate arrays.

    ``base`` is the pre-mixed (key, stream) hash.  Bitwise identical to the
    scalar samplers of :class:`CounterBasedSchedule` applied elementwise —
    both run the same integer mixing, only here on ``uint64`` arrays.
    """
    with np.errstate(over="ignore"):
        h = _mix64_np(np.uint64(base) ^ np.asarray(a).astype(np.uint64))
        h = _mix64_np(h ^ np.asarray(b).astype(np.uint64))
        h = _mix64_np(
            h ^ (np.zeros(1, dtype=np.uint64) if c is None else np.asarray(c).astype(np.uint64))
        )
    return (h >> np.uint64(11)).astype(np.float64) * _U01_SCALE


class AdversarySchedule(ABC):
    """A concrete schedule bound to one graph and one random stream."""

    #: Whether the batch methods are pure functions of the coordinates (and
    #: therefore interchangeable with the scalar methods).  The vectorized
    #: asynchronous engine requires this; the default scalar-loop fallback
    #: cannot promise it for stateful custom schedules.
    batch_capable: bool = False

    @abstractmethod
    def step_length(self, node: int, step: int) -> float:
        """The length ``L_{node,step}`` of the given step (must be > 0)."""

    @abstractmethod
    def delivery_delay(self, sender: int, step: int, receiver: int) -> float:
        """The delay ``D_{sender,step,receiver}`` of one delivery (must be > 0)."""

    def delay_lower_bound(self) -> float | None:
        """A guaranteed lower bound on every delivery delay, or ``None``.

        Purely an optimisation hint: the vectorized engine sizes its safe
        event buckets by how soon a step's emissions can arrive, and a
        static bound lets it skip sampling the actual delays for steps that
        end up transmitting nothing.  Bounds must hold for *every*
        ``(sender, step, receiver)``; ``None`` (the default) makes the
        engine sample instead.
        """
        return None

    def step_lengths(self, nodes, steps):
        """Step lengths for parallel coordinate arrays (default: scalar loop)."""
        values = [self.step_length(int(v), int(t)) for v, t in zip(nodes, steps)]
        return _validated_positive(np.asarray(values, dtype=np.float64), "step length")

    def delivery_delays(self, senders, steps, receivers):
        """Delivery delays for parallel coordinate arrays (default: scalar loop)."""
        values = [
            self.delivery_delay(int(v), int(t), int(u))
            for v, t, u in zip(senders, steps, receivers)
        ]
        return _validated_positive(np.asarray(values, dtype=np.float64), "delivery delay")


def _validated_positive(values, what: str):
    """Reject non-positive or non-finite timing parameters (batch variant)."""
    if values.size and not (np.isfinite(values).all() and (values > 0).all()):
        bad = values[~(np.isfinite(values) & (values > 0))][:1]
        raise ExecutionError(f"{what} must be positive and finite, got {float(bad[0])}")
    return values


class _FunctionalSchedule(AdversarySchedule):
    """Schedule defined by two callables (helper for simple custom policies).

    Stateful callables (e.g. closures over a ``random.Random``) are fine —
    but such schedules are not :attr:`~AdversarySchedule.batch_capable`, so
    they run on the interpreted engine only.
    """

    def __init__(self, length_fn, delay_fn) -> None:
        self._length_fn = length_fn
        self._delay_fn = delay_fn

    def step_length(self, node: int, step: int) -> float:
        value = float(self._length_fn(node, step))
        if value <= 0:
            raise ExecutionError(f"step length must be positive, got {value}")
        return value

    def delivery_delay(self, sender: int, step: int, receiver: int) -> float:
        value = float(self._delay_fn(sender, step, receiver))
        if value <= 0:
            raise ExecutionError(f"delivery delay must be positive, got {value}")
        return value


class AdversaryPolicy(ABC):
    """Factory for :class:`AdversarySchedule` instances.

    Policies are stateless descriptions; binding one to a graph and a random
    stream (via :meth:`start`) yields the actual schedule used by a run, so a
    single policy object can be reused across many experiments.
    """

    name: str = "adversary"

    @abstractmethod
    def start(self, graph: Graph, rng: random.Random) -> AdversarySchedule:
        """Create a schedule for *graph* using the adversary's own *rng*."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class CounterBasedSchedule(AdversarySchedule):
    """Base class for schedules that are pure functions of the coordinates.

    Subclasses implement the four ``_scalar``/``_batch`` hooks as transforms
    of the uniform variates produced by the counter-based hash; the scalar
    and batch layers then agree bitwise by construction.  ``start`` draws the
    64-bit ``key`` from the adversary's random stream, so distinct
    ``adversary_seed`` values still realise distinct schedules.
    """

    batch_capable = True

    def __init__(self, key: int) -> None:
        self._key = key & _MASK64
        # First mix of the chain folded into the key: the scalar samplers sit
        # on the interpreted engine's per-event hot path.
        self._step_base = mix64(self._key ^ _STEP_STREAM)
        self._delay_base = mix64(self._key ^ _DELAY_STREAM)

    # -- uniform variates ------------------------------------------------- #
    def _step_u(self, node: int, step: int) -> float:
        h = mix64(self._step_base ^ node)
        h = mix64(h ^ step)
        return (mix64(h) >> 11) * _U01_SCALE

    def _delay_u(self, sender: int, step: int, receiver: int) -> float:
        h = mix64(self._delay_base ^ sender)
        h = mix64(h ^ step)
        return (mix64(h ^ (receiver + 1)) >> 11) * _U01_SCALE

    def _step_us(self, nodes, steps):
        return _u01_np(self._step_base, nodes, steps)

    def _delay_us(self, senders, steps, receivers):
        return _u01_np(self._delay_base, senders, steps, np.asarray(receivers) + 1)

    # -- transform hooks --------------------------------------------------- #
    @abstractmethod
    def _length_scalar(self, u: float, node: int, step: int) -> float:
        """Transform one uniform variate into a step length."""

    @abstractmethod
    def _delay_scalar(self, u: float, sender: int, step: int, receiver: int) -> float:
        """Transform one uniform variate into a delivery delay."""

    @abstractmethod
    def _length_batch(self, u, nodes, steps):
        """Array version of :meth:`_length_scalar` (bitwise identical)."""

    @abstractmethod
    def _delay_batch(self, u, senders, steps, receivers):
        """Array version of :meth:`_delay_scalar` (bitwise identical)."""

    # -- public interface --------------------------------------------------- #
    def step_length(self, node: int, step: int) -> float:
        value = self._length_scalar(self._step_u(node, step), node, step)
        if not (0 < value < float("inf")):
            raise ExecutionError(f"step length must be positive, got {value}")
        return value

    def delivery_delay(self, sender: int, step: int, receiver: int) -> float:
        value = self._delay_scalar(self._delay_u(sender, step, receiver), sender, step, receiver)
        if not (0 < value < float("inf")):
            raise ExecutionError(f"delivery delay must be positive, got {value}")
        return value

    def step_lengths(self, nodes, steps):
        nodes = np.asarray(nodes)
        steps = np.asarray(steps)
        return _validated_positive(
            self._length_batch(self._step_us(nodes, steps), nodes, steps), "step length"
        )

    def delivery_delays(self, senders, steps, receivers):
        senders = np.asarray(senders)
        steps = np.asarray(steps)
        receivers = np.asarray(receivers)
        return _validated_positive(
            self._delay_batch(self._delay_us(senders, steps, receivers), senders, steps, receivers),
            "delivery delay",
        )


class _SynchronousSchedule(CounterBasedSchedule):
    def delay_lower_bound(self) -> float:
        return 1.0

    def _length_scalar(self, u, node, step):
        return 1.0

    def _delay_scalar(self, u, sender, step, receiver):
        return 1.0

    def _length_batch(self, u, nodes, steps):
        return np.ones(len(nodes), dtype=np.float64)

    def _delay_batch(self, u, senders, steps, receivers):
        return np.ones(len(senders), dtype=np.float64)


class SynchronousAdversary(AdversaryPolicy):
    """The benign adversary: every step lasts one unit, every delay is one unit.

    Useful as a sanity baseline; under it the asynchronous engine behaves like
    a synchronous system.
    """

    name = "synchronous"

    def start(self, graph: Graph, rng: random.Random) -> AdversarySchedule:
        return _SynchronousSchedule(rng.getrandbits(64))


class _UniformSchedule(CounterBasedSchedule):
    def __init__(self, key: int, low: float, high: float) -> None:
        super().__init__(key)
        self._low = low
        self._span = high - low

    def delay_lower_bound(self) -> float:
        return self._low

    def _length_scalar(self, u, node, step):
        return self._low + u * self._span

    def _delay_scalar(self, u, sender, step, receiver):
        return self._low + u * self._span

    def _length_batch(self, u, nodes, steps):
        return self._low + u * self._span

    def _delay_batch(self, u, senders, steps, receivers):
        return self._low + u * self._span


class UniformRandomAdversary(AdversaryPolicy):
    """Step lengths and delays drawn i.i.d. uniformly from ``[low, high]``."""

    name = "uniform"

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not (0 < low <= high):
            raise ExecutionError("need 0 < low <= high")
        self.low = float(low)
        self.high = float(high)

    def start(self, graph: Graph, rng: random.Random) -> AdversarySchedule:
        return _UniformSchedule(rng.getrandbits(64), self.low, self.high)


def _log1p(value: float) -> float:
    # The scalar path must match np.log1p bitwise (libm can differ in the
    # last ulp).
    return float(np.log1p(np.float64(value)))


class _ExponentialSchedule(CounterBasedSchedule):
    def __init__(self, key: int, mean_step: float, mean_delay: float, floor: float) -> None:
        super().__init__(key)
        self._mean_step = mean_step
        self._mean_delay = mean_delay
        self._floor = floor

    def delay_lower_bound(self) -> float:
        return self._floor

    def _length_scalar(self, u, node, step):
        return max(-self._mean_step * _log1p(-u), self._floor)

    def _delay_scalar(self, u, sender, step, receiver):
        return max(-self._mean_delay * _log1p(-u), self._floor)

    def _length_batch(self, u, nodes, steps):
        return np.maximum(-self._mean_step * np.log1p(-u), self._floor)

    def _delay_batch(self, u, senders, steps, receivers):
        return np.maximum(-self._mean_delay * np.log1p(-u), self._floor)


class ExponentialAdversary(AdversaryPolicy):
    """Memoryless timing: step lengths and delays are exponential with the given means.

    A small floor keeps every parameter strictly positive as the model
    requires.
    """

    name = "exponential"

    def __init__(
        self, mean_step: float = 1.0, mean_delay: float = 1.0, floor: float = 1e-3
    ) -> None:
        self.mean_step = float(mean_step)
        self.mean_delay = float(mean_delay)
        self.floor = float(floor)

    def start(self, graph: Graph, rng: random.Random) -> AdversarySchedule:
        return _ExponentialSchedule(
            rng.getrandbits(64), self.mean_step, self.mean_delay, self.floor
        )


class _SlowSetSchedule(CounterBasedSchedule):
    """Uniform base timings stretched by ``factor`` on a fixed node subset.

    ``slow_senders_only`` distinguishes the skewed-rates semantics (only the
    *sender* slows its deliveries) from the targeted-laggard semantics (any
    delivery touching a victim is slowed).
    """

    def __init__(
        self,
        key: int,
        slow,
        factor: float,
        low: float,
        high: float,
        *,
        slow_senders_only: bool,
    ) -> None:
        super().__init__(key)
        self._slow = slow  # boolean per-node sequence (numpy array when available)
        self._factor = factor
        self._low = low
        self._span = high - low
        self._senders_only = slow_senders_only

    def delay_lower_bound(self) -> float:
        # Guarded against factor < 1 even though the shipped policies reject
        # it: an optimistic bound would silently break backend parity.
        return self._low * min(1.0, self._factor)

    def _length_scalar(self, u, node, step):
        base = self._low + u * self._span
        return base * self._factor if self._slow[node] else base

    def _delay_scalar(self, u, sender, step, receiver):
        base = self._low + u * self._span
        slowed = self._slow[sender] or (not self._senders_only and self._slow[receiver])
        return base * self._factor if slowed else base

    def _length_batch(self, u, nodes, steps):
        base = self._low + u * self._span
        return np.where(self._slow[nodes], base * self._factor, base)

    def _delay_batch(self, u, senders, steps, receivers):
        base = self._low + u * self._span
        slowed = self._slow[senders]
        if not self._senders_only:
            slowed = slowed | self._slow[receivers]
        return np.where(slowed, base * self._factor, base)


class SkewedRatesAdversary(AdversaryPolicy):
    """A random fraction of the nodes runs much slower than the rest.

    Each slow node's steps are ``slow_factor`` times longer; deliveries from
    slow nodes are similarly stretched.  This is the canonical situation the
    synchronizer's pausing feature has to cope with: fast nodes must not race
    ahead of their slow neighbours by more than one simulated round.
    """

    name = "skewed-rates"

    def __init__(self, slow_fraction: float = 0.25, slow_factor: float = 8.0) -> None:
        if not (0.0 <= slow_fraction <= 1.0):
            raise ExecutionError("slow_fraction must lie in [0, 1]")
        if slow_factor < 1.0:
            raise ExecutionError("slow_factor must be >= 1")
        self.slow_fraction = float(slow_fraction)
        self.slow_factor = float(slow_factor)

    def start(self, graph: Graph, rng: random.Random) -> AdversarySchedule:
        key = rng.getrandbits(64)
        slow = np.asarray([rng.random() < self.slow_fraction for _ in graph.nodes], dtype=bool)
        return _SlowSetSchedule(
            key, slow, self.slow_factor, 0.5, 1.0, slow_senders_only=True
        )


class _BurstySchedule(CounterBasedSchedule):
    def __init__(self, key: int, offsets, period: int, factor: float) -> None:
        super().__init__(key)
        self._offsets = offsets  # per-node phase offsets (numpy array when available)
        self._period = period
        self._factor = factor

    def delay_lower_bound(self) -> float:
        return 0.5 * min(1.0, self._factor)

    def _in_slow_phase(self, node: int, step: int) -> bool:
        return ((step + self._offsets[node]) // self._period) % 2 == 1

    def _length_scalar(self, u, node, step):
        base = 0.5 + u * 0.5
        return base * self._factor if self._in_slow_phase(node, step) else base

    def _delay_scalar(self, u, sender, step, receiver):
        base = 0.5 + u * 0.5
        return base * self._factor if self._in_slow_phase(sender, step) else base

    def _slow_phases(self, nodes, steps):
        return ((steps + self._offsets[nodes]) // self._period) % 2 == 1

    def _length_batch(self, u, nodes, steps):
        base = 0.5 + u * 0.5
        return np.where(self._slow_phases(nodes, steps), base * self._factor, base)

    def _delay_batch(self, u, senders, steps, receivers):
        base = 0.5 + u * 0.5
        return np.where(self._slow_phases(senders, steps), base * self._factor, base)


class BurstyAdversary(AdversaryPolicy):
    """Alternates between fast and slow phases of ``period`` steps per node.

    Models devices that stall periodically (e.g. duty-cycled sensors): during
    a slow phase both the node's steps and its outgoing deliveries are slowed
    by ``slow_factor``.
    """

    name = "bursty"

    def __init__(self, period: int = 8, slow_factor: float = 6.0) -> None:
        if period < 1:
            raise ExecutionError("period must be at least 1")
        if slow_factor < 1.0:
            raise ExecutionError("slow_factor must be >= 1")
        self.period = int(period)
        self.slow_factor = float(slow_factor)

    def start(self, graph: Graph, rng: random.Random) -> AdversarySchedule:
        key = rng.getrandbits(64)
        offsets = [rng.randrange(2 * self.period) for _ in graph.nodes]
        offsets = np.asarray(offsets, dtype=np.int64)
        return _BurstySchedule(key, offsets, self.period, self.slow_factor)


class TargetedLaggardAdversary(AdversaryPolicy):
    """Slows down the highest-degree nodes and every delivery touching them.

    High-degree nodes are exactly the ones most protocols depend on, so this
    policy stresses the worst case more aggressively than uniformly random
    timing does.
    """

    name = "targeted-laggard"

    def __init__(self, num_victims: int = 2, slow_factor: float = 10.0) -> None:
        if num_victims < 1:
            raise ExecutionError("need at least one victim")
        if slow_factor < 1.0:
            raise ExecutionError("slow_factor must be >= 1")
        self.num_victims = int(num_victims)
        self.slow_factor = float(slow_factor)

    def start(self, graph: Graph, rng: random.Random) -> AdversarySchedule:
        key = rng.getrandbits(64)
        by_degree = sorted(graph.nodes, key=lambda v: (-graph.degree(v), v))
        victims = set(by_degree[: self.num_victims])
        flags = np.asarray([node in victims for node in graph.nodes], dtype=bool)
        return _SlowSetSchedule(
            key, flags, self.slow_factor, 0.8, 1.0, slow_senders_only=False
        )


def default_adversary_suite() -> tuple[AdversaryPolicy, ...]:
    """The adversary family used by correctness experiments and benchmarks."""
    return (
        SynchronousAdversary(),
        UniformRandomAdversary(),
        ExponentialAdversary(),
        SkewedRatesAdversary(),
        BurstyAdversary(),
        TargetedLaggardAdversary(),
    )
