"""The shared compiled-execution core of the scheduling layer.

Both batch backends — the synchronous :class:`~repro.scheduling.
vectorized_engine.VectorizedEngine` and the asynchronous
:class:`~repro.scheduling.vectorized_async_engine.VectorizedAsynchronousEngine`
— execute protocols through *dense integer tables* instead of the
object-level protocol API.  This module holds the table machinery they
share:

* :class:`CompiledProtocol` — an **eager** packing of a full
  :class:`~repro.core.interning.ProtocolTabulation` (reachable-state closure
  up front).  The synchronous engine uses it: rounds touch every node, so
  the closure is paid once and every round is pure array indexing.
* :class:`LazyExtendedTable` — an **incremental** multi-letter table.  Each
  state declares the letters its transition relation reads
  (:meth:`~repro.core.protocol.ExtendedProtocol.queried_letters`; a single
  letter for strict protocols) and owns a dense block of ``(b+1)^k``
  observation cells, evaluated one at a time on first use.  The synchronous
  :class:`~repro.scheduling.vectorized_engine.VectorizedEngine` uses it to
  run synchronizer- and multiquery-compiled protocols — whose reachable
  closures of :math:`10^5`–:math:`10^6` states dwarf the few thousand one
  execution visits (eager tabulation would overflow the enumeration limits
  outright, as it does for the compiled tree-coloring protocol) — as pure
  array rounds, bitwise seed-identical to the interpreter.
* :class:`LazyStrictTable` — the strict (single-query-letter, ``k = 1``)
  specialisation of :class:`LazyExtendedTable`, consumed by the vectorized
  asynchronous engine: uniform ``b+1``-cell blocks, a per-state query-letter
  vector instead of the stride matrix, and raw-port-id census semantics.
  All growth/budget/evaluation machinery is inherited, so parity-critical
  fixes land once.

All classes build on the :class:`~repro.core.interning.Interner`; result
assembly is shared through :func:`repro.core.results.build_synchronous_result`
and :func:`repro.core.results.build_asynchronous_result` so every backend
decodes outputs identically.
"""

from __future__ import annotations

import numpy as np

from repro.core.alphabet import is_epsilon
from repro.core.errors import ProtocolNotVectorizableError
from repro.core.interning import (
    DEFAULT_MAX_CELLS,
    DEFAULT_MAX_STATES,
    Interner,
    ProtocolTabulation,
    _evaluate_options,
    _probe_queried_letters_contract,
    _queried_letters,
    tabulate_protocol,
)
from repro.core.protocol import ExtendedProtocol, Protocol, State

#: Ceiling on the number of *visited* states a lazy table may intern.  Far
#: above what any shipped execution reaches, it bounds runaway protocols.
DEFAULT_MAX_LAZY_STATES = 1 << 19

#: Ceiling on the number of *allocated* observation cells of a lazy extended
#: table.  Every interned state allocates its full ``(b+1)^k`` block up front
#: (cells are evaluated lazily, but the offset pool is dense), so the budget
#: bounds both memory and runaway per-state observation spaces.
DEFAULT_MAX_LAZY_CELLS = 1 << 22


class CompiledProtocol:
    """A :class:`ProtocolTabulation` packed into dense NumPy arrays.

    The flat layout is the classic CSR-of-CSR shape: per (state, observation)
    cell an offset/length pair into a flat option pool, with per-state base
    offsets into the cell pool because observation spaces differ per state.
    ``sink_mask`` marks the states whose every cell holds exactly one option,
    which keeps the state and emits nothing: once there, a node never
    changes again, so the synchronous engine stops stepping it.
    """

    __slots__ = (
        "tabulation",
        "strides",
        "state_base",
        "cell_offset",
        "cell_count",
        "option_next",
        "option_emit",
        "output_mask",
        "sink_mask",
        "initial_letter_id",
        "num_letters",
    )

    def __init__(self, tabulation: ProtocolTabulation) -> None:
        self.tabulation = tabulation
        b1 = tabulation.bounding + 1
        num_states = tabulation.num_states
        num_letters = tabulation.num_letters

        strides = np.zeros((num_states, num_letters), dtype=np.int64)
        state_base = np.zeros(num_states, dtype=np.int64)
        cell_offset: list[int] = []
        cell_count: list[int] = []
        option_next: list[int] = []
        option_emit: list[int] = []
        sink_mask = np.zeros(num_states, dtype=bool)
        for state_id, (queried, cells) in enumerate(
            zip(tabulation.queried, tabulation.options)
        ):
            stay = ((state_id, -1),)
            sink_mask[state_id] = all(choices == stay for choices in cells)
            arity = len(queried)
            for position, letter_id in enumerate(queried):
                strides[state_id, letter_id] = b1 ** (arity - 1 - position)
            state_base[state_id] = len(cell_offset)
            for choices in cells:
                cell_offset.append(len(option_next))
                cell_count.append(len(choices))
                for next_id, emit_id in choices:
                    option_next.append(next_id)
                    option_emit.append(emit_id)

        self.strides = strides
        self.state_base = state_base
        self.cell_offset = np.asarray(cell_offset, dtype=np.int64)
        self.cell_count = np.asarray(cell_count, dtype=np.int64)
        self.option_next = np.asarray(option_next, dtype=np.int64)
        self.option_emit = np.asarray(option_emit, dtype=np.int64)
        self.output_mask = np.asarray(tabulation.output_mask, dtype=bool)
        self.sink_mask = sink_mask
        self.initial_letter_id = tabulation.initial_letter_id
        self.num_letters = num_letters

    @property
    def states(self) -> tuple[State, ...]:
        """Every state in id order."""
        return self.tabulation.states

    @property
    def letters(self) -> tuple:
        """Every letter in id order."""
        return self.tabulation.letters

    def state_id(self, state: State) -> int:
        return self.tabulation.state_ids[state]

    def letter_id(self, letter) -> int:
        """The interned id of *letter* (``KeyError`` when unknown).

        The eager tabulation closes over every reachable letter, so a letter
        carried from an earlier run of the same protocol is always present;
        a miss means the caller is warm-starting across protocols.
        """
        try:
            return self.tabulation.letters.index(letter)
        except ValueError:
            raise KeyError(letter) from None


def compile_protocol(
    protocol: ExtendedProtocol | Protocol,
    roots=None,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> CompiledProtocol:
    """Tabulate *protocol* and pack it for the vectorized engine.

    Raises :class:`ProtocolNotVectorizableError` when the protocol's state
    set cannot be enumerated within the limits.
    """
    tabulation = tabulate_protocol(
        protocol, roots, max_states=max_states, max_cells=max_cells
    )
    return CompiledProtocol(tabulation)


class _GrowingArray:
    """An append-only NumPy array with amortised capacity doubling.

    The lazy table's pools grow one cell at a time while the engine reads
    them as dense arrays every batch; rebuilding full mirrors per growth
    would be quadratic, so the buffer doubles and :meth:`view` is O(1).
    """

    __slots__ = ("_buffer", "_length", "list")

    def __init__(self, dtype) -> None:
        self._buffer = np.empty(64, dtype=dtype)
        self._length = 0
        #: Python-list mirror: scalar reads through a list are several times
        #: cheaper than through NumPy scalar indexing, and the engines' tiny-
        #: bucket path reads one cell at a time.
        self.list: list = []

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int):
        return self.list[index]

    def __setitem__(self, index: int, value) -> None:
        self._buffer[index] = value
        self.list[index] = value

    def _reserve(self, extra: int) -> None:
        needed = self._length + extra
        if needed > len(self._buffer):
            capacity = max(2 * len(self._buffer), needed)
            buffer = np.empty(capacity, dtype=self._buffer.dtype)
            buffer[: self._length] = self._buffer[: self._length]
            self._buffer = buffer

    def append(self, value) -> None:
        self._reserve(1)
        self._buffer[self._length] = value
        self.list.append(value)
        self._length += 1

    def extend_constant(self, count: int, value) -> None:
        self._reserve(count)
        self._buffer[self._length : self._length + count] = value
        self.list.extend([value] * count)
        self._length += count

    def view(self):
        """The live prefix; re-fetch after any growth (buffers may move)."""
        return self._buffer[: self._length]


class _GrowingMatrix:
    """An append-only 2D NumPy array (fixed columns, doubling row capacity).

    Holds the per-state observation-stride rows of :class:`LazyExtendedTable`:
    one row is appended per interned state while the engine multiplies the
    whole live prefix against the round's count matrix every round.
    """

    __slots__ = ("_buffer", "_rows")

    def __init__(self, columns: int, dtype=None) -> None:
        self._buffer = np.zeros((64, columns), dtype=dtype or np.int64)
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def append_row(self, row) -> None:
        if self._rows == len(self._buffer):
            buffer = np.zeros(
                (2 * len(self._buffer), self._buffer.shape[1]),
                dtype=self._buffer.dtype,
            )
            buffer[: self._rows] = self._buffer[: self._rows]
            self._buffer = buffer
        self._buffer[self._rows] = row
        self._rows += 1

    def view(self):
        """The live row prefix; re-fetch after any growth (buffers may move)."""
        return self._buffer[: self._rows]


class LazyExtendedTable:
    """Incrementally tabulated transition tables with multi-letter observations.

    The multi-letter generalisation of :class:`LazyStrictTable`: it accepts
    both strict :class:`~repro.core.protocol.Protocol` instances and
    :class:`~repro.core.protocol.ExtendedProtocol` instances.  Per interned
    state the table records the tuple of *queried* letters (the state's
    declared observation footprint; exactly one letter for strict protocols)
    and allocates a dense block of ``(b+1)^k`` observation cells, each
    evaluated through the object-level protocol API on first use.  The
    observation id of saturated counts ``(c_0, …, c_{k-1})`` over the queried
    letters is ``Σ_j c_j · (b+1)^{k-1-j}`` — the same encoding as the eager
    :class:`CompiledProtocol`, so the synchronous engine computes it with one
    stride-matrix multiply per round.

    The contract mirrors :class:`LazyStrictTable`: executions driven through
    this table are bitwise seed-identical to the interpreter, one table can
    (and should) be shared across many runs of the same protocol, and
    :class:`~repro.core.errors.ProtocolNotVectorizableError` is raised when
    the visited state set or the allocated cell pool outgrows the budgets.
    Like the eager tabulation, every evaluated cell of an extended protocol
    is re-probed with the undeclared letters saturated (see
    :func:`repro.core.interning._probe_queried_letters_contract`) so an
    under-declared ``queried_letters`` override cannot silently compile into
    a diverging table.
    """

    def __init__(
        self,
        protocol: ExtendedProtocol | Protocol,
        *,
        max_states: int = DEFAULT_MAX_LAZY_STATES,
        max_cells: int = DEFAULT_MAX_LAZY_CELLS,
    ) -> None:
        if not isinstance(protocol, (ExtendedProtocol, Protocol)):
            raise ProtocolNotVectorizableError(
                f"cannot tabulate object of type {type(protocol).__name__}"
            )
        self._protocol = protocol
        self._extended = isinstance(protocol, ExtendedProtocol)
        self._b = protocol.bounding.value
        self._b1 = self._b + 1
        self._max_states = max_states
        self._max_cells = max_cells
        self._alphabet = protocol.alphabet
        self.alphabet_size = len(protocol.alphabet)
        self._letters = Interner(protocol.alphabet.letters)
        self._states = Interner()
        self.initial_letter_id = self._letters.id_of(protocol.initial_letter)
        # Per-state pools.
        self._queried: list[tuple] = []  # queried letter *values*, per state
        self._state_base = _GrowingArray(np.int64)
        self._output = _GrowingArray(bool)
        # Cells are evaluated on demand, so no state is known to be a sink.
        self._sink = _GrowingArray(bool)
        self._strides = _GrowingMatrix(self.alphabet_size)
        # Per-cell pools; -1 in _cell_offset marks an unevaluated cell.
        self._cell_offset = _GrowingArray(np.int64)
        self._cell_count = _GrowingArray(np.int64)
        self._option_next = _GrowingArray(np.int64)
        self._option_emit = _GrowingArray(np.int64)

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #
    @property
    def protocol(self) -> ExtendedProtocol | Protocol:
        return self._protocol

    @property
    def bounding(self) -> int:
        return self._b

    @property
    def num_states(self) -> int:
        """Number of states interned (visited) so far."""
        return len(self._states)

    @property
    def num_allocated_cells(self) -> int:
        """Number of observation cells allocated (evaluated or not)."""
        return len(self._cell_offset)

    @property
    def num_cells(self) -> int:
        """Number of (state, observation) cells evaluated so far."""
        return int((self._cell_offset.view() >= 0).sum())

    @property
    def states(self) -> tuple[State, ...]:
        """The states interned so far, in id order."""
        return self._states.values

    @property
    def letters(self) -> tuple:
        """The letters interned so far, in id order."""
        return self._letters.values

    @property
    def output_mask(self):
        """Whether each state interned so far is an output state (a view)."""
        return self._output.view()

    def letter_id(self, letter) -> int:
        """The interned id of *letter*, interning it when unseen.

        Interning (rather than looking up) keeps warm starts total: a letter
        carried over from an interpreted segment may not have been emitted
        through this table yet.
        """
        return self._letters.intern(letter)

    def queried_letter_ids(self, state_id: int) -> tuple[int, ...]:
        """Interned ids of the letters *state* queries, in declaration order."""
        return tuple(
            self._letters.id_of(letter) for letter in self._queried[state_id]
        )

    # ------------------------------------------------------------------ #
    # Growth                                                              #
    # ------------------------------------------------------------------ #
    def _letters_queried_by(self, state: State) -> tuple:
        """The (validated) letters whose counts *state*'s transition reads.

        The multi-letter observation semantics only expose alphabet letters
        (:meth:`Observation.from_port_contents` ignores everything else), so
        querying outside the alphabet is a declaration error here.  The
        strict subclass overrides this: its census compares raw port ids.
        """
        queried = _queried_letters(self._protocol, state)
        for letter in queried:
            if letter not in self._alphabet:
                raise ProtocolNotVectorizableError(
                    f"state {state!r} of protocol {self._protocol.name!r} "
                    f"queries letter {letter!r} outside the alphabet"
                )
        return queried

    def _register_queried(self, queried: tuple) -> None:
        """Record the per-state observation encoding (one call per state)."""
        stride_row = np.zeros(self.alphabet_size, dtype=np.int64)
        for position, letter in enumerate(queried):
            stride = self._b1 ** (len(queried) - 1 - position)
            stride_row[self._alphabet.index(letter)] = stride
        self._strides.append_row(stride_row)

    def state_id(self, state: State) -> int:
        """Intern *state*: queried letters, stride row, cell block, output flag."""
        if state in self._states:
            return self._states.id_of(state)
        protocol = self._protocol
        if len(self._states) >= self._max_states:
            raise ProtocolNotVectorizableError(
                f"protocol {protocol.name!r} visited more than "
                f"{self._max_states} states; run it on the interpreted engine"
            )
        try:
            queried = self._letters_queried_by(state)
            output = bool(protocol.is_output_state(state))
        except ProtocolNotVectorizableError:
            raise
        except Exception as exc:
            raise ProtocolNotVectorizableError(
                f"interning state {state!r} of protocol "
                f"{protocol.name!r} failed: {exc}"
            ) from exc
        cells = self._b1 ** len(queried)
        if len(self._cell_offset) + cells > self._max_cells:
            raise ProtocolNotVectorizableError(
                f"protocol {protocol.name!r} needs more than "
                f"{self._max_cells} observation cells; run it on the "
                "interpreted engine instead"
            )
        ident = self._states.intern(state)
        self._queried.append(queried)
        self._state_base.append(len(self._cell_offset))
        self._output.append(output)
        self._sink.append(False)
        self._register_queried(queried)
        self._cell_offset.extend_constant(cells, -1)
        self._cell_count.extend_constant(cells, 0)
        return ident

    def observation_id(self, state_id: int, counts) -> int:
        """The observation id of saturated *counts* over the queried letters."""
        counts = tuple(counts)
        if len(counts) != len(self._queried[state_id]):
            raise ValueError(
                f"state {state_id} queries {len(self._queried[state_id])} "
                f"letters, got {len(counts)} counts"
            )
        ident = 0
        for count in counts:
            ident = ident * self._b1 + int(count)
        return ident

    def _evaluate_cell(self, state_id: int, obs_id: int) -> None:
        state = self._states.value_of(state_id)
        protocol = self._protocol
        queried = self._queried[state_id]
        b1 = self._b1
        digits = []
        remaining = int(obs_id)
        for _ in queried:
            digits.append(remaining % b1)
            remaining //= b1
        counts = tuple(reversed(digits))
        try:
            choices = _evaluate_options(protocol, state, queried, counts)
            if self._extended:
                undeclared = [
                    letter for letter in self._alphabet if letter not in queried
                ]
                if undeclared:
                    _probe_queried_letters_contract(
                        protocol, state, queried, undeclared, counts, choices
                    )
        except ProtocolNotVectorizableError:
            raise
        except Exception as exc:
            raise ProtocolNotVectorizableError(
                f"evaluating state {state!r} of protocol {protocol.name!r} "
                f"on counts {counts} failed: {exc}"
            ) from exc
        offset = len(self._option_next)
        for choice in choices:
            self._option_next.append(self.state_id(choice.state))
            self._option_emit.append(
                -1 if is_epsilon(choice.emit) else self._letters.intern(choice.emit)
            )
        cell = int(self._state_base[state_id]) + int(obs_id)
        self._cell_offset[cell] = offset
        self._cell_count[cell] = len(choices)

    def ensure_cells(self, state_ids, obs_ids) -> None:
        """Evaluate every not-yet-materialised ``(state, observation)`` cell.

        The missing set is found with one vectorized mask, so a warm table
        costs a single array lookup per batch, no python loop.
        """
        state_ids = np.asarray(state_ids)
        obs_ids = np.asarray(obs_ids)
        cells = self._state_base.view()[state_ids] + obs_ids
        missing = np.flatnonzero(self._cell_offset.view()[cells] < 0)
        for k in missing.tolist():
            cell = int(cells[k])
            if self._cell_offset[cell] < 0:  # duplicates within one batch
                self._evaluate_cell(int(state_ids[k]), int(obs_ids[k]))

    # ------------------------------------------------------------------ #
    # Scalar accessors                                                    #
    # ------------------------------------------------------------------ #
    def output_flag(self, state_id: int) -> int:
        return int(self._output[state_id])

    def cell(self, state_id: int, obs_id: int) -> tuple[int, int]:
        """``(option_offset, option_count)`` of one cell, evaluating if needed."""
        index = int(self._state_base[state_id]) + int(obs_id)
        if self._cell_offset[index] < 0:
            self._evaluate_cell(state_id, obs_id)
        return int(self._cell_offset[index]), int(self._cell_count[index])

    def option(self, index: int) -> tuple[int, int]:
        """``(next_state_id, emit_letter_id)`` of one option-pool entry."""
        return int(self._option_next[index]), int(self._option_emit[index])

    # ------------------------------------------------------------------ #
    # Dense views                                                         #
    # ------------------------------------------------------------------ #
    def arrays(self) -> tuple:
        """``(strides, state_base, output_mask, cell_offset, cell_count,
        option_next, option_emit, sink_mask)`` as NumPy views over everything
        so far.

        ``strides`` is the ``(num_states, alphabet_size)`` observation-stride
        matrix: the observation id of a node is the dot product of its
        saturated alphabet counts with its state's stride row.  ``sink_mask``
        is all ``False``: a state's cells are not all known, so none is
        reported a sink and the engine steps every node.  The views are O(1)
        and invalidated by table growth, so consumers re-fetch after every
        :meth:`ensure_cells` / :meth:`state_id` call.
        """
        return (
            self._strides.view(),
            self._state_base.view(),
            self._output.view(),
            self._cell_offset.view(),
            self._cell_count.view(),
            self._option_next.view(),
            self._option_emit.view(),
            self._sink.view(),
        )


class LazyStrictTable(LazyExtendedTable):
    """Incrementally tabulated transition tables of a *strict* protocol.

    The single-query-letter (``k = 1``) specialisation of
    :class:`LazyExtendedTable`, consumed by the vectorized *asynchronous*
    engine: every state owns exactly ``b + 1`` cells, so ``state_base[s]``
    is ``s · (b+1)`` and the cell of ``(state, saturated count)`` is plain
    arithmetic.  All growth, budget, option-pool and evaluation machinery is
    inherited — a parity-critical fix in the base class fixes both engines.

    Two strict-specific differences:

    * :meth:`arrays` exposes the per-state *query-letter id* vector instead
      of the stride matrix (the asynchronous census compares raw port ids
      against one letter, it never folds multi-letter observations);
    * query letters outside the alphabet are **legal** here (the census
      simply never matches them), mirroring the interpreted asynchronous
      engine's raw port comparison — whereas the multi-letter observation
      semantics of the base class reject them.

    One table can (and should) be shared across many runs of the same
    protocol — the cells accumulate, so later runs start fully warm.
    """

    def __init__(
        self,
        protocol: Protocol,
        *,
        max_states: int = DEFAULT_MAX_LAZY_STATES,
    ) -> None:
        if isinstance(protocol, ExtendedProtocol) or not isinstance(protocol, Protocol):
            raise ProtocolNotVectorizableError(
                "lazy tables hold strict (single-query-letter) protocols only; "
                "lower multi-letter protocols through repro.compilers first"
            )
        # The state budget is the binding one: every state allocates exactly
        # b+1 cells, so the cell budget is sized to never trip first.
        super().__init__(
            protocol,
            max_states=max_states,
            max_cells=max_states * (protocol.bounding.value + 1),
        )
        self._query = _GrowingArray(np.int64)

    # -- strict specialisations of the growth hooks ---------------------- #
    def _letters_queried_by(self, state: State) -> tuple:
        # No alphabet validation: the asynchronous census compares raw port
        # ids, so an out-of-alphabet query letter is legal (it never counts
        # anything a node cannot transmit).
        return (self._protocol.query_letter(state),)

    def _register_queried(self, queried: tuple) -> None:
        query_id = self._letters.intern(queried[0])
        self._query.append(query_id)
        stride_row = np.zeros(self.alphabet_size, dtype=np.int64)
        if query_id < self.alphabet_size:
            stride_row[query_id] = 1
        self._strides.append_row(stride_row)

    # -- strict accessors ------------------------------------------------ #
    def query_letter_id(self, state_id: int) -> int:
        """Interned id of the query letter of *state* (one per state)."""
        return int(self._query[state_id])

    def arrays(self) -> tuple:
        """``(query, output_mask, cell_offset, cell_count, option_next,
        option_emit)`` as NumPy array views over everything evaluated so far.

        The views are O(1); they are invalidated by table growth, so
        consumers re-fetch after every :meth:`ensure_cells` /
        :meth:`state_id` call.
        """
        return (
            self._query.view(),
            self._output.view(),
            self._cell_offset.view(),
            self._cell_count.view(),
            self._option_next.view(),
            self._option_emit.view(),
        )
