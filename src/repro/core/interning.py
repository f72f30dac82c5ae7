"""State/letter interning and dense tabulation of finite protocols.

The execution engines of :mod:`repro.scheduling` are written against the
object-level protocol API (hashable states, hashable letters, option tuples).
That representation is convenient and faithful to the paper, but it is the
wrong shape for batch execution: a whole-network round wants *dense integer
ids* so that transitions become array lookups.

This module provides the bridge:

* :class:`Interner` — a tiny bidirectional value ↔ dense-id mapping;
* :func:`tabulate_protocol` — a reachability closure that enumerates every
  state reachable from a set of root states, evaluates the transition
  relation on every observation the state can distinguish, and returns a
  :class:`ProtocolTabulation` with all states, letters and options interned
  to integer ids.

The closure exploits :meth:`ExtendedProtocol.queried_letters`: a state that
declares it only looks at ``k`` letters has an observation space of size
``(b+1)^k`` instead of ``(b+1)^{|Σ|}``, which keeps the tables small for the
paper's protocols (the MIS protocol of Section 4 tabulates to 7 states with
at most 16 observations each; the tree-coloring protocol of Section 5 to a
few hundred states with at most ``4^5`` observations each).

Everything here is pure Python with no third-party dependencies — the NumPy
packing lives in :mod:`repro.scheduling.vectorized_engine`, which consumes
:class:`ProtocolTabulation` objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import product
from typing import Any

from repro.core.alphabet import Observation, is_epsilon
from repro.core.errors import ProtocolNotVectorizableError
from repro.core.protocol import ExtendedProtocol, Protocol, State

#: Default ceiling on the number of reachable states before tabulation bails.
DEFAULT_MAX_STATES = 8_192

#: Default ceiling on the total number of table cells (state × observation).
DEFAULT_MAX_CELLS = 1 << 22


class Interner:
    """A bidirectional mapping from hashable values to dense integer ids.

    Ids are assigned in first-seen order starting from 0, so interning the
    communication alphabet first guarantees alphabet letters occupy the id
    range ``0 .. |Σ|-1``.
    """

    __slots__ = ("_ids", "_values", "_frozen")

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._ids: dict[Any, int] = {}
        self._values: list[Any] = []
        # The tuple :attr:`values` last returned, until a fresh intern.
        self._frozen: tuple[Any, ...] | None = None
        for value in values:
            self.intern(value)

    def intern(self, value: Any) -> int:
        """Return the id of *value*, assigning a fresh one if unseen."""
        found = self._ids.get(value)
        if found is not None:
            return found
        fresh = len(self._values)
        self._ids[value] = fresh
        self._values.append(value)
        self._frozen = None
        return fresh

    def id_of(self, value: Any) -> int:
        """The id of an already-interned value (raises ``KeyError`` if absent)."""
        return self._ids[value]

    def value_of(self, ident: int) -> Any:
        """The value behind id *ident*."""
        return self._values[ident]

    @property
    def values(self) -> tuple[Any, ...]:
        """All interned values in id order (copied once per growth)."""
        if self._frozen is None:
            self._frozen = tuple(self._values)
        return self._frozen

    def __contains__(self, value: Any) -> bool:
        return value in self._ids

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"Interner({len(self._values)} values)"


@dataclass(frozen=True)
class ProtocolTabulation:
    """A finite protocol with states, letters and transitions interned.

    Attributes
    ----------
    states:
        All reachable states in id order (roots first, then BFS order).
    letters:
        All interned letters in id order.  The first ``alphabet_size`` ids
        are exactly the communication alphabet in its fixed order; ids beyond
        that belong to letters a lazy protocol emitted without declaring them
        (they are stored in ports but never observable, mirroring
        :meth:`Observation.from_port_contents` which ignores them).
    bounding:
        The one-two-many parameter ``b``.
    initial_letter_id:
        Interned id of the protocol's initial letter ``σ0``.
    queried:
        Per state (by id): the tuple of letter ids whose saturated counts the
        transition relation of that state depends on, in enumeration order.
    options:
        Per state (by id): a tuple indexed by observation id containing the
        option tuple ``((next_state_id, emit_letter_id), ...)`` of the
        transition relation; ``emit_letter_id`` is ``-1`` for ``ε``.  The
        observation id of a counts tuple ``(c_0, .., c_{k-1})`` over the
        queried letters is ``Σ_j c_j · (b+1)^{k-1-j}`` (first letter has the
        largest stride).
    output_mask:
        Per state (by id): whether the state belongs to Q_O.
    """

    protocol_name: str
    states: tuple[State, ...]
    letters: tuple[Any, ...]
    alphabet_size: int
    bounding: int
    initial_letter_id: int
    queried: tuple[tuple[int, ...], ...]
    options: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    output_mask: tuple[bool, ...]
    state_ids: dict[State, int] = field(repr=False)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_letters(self) -> int:
        return len(self.letters)

    def num_cells(self) -> int:
        """Total number of (state, observation) table cells."""
        return sum(len(per_state) for per_state in self.options)

    def observation_id(self, state_id: int, counts: Sequence[int]) -> int:
        """The observation id of saturated *counts* over the queried letters.

        *counts* must list one value per letter the state queries, in the
        state's declared order.
        """
        counts = tuple(counts)
        if len(counts) != len(self.queried[state_id]):
            raise ValueError(
                f"state {state_id} queries {len(self.queried[state_id])} "
                f"letters, got {len(counts)} counts"
            )
        b1 = self.bounding + 1
        ident = 0
        for count in counts:
            ident = ident * b1 + int(count)
        return ident


def _queried_letters(protocol: ExtendedProtocol | Protocol, state: State) -> tuple:
    """The letters whose counts can influence the transition out of *state*."""
    if isinstance(protocol, ExtendedProtocol):
        return tuple(dict.fromkeys(protocol.queried_letters(state)))
    return (protocol.query_letter(state),)


def _evaluate_options(
    protocol: ExtendedProtocol | Protocol,
    state: State,
    queried: tuple,
    counts: tuple[int, ...],
):
    """Evaluate the transition relation for one (state, observation) pair."""
    if isinstance(protocol, ExtendedProtocol):
        observation = Observation(protocol.alphabet, dict(zip(queried, counts)))
        choices = protocol.options(state, observation)
    else:
        choices = protocol.options(state, counts[0])
    return protocol.validate_option_set(choices)


def _choice_fingerprint(choices) -> tuple:
    """A comparable summary of an option tuple (state, emit-or-None pairs)."""
    return tuple(
        (choice.state, None if is_epsilon(choice.emit) else choice.emit)
        for choice in choices
    )


def _probe_queried_letters_contract(
    protocol: ExtendedProtocol,
    state: State,
    queried: tuple,
    undeclared: list,
    counts: tuple[int, ...],
    declared_choices,
) -> None:
    """Probe that ``options`` ignores the letters *state* did not declare.

    The tabulation only enumerates observations over ``queried_letters``; a
    protocol whose ``options`` secretly reads an undeclared letter would
    compile into a table that silently diverges from the interpreter.  For
    every enumerated cell we therefore re-evaluate the transition with all
    *undeclared* letters saturated at ``b`` and require the same option set.
    This is a best-effort guard, not an exhaustive proof: a protocol that
    reacts only to intermediate undeclared counts (strictly between 0 and
    ``b``) can still slip through — ``queried_letters`` overrides remain
    responsible for listing every letter ``options`` reads.
    """
    b = protocol.bounding.value
    probe_counts = dict(zip(queried, counts))
    for letter in undeclared:
        probe_counts[letter] = b
    probe = Observation(protocol.alphabet, probe_counts)
    probed = protocol.validate_option_set(protocol.options(state, probe))
    if _choice_fingerprint(probed) != _choice_fingerprint(declared_choices):
        raise ProtocolNotVectorizableError(
            f"state {state!r} of protocol {protocol.name!r} reacts to letters "
            f"not listed in queried_letters() ({queried!r}); the vectorized "
            "backend requires queried_letters to cover every letter the "
            "transition relation reads"
        )


def tabulate_protocol(
    protocol: ExtendedProtocol | Protocol,
    roots: Iterable[State] | None = None,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> ProtocolTabulation:
    """Enumerate every state reachable from *roots* and intern the protocol.

    ``roots`` defaults to the protocol's declared input states; engines pass
    the actual initial states of the execution (which may include states
    produced by :meth:`Protocol.initial_state` for per-node inputs).

    Raises
    ------
    ProtocolNotVectorizableError
        When the reachable state set exceeds *max_states*, the table would
        exceed *max_cells* cells, or the protocol's transition relation
        misbehaves on one of the enumerated observations (a lazy protocol may
        reject observations that never occur in a real execution — such
        protocols must be run on the interpreted engine).
    """
    if not isinstance(protocol, (ExtendedProtocol, Protocol)):
        raise ProtocolNotVectorizableError(
            f"cannot tabulate object of type {type(protocol).__name__}"
        )
    alphabet = protocol.alphabet
    b = protocol.bounding.value
    letter_interner = Interner(alphabet.letters)
    state_interner = Interner()

    root_states = tuple(roots) if roots is not None else protocol.input_states
    frontier: list[State] = []
    for state in root_states:
        if state not in state_interner:
            state_interner.intern(state)
            frontier.append(state)
    if not frontier:
        raise ProtocolNotVectorizableError(
            f"protocol {protocol.name!r} has no root states to tabulate from"
        )

    queried_per_state: list[tuple[int, ...]] = []
    options_per_state: list[tuple[tuple[tuple[int, int], ...], ...]] = []
    total_cells = 0
    cursor = 0
    while cursor < len(frontier):
        state = frontier[cursor]
        cursor += 1
        try:
            queried = _queried_letters(protocol, state)
            for letter in queried:
                if letter not in alphabet:
                    raise ProtocolNotVectorizableError(
                        f"state {state!r} of protocol {protocol.name!r} queries "
                        f"letter {letter!r} outside the alphabet"
                    )
            cells = (b + 1) ** len(queried)
            total_cells += cells
            if total_cells > max_cells:
                raise ProtocolNotVectorizableError(
                    f"protocol {protocol.name!r} needs more than {max_cells} "
                    "table cells; run it on the interpreted engine instead"
                )
            undeclared = (
                [letter for letter in alphabet if letter not in queried]
                if isinstance(protocol, ExtendedProtocol)
                else []
            )
            state_options: list[tuple[tuple[int, int], ...]] = []
            for counts in product(range(b + 1), repeat=len(queried)):
                choices = _evaluate_options(protocol, state, queried, counts)
                if undeclared:
                    _probe_queried_letters_contract(
                        protocol, state, queried, undeclared, counts, choices
                    )
                encoded = []
                for choice in choices:
                    target = choice.state
                    if target not in state_interner:
                        if len(state_interner) >= max_states:
                            raise ProtocolNotVectorizableError(
                                f"protocol {protocol.name!r} has more than "
                                f"{max_states} reachable states; run it on the "
                                "interpreted engine instead"
                            )
                        state_interner.intern(target)
                        frontier.append(target)
                    emit = choice.emit
                    emit_id = -1 if is_epsilon(emit) else letter_interner.intern(emit)
                    encoded.append((state_interner.id_of(target), emit_id))
                state_options.append(tuple(encoded))
        except ProtocolNotVectorizableError:
            raise
        except Exception as exc:
            raise ProtocolNotVectorizableError(
                f"tabulating protocol {protocol.name!r} failed on state "
                f"{state!r}: {exc}"
            ) from exc
        queried_per_state.append(tuple(letter_interner.id_of(q) for q in queried))
        options_per_state.append(tuple(state_options))

    states = state_interner.values
    return ProtocolTabulation(
        protocol_name=protocol.name,
        states=states,
        letters=letter_interner.values,
        alphabet_size=len(alphabet),
        bounding=b,
        initial_letter_id=letter_interner.id_of(protocol.initial_letter),
        queried=tuple(queried_per_state),
        options=tuple(options_per_state),
        output_mask=tuple(protocol.is_output_state(s) for s in states),
        state_ids={state: i for i, state in enumerate(states)},
    )
