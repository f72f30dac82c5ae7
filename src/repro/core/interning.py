"""Dense integer ids for protocol states and letters.

The execution engines of :mod:`repro.scheduling` are written against the
object-level protocol API (hashable states, hashable letters, option tuples).
That representation is convenient and faithful to the paper, but it is the
wrong shape for batch execution: a whole-network round wants *dense integer
ids* so that transitions become array lookups.

:class:`Interner` is the bridge: a tiny bidirectional value ↔ dense-id
mapping.  The tables of :mod:`repro.scheduling.compiled` intern every state
and letter through it, eager and lazy alike.

Everything here is pure Python with no third-party dependencies.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any


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
