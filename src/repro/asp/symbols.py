"""Symbol interning for the hot grounding/solving path.

The grounder's inner loops compare, hash, and copy ground terms millions of
times per solve.  Doing that over heterogeneous Python values (strings,
ints) costs a string hash + comparison per touch; doing it over *interned
symbol ids* costs a small-int hash, and lets the whole join pipeline run on
flat ``tuple[int, ...]`` keys.

:class:`SymbolTable` is an append-only bijection ``value <-> dense int id``:

* ``intern(value)`` returns the existing id or assigns the next dense one;
* ``value(id)`` / ``values`` materialize strings back for result extraction
  (the *only* place strings are needed — models, statistics, explanations);
* one table is shared per grounder **lineage** (a base grounder and every
  ``clone()`` forked from it), so id-tuples flowing between a prepared base
  and its per-spec deltas always agree.

Thread-safety: reads are lock-free (dict/list lookups are atomic under the
GIL and the table is append-only); only the intern *miss* path takes a lock,
so concurrent thread-backend solves sharing a warm base never race id
assignment.  Pickling stores just the value list (the id map is rebuilt),
and drops the lock, so prepared programs stay fork- and cache-safe.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Iterable, List, Tuple

__all__ = ["SymbolTable"]


class SymbolTable:
    """Append-only intern table mapping ground values to dense int ids."""

    __slots__ = ("_ids", "_values", "_lock")

    def __init__(self, values: Iterable[Hashable] = ()):
        self._values: List[Hashable] = list(values)
        self._ids: Dict[Hashable, int] = {
            value: index for index, value in enumerate(self._values)
        }
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value: Hashable) -> int:
        """Return the id for ``value``, assigning the next dense id on miss.

        The fast path is a single dict probe; the miss path re-checks under
        the lock so two threads interning the same new value agree on its id.
        """
        symbol = self._ids.get(value)
        if symbol is not None:
            return symbol
        with self._lock:
            symbol = self._ids.get(value)
            if symbol is None:
                symbol = len(self._values)
                self._values.append(value)
                self._ids[value] = symbol
            return symbol

    def intern_tuple(self, values: Tuple[Hashable, ...]) -> Tuple[int, ...]:
        """Intern every element of a ground value tuple."""
        intern = self.intern
        return tuple(intern(value) for value in values)

    def value(self, symbol: int) -> Hashable:
        """Materialize the value for an id (result-extraction path)."""
        return self._values[symbol]

    @property
    def values(self) -> List[Hashable]:
        """The live id -> value list (read-only by convention; hot loops
        index it directly instead of calling :meth:`value`)."""
        return self._values

    def materialize(self, symbols: Iterable[int]) -> Tuple[Hashable, ...]:
        """Map a tuple of ids back to the underlying values."""
        values = self._values
        return tuple(values[symbol] for symbol in symbols)

    # -- pickling ------------------------------------------------------
    # Only the value list is stored (the id map is derived) and the lock is
    # dropped; the copy is taken under the lock so a concurrent intern from
    # another thread cannot leave a half-appended entry in it.

    def __getstate__(self):
        with self._lock:
            return {"values": list(self._values)}

    def __setstate__(self, state):
        self._values = state["values"]
        self._ids = {value: index for index, value in enumerate(self._values)}
        self._lock = threading.Lock()
