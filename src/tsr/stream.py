"""One memoized lazy stream: an append-only list grown on demand.

Power-series coefficients, normal-form terms, ``exp_poly_taylor``'s q_k and
``exp_of_taylor``'s Taylor terms are each a :class:`Stream` over an iterator
factory.  Items are immutable values, so one stream may be shared between
threads.
"""

from __future__ import annotations

import threading
from itertools import count, islice
from typing import Callable, Iterable, Iterator

_END = object()

#: the one search budget: steps in a row that find nothing before a lazy
#: normal form, or a scan of a series of unknown order, gives up
DEFAULT_ORDER_SCAN = 64


class Stream:
    """The items of ``factory()``, each computed once, in order, on demand.

    Growth holds one lock; reading an item already memoized takes none.  A
    pull that raises keeps the items memoized so far, and the next pull
    re-runs ``factory()`` past them, so no item is skipped or repeated.  A
    pull from inside the iterator itself raises RuntimeError instead of
    deadlocking.
    """

    __slots__ = ("_factory", "_items", "_it", "_lock", "_pulling", "done")

    def __init__(self, factory: Callable[[], Iterable]):
        self._factory = factory
        self._items = []
        self._it = None
        self._lock = threading.RLock()
        self._pulling = False
        self.done = False  # every item is memoized

    def __getitem__(self, i: int):
        """Item i; IndexError when the stream ends before it."""
        if i >= len(self._items) and not self.done:
            self._grow(i + 1)
        return self._items[i]

    def __iter__(self) -> Iterator:
        for i in count():
            try:
                item = self[i]
            except IndexError:
                return
            yield item

    def head(self, n: int) -> list:
        """The first n items (all of them when the stream is shorter)."""
        if n > len(self._items) and not self.done:
            self._grow(n)
        return self._items[:n]

    def _grow(self, n: int) -> None:
        with self._lock:
            if self._pulling:
                raise RuntimeError("a stream was pulled from inside its own iterator")
            self._pulling = True
            items = self._items
            try:
                if self._it is None:
                    self._it = islice(self._factory(), len(items), None)
                while len(items) < n and not self.done:
                    item = next(self._it, _END)
                    if item is _END:
                        self.done = True
                    else:
                        items.append(item)
            except BaseException:
                self._it = None
                raise
            finally:
                self._pulling = False
