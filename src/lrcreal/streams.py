"""Lazy, memoized, immutable streams and lazy lists.

A ``Stream`` is never empty: forcing any cell yields a head and a tail
stream. A ``LazyList`` may also end in nil. Both memoize on first force,
so a cell's producer runs once per cell (a concurrent force may duplicate
a *pure* producer, which is observationally invisible) and shared
prefixes are computed a single time.

Producers handed to ``unfold``, ``cons`` and friends must be pure; an
impure producer would make memoization change program meaning.

Everything here is immutable after construction and safe to share between
threads.
"""

from collections.abc import Callable, Iterator
from functools import partial
from itertools import islice, tee

from .errors import _count

__all__ = [
    "Stream",
    "LazyList",
    "NIL",
    "cons",
    "head",
    "tail",
    "unfold",
    "take",
    "constant",
    "map_stream",
    "map_lazy",
    "from_list",
    "lazy_cons",
    "decompose",
    "bisimilar_to_depth",
    "fib_stream",
    "increasing_to_depth",
    "local_fib_to_depth",
]


class _Cell:
    """Shared memoization plumbing: a deferred cell forced at most once.

    ``_cell`` is None until forced. Writes are ordered (_cell before
    _thunk) so a racing reader never observes both unset; a lost race
    recomputes a pure producer, which is harmless.
    """

    __slots__ = ("_cell", "_thunk")

    def __init__(self, thunk):
        self._cell = None
        self._thunk = thunk

    @classmethod
    def _ready(cls, cell):
        out = cls.__new__(cls)
        out._cell = cell
        out._thunk = None
        return out

    def force(self):
        cell = self._cell
        if cell is None:
            thunk = self._thunk
            if thunk is None:
                return self._cell
            cell = thunk()
            self._cell = cell
            self._thunk = None
        return cell


class Stream(_Cell):
    """Infinite lazy stream; forcing a cell yields ``(head, tail)``."""

    __slots__ = ()

    def __iter__(self) -> Iterator:
        s = self
        while True:
            h, s = s.force()
            yield h


class LazyList(_Cell):
    """Possibly-finite lazy list; a cell is ``()`` or ``(head, tail)``."""

    __slots__ = ()

    def __iter__(self) -> Iterator:
        cell = self.force()
        while cell:
            yield cell[0]
            cell = cell[1].force()


NIL = LazyList._ready(())

def cons(h, t) -> "Stream":
    """Stream with head ``h``; ``t`` is a Stream or a thunk producing one."""
    if callable(t):
        return Stream(lambda: (h, t()))
    return Stream._ready((h, t))


def head(s):
    """First element of a stream or non-nil lazy list."""
    cell = s.force()
    if not cell:
        raise IndexError("head of nil")
    return cell[0]


def tail(s):
    """Everything after the first element; forces only the head cell."""
    cell = s.force()
    if not cell:
        raise IndexError("tail of nil")
    return cell[1]


def unfold(step: Callable[[object], tuple], seed) -> "Stream":
    """Stream whose i-th element is the value produced by the i-th state.

    Reading element i runs ``step`` exactly i + 1 times (once per cell,
    thanks to memoization). ``step`` must be pure.
    """
    return Stream(partial(_unfold_cell, step, seed))


def _unfold_cell(step, seed):
    value, state = step(seed)
    return value, Stream(partial(_unfold_cell, step, state))


def take(s: "Stream", n: int) -> list:
    """First ``n`` elements; forces exactly the first ``n`` cells."""
    _count(n, "take: n")
    return list(islice(s, n))


def constant(x) -> "Stream":
    """The stream x, x, x, ... as a single self-referential cell."""
    s = Stream.__new__(Stream)
    s._thunk = None
    s._cell = (x, s)
    return s


def map_stream(f: Callable, s: "Stream") -> "Stream":
    """Element-wise image; forcing element i touches i + 1 source cells."""
    return Stream(lambda: _map_stream_cell(f, s))


def _map_stream_cell(f, s):
    h, t = s.force()
    return f(h), map_stream(f, t)


def map_lazy(f: Callable, l: "LazyList") -> "LazyList":
    """Element-wise image of a lazy list, preserving finiteness."""
    return LazyList(lambda: _map_lazy_cell(f, l))


def _map_lazy_cell(f, l):
    cell = l.force()
    if not cell:
        return ()
    h, t = cell
    return f(h), map_lazy(f, t)


def lazy_cons(h, t) -> "LazyList":
    """Lazy list with head ``h``; ``t`` is a LazyList or a thunk."""
    if callable(t):
        return LazyList(lambda: (h, t()))
    return LazyList._ready((h, t))


def from_list(items) -> "LazyList":
    """Lazy list with the same elements, ending in nil."""
    out = NIL
    for x in reversed(list(items)):
        out = lazy_cons(x, out)
    return out


def decompose(s: "Stream") -> "Stream":
    """Head-forced stream observationally equal to ``s``."""
    h, t = s.force()
    return Stream._ready((h, t))


def bisimilar_to_depth(a, b, n: int) -> bool:
    """Do ``a`` and ``b`` agree on shape and elements for ``n`` levels?

    Works on two Streams or two LazyLists, of any subclass: a real's
    digit view is a Stream. A depth-bounded stand-in for full
    bisimilarity, which is not decidable.
    """
    kind = Stream if isinstance(a, Stream) else LazyList
    if not (isinstance(a, kind) and isinstance(b, kind)):
        raise TypeError("bisimilar_to_depth: works on two streams or two lazy lists")
    _count(n, "bisimilar_to_depth: n")
    for _ in range(n):
        ca = a.force()
        cb = b.force()
        if not ca or not cb:
            return ca == cb
        if ca[0] != cb[0]:
            return False
        a, b = ca[1], cb[1]
    return True


def fib_stream(a: int, b: int) -> "Stream":
    """a, b, a+b, ... each element the sum of the previous two."""
    return Stream(lambda: (a, fib_stream(b, a + b)))


def _windows(s: "Stream", w: int, n: int) -> Iterator[tuple]:
    """The first n runs of w consecutive elements of ``s``.

    Lazy: nothing is forced until a run is asked for, n = 0 forces no
    cell, and each run forces only the cells up to its last element.
    """
    copies = tee(s, w)
    return islice(zip(*(islice(c, k, None) for k, c in enumerate(copies))), n)


def increasing_to_depth(s: "Stream", n: int) -> bool:
    """Is every adjacent pair among the first n + 1 elements non-decreasing?"""
    _count(n, "increasing_to_depth: n")
    return all(x <= y for x, y in _windows(s, 2, n))


def local_fib_to_depth(s: "Stream", n: int) -> bool:
    """Does every consecutive triple starting at offsets < n sum correctly?

    A triple (x, y, z) is good when z == x + y.
    """
    _count(n, "local_fib_to_depth: n")
    return all(x + y == z for x, y, z in _windows(s, 3, n))
