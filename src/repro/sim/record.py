"""Slotted value records: dataclass semantics without ``__dict__``.

The codec classes of :mod:`repro.core.segment` and the per-request
wire records of :mod:`repro.net` / :mod:`repro.core` are built by the
thousand per simulated millisecond; ``__slots__`` makes each one
cheaper to build and smaller.  ``@dataclass(slots=True)`` needs Python
3.10 and the project supports 3.9, so they are plain ``__slots__``
classes over this base, each with a hand-written ``__init__`` — which,
unlike a generated one (every dataclass ``__init__`` is ``<string>:2``
to a profiler, and ``pstats`` keeps one of them), is counted as itself.
"""

from __future__ import annotations


class Record:
    """Value semantics of the dataclasses these classes were: equal
    when of one class with equal ``_FIELDS``, unhashable (they are
    mutable), repr in constructor form."""

    __slots__ = ()
    _FIELDS: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._FIELDS])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % pair for pair in zip(self._FIELDS, self._values())))
