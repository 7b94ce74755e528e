"""Variable contexts and multidegree utilities.

A context is an ordered tuple of distinct variable names.  Every series
carries one; two series interoperate only when their contexts agree.  The
canonical enumeration order for multidegrees (ascending total degree, then
lexicographic) is fixed here and used everywhere jets or coefficient tables
need a reproducible component order.
"""

from __future__ import annotations

from math import comb


class VariableContext:
    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown variable %r (context %r)" % (name, self.names))

    def __contains__(self, name) -> bool:
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, VariableContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "VariableContext(%s)" % ", ".join(self.names)


def ctx(*names) -> VariableContext:
    return VariableContext(names)


def zero_exponent(arity: int):
    return (0,) * arity


def unit_exponent(arity: int, i: int):
    e = [0] * arity
    e[i] = 1
    return tuple(e)


def exponents_of_degree(arity: int, degree: int):
    """All exponent tuples of the given total degree, lexicographically."""
    if arity == 0:
        if degree == 0:
            yield ()
        return
    if arity == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in exponents_of_degree(arity - 1, degree - first):
            yield (first,) + rest


def multidegrees(arity: int, max_degree: int):
    """Canonical enumeration: by total degree, then lexicographic."""
    for deg in range(max_degree + 1):
        yield from sorted(exponents_of_degree(arity, deg))


def count_multidegrees(arity: int, max_degree: int) -> int:
    return comb(arity + max_degree, arity)


def numbered(prefix: str, count: int, start: int = 1):
    return tuple("%s%d" % (prefix, i) for i in range(start, start + count))
