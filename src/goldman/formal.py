"""Exact polynomials, and the free group on symbols with a generic form.

``FormalSpec(n)`` is Z^n on symbols e_0, ..., e_{n-1} with the form
<e_i, e_j> = P_i_j, a ``Poly`` variable, behind the names that the
bracket, the differential and the integer functionals read of a group.
Sending the symbols to elements of a group H and each P_i_j to their
pairing is a map of Lie algebras, so an identity of the production code
that holds over a ``FormalSpec`` holds in every group.  A ``generic``
element has ``Poly`` coordinates: it stands for every element.

>>> a, b, c = FormalSpec(3).symbols()
>>> a.spec.pairing(a + b, c)
P0_2 + P1_2
"""

from fractions import Fraction

from goldman.groups import GroupElement

__all__ = ["Poly", "FormalSpec"]


def _poly(x):
    """x as a Poly, for a Poly, an int or a Fraction; None otherwise."""
    return _merged([((), x)]) if isinstance(x, (int, Fraction)) else x if isinstance(x, Poly) else None


def _merged(items):
    """The Poly of (monomial, coefficient) items whose monomials are
    sorted already: equal monomials summed, zero sums dropped."""
    acc = {}
    for m, c in items:
        acc[m] = acc.get(m, 0) + c
    out = Poly.__new__(Poly)
    out.terms = {m: c for m, c in acc.items() if c}
    return out


class Poly:
    """A polynomial with rational coefficients: ``terms`` maps each
    monomial, its sorted variables with repeats (x^2 y is ("x", "x",
    "y")), to a nonzero coefficient; ints and Fractions are constants.
    The constructor and ``*`` sort monomials; ``+``, ``-`` and a scalar
    ``*`` only merge the sorted ones of their operands (``_merged``)."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        self.terms = _merged((tuple(sorted(m)), c) for m, c in items).terms

    @classmethod
    def var(cls, name):
        return cls({(name,): 1})

    def __add__(self, other):
        other = _poly(other)
        return NotImplemented if other is None else self if not other.terms else _merged(
            [*self.terms.items(), *other.terms.items()])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _merged((m, c * other) for m, c in self.terms.items())
        other = _poly(other)
        return NotImplemented if other is None else Poly(
            [(m1 + m2, c1 * c2) for m1, c1 in self.terms.items()
             for m2, c2 in other.terms.items()])

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return _merged((m, -c) for m, c in self.terms.items())

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Poly({(): 1})
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = _poly(other)
        return NotImplemented if other is None else self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return " + ".join("*".join(m if c == 1 and m else (str(c),) + m)
                          for m, c in sorted(self.terms.items())) or "0"


class FormalSpec:
    """Z^n on n symbols with the generic form; elements are ``GroupElement``s.
    The symbols with an index in ``radical`` pair to 0 with every symbol
    (they lie in ker mu)."""

    def __init__(self, n, radical=()):
        self.free_indices = tuple(range(n))
        self.zero = GroupElement(self, (0,) * n)
        self._entries = [(i, j, Poly.var("P%d_%d" % (i, j)))
                         for i in range(n) for j in range(i + 1, n)
                         if i not in radical and j not in radical]

    def add_coords(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub_coords(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def pair_coords(self, a, b):
        return sum((w * (a[i] * b[j] - a[j] * b[i]) for i, j, w in self._entries), Poly())

    def pairing(self, x, y):
        return self.pair_coords(x.coords, y.coords)

    def symbols(self):
        """The symbols e_0, ..., e_{n-1}."""
        return [GroupElement(self, tuple(int(i == j) for i in self.free_indices))
                for j in self.free_indices]

    def generic(self, name):
        """The element whose coordinates are the variables name0, name1, ..."""
        return GroupElement(self, tuple(Poly.var(name + str(j)) for j in self.free_indices))
