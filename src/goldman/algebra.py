"""The Lie algebra Q[H] of an abelian group with an alternating form.

Q[H] is the rational vector space with basis the elements of H, written
[x].  The bracket is the bilinear extension of

    [[x], [y]] = <x, y> [x + y],

which is skew because the pairing alternates and satisfies Jacobi
because <.,.> is bilinear and x + y + z is symmetric in the three
summands.  Beware that the bracket mixes the two structures on H: the
basis label x + y uses the group law while coefficients live in Q, so
c[x] and [cx] are different vectors.

Vectors of Q[H] (``AlgebraVector``) and the wedge chains of
``goldman.complexes`` are both ``SparseCombination``s: finite rational
combinations of labels with one shared arithmetic, which differ only
in their labels, the space they add in, and the order in which they
serialize.

K is the linear map Q[H] -> Q (x) H sending [x] to 1 (x) x.  Torsion
dies in Q (x) H, so K reads off the free canonical coordinates of each
basis label; ``k_map`` returns them as a tuple of Fractions, one per
free canonical index.  Its kernel g_K is a Lie subalgebra: the pairing
factors through Q (x) H, so K([a, b]) collects terms weighted by the
pairing of each label against K(b) or K(a), and both weights vanish on
g_K.  Note K does not kill brackets in general:
K([[x], [y]]) = <x, y>(xbar + ybar).

>>> from goldman.groups import GroupSpec
>>> z2 = GroupSpec(2, form=[[0, 1], [-1, 0]])
>>> x, y = (AlgebraVector.basis(g) for g in z2.generators())
>>> bracket(x, y).to_pairs()
[(Fraction(1, 1), (1, 1))]
>>> bracket(x, x).is_zero()
True
>>> k_map(x + 2 * y)
(Fraction(1, 1), Fraction(2, 1))
>>> k_map(x - x)
(Fraction(0, 1), Fraction(0, 1))
>>> u = AlgebraVector.basis(z2.canonical([2, 0])) - 2 * AlgebraVector.basis(z2.canonical([1, 0]))
>>> in_gk(u)
True
"""

from fractions import Fraction
from operator import attrgetter

__all__ = [
    "AlgebraVector",
    "bracket",
    "k_map",
    "in_gk",
]


class SparseCombination:
    """A finite rational combination of labels in one space: the one
    sparse vector arithmetic of the package.

    ``terms`` maps each label to a nonzero Fraction.  Instances are
    treated as immutable; all arithmetic returns new combinations with
    zero coefficients dropped.  A subclass states what differs: its
    constructor arguments before ``terms`` (``_space``), which are the
    space that ``+`` and ``==`` compare; the check on each label
    (``_check``); and the label key (``_label_key``) that orders
    ``items`` and serializes a label in ``to_pairs``.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms=()):
        self.spec = spec
        clean = {}
        for label, coeff in (terms.items() if hasattr(terms, "items") else terms):
            self._check(label)
            coeff = Fraction(coeff)
            if coeff:
                acc = clean.get(label, 0) + coeff
                if acc:
                    clean[label] = acc
                else:
                    del clean[label]
        self.terms = clean

    @classmethod
    def _trusted(cls, *args):
        """cls(*args) for a last argument, the terms dict, that is
        already clean: checked labels and nonzero Fraction coefficients.
        The dict is kept, not copied."""
        *space, terms = args
        out = cls(*space)
        out.terms = terms
        return out

    @classmethod
    def zero(cls, *space):
        return cls(*space)

    def _space(self):
        return (self.spec,)

    def is_zero(self):
        return not self.terms

    def coefficient(self, label):
        return self.terms.get(label, Fraction(0))

    def items(self):
        """Deterministic (label, coefficient) pairs, sorted by label key."""
        key = self._label_key
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))

    def to_pairs(self):
        """Serialization as (coefficient, label key) pairs."""
        key = self._label_key
        return [(coeff, key(label)) for label, coeff in self.items()]

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        space = self._space()
        if other._space() != space:
            raise ValueError("combinations live in different spaces")
        merged = dict(self.terms)
        for label, coeff in other.terms.items():
            acc = merged.get(label, 0) + coeff
            if acc:
                merged[label] = acc
            else:
                del merged[label]
        return self._trusted(*space, merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._trusted(*self._space(),
                             {label: -coeff for label, coeff in self.terms.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        scalar = Fraction(scalar)
        return self._trusted(*self._space(), {
            label: scalar * coeff for label, coeff in self.terms.items()} if scalar else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and other._space() == self._space()
                and other.terms == self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(self._term_format % (coeff, label)
                          for label, coeff in self.items())


class AlgebraVector(SparseCombination):
    """An element of Q[H]: a finite rational combination of basis labels
    (GroupElements of one spec), serialized by canonical coordinates."""

    __slots__ = ()
    _term_format = "%s*[%r]"
    _label_key = staticmethod(attrgetter("coords"))

    def _check(self, element):
        if element.spec is not self.spec:
            raise ValueError("term label belongs to a different group")

    @classmethod
    def basis(cls, element, coeff=1):
        """The vector coeff * [element]."""
        return cls(element.spec, [(element, coeff)])


def bracket(a, b):
    """The bracket on Q[H], extended bilinearly from [[x],[y]] = <x,y>[x+y]."""
    if a.spec is not b.spec:
        raise ValueError("vectors belong to different groups")
    spec = a.spec
    acc = {}
    for x, cx in a.terms.items():
        for y, cy in b.terms.items():
            p = spec.pairing(x, y)
            if p:
                label = x + y
                total = acc.get(label, 0) + cx * cy * p
                if total:
                    acc[label] = total
                else:
                    del acc[label]
    return AlgebraVector._trusted(spec, acc)


def k_map(a):
    """K: Q[H] -> Q (x) H, the linear extension of [x] |-> 1 (x) x, as
    the tuple of Fraction coordinates on the free canonical indices."""
    free = a.spec.free_indices
    coords = [Fraction(0)] * len(free)
    for element, coeff in a.terms.items():
        for slot, j in enumerate(free):
            c = element.coords[j]
            if c:
                coords[slot] += coeff * c
    return tuple(coords)


def in_gk(a):
    """Membership in g_K = ker K."""
    return not any(k_map(a))
