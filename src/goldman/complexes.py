"""Graded Chevalley-Eilenberg chains over the basis of Q[H].

C_p is spanned by wedges [u_1] ^ ... ^ [u_p] of p distinct basis labels.
Because brackets of basis labels are again (multiples of) basis labels,
the CE differential stays inside the span:

    d_p([u_1] ^ ... ^ [u_p]) =
        sum over i < j of (-1)^(i+j) <u_i, u_j> [u_i + u_j] ^ (rest),

with "rest" the remaining factors in their original order and the new
factor prepended (indices are 1-based).  In low degree:

    d_2([u] ^ [v]) = -<u, v> [u + v]
    d_3([a] ^ [b] ^ [c]) = -<a,b>[a+b]^[c] + <a,c>[a+c]^[b] - <b,c>[b+c]^[a]

The differential of degrees 2, 3 and 4 is unrolled; higher degrees run
the general loop.  Its coordinate arithmetic is the group's generated
straight-line code (see goldman.groups).

A wedge is labelled by its key: the strictly increasing tuple of its
factors' canonical coordinate tuples.  A chain is {key: integer} over
one scale: ``_wedge_keys`` builds it, ``_key_boundary`` is its
differential, and a caller divides only to serialize.  ``WedgeChain``
({key: Fraction}, with the arithmetic of ``goldman.algebra``) stays for
``ideal_membership``, ``InnerCertification.boundary_witness`` and the
benchmark hooks; no command builds one.

The label sum u_1 + ... + u_p is the grading of a wedge; every term of
d(w) has the grading of w because each summand replaces u_i, u_j by
u_i + u_j.  The complex therefore splits over the group, one summand
per grading, and all rank computations happen grading by grading.
``enumerate_keys`` walks the wedge keys of one grading over a pool
lazily, and the inner basis W of ``goldman.verify`` reads that one
stream.  The degree-2 slice of a box has two shortcuts that build no box:
``_slice_keys`` walks it over coordinate ranges, and ``_slice_size``
counts it in closed form.

Supports are truncated to finite boxes.  A box is enumerated at most
once per group and radius and kept on the group, in coordinate order;
``box_by_weight`` walks its weight order lazily and builds no box.  A
box over the element budget is refused before anything is enumerated.
The boundary of a truncated chain may leave the enumerated support;
terms are kept rather than dropped, so a rank computation never
silently loses boundary mass.  A cochain is a rule on wedge keys,
evaluated lazily and cached, so it is defined on every wedge and has
no truncation edge.

>>> from goldman.groups import GroupSpec
>>> z2 = GroupSpec(2, form=[[0, 1], [-1, 0]])
>>> u, v = z2.canonical([1, 0]), z2.canonical([0, 1])
>>> c = wedge_chain(z2, [u, v])
>>> boundary(c).to_pairs()
[(Fraction(-1, 1), ((1, 1),))]
>>> w = wedge_chain(z2, [u, v, -(u + v)])
>>> sorted_terms = boundary(w).to_pairs()
>>> len(sorted_terms)
3
>>> boundary(boundary(w)).is_zero()
True
>>> c.terms
{((0, 1), (1, 0)): Fraction(-1, 1)}
>>> c.common_grading().coords
(1, 1)
"""

import functools
import itertools
from bisect import bisect_left
from fractions import Fraction

from goldman.algebra import SparseCombination
from goldman.groups import GroupElement

__all__ = [
    "Wedge",
    "WedgeChain",
    "Cochain",
    "wedge_chain",
    "boundary",
    "coboundary",
    "enumerate_keys",
    "enumerate_basis",
    "box_support",
    "box_by_weight",
]


def _sort_sign(factors):
    """(sign of the sorting permutation, sorted tuple); repeats give (0, None).

    Works on anything ordered, group elements or their coordinate
    tuples alike (both sort lexicographically on coordinates).
    """
    if len(factors) == 3:
        # Unrolled for the commonest length (the Phi_2 terms of the
        # outer homotopy): a three-comparison sorting network.
        a, b, c = factors
        sign = 1
        if b < a:
            a, b, sign = b, a, -1
        if c < b:
            b, c, sign = c, b, -sign
            if b < a:
                a, b, sign = b, a, -sign
        if a == b or b == c:
            return 0, None
        return sign, (a, b, c)
    factors = list(factors)
    sign = 1
    # Insertion sort; factor lists have length <= 5 throughout.
    for i in range(1, len(factors)):
        j = i
        while j > 0 and factors[j] < factors[j - 1]:
            factors[j], factors[j - 1] = factors[j - 1], factors[j]
            sign = -sign
            j -= 1
    for a, b in zip(factors, factors[1:]):
        if a == b:
            return 0, None
    return sign, tuple(factors)


# The object form of a wedge key.  Chains, cochains and bases are
# labelled by keys, and no command builds a Wedge; the class stays for
# the per-layer hooks of bench/hooks.py, which name Wedge.make.
class Wedge:
    """A basis wedge: strictly increasing distinct labels, length >= 1.

    Use Wedge.make to normalize an arbitrarily ordered factor list; the
    constructor trusts its input.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)

    @classmethod
    def make(cls, factors):
        """Sort factors, returning (sign, wedge); repeats give (0, None)."""
        sign, factors = _sort_sign(factors)
        return (sign, cls(factors)) if sign else (0, None)


class WedgeChain(SparseCombination):
    """A finite rational combination of wedges of one common degree,
    labelled by their keys; chains add and compare at the same spec and
    degree, and serialize in key order."""

    __slots__ = ("degree",)
    _term_format = "%s*%r"
    _label_key = staticmethod(lambda key: key)
    # Bound here as well: the per-layer hooks of bench/hooks.py time
    # chain additions and look methods up in the class's own namespace.
    __add__ = SparseCombination.__add__

    def __init__(self, spec, degree, terms=()):
        self.degree = degree
        super().__init__(spec, terms)

    @classmethod
    def from_keys(cls, spec, degree, terms):
        """The chain of {wedge key: Fraction coefficient} with the zero
        coefficients dropped; the keys are trusted."""
        return cls._trusted(spec, degree, {key: c for key, c in terms.items() if c})

    def _space(self):
        return (self.spec, self.degree)

    def _check(self, key):
        # An unsorted key would be a second label of the same wedge.
        if len(key) != self.degree or any(b <= a for a, b in zip(key, key[1:])):
            raise ValueError("%r is not the key of a degree-%d wedge" % (key, self.degree))

    def common_grading(self):
        """The shared grading of all terms, a GroupElement; None for the
        zero chain.

        Raises ValueError when terms have mixed gradings, which signals
        a bookkeeping bug in the caller.
        """
        gradings = {_key_grading(self.spec, key) for key in self.terms}
        if len(gradings) > 1:
            raise ValueError("chain mixes gradings %s" % sorted(gradings))
        return GroupElement(self.spec, gradings.pop()) if gradings else None


def _key_grading(spec, key):
    """The grading of a wedge key: the coordinates of its factor sum."""
    return functools.reduce(spec.add_coords, key)


def wedge_chain(spec, elements, coeff=1):
    """The chain coeff * [e_1] ^ ... ^ [e_p], normalized.

    Factors may arrive in any order; sorting contributes the permutation
    sign, and a repeated factor gives the zero chain.  A factor of
    another group raises ValueError.
    """
    elements = list(elements)
    if any(e.spec is not spec for e in elements):
        raise ValueError("wedge factor belongs to a different group")
    terms = _wedge_keys([(tuple(e.coords for e in elements), Fraction(coeff))])
    return WedgeChain._trusted(spec, len(elements), terms)


def _wedge_keys(terms):
    """The sum of c [x_1] ^ ... ^ [x_p] over (factor coordinate tuples, c)
    terms, as {key: nonzero coefficient}: ``wedge_chain`` on keys, with
    the same sorting signs, and a repeated factor giving nothing."""
    acc = {}
    for factors, c in terms:
        sign, key = _sort_sign(factors)
        if sign:
            acc[key] = acc.get(key, 0) + sign * c
    return {key: c for key, c in acc.items() if c}


def _boundary_terms(spec, key):
    """(integer coefficient, key) pairs of d of one wedge, unmerged.

    A key is a wedge as the strictly increasing tuple of its factors'
    canonical coordinate tuples.  This is the one implementation of the
    differential; ``boundary``, ``coboundary``, the certificates and
    the formal identities all evaluate it.
    """
    pair, add = spec.pair_coords, spec.add_coords
    p = len(key)
    # Degrees 2 and 3 (the outer homotopy, its witnesses and the omega
    # primitive) and 4 (the omega cocycle) are the loop below unrolled.
    if p == 2:
        a, b = key
        coeff = pair(a, b)
        return [(-coeff, (add(a, b),))] if coeff else []
    out = []
    if p == 3:
        # -<a,b>[a+b]^[c] + <a,c>[a+c]^[b] - <b,c>[b+c]^[a], each sum
        # moved to its sorted place.
        a, b, c = key
        coeff = pair(a, b)
        if coeff:
            total = add(a, b)
            if total != c:
                out.append((-coeff, (total, c)) if total < c else (coeff, (c, total)))
        coeff = pair(a, c)
        if coeff:
            total = add(a, c)
            if total != b:
                out.append((coeff, (total, b)) if total < b else (-coeff, (b, total)))
        coeff = pair(b, c)
        if coeff:
            total = add(b, c)
            if total != a:
                out.append((-coeff, (total, a)) if total < a else (coeff, (a, total)))
        return out
    if p == 4:
        # The six (i, j) terms in loop order, base sign (-1)^(i+j); the
        # sum lands at place 0, 1 or 2 among the two remaining factors,
        # and each place past the first flips the sign once.
        a, b, c, d = key
        for sign, x, y, r0, r1 in ((-1, a, b, c, d), (1, a, c, b, d), (-1, a, d, b, c),
                                   (-1, b, c, a, d), (1, b, d, a, c), (-1, c, d, a, b)):
            coeff = pair(x, y)
            if coeff:
                total = add(x, y)
                if total < r0:
                    out.append((sign * coeff, (total, r0, r1)))
                elif total < r1:
                    if total != r0:
                        out.append((-sign * coeff, (r0, total, r1)))
                elif total != r1:
                    out.append((sign * coeff, (r0, r1, total)))
        return out
    for i in range(p - 1):
        a = key[i]
        head = key[:i]
        for j in range(i + 1, p):
            b = key[j]
            coeff = pair(a, b)
            if not coeff:
                continue
            total = add(a, b)
            rest = head + key[i + 1:j] + key[j + 1:]
            # The sum is prepended to the remaining factors, which stay
            # sorted; moving it to its place k takes k transpositions.
            k = bisect_left(rest, total)
            if k < len(rest) and rest[k] == total:
                continue
            # (-1)^(i+j) for 1-based indices has the parity of the
            # 0-based sum.
            if (i + j + k) % 2:
                coeff = -coeff
            out.append((coeff, rest[:k] + (total,) + rest[k:]))
    return out


def _key_boundary(spec, terms):
    """d of the chain {wedge key: coefficient}, as {key: nonzero
    coefficient}: the one accumulation of ``_boundary_terms``, which
    ``boundary`` and the integer checks of ``goldman.verify`` share."""
    acc = {}
    for key, c in terms.items():
        for bc, face in _boundary_terms(spec, key):
            acc[face] = acc.get(face, 0) + c * bc
    return {face: c for face, c in acc.items() if c}


def boundary(c):
    """The CE differential; degree p chains map to degree p - 1.

    Degree-1 chains die (C_0 carries no differential target), and every
    output term keeps the grading of the term it came from.
    """
    if c.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    return WedgeChain._trusted(c.spec, c.degree - 1, _key_boundary(c.spec, c.terms))


class Cochain:
    """A cochain of one degree, given by a rule wedge key -> rational.

    Each value is computed by ``rule`` on first use and cached, so a
    coboundary evaluates the cochain it is built on once per wedge.
    """

    __slots__ = ("spec", "degree", "rule", "_values")

    def __init__(self, spec, degree, rule):
        self.spec = spec
        self.degree = degree
        self.rule = rule
        self._values = {}

    def value(self, key):
        v = self._values.get(key)
        if v is None:
            v = self._values[key] = Fraction(self.rule(key))
        return v

    def evaluate(self, chain):
        """The pairing <cochain, chain>, a rational."""
        if chain.degree != self.degree:
            raise ValueError("degree mismatch")
        total = Fraction(0)
        for key, coeff in chain.terms.items():
            total += coeff * self.value(key)
        return total


def coboundary(eta, p):
    """The dual differential: (d eta)(w) = eta(d w) on degree p + 1 wedges."""
    if p != eta.degree:
        raise ValueError("cochain has degree %d, not %d" % (eta.degree, p))

    spec = eta.spec

    def rule(key):
        total = Fraction(0)
        for coeff, face in _boundary_terms(spec, key):
            total += coeff * eta.value(face)
        return total

    return Cochain(eta.spec, p + 1, rule)


def enumerate_keys(spec, pool, p, z):
    """An iterator over the keys of the degree-p wedges of grading z with
    all their factors in ``pool``.

    ``pool`` is an ascending list of distinct canonical coordinate
    tuples and z a coordinate tuple.  The last factor is determined by
    the grading, so the walk runs over (p-1)-subsets of the pool in
    lexicographic order, and the keys come out ascending.  This is the
    one basis enumerator.  A degree below 1 raises ValueError at once.
    """
    if p < 1:
        raise ValueError("need degree >= 1")
    if p == 1:
        return iter([(z,)] if z in pool else [])
    return _walk_keys(spec.sub_coords, pool, p, z, set(pool))


def _walk_keys(sub, pool, p, z, last):
    for head in itertools.combinations(range(len(pool)), p - 2):
        prefix = tuple(pool[i] for i in head)
        remaining = functools.reduce(sub, prefix, z)
        # The last free choice: the remaining factor is determined.
        for x in itertools.islice(pool, head[-1] + 1 if head else 0, None):
            y = sub(remaining, x)
            if y > x and y in last:
                yield prefix + (x, y)


def enumerate_basis(support, p, z):
    """The keys of all degree-p wedges with factors in ``support`` (group
    elements) and grading z, ascending; they come from ``enumerate_keys``."""
    return list(enumerate_keys(z.spec, sorted({x.coords for x in support}), p, z.coords))


# The most elements one box may hold.  A larger request is refused
# before anything is enumerated.
BOX_BUDGET = 10 ** 6


def _box_size(spec, radius):
    """|box_support(spec, radius)| without constructing it."""
    size = 1
    for d in spec.divisors:
        if d == 0:
            size *= 2 * radius + 1
        elif d > 1:
            size *= d
    return size


def _slice_size(spec, radius, z):
    """|enumerate_basis(box_support(spec, radius), 2, z)| without
    enumerating it: the u of the box with z - u in it, less the fixed
    points 2u = z, halved."""
    pairs = fixed = 1
    for d, zj in zip(spec.divisors, z):
        if d == 0:
            pairs *= max(2 * radius + 1 - abs(zj), 0)
            fixed *= zj % 2 == 0 and abs(zj) <= 2 * radius
        else:
            # 2u = zj mod d has one solution for odd d, else two or none.
            pairs *= d
            fixed *= 1 if d % 2 else 2 * (zj % 2 == 0)
    return (pairs - fixed) // 2


def _slice_keys(spec, radius, z):
    """An iterator over enumerate_basis(box_support(spec, radius), 2, z)
    in key order, with no box built: x runs over the product of its
    coordinate ranges that keep z - x in the box, and (x, z - x) is a
    key when z - x > x.  ``_slice_size`` is its length."""
    sub = spec.sub_coords
    ranges = [range(max(-radius, zj - radius), min(radius, zj + radius) + 1) if d == 0
              else range(max(d, 1)) for d, zj in zip(spec.divisors, z)]
    return ((x, y) for x in itertools.product(*ranges) for y in (sub(z, x),) if y > x)


def _check_box_budget(spec, radius):
    """Raise ValueError for a negative radius, or when box(radius) has
    more than BOX_BUDGET elements."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    size = _box_size(spec, radius)
    if size > BOX_BUDGET:
        raise ValueError("box of radius %d has %d elements, over the budget of %d"
                         % (radius, size, BOX_BUDGET))


def box_support(spec, radius):
    """All canonical elements with free coordinates in [-radius, radius],
    in coordinate order.

    Torsion coordinates run over their full cyclic range; the box is the
    standard truncation everywhere in the package.  Each (spec, radius)
    box is built once and kept on the spec; every call returns a new
    list of the shared elements.  A box of more than ``BOX_BUDGET``
    elements raises ValueError before anything is enumerated.
    """
    box = spec._boxes.get(radius)
    if box is None:
        _check_box_budget(spec, radius)
        # Per coordinate its canonical values, increasing, so the product
        # runs through the box in sorted order.
        box = spec._boxes[radius] = [GroupElement(spec, coords) for coords in itertools.product(
            *(range(-radius, radius + 1) if d == 0 else range(max(d, 1)) for d in spec.divisors))]
    return list(box)


def box_by_weight(spec, radius):
    """An iterator over box_support(spec, radius) in ``sort_key`` order
    (weight, then coordinates), walked lazily shell by shell: no box is
    built, and the radius and budget are checked at the call.

    >>> from goldman.groups import GroupSpec
    >>> z2 = GroupSpec(2, form=[[0, 1], [-1, 0]])
    >>> [x.coords for x in itertools.islice(box_by_weight(z2, 1), 5)]
    [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0)]
    """
    _check_box_budget(spec, radius)
    # Per coordinate its (cost, value) pairs by ascending value: |v| free,
    # min(v, d - v) torsion.  Coordinates j, ... reach every weight up to
    # room[j]; shell(j, w) prunes a value whose rest of w cannot be spent.
    choices = [[(abs(v), v) for v in range(-radius, radius + 1)] if d == 0
               else [(min(v, d - v), v) for v in range(max(d, 1))] for d in spec.divisors]
    room = [sum(max(c)[0] for c in choices[j:]) for j in range(len(choices) + 1)]

    def shell(j, w):
        # The values of coordinates j, ... of weight w, ascending; w = 0 is all zeros.
        if w == 0:
            return [(0,) * (len(choices) - j)]
        return ((v,) + rest for cost, v in choices[j] if 0 <= w - cost <= room[j + 1]
                for rest in shell(j + 1, w - cost))

    return (GroupElement(spec, coords) for w in range(room[0] + 1) for coords in shell(0, w))
