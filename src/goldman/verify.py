"""Certified homology computations for Q[H] on truncated supports.

The graded pieces of the CE complex of Q[H] are infinite dimensional,
so every statement here is certified on a finite box with exact
witnesses.  The certification patterns are:

* Inner gradings (z in ker mu).  Every degree-2 wedge [u] ^ [z-u] is a
  cycle by the radical lemma <u, z-u> = 0 (``_radical_identities``),
  and the quotient map

      f([u_1] ^ ... ^ [u_p]) = 1 (x) (u_1 ^ ... ^ u_{p-1})

  into Q (x) wedge^{p-1}(H / Zz) kills all boundaries.  Boundaries are
  produced explicitly: for <u, v> != 0,

      d((-1/<u,v>) [u] ^ [v] ^ [z-u-v])
          = [u+v]^[z-u-v] - [u]^[z-u] - [v]^[z-v],

  and for <u, v> = 0 the same combination is reached through a probe x
  pairing nonzero with u, v and u + v.  Enough such columns drive the
  boundary rank up to dim ker(f), which pins the homology of the slice
  to Q (x) (H / Zz) exactly.

  A column is its integer vector over W, and its witness is integer
  too: (scale, keys), integer coefficients on at most three 3-wedge
  keys whose boundary is scale times the column.  A wedge key is the
  ascending tuple of its factors' coordinate tuples, and a chain is
  {key: integer} over one scale, divided only when it is serialized
  (``serialize_chain``).  Every kept column is
  checked on integers: d of the keys, read on the rows of W, is scale
  times the vector, every key lies in the boundary box, and f summed
  over its rows is 0.  So the columns span a subspace of ker(f), and a
  boundary rank equal to dim ker(f) certifies that they span all of
  it.  No chain is built for a column; the column matrix and a chain
  are built only when a boundary witness is asked for.

  The search reads one list, the factors of W in ``sort_key`` order.
  The rows of W are indexed heavy first.  Each row r = [a]^[z-a] with a
  step e (a factor of W with free coordinates in [-1, 1]) such that
  x = a - e is a factor of W, x != e, and the rows of x and e come
  after r, has the triangular column G(x, e): +-1 on r and 0 before
  it.  These come first, lightest row first, so each pivots on its own
  row with a unit lead and the span stays in integers.  The fill is
  every other pair of factors in index order, and the probes are the
  80 lightest factors (a radical probe pairs to 0 with u and v, so it
  never gives a witness); each unordered pair is offered once, so a
  pair without a witness is never offered again.  The search is exact
  elimination over Q (the one kernel of ``goldman.linalg``), and the
  order changes which columns are kept, not the argument.  The
  certification needs f in degree 2 only, where f([u] ^ [z-u]) = 1 (x) u
  is the integer coordinate vector of u in H / Zz.  Over Q that is the
  free canonical coordinates modulo z', the free part of z, so the
  projection is a closed form on them (``QuotientTensorSpace``): no
  Smith form is taken per grading.  f(d(w)) = 0 on 3-wedges is proved
  over symbols whose pairings with the radical symbol z vanish, for any
  f that is additive and kills z.  The projection kills z when it is
  built and is checked to be additive on the units.  No 3-wedge of the
  slice is scanned.

* Outer gradings (z not in ker mu).  A contracting homotopy (Phi_1,
  Phi_2) built from any y with lam = <y, z> != 0 satisfies
  Phi_1 d_2 + d_3 Phi_2 = id, so every cycle c bounds via d_3 Phi_2(c).
  Scaled by D = 2 lam^2 (``_homotopy_factors``) this is a polynomial
  identity in the pairings, proved once per run (``Proofs``) by running the
  production homotopy and differential over the symbols u, y, z of
  ``FormalSpec(3)`` on [u] ^ [z-u]: no wedge of the slice is scanned.
  The group's coordinate kernels, all the proof reads of it, are checked
  on all pairs of units.  The five cycle witnesses c are key
  dicts, c times its denominator, and d(D Phi_2(c)) = D c is checked on
  integers.

* The degree-3 cocycle omega([u],[v],[z-u-v]) = <u, v> on radical z.
  d(omega) = 0 is proved once over symbols whose pairings with the
  radical symbol vanish.  For torsion z a closed-form combination of
  the rows of a primitive eta (``_omega_rows``) has left side 0 and
  right side -2, so no primitive exists; the rows are re-expanded on
  wedge keys.  For non-torsion z the primitive eta = -2 f + 1, with f
  an integer functional over g = f(z), and g d(eta) = g omega is
  proved over symbols with f symbolic.  No wedge of the slice is
  scanned, and no box enters.

Every y, u and pair (a, b) is read from the units (``GroupSpec.units``),
which generate H: ``_partner`` gives the first one pairing nonzero with
a derived grading.

The closed-form checks (g_K cycle, surface, H_1) build their chains on
keys too; no command builds a ``WedgeChain``.  The linear extension
lemma is proved once over formal symbols (``goldman.formal``).

Verdicts are "certified", "refuted", or "inconclusive-at-truncation";
a too-small box can hide boundaries but never fabricate them, so a
missing witness is reported as inconclusive rather than as a
refutation.  Every certified verdict carries witnesses that have been
re-verified by direct expansion before the result is returned.  The
re-verification raises CertificateError, naming the failed identity,
and is not an assert, so it also runs under ``python -O``.
"""

import bisect
import collections
import functools
import itertools
import math
import types
from fractions import Fraction

from goldman.algebra import AlgebraVector, in_gk
from goldman.complexes import (
    WedgeChain,
    _boundary_terms,
    _key_boundary,
    _key_grading,
    _sort_sign,
    _wedge_keys,
    _box_size,
    _slice_keys,
    _slice_size,
    boundary,
    box_by_weight,
    box_support,
    enumerate_basis,
)
from goldman.formal import FormalSpec, Poly
from goldman.groups import GroupElement
from goldman.linalg import (
    CertificateError,
    SparseRationalMatrix,
    _IncrementalSpan,
    _require,
)

__all__ = [
    "CERTIFIED",
    "REFUTED",
    "INCONCLUSIVE",
    "NOT_APPLICABLE",
    "CertificateError",
    "CheckResult",
    "Proofs",
    "QuotientTensorSpace",
    "f_map",
    "f_on_ordered",
    "ideal_membership",
    "ContractingHomotopy",
    "InnerCertification",
    "inner_h2_certify",
    "outer_h2_certify",
    "main_theorem_check",
    "gk_cycle_check",
    "surface_generator_check",
    "linear_extension_check",
    "omega_check",
    "h1_check",
]

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive-at-truncation"
NOT_APPLICABLE = "not-applicable"


def _capped_radius(spec, radius, cap):
    """The largest r <= radius with |box(r)| <= cap (at least 1), by
    bisection: box sizes grow with r."""
    fits = bisect.bisect_right(range(radius + 1), cap, key=functools.partial(_box_size, spec))
    return max(fits - 1, min(radius, 1))


def frac_str(q):
    """An int or a Fraction as "n" or "n/d"; nothing is converted."""
    return "%d/%d" % (q.numerator, q.denominator) if q.denominator != 1 else str(q.numerator)


def serialize_chain(terms, den):
    """The chain {wedge key: c / den} as [coefficient, [factor
    coordinates...]] pairs in key order, for integer key terms over
    their denominator.  Each Fraction is built once, and with den 1 not
    at all."""
    return [[frac_str(c if den == 1 else Fraction(c, den)), [list(f) for f in key]]
            for key, c in sorted(terms.items())]


class CheckResult:
    """One verification entry: id, instance parameters, verdict, details.

    ``details`` is a JSON-ready dict (Fractions serialized as strings)
    holding counts, dimensions, and the witnesses backing the verdict.
    """

    __slots__ = ("check", "params", "verdict", "details")

    def __init__(self, check, params, verdict, details):
        self.check = check
        self.params = params
        self.verdict = verdict
        self.details = details

    def to_dict(self):
        return {
            "check": self.check,
            "params": self.params,
            "verdict": self.verdict,
            "details": self.details,
        }

    def __repr__(self):
        return "CheckResult(%s: %s)" % (self.check, self.verdict)


def _certify_or_refute(check, params, certify, *args):
    """certify(*args), or a refuted entry with the params built by
    ``params()`` naming the identity that failed its re-check."""
    try:
        return certify(*args)
    except CertificateError as exc:
        return CheckResult(check, params(), REFUTED, {"failed_identity": exc.identity})


def _required(identities):
    """The names of ``identities``, (name, holds) pairs, once ``_require``
    has passed each."""
    for name, holds in identities:
        _require(holds, name)
    return [name for name, _ in identities]


def _formal_check(check, params, identities):
    """The certified entry of a check proved over formal symbols, once
    ``_require`` has passed each (name, holds) of ``identities``."""
    return CheckResult(check, params, CERTIFIED,
                       {"identity": "formal", "identities": _required(identities)})


class Proofs:
    """A run's proofs of the identities no grading changes, each made by
    the production code when first cited and then cited (as in LCF).
    ``verify`` makes one per command, ``main_theorem_check`` one per
    call, and an entry given none its own; none is kept at module level,
    so a patch is seen.  A failed proof stays False and refutes every
    entry citing it."""

    def __init__(self):
        self._proved = {}

    def cite(self, prove, *args):
        """prove(*args), run the first time this value cites it."""
        key = (prove, *args)
        if key not in self._proved:
            self._proved[key] = prove(*args)
        return self._proved[key]


# ---------------------------------------------------------------------------
# The quotient space Q (x) (H / Zz) and the maps f, g


class QuotientTensorSpace:
    """Coordinates on Q (x) (H / Zz) for a fixed grading z.

    Over Q, H / Zz is the free canonical coordinates of H modulo z', the
    free part of z, so the projection is a closed form.  When z' = 0 it
    reads the free coordinates.  Otherwise, with k the first free index
    at which z' is nonzero, it reads z'_k x_j - z'_j x_k for every other
    free index j.  Both maps are integer and additive, they kill the
    torsion, and over Q the kernel of each is Q z'.
    """

    __slots__ = ("spec", "z", "dim", "_free", "_pivot")

    def __init__(self, spec, z):
        if z.spec is not spec:
            raise ValueError("grading belongs to a different group")
        self.spec = spec
        self.z = z
        zc = z.coords
        k = next((j for j in spec.free_indices if zc[j]), None)
        # (j, z'_j) for the free j other than the pivot k, which is
        # (k, z'_k) or None when z' = 0.
        self._free = tuple((j, zc[j]) for j in spec.free_indices if j != k)
        self._pivot = None if k is None else (k, zc[k])
        self.dim = len(self._free)
        _require(not any(self.proj(z)), "z survived its own quotient")

    def proj(self, x):
        """The image of x in Q (x) (H / Zz), a tuple of ints."""
        return self.proj_coords(x.coords)

    def proj_coords(self, coords):
        """proj of the element with these canonical coordinates."""
        if self._pivot is None:
            return tuple(coords[j] for j, _ in self._free)
        k, zk = self._pivot
        return tuple(zk * coords[j] - zj * coords[k] for j, zj in self._free)


def f_on_ordered(qspace, key):
    """f of the 2-wedge with the ordered factor coordinates (u, z-u): the
    integer coordinate tuple proj(u)."""
    return qspace.proj_coords(key[0])


def f_map(c, qspace):
    """The quotient map on a degree-2 grading-z chain: drop the last
    factor and project the first into Q (x) (H / Zz).  Returns the
    coordinate tuple.

    Well defined on wedges because the factor sum z dies in H / Zz.
    """
    if c.degree != 2:
        raise ValueError("f_map is defined on degree-2 chains, got degree %d"
                         % c.degree)
    return _f_terms(qspace, c.terms)


def _f_terms(qspace, terms):
    """f of the grading-z chain {2-key: coefficient}, a coordinate tuple;
    a term of another grading raises ValueError."""
    spec, z = qspace.spec, qspace.z.coords
    out = [0] * qspace.dim
    for key, coeff in terms.items():
        if _key_grading(spec, key) != z:
            raise ValueError("chain term graded at %r, expected %r"
                             % (_key_grading(spec, key), z))
        for j, x in enumerate(f_on_ordered(qspace, key)):
            out[j] += coeff * x
    return tuple(out)


# ---------------------------------------------------------------------------
# Ideal membership

# Generator of the relation ideal: for labels u, v in grading z,
#   G(u, v) = [u+v] ^ [z-u-v] - [u] ^ [z-u] - [v] ^ [z-v].


def _cycle_keys(spec, z, terms):
    """The sum of c [x] ^ [z-x] over (x, c) on coordinate tuples, as keys."""
    sub = spec.sub_coords
    return _wedge_keys(((x, sub(z, x)), c) for x, c in terms)


def _generator_keys(spec, z, u, v):
    """G(u, v) on coordinate tuples, as {2-key: nonzero int}."""
    return _cycle_keys(spec, z, ((spec.add_coords(u, v), 1), (u, -1), (v, -1)))


def _ideal_generator(spec, z, u, v):
    """G(u, v) of group elements, as a chain."""
    return WedgeChain(spec, 2, _generator_keys(spec, z.coords, u.coords, v.coords))


def _direct_witness(spec, z, u, v):
    """The witness (scale, {3-key: int}) of G(u, v) with one key, on
    coordinate tuples; None when <u, v> = 0 or the wedge vanishes.

    d([u]^[v]^[z-u-v]) = -<u, v> G(u, v) for radical z (<u, z-u-v> =
    -<u, v> and <v, z-u-v> = <u, v>), so the sorted key with its sorting
    sign flipped has boundary <u, v> G(u, v): the scale is <u, v>.
    """
    pair = spec.pair_coords(u, v)
    if not pair:
        return None
    sub = spec.sub_coords
    sign, key = _sort_sign((u, v, sub(sub(z, u), v)))
    return (pair, {key: -sign}) if sign else None


def _generator_witness(spec, z, u, v, probes):
    """A witness (scale, keys) of G(u, v) for radical z, or None: integer
    coefficients on 3-keys whose boundary is scale * G(u, v).  Works on
    coordinate tuples; the caller re-checks the boundary.

    The direct witness when there is one.  Otherwise the direct pieces of
    the first probe x for which all three exist, since
    -G(u+v, x) + G(u, v+x) + G(v, x) = G(u, v) term by term: at most
    three keys, over the lcm of the three pairings.
    """
    direct = _direct_witness(spec, z, u, v)
    if direct is not None:
        return direct
    add = spec.add_coords
    s = add(u, v)
    for x in probes:
        pieces = (_direct_witness(spec, z, s, x),
                  _direct_witness(spec, z, u, add(v, x)),
                  _direct_witness(spec, z, v, x))
        if any(p is None for p in pieces):
            continue
        scale = math.lcm(*(pair for pair, _ in pieces))
        keys = {}
        for sign, (pair, piece) in zip((-1, 1, 1), pieces):
            for key, c in piece.items():
                keys[key] = keys.get(key, 0) + sign * (scale // pair) * c
        return scale, {key: c for key, c in keys.items() if c}
    return None


def _key_chain(spec, terms):
    """The degree-3 chain of the sum of coeff / scale * keys over
    (coeff, (scale, keys)) terms: key witnesses as a chain."""
    acc = {}
    for coeff, (scale, keys) in terms:
        for key, c in keys.items():
            acc[key] = acc.get(key, 0) + Fraction(coeff * c, scale)
    return WedgeChain.from_keys(spec, 3, acc)


# An ideal search keeps generator terms inside the box times this.
IDEAL_BOX_ENLARGE = 3


def ideal_membership(c, box):
    """Is the grading-z chain c a combination of relation generators?

    Candidate generator labels are drawn from the factors of c, their
    pairwise differences, and the small elements of the box, restricted
    so generator terms stay inside the box grown by
    ``IDEAL_BOX_ENLARGE``.  ``box`` is the box radius.
    Returns (True, witness), (False, obstruction) when the quotient map
    already separates c from the ideal, or (None, note) when the
    truncated generator pool does not decide.
    """
    spec = c.spec
    if c.degree != 2:
        raise ValueError("ideal membership is implemented for degree 2")
    z = c.common_grading()
    if z is None:
        return True, {"witness": [], "note": "zero chain"}
    qspace = QuotientTensorSpace(spec, z)
    image = f_map(c, qspace)
    if any(image):
        return False, {
            "reason": "quotient map separates the chain from the ideal",
            "f_image": [[frac_str(v), [j]] for j, v in enumerate(image) if v],
        }

    # The largest coordinate in box(radius): the radius on a free
    # coordinate, d - 1 on a torsion one of order d.
    limit = IDEAL_BOX_ENLARGE * max([box] + [d - 1 for _, d in spec.torsion])
    small = itertools.takewhile(lambda x: x.weight() <= 2,
                                box_by_weight(spec, box))

    def inside(x):
        return all(abs(x.coords[j]) <= limit for j in spec.free_indices)

    factors = sorted({GroupElement(spec, f) for key in c.terms for f in key},
                     key=lambda e: e.sort_key())
    candidates = list(factors)
    for a, b in itertools.combinations(factors, 2):
        candidates.append(a - b)
        candidates.append(b - a)
    candidates.extend(x for x in small if x != spec.zero)
    candidates = sorted(set(candidates), key=lambda e: e.sort_key())[:120]

    generators = []
    seen = set()
    for u, v in itertools.combinations_with_replacement(candidates, 2):
        pieces = (u, v, u + v, z - u, z - v, z - u - v)
        if not all(inside(x) for x in pieces):
            continue
        gen = _ideal_generator(spec, z, u, v)
        if gen.is_zero():
            continue
        if gen == c:
            # The chain is literally one generator; no solve needed.
            return True, {"witness": [["1", list(u.coords), list(v.coords)]],
                          "generators_tried": len(generators) + 1}
        key = tuple(sorted(gen.terms))
        if key in seen:
            continue
        seen.add(key)
        generators.append(((u, v), gen))

    wedges = sorted({w for _, gen in generators for w in gen.terms} | set(c.terms))
    index = {w: i for i, w in enumerate(wedges)}
    matrix = SparseRationalMatrix(len(wedges), len(generators))
    for col, (_, gen) in enumerate(generators):
        for w, coeff in gen.terms.items():
            matrix[index[w], col] = coeff
    target = [Fraction(0)] * len(wedges)
    for w, coeff in c.terms.items():
        target[index[w]] = coeff
    ok, combo = matrix.in_span(tuple(target))
    if not ok:
        return None, {
            "note": "generator pool at this truncation does not reach the chain",
            "generators_tried": len(generators),
        }
    witness = []
    recon = WedgeChain(spec, 2)
    for col, coeff in enumerate(combo):
        if coeff:
            (u, v), gen = generators[col]
            witness.append([frac_str(coeff), list(u.coords), list(v.coords)])
            recon = recon + coeff * gen
    _require(recon == c, "the ideal witness re-expands to the chain")
    return True, {"witness": witness, "generators_tried": len(generators)}


# ---------------------------------------------------------------------------
# Contracting homotopy for outer gradings

def _homotopy_factors(lam):
    """(D, scaled) for lam = <y, z> != 0: D = 2 lam^2 is the lcm of the
    denominators of the homotopy factors -1/lam, -1/lam, -1/lam, 1/(2 lam)
    and 1/(2 lam^2), and ``scaled`` those factors times D, all integers."""
    return 2 * lam * lam, (-2 * lam, -2 * lam, -2 * lam, lam, 1)


class ContractingHomotopy:
    """Operators Phi_1: C_1 -> C_2 and Phi_2: C_2 -> C_3 in grading z.

    For y with lam = <y, z> != 0:

        Phi_1([z])      = (-1/lam) [y] ^ [z-y]
        Phi_2([u]^[v])  = (-1/lam)  [y] ^ [u-y] ^ [v]
                        + (-1/lam)  [y] ^ [u]   ^ [v-y]
                        + (1/2lam)  [2y] ^ [u-y] ^ [v-y]
                        + (<u-y, v-y> / 2 lam^2) [y] ^ [2y] ^ [z-3y]

    Phi_1 d_2 + d_3 Phi_2 = id holds on every basis wedge of the slice.
    ``key_defect`` measures its failure on a wedge key as a dict, and
    ``identity_defect`` as a chain.  The operators read a group only by
    ``pairing`` and the coordinate kernels, so they run on a
    ``FormalSpec``, where the identity is proved once over symbols.

    The five rational factors in front of the wedges are scaled by
    ``scale`` = 2 lam^2, the lcm of their denominators
    (``_homotopy_factors``), so the operators are evaluated on integer
    (or polynomial) coefficients over wedge keys (sorted tuples of
    coordinate tuples), and a caller divides by ``scale`` only to
    serialize.
    """

    __slots__ = ("spec", "z", "y", "scale", "_scaled",
                 "_y2c", "_phi1_term", "_tail_term")

    def __init__(self, spec, z, y):
        lam = spec.pairing(y, z)
        if lam == 0:
            raise ValueError("y pairs to zero with the grading")
        self.spec = spec
        self.z = z
        self.y = y
        self.scale, self._scaled = _homotopy_factors(lam)
        # 2y, z-y and z-3y by the coordinate kernels, which a FormalSpec has.
        self._y2c = spec.add_coords(y.coords, y.coords)
        zy = spec.sub_coords(z.coords, y.coords)
        self._phi1_term = _sort_sign((y.coords, zy))
        self._tail_term = _sort_sign((y.coords, self._y2c, spec.sub_coords(zy, self._y2c)))

    def _scaled_phi2(self, u, v):
        """(coefficient, key) terms of scale * Phi_2([u] ^ [v])."""
        spec = self.spec
        _, first, second, both, tail = self._scaled
        y = self.y.coords
        uy = spec.sub_coords(u, y)
        vy = spec.sub_coords(v, y)
        out = []
        for coeff, factors in ((first, (y, uy, v)),
                               (second, (y, u, vy)),
                               (both, (self._y2c, uy, vy))):
            sign, key = _sort_sign(factors)
            if coeff and sign:
                out.append((sign * coeff, key))
        sign, key = self._tail_term
        if tail and sign:
            pair = spec.pair_coords(uy, vy)
            if pair:
                out.append((sign * tail * pair, key))
        return out

    def phi2_keys(self, terms):
        """scale * Phi_2 of the grading-z chain {2-key: coefficient}, as
        {3-key: nonzero coefficient}: the one Phi_2, which the outer
        cycle witnesses and the g_K cycle's shifted parts evaluate."""
        acc = {}
        for key, coeff in terms.items():
            for scaled, key3 in self._scaled_phi2(*key):
                acc[key3] = acc.get(key3, 0) + coeff * scaled
        return {key: c for key, c in acc.items() if c}

    def key_defect(self, key):
        """scale * (Phi_1 d_2 + d_3 Phi_2 - id) of the grading-z wedge
        with key (u, v), as {key: nonzero coefficient}.  Every term is
        exact (an integer, or a polynomial over a ``FormalSpec``), so the
        dict is empty exactly when the identity holds on the wedge."""
        spec, acc = self.spec, {key: -self.scale}
        get = acc.get
        sign, phi1_key = self._phi1_term
        d2 = _d2_coefficient(spec, key)
        if sign and self._scaled[0] and d2:
            acc[phi1_key] = get(phi1_key, 0) + sign * self._scaled[0] * d2
        for coeff, key3 in self._scaled_phi2(*key):
            for bc, key2 in _boundary_terms(spec, key3):
                acc[key2] = get(key2, 0) + coeff * bc
        return {k: c for k, c in acc.items() if c}

    def identity_defect(self, key):
        """(Phi_1 d_2 + d_3 Phi_2 - id) of the basis wedge with this key,
        as a chain."""
        if self.spec.add_coords(*key) != self.z.coords:
            raise ValueError("wedge is not graded at z")
        return WedgeChain.from_keys(self.spec, 2, {k: Fraction(c, self.scale)
                                                   for k, c in self.key_defect(key).items()})


def _d2_coefficient(spec, key):
    """The [z] coefficient of d_2 of the 2-wedge with this key."""
    return sum(coeff for coeff, _ in _boundary_terms(spec, key))


def _partner(spec, z):
    """The first unit y with <y, z> != 0.  The units generate H, so a
    derived z has one; CertificateError otherwise."""
    pair, zc = spec.pair_coords, z.coords
    y = next((y for y in spec.units if pair(y.coords, zc)), None)
    _require(y is not None, "a unit pairs nonzero with a derived z")
    return y


# ---------------------------------------------------------------------------
# Inner gradings: explicit boundary columns up to the quotient dimension


# The most elements an inner cycle box may hold: the radius is reduced
# until the box fits (``effective_radius``).
INNER_SUPPORT_CAP = 1200


def _inner_radius(spec, box_radius):
    """(radius, cap) of the inner cycle box: the largest radius within
    ``box_radius`` whose box fits ``INNER_SUPPORT_CAP``, and that cap.
    The one reader of the cap, so the inner suite's skips and the
    certification agree."""
    return _capped_radius(spec, box_radius, INNER_SUPPORT_CAP), INNER_SUPPORT_CAP


def _beyond_inner_reach(spec, z, radius):
    """Whether z lies outside the inner cycle box of this radius: no
    ideal column reaches it, as every candidate leaves the box."""
    return any(abs(z.coords[j]) > radius for j in spec.free_indices)


def _inner_reach_note(radius, cap):
    """The note of a radical grading beyond the inner cycle box."""
    return ("grading outside the inner cycle box of radius %d, the largest within "
            "--box and INNER_SUPPORT_CAP = %d elements" % (radius, cap))


class InnerCertification:
    """Certified data for one inner grading z in ker mu.

    Holds the derived wedge basis W on the cycle box, the quotient
    space Q (x) (H / Zz), and an explicit list of boundary columns
    (vec, witness): the integer vector of G(u, v) over W and a key
    witness (scale, keys) whose boundary is scale * vec, with every key
    on the boundary box.  Their span reaches dim ker(f) inside span(W)
    when the verdict is certified.
    """

    __slots__ = ("spec", "z", "box_radius", "boundary_radius", "effective_radius",
                 "identities", "support", "wedges", "rows", "qspace", "columns",
                 "rank", "target_rank", "f_rank", "box_image_rank", "result")

    def __init__(self, spec, z, box_radius, proofs=None):
        if not z.in_kernel_mu():
            raise ValueError("inner certification needs z in ker mu")
        self.spec = spec
        self.z = z
        self.box_radius = box_radius
        self.boundary_radius = 3 * box_radius
        self.effective_radius, _ = _inner_radius(spec, box_radius)
        self.support = box_support(spec, self.effective_radius)

        derived = [x for x in self.support if x.is_derived_element()]
        weight = {x.coords: x.weight() for x in derived}
        # The keys of W, heavy first: a column [u+v]-[u]-[v] then pivots
        # on its heaviest row and the echelon stays near triangular.
        # ``rows`` is the one row map, {key: row}.
        self.wedges = sorted(enumerate_basis(derived, 2, z),
                             key=lambda key: tuple((weight[f], f) for f in key),
                             reverse=True)
        self.rows = {key: r for r, key in enumerate(self.wedges)}
        self.qspace = QuotientTensorSpace(spec, z)
        self._certify(weight, proofs)

    # -- construction -----------------------------------------------------

    def _certify(self, weight, proofs):
        spec, z = self.spec, self.z
        # The factors of W, in sort_key order (weight, then coordinates):
        # the one source of the steps, the probes and the fill.
        elements = sorted({f for key in self.wedges for f in key},
                          key=lambda f: (weight[f], f))

        f_rows = [f_on_ordered(self.qspace, key) for key in self.wedges]
        # Before any column is checked against f: f(G(u, v)) = 0 is a
        # boundary check only for an f that the proof of f(d(w)) = 0 covers.
        self.identities = self.scan_f_kills_boundaries(proofs)
        fspan = _IncrementalSpan()
        for f in f_rows:
            fspan.insert(dict(enumerate(f)))
        self.f_rank = fspan.rank

        # The rank cannot exceed dim Q (x) (H / Zz): stop once it is reached.
        box_span = _IncrementalSpan()
        for x in self.support:
            if box_span.rank == self.qspace.dim:
                break
            if x.is_derived_element():
                box_span.insert(dict(enumerate(self.qspace.proj(x))))
        self.box_image_rank = box_span.rank

        self.target_rank = len(self.wedges) - self.f_rank
        sub, zc, rows = spec.sub_coords, z.coords, self.rows

        def v_row(x):
            # [x] ^ [z-x] as (row of W or -1, sign); sign 0 when x = z-x.
            y = sub(zc, x)
            if x < y:
                return rows.get((x, y), -1), 1
            return (rows.get((y, x), -1), -1) if y < x else (-1, 0)

        # The steps are the factors with free coordinates in [-1, 1], each
        # with the row of [e]^[z-e]; the fill is every other pair of
        # factors in index order; the probes are the 80 lightest factors
        # (a radical probe pairs to 0 with u and v, so it gives no witness).
        free = spec.free_indices
        steps = [(e, v_row(e)[0]) for e in elements if all(-1 <= e[j] <= 1 for j in free)]
        seeds = self._triangular_pairs(v_row, steps, weight)
        seeded = set(seeds)
        fill = (uv for uv in itertools.combinations_with_replacement(elements, 2)
                if uv not in seeded)
        self.columns, self.rank = self._column_pass(
            itertools.chain(seeds, fill), v_row, elements[:80], f_rows)

        verdict = CERTIFIED if self.rank == self.target_rank else INCONCLUSIVE
        quotient_dim = len(self.wedges) - self.rank
        details = {
            "cycle_wedges": len(self.wedges),
            "boundary_rank": self.rank,
            "kernel_of_f_dim": self.target_rank,
            "f_image_rank": self.f_rank,
            "box_generator_image_rank": self.box_image_rank,
            "f_surjective_on_box": self.f_rank == self.box_image_rank,
            "quotient_dim": quotient_dim,
            "space_dim": self.qspace.dim,
            "boundary_columns": len(self.columns),
            "effective_radius": self.effective_radius,
        }
        if verdict == CERTIFIED and self.f_rank != self.box_image_rank:
            verdict = INCONCLUSIVE
            details["note"] = "f image does not reach every box generator"
        if verdict == CERTIFIED and quotient_dim != self.qspace.dim:
            verdict = INCONCLUSIVE
            details["note"] = "the quotient dimension differs from dim Q (x) (H / Zz)"
        if verdict == INCONCLUSIVE and "note" not in details:
            details["note"] = ("boundary columns reach rank %d of %d; "
                               "a larger box may reach the rest" % (self.rank, self.target_rank))
        self.result = CheckResult("inner-isomorphism",
                                  _inner_params(spec, z, self.box_radius),
                                  verdict, details)

    def _triangular_pairs(self, v_row, steps, weight):
        """The pair (x, e) of each row's triangular column G(x, e), as
        coordinate tuples in sort_key order, lightest row first.

        For the row r = [a]^[z-a], and for each factor a of it in turn, e
        is the first of ``steps`` (pairs of e and the row of [e]^[z-e])
        with x = a - e a factor of W, x != e, and the rows of [x]^[z-x]
        and [e]^[z-e] both after r.  G(x, e) is then +-1 on r and 0 on
        every row before it, so columns fed from the last row up each
        pivot on their own row with a unit lead.
        """
        sub = self.spec.sub_coords
        pairs = []
        for r in range(len(self.wedges) - 1, -1, -1):
            found = next(((x, e) for a in self.wedges[r] for e, row in steps if row > r
                          for x in (sub(a, e),) if x != e and v_row(x)[0] > r),
                         None)
            if found is not None:
                pairs.append(tuple(sorted(found, key=lambda f: (weight[f], f))))
        return pairs

    def _column_pass(self, pair_order, v_row, probes, f_rows):
        """Greedy boundary columns G(u, v) over pair_order until their
        span over Q reaches target_rank.

        A column is its integer vector {row of W: coefficient}, built on
        coordinate tuples.  An independent one gets a key witness and is
        kept once the witness exists, checked on integers: d of its keys,
        summed over ``_boundary_terms`` and read on the rows of W, is
        scale * vec; every key factor lies in the boundary box; and f
        summed over ``f_rows`` (f of each row) is 0 on vec.  Returns
        ([(vec, witness)], rank).
        """
        spec, rows = self.spec, self.rows
        add = spec.add_coords
        limit, free = self.boundary_radius, spec.free_indices
        # u and v are factors of W, so [u]^[z-u] and [v]^[z-v] are rows;
        # only [u+v]^[z-u-v] can leave span(W), and then the column is
        # skipped (a degenerate one contributes nothing).
        target = self.target_rank
        columns = []
        span = _IncrementalSpan()
        for u, v in pair_order:
            if len(span.pivots) >= target:
                break
            row, sign = v_row(add(u, v))
            if sign and row < 0:
                continue
            vec = {row: sign} if sign else {}
            for r, c in (v_row(u), v_row(v)):
                acc = vec.get(r, 0) - c
                if acc:
                    vec[r] = acc
                else:
                    del vec[r]
            residual = span.reduce(vec)
            if not residual:
                continue
            witness = _generator_witness(spec, self.z.coords, u, v, probes)
            if witness is None:
                continue
            scale, keys = witness
            # Faces off W all read as row None, which vec never has; a
            # zero scale would certify nothing.
            _require(scale and {rows.get(face): c for face, c in _key_boundary(spec, keys).items()}
                     == {r: scale * c for r, c in vec.items()}, "d(witness) = G(u, v)")
            _require(all(abs(x[t]) <= limit for key in keys for x in key for t in free),
                     "the witness lies in the boundary box")
            _require(not any(sum(c * f_rows[r][t] for r, c in vec.items())
                             for t in range(self.qspace.dim)), "f(G(u, v)) = 0")
            span.keep(residual)
            columns.append((vec, witness))
        return columns, span.rank

    # -- queries -----------------------------------------------------------

    def chain_vector(self, c):
        """Coordinates of a chain over W, or None if it leaves the box."""
        vec = [Fraction(0)] * len(self.wedges)
        for key, coeff in c.terms.items():
            row = self.rows.get(key)
            if row is None:
                return None
            vec[row] = coeff
        return tuple(vec)

    def boundary_witness(self, c):
        """An explicit X with d(X) = c, or None; c must lie in span(W).
        The column matrix and the chain of X are built here, from the
        integer columns and their key witnesses."""
        vec = self.chain_vector(c)
        if vec is None:
            return None
        matrix = SparseRationalMatrix(
            len(self.wedges), len(self.columns),
            {(r, col): coeff for col, (column, _) in enumerate(self.columns)
             for r, coeff in column.items()})
        ok, combo = matrix.in_span(vec)
        if not ok:
            return None
        out = _key_chain(self.spec, [(coeff, witness) for (_, witness), coeff
                                     in zip(self.columns, combo) if coeff])
        _require(boundary(out) == c, "d(assembled witness) = c")
        return out

    def scan_f_kills_boundaries(self, proofs=None):
        """Require that f kills every boundary, and return the names of
        the identities that show it: the group's coordinate kernels and
        f(d(w)) = 0 over symbols, proved once per run through ``Proofs``,
        and proj additive.  The name is kept for the bench hook."""
        proofs = proofs or Proofs()
        # proj of a unit is read once per pair it is in: compute it once.
        proj, add = functools.cache(self.qspace.proj_coords), self.spec.add_coords
        units = [y.coords for y in self.spec.units]
        additive = all(proj(add(a, b)) == tuple(x + y for x, y in zip(proj(a), proj(b)))
                       for a, b in itertools.product(units, repeat=2))
        return _required([*proofs.cite(_kernel_identities, self.spec),
                          ("proj_coords is additive on signed units", additive),
                          ("f(d(w)) = 0", proofs.cite(_f_identity_holds))])


def _inner_params(spec, z, box_radius):
    """The params of an inner entry: the grading, the cycle box and the
    boundary box, whatever the verdict."""
    return {"spec": spec.label, "z": list(z.coords),
            "box": box_radius, "boundary_box": 3 * box_radius}


def inner_h2_certify(spec, z, box_radius, proofs=None):
    """Certify the inner grading z: boundaries exhaust ker(f) on the box
    and the homology slice has the quotient dimension.  Returns an
    InnerCertification; its ``result`` is the report entry."""
    return InnerCertification(spec, z, box_radius, proofs)


# ---------------------------------------------------------------------------
# Outer gradings


def _homotopy_identity_holds():
    """True when the production homotopy and differential send [u]^[z-u]
    to 0 over FormalSpec(3), scaled by 2 lam^2 (lam = <y, z>): then the
    identity holds in every group and grading, for every y with lam != 0.

    u, y, z is the basis 2 e_0 + e_1, e_0, 3 e_0 + e_2, and then its
    negative: y, u-y and z-u share their lead coordinate, so between the
    two every order branch of the degree-3 differential is taken.  Proved
    once per run through ``Proofs``."""
    spec = FormalSpec(3)
    for s in (1, -1):
        u, y, z = (GroupElement(spec, tuple(s * c for c in coords))
                   for coords in ((2, 1, 0), (1, 0, 0), (3, 0, 1)))
        if ContractingHomotopy(spec, z, y).key_defect(_sort_sign((u.coords, (z - u).coords))[1]):
            return False
    return True


def _radical_identities():
    """[(name, holds)] of the radical lemma: the production d_2 of [u]^[z-u],
    in both key orders over FormalSpec(3, radical=(0,)) with u generic,
    is -<u, z-u> [z] for a generic z (its sign) and 0 for z = e_0.  So
    every [u]^[z-u] of a radical grading is a cycle, in every group."""
    spec = FormalSpec(3, radical=(0,))
    sub, u, z = spec.sub_coords, spec.generic("u").coords, spec.generic("z").coords
    e0 = spec.symbols()[0].coords
    return [("<u, z-u> = 0 in a radical grading",
             all(_boundary_terms(spec, key) == [(-spec.pair_coords(*key), (z,))]
                 for key in ((u, sub(z, u)), (sub(z, u), u)))
             and not any(_d2_coefficient(spec, key) for key in ((u, sub(e0, u)), (sub(e0, u), u))))]


def _kernel_identities(spec):
    """(name, holds) of the coordinate kernels against ``spec.canonical``
    and the Omega~ loop on all pairs of signed units (``spec.units``):
    what the formal identities read of a group."""
    n, om, canonical = spec.n_generators, spec.omega_tilde, spec.canonical
    units = [y.coords for y in spec.units]
    references = (
        ("add_coords = canonical a + b on signed units", spec.add_coords,
         lambda a, b: canonical([x + y for x, y in zip(a, b)]).coords),
        ("sub_coords = canonical a - b on signed units", spec.sub_coords,
         lambda a, b: canonical([x - y for x, y in zip(a, b)]).coords),
        ("pair_coords = a Omega~ b^T on signed units", spec.pair_coords,
         lambda a, b: sum(a[i] * om[i][j] * b[j]
                          for i in range(n) if a[i] for j in range(n) if b[j])))
    return [(name, all(kernel(a, b) == reference(a, b)
                       for a, b in itertools.product(units, repeat=2)))
            for name, kernel, reference in references]


def outer_h2_certify(spec, z, box_radius, proofs=None):
    """Certify H_2 = 0 in the outer grading z: the homotopy identity is
    proved over symbols and the group's coordinate kernels are checked
    (a failure raises CertificateError naming the identity), with no
    scan of the slice.  The identity bounds every cycle at once
    (d Phi2 c = c - Phi1 d c = c when d c = 0), so only the first five
    cycle basis vectors get a serialized witness, checked on integers."""
    if z.in_kernel_mu():
        raise ValueError("outer certification needs z outside ker mu")
    proofs = proofs or Proofs()
    result = _formal_check(
        "outer-exactness", {"spec": spec.label, "z": list(z.coords), "box": box_radius},
        [*proofs.cite(_kernel_identities, spec),
         ("Phi_1 d_2 + d_3 Phi_2 = id", proofs.cite(_homotopy_identity_holds))])

    # The y's are the first two units pairing nonzero with z (-y is one).
    pair, zc = spec.pair_coords, z.coords
    y = _partner(spec, z)
    ys = [y, next(x for x in spec.units if y < x and pair(x.coords, zc))]

    # d_2([u] ^ [v]) = -<u, v> [z], so the cycles miss one dimension when
    # some wedge has d_2 != 0.  The first one pivots, the next five others
    # give the witnesses, and the walk stops there: the slice is counted.
    pivot, others = None, []
    for key in _slice_keys(spec, box_radius, zc):
        d2 = _d2_coefficient(spec, key)
        if d2 and pivot is None:
            pivot = key, d2
        elif len(others) < 5:
            others.append((key, d2))
        if pivot is not None and len(others) == 5:
            break
    wedges = _slice_size(spec, box_radius, zc)
    cycle_dim = wedges - (pivot is not None)

    # A witness cycle c is den * c on integer keys (den = the pivot's d_2,
    # or 1 for a cycle wedge): d(scale * den * Phi_2(c)) = scale * den * c.
    hom = ContractingHomotopy(spec, z, ys[0])
    witnesses = []
    for key, d2 in others:
        cycle = {key: pivot[1], pivot[0]: -d2} if d2 else {key: 1}
        den = cycle[key]
        x = hom.phi2_keys(cycle)
        _require(_key_boundary(spec, x) == {k: hom.scale * c for k, c in cycle.items()},
                 "d(Phi_2(c)) = c")
        witnesses.append({"cycle": serialize_chain(cycle, den),
                          "preimage": serialize_chain(x, hom.scale * den)})

    result.details.update(wedges=wedges, cycle_dim=cycle_dim, bounded_cycles=cycle_dim,
                          h2_dim=0, y_choices=[list(y.coords) for y in ys],
                          witnesses=witnesses)
    return result


# ---------------------------------------------------------------------------
# The main decomposition per grading


def main_theorem_check(spec, gradings, box_radius):
    """Per grading: the truncated H_2 dimension against the predicted
    kernel-pair count plus the quotient dimension.  Returns one
    CheckResult per grading; a grading whose re-check fails gives a
    refuted entry naming the identity.  The gradings cite one ``Proofs``.

    A radical grading is read on one truncation, the inner cycle box
    (``_inner_radius``): its wedges, kernel pairs and boundary rank, so
    Z2 - B2 = H2 on its row.  One beyond that box is not applicable, as
    in the inner suite."""
    if spec.mu_is_zero():
        return [CheckResult(
            "main-theorem", _inner_params(spec, z, box_radius), NOT_APPLICABLE,
            {"note": "the form vanishes identically; the decomposition "
                     "hypothesis fails and the differential is zero",
             "h2_dim": _slice_size(spec, box_radius, z.coords)})
            for z in gradings]
    proofs = Proofs()
    reach = _inner_radius(spec, box_radius)
    return [_certify_or_refute(
        "main-theorem", functools.partial(_inner_params, spec, z, box_radius),
        _main_theorem_entry, spec, reach, z, box_radius, proofs) for z in gradings]


def _main_theorem_entry(spec, reach, z, box_radius, proofs):
    """The main-theorem entry of one grading of a nonzero form.  In a
    radical grading a wedge is all-radical or all-derived (z - u is
    radical exactly when u is) and a cycle by the radical lemma, so the
    radical wedges of the inner cycle box, whose (radius, cap) is
    ``reach``, are its slice less the derived wedges W."""
    params = _inner_params(spec, z, box_radius)
    if z.is_derived_element():
        outer = outer_h2_certify(spec, z, box_radius, proofs)
        return CheckResult(
            "main-theorem", params, outer.verdict,
            {"component": "outer", "h2_dim": 0,
             "predicted": 0,
             "cycle_dim": outer.details.get("cycle_dim")})

    radius, cap = reach
    if _beyond_inner_reach(spec, z, radius):
        return CheckResult("main-theorem", params, NOT_APPLICABLE,
                           {"note": _inner_reach_note(radius, cap), "effective_radius": radius})
    inner = inner_h2_certify(spec, z, box_radius, proofs)
    identities = inner.identities + _required(proofs.cite(_radical_identities))
    wedges_full = _slice_size(spec, radius, z.coords)
    kernel_pairs = wedges_full - len(inner.wedges)
    inner_res = inner.result

    certified = inner_res.verdict == CERTIFIED
    h2 = kernel_pairs + (len(inner.wedges) - inner.rank)
    predicted = kernel_pairs + inner.qspace.dim
    if certified and h2 != predicted:
        certified = False
    details = {
        "component": "inner",
        "wedges_full": wedges_full,
        "kernel_pairs": kernel_pairs,
        "derived_wedges": len(inner.wedges),
        "inner_dim": len(inner.wedges) - inner.rank,
        "quotient_dim": inner.qspace.dim,
        "h2_dim": h2,
        "predicted": predicted,
        "identities": identities,
        "inner": inner_res.details,
    }
    return CheckResult("main-theorem", params,
                       CERTIFIED if certified else INCONCLUSIVE, details)


# ---------------------------------------------------------------------------
# The g_K cycle


def gk_cycle_check(spec, u, z, box_radius):
    """The cycle ([2u]-2[u]) ^ ([z-2u]-2[z-u]+[z]) in C_2(g_K): both
    factors die under K, the chain is a cycle, and its derived
    projection differs from 6 [u] ^ [z-u] by an explicit boundary, whose
    pieces are summed over the lcm of their scales."""
    if u.in_kernel_mu():
        raise ValueError("u must pair nonzero with something")
    if not z.in_kernel_mu():
        raise ValueError("z must lie in ker mu")
    zc, uc = z.coords, u.coords
    params = {"u": list(uc), "z": list(zc), "box": box_radius}
    left = ((2 * u, 1), (u, -2))
    right = ((z - 2 * u, 1), (z - u, -2), (z, 1))
    factors_in_gk = in_gk(AlgebraVector(spec, left)) and in_gk(AlgebraVector(spec, right))

    chain = _wedge_keys(((x.coords, y.coords), cx * cy) for x, cx in left for y, cy in right)
    is_cycle = not _key_boundary(spec, chain)

    projected = {key: c for key, c in chain.items()
                 if all(GroupElement(spec, f).is_derived_element() for f in key)}
    target = _wedge_keys([*projected.items(), ((uc, (z - u).coords), -6)])
    # The difference splits over gradings z, z + u, z - u, in order of
    # first appearance; the z part is an ideal column and the shifted
    # parts bound through the homotopy.
    parts = {}
    for key, c in target.items():
        parts.setdefault(_key_grading(spec, key), {})[key] = c

    pieces, grading_notes = [], []
    part_z = parts.pop(zc, None)
    if part_z is not None:
        # The z part collapses to the ideal generator G(u, u), whose
        # probe witness runs through the units and needs no truncated span.
        found = part_z == _generator_keys(spec, zc, uc, uc) and _generator_witness(
            spec, zc, uc, uc, (y.coords for y in spec.units))
        if not found:
            return CheckResult(
                "gk-cycle", params, INCONCLUSIVE,
                {"note": "no boundary witness for the radical-grading part",
                 "factors_in_gk": factors_in_gk, "is_cycle": is_cycle})
        scale, keys = found
        _require(_key_boundary(spec, keys) == {key: scale * c for key, c in part_z.items()},
                 "d(witness) = radical-grading part")
        pieces.append(found)
        grading_notes.append({"grading": list(zc), "part": serialize_chain(part_z, 1)})
    for grading, part in parts.items():
        g = GroupElement(spec, grading)
        hom = ContractingHomotopy(spec, g, _partner(spec, g))
        _require(not _key_boundary(spec, part), "shifted part is a cycle")
        x = hom.phi2_keys(part)
        _require(_key_boundary(spec, x) == {key: hom.scale * c for key, c in part.items()},
                 "d(Phi_2(part)) = part")
        pieces.append((hom.scale, x))
        grading_notes.append({"grading": list(grading), "part": serialize_chain(part, 1)})

    den = math.lcm(*(scale for scale, _ in pieces))
    witness = _wedge_keys((key, den // scale * c)
                          for scale, keys in pieces for key, c in keys.items())
    total_ok = _key_boundary(spec, witness) == {key: den * c for key, c in target.items()}
    verdict = CERTIFIED if (factors_in_gk and is_cycle and total_ok) else REFUTED
    return CheckResult(
        "gk-cycle", params, verdict,
        {"factors_in_gk": factors_in_gk,
         "is_cycle": is_cycle,
         "projected_chain": serialize_chain(projected, 1),
         "difference_parts": grading_notes,
         "boundary_witness": serialize_chain(witness, den),
         "witness_verified": total_ok})


# ---------------------------------------------------------------------------
# Surface generator classes


def surface_generator_check(spec, g, r):
    """At the origin grading z = 0 of spec, the surface group of genus g
    with r boundary circles (``surface_presentation(g, r)``), the
    generator wedges [x] ^ [-x] span the inner homology slice, and each
    boundary-class decomposition

        [C_j] ^ [-C_j] - [C_j - A_g] ^ [A_g - C_j] - [A_g] ^ [-A_g]

    is the relation generator G(C_j - A_g, A_g).  The two derived
    decompositions (through A_g and through B_g) differ by
    -G(C_j - A_g, A_g - B_g) - G(A_g, -B_g); C_j is radical, so the pairs
    pair to <A_g, B_g> = 1 and -1 and the boundary witness is their two
    direct preimages.  Both closed forms are re-checked by expansion; no
    column search and no truncation is involved."""
    if g < 1:
        raise ValueError("the decomposition uses A_g; need genus >= 1")
    gens = spec.generators()
    names = spec.names
    z = spec.zero

    qspace = QuotientTensorSpace(spec, z)
    span = _IncrementalSpan()
    images = []
    for x, name in zip(gens, names):
        vec = qspace.proj(x)
        images.append({"class": name,
                       "image": [frac_str(v) for v in vec]})
        span.insert(dict(enumerate(vec)))
    span_ok = span.rank == qspace.dim

    a_g = gens[2 * (g - 1)]
    b_g = gens[2 * (g - 1) + 1]
    zc = z.coords
    decompositions = []
    for j in range(r):
        c_j = gens[2 * g + j]
        ca, cb = (c_j - a_g).coords, (c_j - b_g).coords
        diff = _cycle_keys(spec, zc, ((c_j.coords, 1), (ca, -1), (a_g.coords, -1)))
        _require(diff == _generator_keys(spec, zc, ca, a_g.coords),
                 "the decomposition is G(C_j - A_g, A_g)")

        # The two derived decompositions of the same quotient image
        # differ by a genuine boundary.
        delta = _cycle_keys(spec, zc, ((ca, 1), (a_g.coords, 1), (cb, -1), (b_g.coords, -1)))
        _require(not any(_f_terms(qspace, delta)),
                 "derived decompositions agree in the quotient")
        # Minus the direct preimages (-1/<u, v>) [u] ^ [v] ^ [-u-v] of the
        # two generators, whose pairs pair to 1 and -1.
        witness = _wedge_keys([((ca, (a_g - b_g).coords, (b_g - c_j).coords), 1),
                               ((a_g.coords, (-b_g).coords, (b_g - a_g).coords), -1)])
        _require(_key_boundary(spec, witness) == delta, "d(boundary witness) = derived difference")
        decompositions.append({
            "class": names[2 * g + j],
            "ideal_member": True,
            "ideal_witness": [["1", list(ca), list(a_g.coords)]],
            "derived_difference_bounds": True,
            "boundary_witness": serialize_chain(witness, 1)})

    return CheckResult(
        "surface-generators",
        {"genus": g, "boundary_components": r, "z": list(z.coords)},
        CERTIFIED if span_ok else REFUTED,
        {"generator_images": images,
         "image_rank": span.rank,
         "space_dim": qspace.dim,
         "spans": span_ok,
         "decompositions": decompositions})


# ---------------------------------------------------------------------------
# The linear extension lemma


def _integer_functional(spec, coeffs):
    """coordinates x -> sum of coeffs times the free coordinates of x."""
    return lambda x: sum(c * x[j] for c, j in zip(coeffs, spec.free_indices))


def linear_extension_check(spec, box_radius):
    """The linear extension lemma's identities for ``_integer_functional``
    with symbolic coefficients, on elements u, v, x with symbolic
    coordinates, and the bumped functional's failure (negative control);
    a zero form has no derived element, so nothing to extend."""
    params = {"spec": spec.label, "box": box_radius}
    if spec.mu_is_zero():
        return CheckResult("linear-extension", params, NOT_APPLICABLE,
                           {"note": "no derived elements: the form is zero"})
    formal = FormalSpec(2)
    u, v, x = (formal.generic(name) for name in "uvx")
    functional = _integer_functional(formal, [Poly.var("c%d" % j) for j in formal.free_indices])

    def f(y):
        return functional(y.coords)

    def bumped(y):
        return f(y) + (1 if y == u else 0)
    return _formal_check("linear-extension", params, [
        ("f(u+v) = f(u) + f(v)", f(u + v) == f(u) + f(v)),
        # Each step adds a pair that pairs nonzero: <u+v, x>, <u, v+x>, <v, x>.
        ("f(u+v) re-derived through a probe",
         all(formal.pairing(a, b) for a, b in ((u + v, x), (u, v + x), (v, x)))
         and f(u + v) == f(u + v + x) - f(x)
         and f(u + v + x) == f(u) + f(v + x)
         and f(v + x) == f(v) + f(x)),
        # <-u, u+x> = -<u, x> != 0.
        ("f(-u) = f(x) - f(u+x)", f(-u) == f(x) - f(u + x)),
        ("a functional bumped at u is not additive (negative control)",
         bumped(u + v) != bumped(u) + bumped(v)),
    ])


# ---------------------------------------------------------------------------
# The degree-3 cocycle

def _extended_gcd_vector(values):
    """Integers a with sum(a_i values_i) = g = gcd(values) >= 0, g = 0
    only for the zero vector: extended Euclid on (g, v) for each entry v."""
    coeffs, g = [0] * len(values), 0
    for i, v in enumerate(values):
        old_r, r, old_s, s, old_t, t = g, v, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        coeffs = [c * old_s for c in coeffs]
        coeffs[i], g = old_t, old_r
    return coeffs, g


def _omega(spec, key):
    """omega on the 3-wedge with this key (g_0, g_1, g_2): <g_0, g_1>."""
    return spec.pair_coords(key[0], key[1])


def _d_omega(spec, key):
    """d(omega) on the 4-wedge with this key: omega(d W), exact (an
    integer, or a polynomial over a ``FormalSpec``)."""
    return sum(c * _omega(spec, face) for c, face in _boundary_terms(spec, key))


def _scaled_primitive(f_num, g):
    """g * eta([u] ^ [z-u]) for the primitive eta = -2 f(u) + 1, where
    f(u) = f_num / g."""
    return -2 * f_num + g


def _scaled_d_eta(spec, key, f_num, g):
    """g * d(eta) on the 3-wedge with this key; f_num maps coordinates u
    to g * f(u)."""
    total = 0
    for c, (u, _) in _boundary_terms(spec, key):
        total += c * _scaled_primitive(f_num(u), g)
    return total


# Three (a, b, z) over FormalSpec(3, radical=(0,)), z a multiple of the
# radical symbol e_0: their 3-wedges [a]^[b]^[z-a-b] take every order
# branch of the degree-3 differential, which the unit basis does not.
_D3_BRANCH_CASES = (((-1, -1, -1), (-1, -1, 0), (1, 0, 0)),
                    ((-1, -1, -1), (-1, -1, 0), (-3, 0, 0)),
                    ((0, 1, -1), (1, -1, 2), (2, 0, 0)))


def _f_identity_holds():
    """True when the production ``f_on_ordered`` and differential give
    f(d(w)) = 0 on the 3-wedges of ``_D3_BRANCH_CASES``, with f the
    formal quotient that drops coordinate 0: the free additive map that
    kills z.  Then it holds for every additive f that kills z, in every
    group and radical grading.  Proved once per run through ``Proofs``."""
    spec = FormalSpec(3, radical=(0,))
    sub, quotient = spec.sub_coords, types.SimpleNamespace(proj_coords=lambda c: c[1:])
    for a, b, z in _D3_BRANCH_CASES:
        total = [Poly(), Poly()]
        for c, face in _boundary_terms(spec, _sort_sign((a, b, sub(sub(z, a), b)))[1]):
            for t, x in enumerate(f_on_ordered(quotient, face)):
                total[t] += c * x
        if any(total):
            return False
    return True


def _omega_identities(free):
    """(name, holds) of d(omega) = 0 and, for a free z, d(eta) = omega with
    f symbolic, through the production differential over symbols where
    e_0 is radical and z is a multiple of it: so they hold in every group
    and radical grading.  The unit basis z, a, b, c and its negative take
    every sign of the degree-4 differential, and ``_D3_BRANCH_CASES``
    every order branch of the degree-3 one.  Proved once per run through
    ``Proofs``."""
    spec = FormalSpec(4, radical=(0,))
    sub = spec.sub_coords
    closed = True
    for s in (1, -1):
        z, a, b, c = (tuple(s * (i == j) for i in range(4)) for j in range(4))
        closed = closed and not _d_omega(spec, _sort_sign((a, b, c, sub(sub(sub(z, a), b), c)))[1])
    identities = [("d(omega) = 0", closed)]
    if free:
        spec = FormalSpec(3, radical=(0,))
        sub, f = spec.sub_coords, _integer_functional(spec, [Poly.var("c%d" % j) for j in range(3)])
        primitive = True
        for a, b, z in _D3_BRANCH_CASES:
            key, g = _sort_sign((a, b, sub(sub(z, a), b)))[1], f(z)
            primitive = primitive and _scaled_d_eta(spec, key, f, g) == g * _omega(spec, key)
        identities.append(("d(eta) = omega", primitive))
    return identities


def _omega_rows(spec, z, n):
    """The rows {(u, v): coefficient} of the obstruction to a primitive
    eta of omega at a torsion z of order n, from the first pair a, b of
    units with <a, b> != 0.

    The row R(u, v) reads phi(u+v) - phi(u) - phi(v) = -1, for
    phi(x) = eta([x]^[z-x]).  With D(y) = phi(y+z) - phi(y),
    D(q) - D(p) = R(p+z, q-p) - R(p, q-p) = 0 when <p, q> != 0, and
    R(-a, b) + R(-b, a) + [D(a-b) - D(-a)] - [D(-b) - D(-a)]
    + (1/n) sum_{k<n} [D(b+kz) - D(-a)] has left side 0, since the
    D(b+kz) telescope to 0, and right side -2.  Equal rows are merged
    and zero rows dropped: at z = 0 only the two R rows are left.
    """
    a, b = next((a, b) for a, b in itertools.combinations(spec.units, 2) if spec.pairing(a, b))
    rows = collections.Counter({((-a).coords, b.coords): 1, ((-b).coords, a.coords): 1})
    for q, c in [(a - b, 1), (-b, -1)] + [(b + k * z, Fraction(1, n)) for k in range(n)]:
        rows[(z - a).coords, (q + a).coords] += c
        rows[(-a).coords, (q + a).coords] -= c
    return {uv: c for uv, c in rows.items() if c}


def _check_omega_rows(spec, z, rows):
    """Re-expand the rows {(u, v): c} on the wedge keys of [x]^[z-x], row
    (u, v) as G(u, v): each row has <u, v> != 0 and three distinct
    factors, the left sides cancel, and the right side -sum(c) does not."""
    sub, pair, zc = spec.sub_coords, spec.pair_coords, z.coords
    lhs = collections.Counter()
    for (u, v), c in rows.items():
        _require(pair(u, v) != 0, "<u, v> != 0 in every omega row")
        _require(len({u, v, sub(sub(zc, u), v)}) == 3, "three distinct factors in every omega row")
        for key, g in _generator_keys(spec, zc, u, v).items():
            lhs[key] += c * g
    _require(not any(lhs.values()), "the omega rows cancel on the left")
    _require(sum(rows.values()) != 0, "the omega rows sum to a nonzero right side")


def omega_check(spec, z, box_radius, proofs=None):
    """The cohomology class of omega in grading z: d(omega) = 0 is proved
    over symbols; torsion z yields a closed-form obstruction to any
    primitive (the class is nonzero), and non-torsion z the primitive
    eta = -2 f + 1 from an integer functional f with f(z) = 1, for
    which d(eta) = omega is proved over symbols (the class dies on the
    derived part).  Nothing depends on the box."""
    if not z.in_kernel_mu():
        raise ValueError("omega lives in radical gradings only")
    torsion, proofs = z.is_torsion(), proofs or Proofs()
    result = _formal_check("omega-class", {"spec": spec.label, "z": list(z.coords), "box": box_radius},
                           [*proofs.cite(_kernel_identities, spec),
                            *proofs.cite(_omega_identities, not torsion)])

    if torsion:
        if spec.mu_is_zero():
            raise ValueError("omega vanishes with the form: no pair a, b has <a, b> != 0")
        # n = ord(z): the lcm of d / gcd(d, z_j) over the torsion coordinates.
        n = math.lcm(*(d // math.gcd(d, z.coords[j]) for j, d in spec.torsion))
        rows = _omega_rows(spec, z, n)
        _check_omega_rows(spec, z, rows)
        result.details.update(
            conclusion="class is nonzero (no primitive exists)", z_is_torsion=True,
            certificate=[[frac_str(c), list(u), list(v)] for (u, v), c in rows.items()])
        return result

    # An integer functional with f(z) = g, so f / g takes z to 1.
    coeffs, g = _extended_gcd_vector([z.coords[j] for j in spec.free_indices])
    _require(g > 0, "gcd of the free coordinates of z > 0")
    _require(_integer_functional(spec, coeffs)(z.coords) == g, "f(z) = 1")
    result.details.update(
        conclusion="class vanishes on the derived part (explicit primitive)", z_is_torsion=False,
        primitive={"formula": "eta([u]^[z-u]) = -2 f(u) + 1",
                   "f_numerators": coeffs, "f_denominator": g})
    return result


# ---------------------------------------------------------------------------
# First homology


def h1_check(spec, box_radius, gradings, proofs=None):
    """Grading-wise H_1: dimension 1 on radical gradings, where every
    incoming differential -<u, z-u> [z] vanishes (the radical lemma), 0
    on derived ones, where [z] bounds [u]^[z-u] / -<u, z-u> for the
    first unit u with <u, z-u> = <u, z> != 0 (``_partner``).
    ``gradings`` None means the whole box."""
    if gradings is None:
        gradings = box_support(spec, box_radius)
    proofs = proofs or Proofs()
    result = _formal_check(
        "h1-center", {"spec": spec.label, "box": box_radius, "gradings": len(gradings)},
        [*proofs.cite(_kernel_identities, spec), *proofs.cite(_radical_identities)])
    entries = []
    for z in gradings:
        if z.in_kernel_mu():
            entries.append({"z": list(z.coords), "dim": 1, "expected": 1})
            continue
        u = _partner(spec, z)
        pair = spec.pairing(u, z - u)
        pre = _wedge_keys([((u.coords, (z - u).coords), -1)])
        _require(_key_boundary(spec, pre) == {(z.coords,): pair}, "d(preimage) = [z]")
        entries.append({"z": list(z.coords), "dim": 0, "expected": 0,
                        "preimage": serialize_chain(pre, pair)})
    result.details["per_grading"] = entries
    return result
