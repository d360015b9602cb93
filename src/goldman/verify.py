"""Certified homology computations for Q[H] on truncated supports.

The graded pieces of the CE complex of Q[H] are infinite dimensional,
so every statement here is certified on a finite box with exact
witnesses.  The certification patterns are:

* Inner gradings (z in ker mu).  Every degree-2 wedge [u] ^ [z-u] is a
  cycle, and the quotient map

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
  {key: Fraction} (``goldman.complexes``).  Every kept column is
  checked on integers: d of the keys, read on the rows of W, is scale
  times the vector, every key lies in the boundary box, and f summed
  over its rows is 0.  So the columns span a subspace of ker(f), and a
  boundary rank equal to dim ker(f) certifies that they span all of
  it.  No chain is built for a column; the column matrix and a chain
  are built only when a boundary witness is asked for.

  The rows of W are indexed heavy first.  Each row r = [a]^[z-a] with a
  unit step e (an element of box(1) that is a factor of W) such that
  x = a - e is a factor of W, x != e, and the rows of x and e come
  after r, has the triangular column G(x, e): +-1 on r and 0 before
  it.  These come first, lightest row first, so each pivots on its own
  row with a unit lead and the span stays in integers.  The fill comes
  from every other pair, by weight sum and then by index, one weight
  level at a time; each unordered pair is offered once, so a pair
  without a witness is never offered again.  The search is exact
  elimination over Q (the one kernel of ``goldman.linalg``), and the
  order changes which columns are kept, not the argument.  The
  certification needs f in degree 2 only, where f([u] ^ [z-u]) = 1 (x) u
  is the integer coordinate vector of u in H / Zz; f(d(w)) = 0 on
  3-wedges is a sampled scan that builds no boundary box.

* Outer gradings (z not in ker mu).  A contracting homotopy (Phi_1,
  Phi_2) built from any y with <y, z> != 0 satisfies
  Phi_1 d_2 + d_3 Phi_2 = id on the whole graded slice, verified wedge
  by wedge, so every cycle c bounds via d_3 Phi_2(c) = c.  The five
  homotopy coefficients are fixed (``_DEFAULT_HOMOTOPY``), and a wedge
  on which the identity fails refutes the grading.  The coefficients
  have denominators dividing 2 lam^2 (lam = <y, z>); multiplied by D,
  the lcm of their denominators, every term of
  D (Phi_1 d_2 + d_3 Phi_2 - id)(w) is an integer.  The check sums those
  terms in one integer dict over wedge keys and tests it for zero,
  which is exact over Z; the scan walks the keys (u, z-u) of the
  slice.  Each distinct boundary is computed once, while every wedge
  is still checked in full: d_2 of a key once per grading (both y's and
  the cycle space share it), d_3 of the tail wedge once per homotopy,
  and d_3 of a shift term once for the two wedges whose Phi_2 contains
  it.  The five reported cycle witnesses c are key dicts too, c times
  its denominator; d(D Phi_2(c)) = D c is checked on integers, and
  Fractions are built only to serialize them.

* The degree-3 cocycle omega([u],[v],[z-u-v]) = <u, v>.  For torsion z
  a closed-form combination of the rows of a primitive eta
  (``_omega_rows``) has left side 0 and right side -2, so no primitive
  exists on any box; the rows are re-expanded on wedge keys.  For
  non-torsion z a primitive is written down from a linear functional
  with f(z) = 1 and checked on every box triple.  Both scans are
  integer sums: d(omega)(w) = omega(d w) has integer terms, and with
  f = (integer functional) / g the primitive scan compares g d(eta)(w)
  with g omega(w), both integers.  No floats and no modulus enter
  either scan; every zero test is exact over Z.  Both scans read
  ``enumerate_keys``, the last factor from the whole box.

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
import os
import random
from fractions import Fraction

from goldman.algebra import AlgebraVector, in_gk
from goldman.complexes import (
    Cochain,
    WedgeChain,
    _boundary_terms,
    _key_boundary,
    _key_grading,
    _sort_sign,
    _box_ranges,
    _box_size,
    boundary,
    box_by_weight,
    box_support,
    enumerate_basis,
    enumerate_keys,
    project_derived,
    wedge_chain,
)
from goldman.groups import GroupElement, smith_normal_form, surface_presentation
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
    "QuotientTensorSpace",
    "f_map",
    "f_on_ordered",
    "g_map",
    "ideal_membership",
    "ContractingHomotopy",
    "contracting_homotopy",
    "InnerCertification",
    "inner_h2_certify",
    "outer_h2_certify",
    "main_theorem_check",
    "gk_cycle_check",
    "surface_generator_check",
    "linear_extension_check",
    "omega_cocycle",
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
    coordinates...]] pairs in key order: ``WedgeChain.terms`` with den 1,
    or integer key terms over their denominator.  Each coefficient is
    built once, and with den 1 not at all."""
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


def fan_out(fn, items):
    """[fn(x) for x in items], in input order, for independent units (the
    one queue of ``verify`` or the gradings of ``homology``): in forked
    workers (``goldman.pool``) with two or more items and CPUs in the
    affinity mask, else here, with the same results (`taskset -c 0`)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(items), cpus)
    if workers < 2:
        return [fn(x) for x in items]
    from goldman import pool
    return pool.fan_out(fn, items, workers)


# ---------------------------------------------------------------------------
# The quotient space Q (x) (H / Zz) and the maps f, g


class QuotientTensorSpace:
    """Coordinates on Q (x) (H / Zz) for a fixed grading z.

    Built from the Smith normal form of the relation matrix of H
    augmented with (a lift of) z: the free canonical coordinates of the
    augmented presentation are exactly Q (x) (H / Zz).  The projection
    kills z and all torsion, and ``basis_lifts`` are elements of H
    mapping to the standard basis.
    """

    __slots__ = ("spec", "z", "dim", "_proj_cols", "basis_lifts")

    def __init__(self, spec, z):
        if z.spec is not spec:
            raise ValueError("grading belongs to a different group")
        self.spec = spec
        self.z = z
        n = spec.n_generators
        rows = [list(r) for r in spec.relations]
        rows.append(list(z.lift()))
        snf = smith_normal_form(rows, n_cols=n)
        free = [j for j, d in enumerate(snf.diagonal) if d == 0]
        self.dim = len(free)
        # proj(x) = (lift(x) V')_free with lift(x) = coords(x) V^{-1} of
        # the group; relation-lattice vectors have zero free coordinates,
        # so this is well defined on H.  Both maps are integer, so their
        # product acts on canonical coordinates directly.
        lift = spec._v_inv
        self._proj_cols = [
            tuple(sum(lift[i][k] * snf.V[k][j] for k in range(n)) for i in range(n))
            for j in free]
        self.basis_lifts = [spec.element(snf.V_inv[j]) for j in free]
        _require(not any(self.proj(z)), "z survived its own quotient")
        for t, E in enumerate(self.basis_lifts):
            _require(self.proj(E) == tuple(int(s == t) for s in range(self.dim)),
                     "basis lifts map to the standard basis")

    def proj(self, x):
        """The image of x in Q (x) (H / Zz), a tuple of ints."""
        return self.proj_coords(x.coords)

    def proj_coords(self, coords):
        """proj of the element with these canonical coordinates."""
        return tuple(sum(c * a for c, a in zip(coords, col) if c)
                     for col in self._proj_cols)


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
    z = qspace.z.coords
    out = [0] * qspace.dim
    for key, coeff in c.terms.items():
        if _key_grading(c.spec, key) != z:
            raise ValueError("chain term graded at %r, expected %r"
                             % (_key_grading(c.spec, key), z))
        for j, x in enumerate(f_on_ordered(qspace, key)):
            out[j] += coeff * x
    return tuple(out)


def g_map(qspace, terms):
    """The section of f: (coeff, (u_1, ..., u_{p-1})) terms map to

        coeff [u_1] ^ ... ^ [u_{p-1}] ^ [z - u_1 - ... - u_{p-1}],

    with wedges containing a radical factor projected away (the target
    complex has derived labels only).  In degree 2, f_map(g_map(t)) = t
    when the lifts are derived.
    """
    spec = qspace.spec
    z = qspace.z
    out = None
    for coeff, lifts in terms:
        lifts = list(lifts)
        total = spec.zero
        for u in lifts:
            total = total + u
        factors = lifts + [z - total]
        piece = project_derived(wedge_chain(spec, factors, coeff))
        out = piece if out is None else out + piece
    if out is None:
        raise ValueError("empty tensor expression; pass at least one term")
    return out


# ---------------------------------------------------------------------------
# Ideal membership

# Generator of the relation ideal: for labels u, v in grading z,
#   G(u, v) = [u+v] ^ [z-u-v] - [u] ^ [z-u] - [v] ^ [z-v].


def _ideal_generator(spec, z, u, v):
    return (wedge_chain(spec, [u + v, z - u - v])
            - wedge_chain(spec, [u, z - u])
            - wedge_chain(spec, [v, z - v]))


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

# The five homotopy coefficients, the one place they live: every
# ContractingHomotopy reads them when it is built.
_DEFAULT_HOMOTOPY = {
    "phi1": Fraction(-1),
    "shift_first": Fraction(-1),
    "shift_second": Fraction(-1),
    "shift_both": Fraction(1),
    "tail": Fraction(1),
}


class ContractingHomotopy:
    """Operators Phi_1: C_1 -> C_2 and Phi_2: C_2 -> C_3 in grading z.

    For y with lam = <y, z> != 0 and the coefficients of
    ``_DEFAULT_HOMOTOPY``:

        Phi_1([z])      = (phi1/lam) [y] ^ [z-y]
        Phi_2([u]^[v])  = (shift_first/lam)  [y] ^ [u-y] ^ [v]
                        + (shift_second/lam) [y] ^ [u]   ^ [v-y]
                        + (shift_both/2lam)  [2y] ^ [u-y] ^ [v-y]
                        + (tail <u-y, v-y> / 2 lam^2) [y] ^ [2y] ^ [z-3y]

    Phi_1 d_2 + d_3 Phi_2 = id holds on every basis wedge of the slice.
    ``key_defect`` measures its failure on a wedge key as an integer
    dict, and ``identity_defect`` as a chain; a nonzero defect refutes
    the certificate.

    The five rational factors in front of the wedges are scaled by
    ``scale``, the lcm of their denominators, so the operators are
    evaluated on integer coefficients over wedge keys (sorted tuples of
    coordinate tuples) and divided by ``scale`` only when a chain is
    returned.

    d_3 of a Phi_2 term depends only on its key, so a scan of the slice
    computes each distinct one once.  The tail wedge is the same for
    every [u] ^ [v]; its boundary is taken at construction and only
    rescaled per wedge.  The first term of (u, v), [y] ^ [u-y] ^ [v], is
    the second term of (u-y, v+y), so the two shift terms keep their
    boundaries in ``_shared`` until that one reuse and then drop them,
    which keeps the dict small.
    """

    __slots__ = ("spec", "z", "y", "lam", "scale", "_scaled",
                 "_y2c", "_phi1_term", "_tail_term", "_tail_d3", "_shared")

    def __init__(self, spec, z, y):
        if z.in_kernel_mu():
            raise ValueError("grading lies in ker mu; the homotopy needs <y, z> != 0")
        lam = spec.pairing(y, z)
        if lam == 0:
            raise ValueError("y pairs to zero with the grading")
        self.spec = spec
        self.z = z
        self.y = y
        self.lam = Fraction(lam)
        co, lam = _DEFAULT_HOMOTOPY, self.lam
        factors = (co["phi1"] / lam, co["shift_first"] / lam,
                   co["shift_second"] / lam, co["shift_both"] / (2 * lam),
                   co["tail"] / (2 * lam * lam))
        self.scale = math.lcm(*(q.denominator for q in factors))
        self._scaled = tuple((q * self.scale).numerator for q in factors)
        self._y2c = (2 * y).coords
        self._phi1_term = _sort_sign((y.coords, (z - y).coords))
        self._tail_term = _sort_sign((y.coords, self._y2c, (z - 3 * y).coords))
        sign, key = self._tail_term
        self._tail_d3 = _boundary_terms(spec, key) if sign else []
        self._shared = {}

    def _check_graded(self, keys):
        """Raise ValueError unless every 2-wedge key (u, v) has grading z."""
        if any(self.spec.add_coords(*key) != self.z.coords for key in keys):
            raise ValueError("chain is not graded at z")

    def _chain(self, scaled, degree):
        """The WedgeChain of {key: scale * coefficient}."""
        return WedgeChain.from_keys(self.spec, degree,
                                    {key: Fraction(c, self.scale)
                                     for key, c in scaled.items()})

    def _scaled_phi2(self, u, v):
        """(integer coefficient, key) terms of scale * Phi_2([u] ^ [v])."""
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

    def _scaled_image(self, key, d2):
        """scale * (Phi_1 d_2 + d_3 Phi_2) of the wedge with key (u, v),
        as {key: integer}, some entries possibly zero; ``d2`` is the [z]
        coefficient of d_2 of the wedge."""
        acc = {}
        sign, phi1_key = self._phi1_term
        if sign and self._scaled[0] and d2:
            acc[phi1_key] = sign * self._scaled[0] * d2
        spec, get, shared = self.spec, acc.get, self._shared
        tail_key, y = self._tail_term[1], self.y.coords
        for coeff, key3 in self._scaled_phi2(*key):
            # d_3 of the Phi_2 term: the tail's is precomputed, and a
            # shift term (one with the factor [y] that is not the tail)
            # is shared with one other wedge.
            if key3 == tail_key:
                terms = self._tail_d3
            elif y not in key3:
                terms = _boundary_terms(spec, key3)
            else:
                terms = shared.pop(key3, None)
                if terms is None:
                    terms = shared[key3] = _boundary_terms(spec, key3)
            for bc, key2 in terms:
                acc[key2] = get(key2, 0) + coeff * bc
        return acc

    def phi2_keys(self, terms):
        """scale * Phi_2 of the grading-z chain {2-key: coefficient}, as
        {3-key: nonzero coefficient}: the one Phi_2, which ``phi2`` and
        the outer cycle witnesses both evaluate."""
        acc = {}
        for key, coeff in terms.items():
            for scaled, key3 in self._scaled_phi2(*key):
                acc[key3] = acc.get(key3, 0) + coeff * scaled
        return {key: c for key, c in acc.items() if c}

    def phi2(self, c):
        if c.degree != 2:
            raise ValueError("Phi_2 consumes degree-2 chains")
        self._check_graded(c.terms)
        return self._chain(self.phi2_keys(c.terms), 3)

    def key_defect(self, key, d2=None):
        """scale * (Phi_1 d_2 + d_3 Phi_2 - id) of the grading-z wedge
        with key (u, v), as {key: nonzero integer}.

        Every term is an integer, so the sum is exact and the dict is
        empty exactly when the identity holds on the wedge.  ``d2``, the
        [z] coefficient of d_2 of the wedge, is computed when not given.
        """
        if d2 is None:
            d2 = _d2_coefficient(self.spec, key)
        acc = self._scaled_image(key, d2)
        acc[key] = acc.get(key, 0) - self.scale
        return {k: c for k, c in acc.items() if c}

    def identity_defect(self, key):
        """(Phi_1 d_2 + d_3 Phi_2 - id) of the basis wedge with this key,
        as a chain."""
        self._check_graded([key])
        return self._chain(self.key_defect(key), 2)


def _d2_coefficient(spec, key):
    """The [z] coefficient of d_2 of the 2-wedge with this key."""
    return sum(coeff for coeff, _ in _boundary_terms(spec, key))


def contracting_homotopy(spec, z, search_radius):
    """A ContractingHomotopy for grading z with y the smallest box
    element pairing nonzero with z."""
    for y in box_support(spec, search_radius):
        if spec.pairing(y, z) != 0:
            return ContractingHomotopy(spec, z, y)
    raise ValueError("no element pairing nonzero with z in the search box")


# ---------------------------------------------------------------------------
# Inner gradings: explicit boundary columns up to the quotient dimension


# The most elements an inner cycle box may hold: the radius is reduced
# until the box fits (``effective_radius``).
INNER_SUPPORT_CAP = 1200


def _pair_order(weights):
    """Index pairs (i, j), i <= j, in the order of (w_i + w_j, i, j).

    ``weights`` must be non-decreasing (elements in ``sort_key`` order,
    where the index order is the key order).  Pairs are produced one
    weight-sum level at a time from the runs of equal weight, so a
    consumer that stops early never pays for the rest.
    """
    runs = {}
    for i, w in enumerate(weights):
        start, _ = runs.get(w, (i, i))
        runs[w] = (start, i + 1)
    levels = sorted(runs)
    for total in sorted({a + b for a in levels for b in levels if a <= b}):
        for a in levels:
            b = total - a
            if b < a:
                break
            if b not in runs:
                continue
            (a_start, a_stop), (b_start, b_stop) = runs[a], runs[b]
            for i in range(a_start, a_stop):
                for j in range(max(i, b_start), b_stop):
                    yield i, j


class InnerCertification:
    """Certified data for one inner grading z in ker mu.

    Holds the derived wedge basis W on the cycle box, the quotient
    space Q (x) (H / Zz), and an explicit list of boundary columns
    (vec, witness): the integer vector of G(u, v) over W and a key
    witness (scale, keys) whose boundary is scale * vec, with every key
    on the boundary box.  Their span reaches dim ker(f) inside span(W)
    when the verdict is certified.
    """

    __slots__ = ("spec", "z", "box_radius", "boundary_radius",
                 "effective_radius", "support", "wedges", "rows",
                 "qspace", "columns", "rank", "target_rank",
                 "f_rank", "box_image_rank", "result")

    def __init__(self, spec, z, box_radius):
        if not z.in_kernel_mu():
            raise ValueError("inner certification needs z in ker mu")
        self.spec = spec
        self.z = z
        self.box_radius = box_radius
        self.boundary_radius = 3 * box_radius

        self.effective_radius = _capped_radius(spec, box_radius, INNER_SUPPORT_CAP)
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
        self._certify(weight)

    # -- construction -----------------------------------------------------

    def _witness_for(self, u, v, probes):
        """A key witness (scale, keys) of G(u, v), or None; u, v and the
        probes are coordinate tuples."""
        return _generator_witness(self.spec, self.z.coords, u, v, probes)

    def _certify(self, weight):
        spec, z = self.spec, self.z
        # The factors of W, in sort_key order (weight, then coordinates).
        elements = sorted({f for key in self.wedges for f in key},
                          key=lambda f: (weight[f], f))
        probes = [x.coords for x in box_by_weight(spec, self.effective_radius)
                  if x != spec.zero][:80]

        f_rows = [f_on_ordered(self.qspace, key) for key in self.wedges]
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

        # box(1) in weight order, each e with the row of [e]^[z-e] (-1
        # off W); the unit steps are the e on a row, the factors of W.
        units = [(e.coords, v_row(e.coords)[0]) for e in box_by_weight(spec, 1)]
        seeds = self._triangular_pairs(v_row, units, weight)
        seeded = set(seeds)
        fill = ((elements[i], elements[j])
                for i, j in _pair_order([weight[x] for x in elements]))
        self.columns, self.rank = self._column_pass(
            itertools.chain(seeds, (uv for uv in fill if uv not in seeded)),
            v_row, probes, f_rows)

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

    def _triangular_pairs(self, v_row, units, weight):
        """The pair (x, e) of each row's triangular column G(x, e), as
        coordinate tuples in sort_key order, lightest row first.

        For the row r = [a]^[z-a], and for each factor a of it in turn, e
        is the first of ``units`` (pairs of e and the row of [e]^[z-e])
        with x = a - e a factor of W, x != e, and the rows of [x]^[z-x]
        and [e]^[z-e] both after r.  G(x, e) is then +-1 on r and 0 on
        every row before it, so columns fed from the last row up each
        pivot on their own row with a unit lead.
        """
        sub = self.spec.sub_coords
        pairs = []
        for r in range(len(self.wedges) - 1, -1, -1):
            found = next(((x, e) for a in self.wedges[r] for e, row in units if row > r
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
            witness = self._witness_for(u, v, probes)
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

    def scan_f_kills_boundaries(self):
        """Check f(d(w)) = 0 for the degree-3 derived wedges w of the
        boundary box (capped at 20000 elements) with two factors in a
        pool.  Returns (checked, exhaustive).

        With at most F_SCAN_EXHAUSTIVE derived elements in the box, the
        pool is all of them and the scan is exhaustive; else it is the
        F_SCAN_POOL lightest ones.  Those lie in box(r) for the least r
        whose elements of weight <= r include F_SCAN_POOL derived ones,
        or in the whole box when no r up to its radius does (the weight
        is an l1 size, the box a max-norm box).  So the boundary box is
        never built: its derived elements are counted lazily, and the
        third factor is tested for membership on its coordinates.

        The scan runs on wedge keys: f of a 2-wedge key (a, b) is the
        integer coordinate vector proj(a), so f(d(w)) is an integer sum
        over ``_boundary_terms``.  proj is computed once per coordinate
        tuple.  It keeps its own pair walk: a triple counts once any two
        of its factors lie in the pool, which ``enumerate_keys`` does not
        walk, so moving it would change the reported wedge count."""
        spec, zc = self.spec, self.z.coords
        free, pair, sub = spec.free_indices, spec.pair_coords, spec.sub_coords
        radius = _capped_radius(spec, self.boundary_radius, 20000)
        units = [tuple(int(i == j) for i in range(len(zc))) for j in range(len(zc))]
        member = functools.cache(lambda x: all(abs(x[t]) <= radius for t in free)
                                 and any(pair(x, e) for e in units))
        exhaustive = sum(1 for _ in itertools.islice(
            filter(member, itertools.product(*_box_ranges(spec, radius))),
            F_SCAN_EXHAUSTIVE + 1)) <= F_SCAN_EXHAUSTIVE
        for r in range(radius if exhaustive else 0, radius + 1):
            pool = [x.coords for x in box_by_weight(spec, r)
                    if x.is_derived_element() and (r == radius or x.weight() <= r)]
            if len(pool) >= F_SCAN_POOL:
                break
        keys = {}
        for u, v in itertools.combinations(pool if exhaustive else pool[:F_SCAN_POOL], 2):
            w = sub(sub(zc, u), v)
            if w != u and w != v and member(w):
                keys.setdefault(_sort_sign((u, v, w))[1])
        proj = functools.cache(self.qspace.proj_coords)
        for key in keys:
            total = [0] * self.qspace.dim
            for coeff, (a, _) in _boundary_terms(spec, key):
                for t, x in enumerate(proj(a)):
                    total[t] += coeff * x
            _require(not any(total), "f(d(w)) = 0")
        return len(keys), exhaustive


def _inner_params(spec, z, box_radius):
    """The params of an inner entry: the grading, the cycle box and the
    boundary box, whatever the verdict."""
    return {"spec": spec.describe()["group"], "z": list(z.coords),
            "box": box_radius, "boundary_box": 3 * box_radius}


def inner_h2_certify(spec, z, box_radius):
    """Certify the inner grading z: boundaries exhaust ker(f) on the box
    and the homology slice has the quotient dimension.  Returns an
    InnerCertification; its ``result`` is the report entry."""
    return InnerCertification(spec, z, box_radius)


# ---------------------------------------------------------------------------
# Outer gradings


def outer_h2_certify(spec, z, box_radius):
    """Certify H_2 = 0 in the outer grading z: the homotopy identity per
    basis wedge for two choices of y.  The identity bounds every cycle
    at once (d Phi2 c = c - Phi1 d c = c when d c = 0), so only the
    first five cycle basis vectors get an explicit serialized witness.
    The scan and the witnesses run on wedge keys and build no wedge.  If
    the identity fails on any wedge for some y, the entry is refuted."""
    if z.in_kernel_mu():
        raise ValueError("outer certification needs z outside ker mu")
    support = box_support(spec, box_radius)
    keys = list(enumerate_keys(spec, [x.coords for x in support], 2, z.coords))
    # d_2([u] ^ [v]) = -<u, v> [z], one coefficient per wedge, shared by
    # every y and by the cycle space below.
    d2s = [_d2_coefficient(spec, key) for key in keys]

    # The y's are the first ones in weight order that pair nonzero with z.
    pair, zc = spec.pair_coords, z.coords
    ys = list(itertools.islice(
        (y for y in box_by_weight(spec, max(box_radius, 1)) if pair(y.coords, zc)),
        2))
    if not ys:
        raise ValueError("no y with <y, z> != 0 in the box")

    per_y = []
    for y in ys:
        hom = ContractingHomotopy(spec, z, y)
        holds = not any(hom.key_defect(key, d2) for key, d2 in zip(keys, d2s))
        hom._shared.clear()   # left by wedges whose partner lies outside the box
        per_y.append((hom, {"y": list(y.coords), "wedges_checked": len(keys),
                            "identity_holds": holds}))

    params = {"spec": spec.describe()["group"], "z": list(z.coords), "box": box_radius}
    if not all(entry["identity_holds"] for _, entry in per_y):
        return CheckResult("outer-exactness", params, REFUTED,
                           {"per_y": [e for _, e in per_y],
                            "note": "homotopy identity failed"})

    # d_2 to C_1 is one coordinate (the [z] coefficient), so the cycle
    # space misses one dimension whenever some wedge hits it.  A dense
    # kernel basis would be quadratic in the wedge count; sparse pair
    # vectors against the pivot column are enough for the samples.
    pivot = next((col for col, d2 in enumerate(d2s) if d2), None)
    cycle_dim = len(keys) - (1 if pivot is not None else 0)

    # A witness cycle c is held as den * c on integer keys (den = d2s[pivot],
    # or 1 for a cycle column): d(scale * den * Phi_2(c)) = scale * den * c.
    hom = per_y[0][0]
    witnesses = []
    for col in itertools.islice((col for col in range(len(keys)) if col != pivot), 5):
        cycle = ({keys[col]: d2s[pivot], keys[pivot]: -d2s[col]} if d2s[col]
                 else {keys[col]: 1})
        den = cycle[keys[col]]
        x = hom.phi2_keys(cycle)
        _require(_key_boundary(spec, x) == {key: hom.scale * c for key, c in cycle.items()},
                 "d(Phi_2(c)) = c")
        witnesses.append({"cycle": serialize_chain(cycle, den),
                          "preimage": serialize_chain(x, hom.scale * den)})

    details = {
        "wedges": len(keys),
        "cycle_dim": cycle_dim,
        "bounded_cycles": cycle_dim,
        "h2_dim": 0,
        "y_choices": [list(y.coords) for y in ys],
        "per_y": [e for _, e in per_y],
        "witnesses": witnesses,
    }
    return CheckResult("outer-exactness", params, CERTIFIED, details)


# ---------------------------------------------------------------------------
# The main decomposition per grading


def main_theorem_check(spec, gradings, box_radius):
    """Per grading: the truncated H_2 dimension against the predicted
    kernel-pair count plus the quotient dimension.  Returns one
    CheckResult per grading; a grading whose re-check fails gives a
    refuted entry naming the identity."""
    support = box_support(spec, box_radius)
    if spec.mu_is_zero():
        return [CheckResult(
            "main-theorem", _inner_params(spec, z, box_radius), NOT_APPLICABLE,
            {"note": "the form vanishes identically; the decomposition "
                     "hypothesis fails and the differential is zero",
             "h2_dim": len(enumerate_basis(support, 2, z))})
            for z in gradings]
    return fan_out(lambda z: _certify_or_refute(
        "main-theorem", functools.partial(_inner_params, spec, z, box_radius),
        _main_theorem_entry, spec, support, z, box_radius), gradings)


def _main_theorem_entry(spec, support, z, box_radius):
    """The main-theorem entry of one grading of a nonzero form."""
    params = _inner_params(spec, z, box_radius)
    if z.is_derived_element():
        outer = outer_h2_certify(spec, z, box_radius)
        return CheckResult(
            "main-theorem", params, outer.verdict,
            {"component": "outer", "h2_dim": 0,
             "predicted": 0,
             "cycle_dim": outer.details.get("cycle_dim")})

    radical = {x.coords for x in support if x.in_kernel_mu()}
    full = radical_wedges = 0
    for u, v in enumerate_keys(spec, [x.coords for x in support], 2, z.coords):
        # The radical is a subgroup, so z - u lies in it exactly when u
        # does: every wedge is all-radical or all-derived, never mixed.
        _require((u in radical) == (v in radical), "no mixed wedge in a radical grading")
        # All grading-z wedges are cycles; verify rather than assume.
        _require(not _d2_coefficient(spec, (u, v)), "d([u]^[z-u]) = 0 in a radical grading")
        full += 1
        radical_wedges += u in radical

    kernel_pairs = sum(1 for _ in enumerate_keys(spec, sorted(radical), 2, z.coords))
    _require(kernel_pairs == radical_wedges, "radical-pool enumeration = radical wedges")

    inner = inner_h2_certify(spec, z, box_radius)
    inner_res = inner.result
    checked, exhaustive = inner.scan_f_kills_boundaries()

    certified = inner_res.verdict == CERTIFIED
    h2 = radical_wedges + (len(inner.wedges) - inner.rank)
    predicted = kernel_pairs + inner.qspace.dim
    if certified and h2 != predicted:
        certified = False
    details = {
        "component": "inner",
        "wedges_full": full,
        "kernel_pairs": kernel_pairs,
        "derived_wedges": len(inner.wedges),
        "inner_dim": len(inner.wedges) - inner.rank,
        "quotient_dim": inner.qspace.dim,
        "h2_dim": h2,
        "predicted": predicted,
        "f_boundary_scan": {"wedges": checked, "exhaustive": exhaustive},
        "inner": inner_res.details,
    }
    return CheckResult("main-theorem", params,
                       CERTIFIED if certified else INCONCLUSIVE, details)


# ---------------------------------------------------------------------------
# The g_K cycle


def _vector_wedge(a, b):
    """The chain expansion of (vector a) ^ (vector b) in C_2."""
    spec = a.spec
    out = WedgeChain(spec, 2)
    for x, cx in a.terms.items():
        for y, cy in b.terms.items():
            out = out + wedge_chain(spec, [x, y], cx * cy)
    return out


def gk_cycle_check(spec, u, z, box_radius):
    """The cycle ([2u]-2[u]) ^ ([z-2u]-2[z-u]+[z]) in C_2(g_K): both
    factors die under K, the chain is a cycle, and its derived
    projection differs from 6 [u] ^ [z-u] by an explicit boundary."""
    if u.in_kernel_mu():
        raise ValueError("u must pair nonzero with something")
    if not z.in_kernel_mu():
        raise ValueError("z must lie in ker mu")
    left = AlgebraVector.basis(2 * u) - 2 * AlgebraVector.basis(u)
    right = (AlgebraVector.basis(z - 2 * u)
             - 2 * AlgebraVector.basis(z - u)
             + AlgebraVector.basis(z))
    factors_in_gk = in_gk(left) and in_gk(right)

    chain = _vector_wedge(left, right)
    is_cycle = boundary(chain).is_zero()

    projected = project_derived(chain)
    target = projected - 6 * wedge_chain(spec, [u, z - u])

    # The difference splits over gradings z, z + u, z - u; the z part is
    # an ideal column and the shifted parts bound through the homotopy.
    radius = max(box_radius, 2 * max((abs(c) for c in u.coords), default=1))
    witness = WedgeChain(spec, 3)
    grading_notes = []
    remaining = target
    part_z = target.graded_part(z)
    if not part_z.is_zero():
        # The z part collapses to the ideal generator G(u, u), whose
        # probe witness runs through box(1) and needs no truncated span.
        piece = None
        gen = _ideal_generator(spec, z, u, u)
        if part_z == gen:
            found = _generator_witness(spec, z.coords, u.coords, u.coords,
                                       [x.coords for x in box_by_weight(spec, 1)])
            if found is not None:
                piece = _key_chain(spec, [(1, found)])
        if piece is None:
            return CheckResult(
                "gk-cycle",
                {"u": list(u.coords), "z": list(z.coords), "box": box_radius},
                INCONCLUSIVE,
                {"note": "no boundary witness for the radical-grading part",
                 "factors_in_gk": factors_in_gk, "is_cycle": is_cycle})
        _require(boundary(piece) == part_z, "d(witness) = radical-grading part")
        witness = witness + piece
        remaining = remaining - part_z
        grading_notes.append({"grading": list(z.coords),
                              "part": serialize_chain(part_z.terms, 1)})
    while not remaining.is_zero():
        g = GroupElement(spec, _key_grading(spec, next(iter(remaining.terms))))
        part = remaining.graded_part(g)
        hom = contracting_homotopy(spec, g, radius)
        _require(boundary(part).is_zero(), "shifted part is a cycle")
        piece = hom.phi2(part)
        _require(boundary(piece) == part, "d(Phi_2(part)) = part")
        witness = witness + piece
        remaining = remaining - part
        grading_notes.append({"grading": list(g.coords),
                              "part": serialize_chain(part.terms, 1)})

    total_ok = boundary(witness) == target
    verdict = CERTIFIED if (factors_in_gk and is_cycle and total_ok) else REFUTED
    return CheckResult(
        "gk-cycle",
        {"u": list(u.coords), "z": list(z.coords), "box": box_radius},
        verdict,
        {"factors_in_gk": factors_in_gk,
         "is_cycle": is_cycle,
         "projected_chain": serialize_chain(projected.terms, 1),
         "difference_parts": grading_notes,
         "boundary_witness": serialize_chain(witness.terms, 1),
         "witness_verified": total_ok})


# ---------------------------------------------------------------------------
# Surface generator classes


def surface_generator_check(g, r):
    """At the origin grading z = 0, the generator wedges [x] ^ [-x] of a
    surface group span the inner homology slice, and each boundary-class
    decomposition

        [C_j] ^ [-C_j] - [C_j - A_g] ^ [A_g - C_j] - [A_g] ^ [-A_g]

    is the relation generator G(C_j - A_g, A_g).  The two derived
    decompositions (through A_g and through B_g) differ by
    -G(C_j - A_g, A_g - B_g) - G(A_g, -B_g); C_j is radical, so the pairs
    pair to <A_g, B_g> = 1 and -1 and the boundary witness is their two
    direct preimages.  Both closed forms are re-checked by expansion; no
    column search and no truncation is involved."""
    if g < 1:
        raise ValueError("the decomposition uses A_g; need genus >= 1")
    spec = surface_presentation(g, r)
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
    decompositions = []
    for j in range(r):
        c_j = gens[2 * g + j]
        diff = (wedge_chain(spec, [c_j, -c_j])
                - wedge_chain(spec, [c_j - a_g, a_g - c_j])
                - wedge_chain(spec, [a_g, -a_g]))
        _require(diff == _ideal_generator(spec, z, c_j - a_g, a_g),
                 "the decomposition is G(C_j - A_g, A_g)")

        # The two derived decompositions of the same quotient image
        # differ by a genuine boundary.
        delta = ((wedge_chain(spec, [c_j - a_g, a_g - c_j])
                  + wedge_chain(spec, [a_g, -a_g]))
                 - (wedge_chain(spec, [c_j - b_g, b_g - c_j])
                    + wedge_chain(spec, [b_g, -b_g])))
        _require(not any(f_map(delta, qspace)),
                 "derived decompositions agree in the quotient")
        # Minus the direct preimages (-1/<u, v>) [u] ^ [v] ^ [-u-v] of the
        # two generators, whose pairs pair to 1 and -1.
        witness = (wedge_chain(spec, [c_j - a_g, a_g - b_g, b_g - c_j])
                   - wedge_chain(spec, [a_g, -b_g, b_g - a_g]))
        _require(boundary(witness) == delta, "d(boundary witness) = derived difference")
        decompositions.append({
            "class": names[2 * g + j],
            "ideal_member": True,
            "ideal_witness": [["1", list((c_j - a_g).coords), list(a_g.coords)]],
            "derived_difference_bounds": True,
            "boundary_witness": serialize_chain(witness.terms, 1)})

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
    """x -> sum of coeffs times the free coordinates of x."""
    free = spec.free_indices

    def f(x):
        return sum(c * x.coords[j] for c, j in zip(coeffs, free))
    return f


def linear_extension_check(spec, box_radius, trials, seed):
    """Additivity on nonzero-pairing pairs extends linearly: sampled
    integer functionals pass the hypothesis, the conclusions, and the
    constructive re-derivation chains; one deliberately perturbed
    functional fails the hypothesis (negative control)."""
    if box_radius < 1:
        raise ValueError("the box must contain the generators")
    rng = random.Random(seed)
    box = box_by_weight(spec, box_radius)
    derived = [x for x in box if x.is_derived_element()]
    params = {"spec": spec.describe()["group"], "box": box_radius,
              "trials": trials, "seed": seed}
    if not derived:
        return CheckResult("linear-extension", params, NOT_APPLICABLE,
                           {"note": "no derived elements: the form is zero"})

    # Pairs come from the smallest derived elements: squaring the whole
    # derived box reaches hundreds of millions of pairs on rank-6 groups.
    pool = derived[:60]
    probe_box = box[:200]
    hot_pairs = []
    for u in pool:
        for v in pool:
            if spec.pairing(u, v) != 0:
                hot_pairs.append((u, v))
    zero_pairs = [(u, v) for u in pool for v in pool
                  if spec.pairing(u, v) == 0 and (u + v).is_derived_element()]

    def probe_for(u, v):
        s = u + v
        for x in probe_box:
            if (spec.pairing(u, x) != 0 and spec.pairing(v, x) != 0
                    and spec.pairing(s, x) != 0):
                return x
        return None

    checked = {"hypothesis": 0, "additive": 0, "scaling": 0,
               "chain_sum": 0, "chain_negation": 0}
    for _ in range(trials):
        coeffs = [rng.randint(-5, 5) for _ in spec.free_indices]
        f = _integer_functional(spec, coeffs)
        for u, v in rng.sample(hot_pairs, min(40, len(hot_pairs))):
            _require(f(u + v) == f(u) + f(v), "f(u+v) = f(u) + f(v) when <u, v> != 0")
            checked["hypothesis"] += 1
        for u, v in rng.sample(zero_pairs, min(20, len(zero_pairs))):
            _require(f(u + v) == f(u) + f(v), "f(u+v) = f(u) + f(v) when <u, v> = 0")
            checked["additive"] += 1
            x = probe_for(u, v)
            if x is not None:
                # Re-derive f(u+v) using only nonzero-pairing additivity:
                # f(u+v) = f(u+v+x) - f(x), f(u+v+x) = f(u) + f(v+x),
                # f(v+x) = f(v) + f(x).
                derived_value = (f(u) + (f(v) + f(x))) - f(x)
                _require(derived_value == f(u + v), "f(u+v) re-derived through a probe")
                checked["chain_sum"] += 1
        for _ in range(10):
            u = pool[rng.randrange(len(pool))]
            n = rng.choice([-3, -2, -1, 2, 3])
            _require(f(n * u) == n * f(u), "f(n u) = n f(u)")
            checked["scaling"] += 1
        u = pool[rng.randrange(len(pool))]
        x = next((x for x in probe_box if spec.pairing(u, x) != 0), None)
        if x is not None:
            # f(-u) = f(x) - f(u+x): valid since <-u, u+x> = -<u, x> != 0.
            _require(f(x) - f(u + x) == f(-u), "f(-u) = f(x) - f(u+x)")
            checked["chain_negation"] += 1

    # Negative control: bump one value on a nonzero-pairing pair.
    u0, v0 = hot_pairs[0]
    base = _integer_functional(spec, [1] + [0] * (len(spec.free_indices) - 1))
    def bumped(x):
        return base(x) + (1 if x == u0 else 0)
    control_fails = bumped(u0 + v0) != bumped(u0) + bumped(v0)

    verdict = CERTIFIED if control_fails else REFUTED
    return CheckResult(
        "linear-extension", params, verdict,
        {"checks": checked,
         "functionals": trials,
         "pair_pool": len(pool),
         "negative_control_detected": control_fails})


# ---------------------------------------------------------------------------
# The degree-3 cocycle

# The cocycle scan keeps a weight-order prefix of at most about
# OMEGA_SCAN_BUDGET ** (1/3) elements; the primitive scan of a
# non-torsion grading pairs the first OMEGA_PRIMITIVE_POOL.
OMEGA_SCAN_BUDGET = 10 ** 6
OMEGA_PRIMITIVE_POOL = 350
# The inner f-boundary scan pairs the F_SCAN_POOL lightest derived
# elements of its box, or all of them when there are at most
# F_SCAN_EXHAUSTIVE (632 ** 2 <= 400000 < 633 ** 2).
F_SCAN_POOL = 63
F_SCAN_EXHAUSTIVE = 632


def omega_cocycle(spec, z):
    """The cocycle omega([u],[v],[w]) = <u, v> on grading-z 3-wedges.

    Alternating consistency of the value needs z in ker mu: swapping v
    and w changes <u, v> to <u, w> = -<u, v> exactly because
    <u, v + w> = <u, z - u> = 0.
    """
    if not z.in_kernel_mu():
        raise ValueError("omega needs z in ker mu")

    def rule(key):
        if _key_grading(spec, key) != z.coords:
            raise ValueError("wedge is not graded at z")
        return spec.pair_coords(key[0], key[1])

    return Cochain(spec, 3, rule=rule)


def _extended_gcd_vector(values):
    """Integers a with sum(a_i values_i) = gcd(values) > 0."""
    coeffs = [0] * len(values)
    g = 0
    for i, v in enumerate(values):
        if v == 0:
            continue
        if g == 0:
            g = abs(v)
            coeffs = [0] * len(values)
            coeffs[i] = 1 if v > 0 else -1
            continue
        a, b = g, v
        # Extended Euclid for (g, v).
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        coeffs = [c * old_s for c in coeffs]
        coeffs[i] = old_t
        g = old_r
    return coeffs, g


def _omega_cocycle_scan(spec, z, radius):
    """Exhaustively verify d(omega) = 0 on 4-wedges from a weight-order
    prefix of box(radius) sized to OMEGA_SCAN_BUDGET; returns (checked, pool
    size).  The scan runs on coordinate tuples and every value is an
    exact integer."""
    pool = box_by_weight(spec, radius)
    members = {x.coords for x in pool}
    while len(pool) ** 3 > OMEGA_SCAN_BUDGET and len(pool) > 8:
        pool = pool[: len(pool) * 9 // 10]
    # Three factors from the prefix; the fourth, determined by z, from
    # the whole box.
    checked = 0
    for key in enumerate_keys(spec, sorted(x.coords for x in pool), 4, z.coords, members):
        _require(_d_omega(spec, key) == 0, "d(omega) = 0")
        checked += 1
    return checked, len(pool)


def _d_omega(spec, key):
    """d(omega) on the 4-wedge with this key: omega(d W), an integer,
    with omega of a key (g_0, g_1, g_2) equal to <g_0, g_1>."""
    pair = spec.pair_coords
    total = 0
    for c, (g0, g1, _) in _boundary_terms(spec, key):
        total += c * pair(g0, g1)
    return total


def _scaled_primitive(f_num, g):
    """g * eta([u] ^ [z-u]) for the primitive eta = -2 f(u) + 1, where
    f(u) = f_num / g."""
    return -2 * f_num + g


def _scaled_d_eta(spec, key, f_num, g):
    """g * d(eta) on the 3-wedge with this key, an integer; f_num maps
    coordinates u to g * f(u)."""
    total = 0
    for c, (u, _) in _boundary_terms(spec, key):
        total += c * _scaled_primitive(f_num(u), g)
    return total


def _omega_rows(spec, z, n):
    """The rows {(u, v): coefficient} of the obstruction to a primitive
    eta of omega at a torsion z of order n, from the first pair a, b of
    box(1) with <a, b> != 0.

    The row R(u, v) reads phi(u+v) - phi(u) - phi(v) = -1, for
    phi(x) = eta([x]^[z-x]).  With D(y) = phi(y+z) - phi(y),
    D(q) - D(p) = R(p+z, q-p) - R(p, q-p) = 0 when <p, q> != 0, and
    R(-a, b) + R(-b, a) + [D(a-b) - D(-a)] - [D(-b) - D(-a)]
    + (1/n) sum_{k<n} [D(b+kz) - D(-a)] has left side 0, since the
    D(b+kz) telescope to 0, and right side -2.  Equal rows are merged
    and zero rows dropped: at z = 0 only the two R rows are left.
    """
    a, b = next((a, b) for a, b in itertools.combinations(box_by_weight(spec, 1), 2)
                if spec.pairing(a, b))
    rows = collections.Counter({((-a).coords, b.coords): 1, ((-b).coords, a.coords): 1})
    for q, c in [(a - b, 1), (-b, -1)] + [(b + k * z, Fraction(1, n)) for k in range(n)]:
        rows[(z - a).coords, (q + a).coords] += c
        rows[(-a).coords, (q + a).coords] -= c
    return {uv: c for uv, c in rows.items() if c}


def _check_omega_rows(spec, z, rows):
    """Re-expand the rows {(u, v): c} on the wedge keys of [x]^[z-x]:
    each row has <u, v> != 0 and three distinct factors, the left sides
    cancel, and the right side -sum(c) does not."""
    add, sub, pair, zc = spec.add_coords, spec.sub_coords, spec.pair_coords, z.coords
    lhs = collections.Counter()
    for (u, v), c in rows.items():
        _require(pair(u, v) != 0, "<u, v> != 0 in every omega row")
        _require(len({u, v, sub(sub(zc, u), v)}) == 3, "three distinct factors in every omega row")
        for x, outer_sign in ((add(u, v), 1), (u, -1), (v, -1)):
            sign, key = _sort_sign((x, sub(zc, x)))
            if sign:
                lhs[key] += c * outer_sign * sign
    _require(not any(lhs.values()), "the omega rows cancel on the left")
    _require(sum(rows.values()) != 0, "the omega rows sum to a nonzero right side")


def omega_check(spec, z, box_radius):
    """The cohomology class of omega in grading z: torsion z yields a
    closed-form obstruction to any primitive (the class is nonzero);
    non-torsion z yields an explicit primitive eta verified on every box
    triple (the class dies on the derived part)."""
    if not z.in_kernel_mu():
        raise ValueError("omega lives in radical gradings only")
    cocycle_checked, cocycle_pool = _omega_cocycle_scan(spec, z, box_radius)
    params = {"spec": spec.describe()["group"], "z": list(z.coords),
              "box": box_radius}

    if z.is_torsion():
        if spec.mu_is_zero():
            raise ValueError("omega vanishes with the form: no pair a, b has <a, b> != 0")
        # n = ord(z): the lcm of d / gcd(d, z_j) over the torsion coordinates.
        n = math.lcm(*(d // math.gcd(d, z.coords[j]) for j, d in spec.torsion))
        rows = _omega_rows(spec, z, n)
        _check_omega_rows(spec, z, rows)
        return CheckResult(
            "omega-class", params, CERTIFIED,
            {"conclusion": "class is nonzero (no primitive exists)",
             "z_is_torsion": True,
             "cocycle_scan": {"wedges": cocycle_checked, "pool": cocycle_pool},
             "certificate": [[frac_str(c), list(u), list(v)] for (u, v), c in rows.items()]})

    # Non-torsion z: take an integer functional with f(z) = 1 (allowing
    # denominators) and set eta([u] ^ [z-u]) = -2 f(u) + 1; then
    # d(eta) = omega on every grading-z triple.  Scaled by g, both sides
    # are integers.
    zfree = [z.coords[j] for j in spec.free_indices]
    coeffs, g = _extended_gcd_vector(zfree)
    _require(g > 0, "gcd of the free coordinates of z > 0")

    def f_num(x):
        return sum(c * x[j] for c, j in zip(coeffs, spec.free_indices))

    _require(f_num(z.coords) == g, "f(z) = 1")
    # The boundary terms of the scan share their factors: f is evaluated
    # once per coordinate tuple, and the primitive still per term.
    f_values = functools.cache(f_num)

    # Two factors from the pool; the third, determined by z, from the
    # whole box.
    ordered = box_by_weight(spec, box_radius)
    pool = ordered[:OMEGA_PRIMITIVE_POOL]
    checked = 0
    for key in enumerate_keys(spec, sorted(x.coords for x in pool), 3, z.coords,
                              {x.coords for x in ordered}):
        _require(_scaled_d_eta(spec, key, f_values, g) == g * spec.pair_coords(*key[:2]),
                 "d(eta) = omega")
        checked += 1
    return CheckResult(
        "omega-class", params, CERTIFIED,
        {"conclusion": "class vanishes on the derived part (explicit primitive)",
         "z_is_torsion": False,
         "cocycle_scan": {"wedges": cocycle_checked, "pool": cocycle_pool},
         "primitive": {"formula": "eta([u]^[z-u]) = -2 f(u) + 1",
                       "f_numerators": coeffs, "f_denominator": g},
         "triples_checked": checked,
         "scan_pool": len(pool)})


# ---------------------------------------------------------------------------
# First homology


def h1_check(spec, box_radius, gradings):
    """Grading-wise H_1: dimension 1 on radical gradings (all incoming
    differentials vanish, checked on the first 500 box elements), 0 on
    derived ones, where [z] bounds [u]^[z-u] / -<u, z-u> for the first u
    of box(1) with <u, z-u> = <u, z> != 0, which a derived z always has.
    ``gradings`` None means the whole box."""
    if gradings is None:
        gradings = box_support(spec, box_radius)
    scan = box_by_weight(spec, box_radius)[:500]
    units = box_by_weight(spec, 1)
    entries = []
    for z in gradings:
        if z.in_kernel_mu():
            for u in scan:
                _require(spec.pairing(u, z - u) == 0, "<u, z-u> = 0 in a radical grading")
            entries.append({"z": list(z.coords), "dim": 1, "expected": 1,
                            "incoming_coefficients_scanned": len(scan)})
            continue
        u = next((u for u in units if spec.pairing(u, z - u) != 0), None)
        _require(u is not None, "a unit u with <u, z-u> != 0 in a derived grading")
        pre = wedge_chain(spec, [u, z - u], Fraction(-1, spec.pairing(u, z - u)))
        _require(boundary(pre) == wedge_chain(spec, [z]), "d(preimage) = [z]")
        entries.append({"z": list(z.coords), "dim": 0, "expected": 0,
                        "preimage": serialize_chain(pre.terms, 1)})
    return CheckResult(
        "h1-center",
        {"spec": spec.describe()["group"], "box": box_radius,
         "gradings": len(entries)},
        CERTIFIED, {"per_grading": entries})
