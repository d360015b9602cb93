"""Shared test helpers: a pool of small validated group presentations,
an independent Fraction reference for the CE differential, the paper's
maps that no command evaluates (the section g of f, the derived
projection and the cocycle omega), and source mutants of the production
code behind the formal identities."""

import inspect
import itertools
import math
import textwrap
from fractions import Fraction

from goldman.complexes import Cochain, WedgeChain, wedge_chain
from goldman.formal import Poly
from goldman.groups import GroupSpec, surface_presentation


def symplectic_z2():
    return GroupSpec(2, form=[[0, 1], [-1, 0]])


def z3_rank2_form():
    # Free rank 3 with a rank-2 form; e3 spans the free part of ker mu.
    return GroupSpec(3, form=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def z2_z2torsion():
    return GroupSpec(3, relations=[[0, 0, 2]],
                     form=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def scaled_blocks_z4():
    # Two symplectic blocks with pairing values 2 and 3.
    return GroupSpec(4, form=[[0, 2, 0, 0], [-2, 0, 0, 0],
                              [0, 0, 0, 3], [0, 0, -3, 0]])


def torsion_only():
    return GroupSpec(2, relations=[[4, 0], [0, 6]])


def spec_pool():
    """Validated presentations spanning free, torsion, and mixed cases."""
    return [
        symplectic_z2(),
        z3_rank2_form(),
        z2_z2torsion(),
        scaled_blocks_z4(),
        torsion_only(),
        surface_presentation(1, 2),
        surface_presentation(2, 3),
    ]


def random_element(rng, spec, radius=3):
    coords = [rng.randint(-radius, radius) for _ in range(spec.n_generators)]
    return spec.canonical(coords)


# ---------------------------------------------------------------------------
# An independent reference for the CE differential, in Fractions, written
# from the formula in the goldman.complexes docstring.  It shares nothing
# with the package's integer kernel: the pairing is read off Omega~ with a
# double loop, sums are reduced by GroupSpec.canonical, and signs come
# from counting inversions.


def reference_pairing(spec, x, y):
    """<x, y> = x Omega~ y^T on canonical coordinates."""
    om = spec.omega_tilde
    n = spec.n_generators
    return sum(x.coords[i] * om[i][j] * y.coords[j]
               for i in range(n) for j in range(n))


def reference_normalize(factors):
    """(sign, key) of [f_1] ^ ... ^ [f_p]: the sorted coordinate tuples
    and the parity of the sorting permutation; (0, None) on a repeat."""
    keys = [f.coords for f in factors]
    if len(set(keys)) < len(keys):
        return 0, None
    inversions = sum(1 for a, b in itertools.combinations(keys, 2) if a > b)
    return (-1) ** inversions, tuple(sorted(keys))


def reference_pair_coords(n, radical, a, b):
    """FormalSpec(n, radical).pair_coords as the pairwise sum it was,
    zero products included: P_i_j (a_i b_j - a_j b_i) over i < j off
    the radical."""
    return sum((Poly.var("P%d_%d" % (i, j)) * (a[i] * b[j] - a[j] * b[i])
                for i, j in itertools.combinations(range(n), 2)
                if i not in radical and j not in radical), Poly())


# The five contracting homotopy coefficients, in front of Phi_1 and the
# four Phi_2 terms, as the ContractingHomotopy docstring writes them.
HOMOTOPY_COEFFICIENTS = {"phi1": Fraction(-1), "shift_first": Fraction(-1),
                         "shift_second": Fraction(-1), "shift_both": Fraction(1),
                         "tail": Fraction(1)}


def reference_homotopy_factors(coefficients):
    """A stand-in for verify._homotopy_factors with any rational
    coefficients: lam -> (D, scaled) for the five factors phi1/lam,
    shift_first/lam, shift_second/lam, shift_both/(2 lam) and
    tail/(2 lam^2), D the lcm of their denominators.  For a formal lam
    (a ``Poly``), D = 2 lam^2 and the scaled factors are polynomials
    with rational coefficients."""
    def factors(lam):
        co = coefficients
        if isinstance(lam, Poly):
            return 2 * lam * lam, (2 * co["phi1"] * lam, 2 * co["shift_first"] * lam,
                                   2 * co["shift_second"] * lam, co["shift_both"] * lam,
                                   co["tail"])
        lam = Fraction(lam)
        qs = (co["phi1"] / lam, co["shift_first"] / lam, co["shift_second"] / lam,
              co["shift_both"] / (2 * lam), co["tail"] / (2 * lam * lam))
        scale = math.lcm(*(q.denominator for q in qs))
        return scale, tuple((q * scale).numerator for q in qs)
    return factors


def reference_boundary(spec, factors, coeff=1):
    """d(coeff [f_1] ^ ... ^ [f_p]) as {key: Fraction}: the sum over
    i < j of (-1)^(i+j) <f_i, f_j> [f_i + f_j] ^ (rest), 1-based indices,
    rest in its original order after the new factor."""
    if not reference_normalize(factors)[0]:
        return {}
    out = {}
    for i, j in itertools.combinations(range(len(factors)), 2):
        pair = reference_pairing(spec, factors[i], factors[j])
        total = [a + b for a, b in zip(factors[i].coords, factors[j].coords)]
        rest = [spec.canonical(total)]
        rest.extend(f for k, f in enumerate(factors) if k not in (i, j))
        sign, key = reference_normalize(rest)
        if pair and sign:
            term = Fraction(coeff) * (-1) ** ((i + 1) + (j + 1)) * pair * sign
            out[key] = out.get(key, 0) + term
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# The paper's maps that no command evaluates, as chains and a cochain.


def project_derived(c):
    """Term-wise projection killing every wedge with a radical factor:
    the chain-level projection onto wedges of derived labels."""
    spec = c.spec
    return WedgeChain(spec, c.degree, {
        key: coeff for key, coeff in c.terms.items()
        if all(spec.canonical(list(f)).is_derived_element() for f in key)})


def g_map(qspace, terms):
    """The section of f: (coeff, (u_1, ..., u_{p-1})) terms map to

        coeff [u_1] ^ ... ^ [u_{p-1}] ^ [z - u_1 - ... - u_{p-1}],

    with wedges containing a radical factor projected away (the target
    complex has derived labels only).  In degree 2, f(g(t)) = t when the
    lifts are derived."""
    spec, z = qspace.spec, qspace.z
    out = WedgeChain(spec, len(terms[0][1]) + 1)
    for coeff, lifts in terms:
        last = z
        for u in lifts:
            last = last - u
        out = out + project_derived(wedge_chain(spec, [*lifts, last], coeff))
    return out


def omega_cocycle(spec, z):
    """The cocycle omega([u],[v],[w]) = <u, v> on grading-z 3-wedges,
    read on the stored factor order with ``reference_pairing``.

    Alternating consistency of the value needs z in ker mu: swapping v
    and w changes <u, v> to <u, w> = -<u, v> exactly because
    <u, v + w> = <u, z - u> = 0."""
    if not z.in_kernel_mu():
        raise ValueError("omega needs z in ker mu")

    def rule(key):
        u, v, w = (spec.canonical(list(f)) for f in key)
        if u + v + w != z:
            raise ValueError("wedge is not graded at z")
        return reference_pairing(spec, u, v)

    return Cochain(spec, 3, rule=rule)


# ---------------------------------------------------------------------------
# Source mutants: a function recompiled with exact snippets replaced.


def source_mutant(fn, replacements):
    """fn recompiled from its dedented source with each (old, new) of
    ``replacements`` applied (each old occurring once), in a copy of its
    module's globals.  A snippet that does not occur once raises
    ValueError, also in the ``python -O`` scripts, where an assert would
    be stripped and the unmutated function handed back."""
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in replacements:
        if source.count(old) != 1:
            raise ValueError("snippet does not occur once: %r" % old)
        source = source.replace(old, new)
    namespace = dict(fn.__globals__)
    exec(source, namespace)
    return namespace[fn.__name__]


# A sign flip in each of the six unrolled degree-3 terms of
# complexes._boundary_terms.
D3_SIGN_FLIPS = [
    ("out.append((-coeff, (total, c)) if", "out.append((coeff, (total, c)) if"),
    ("else (coeff, (c, total)))", "else (-coeff, (c, total)))"),
    ("out.append((coeff, (total, b)) if", "out.append((-coeff, (total, b)) if"),
    ("else (-coeff, (b, total)))", "else (coeff, (b, total)))"),
    ("out.append((-coeff, (total, a)) if", "out.append((coeff, (total, a)) if"),
    ("else (coeff, (a, total)))", "else (-coeff, (a, total)))"),
]

# A sign flip in each of the nine signs of the unrolled degree-4 branch:
# the six base signs (-1)^(i+j), then the three placements of the sum.
D4_SIGN_FLIPS = [
    ("((-1, a, b, c, d)", "((1, a, b, c, d)"),
    ("(1, a, c, b, d)", "(-1, a, c, b, d)"),
    ("(-1, a, d, b, c)", "(1, a, d, b, c)"),
    ("(-1, b, c, a, d)", "(1, b, c, a, d)"),
    ("(1, b, d, a, c)", "(-1, b, d, a, c)"),
    ("(-1, c, d, a, b))", "(1, c, d, a, b))"),
    ("((sign * coeff, (total, r0, r1)))", "((-sign * coeff, (total, r0, r1)))"),
    ("((-sign * coeff, (r0, total, r1)))", "((sign * coeff, (r0, total, r1)))"),
    ("((sign * coeff, (r0, r1, total)))", "((-sign * coeff, (r0, r1, total)))"),
]

_FACTORS = "(-2 * lam, -2 * lam, -2 * lam, lam, 1)"

HOMOTOPY_IDENTITY = "Phi_1 d_2 + d_3 Phi_2 = id"

# Mutants of the code behind the formal outer identity: name -> (the
# function, as a dotted name in goldman.verify, and its replacements).
# Each one breaks HOMOTOPY_IDENTITY over symbols.
OUTER_MUTANTS = {
    "scale": ("_homotopy_factors", [("return 2 * lam * lam", "return -2 * lam * lam")]),
    "phi1": ("_homotopy_factors", [(_FACTORS, "(2 * lam, -2 * lam, -2 * lam, lam, 1)")]),
    "shift_first": ("_homotopy_factors", [(_FACTORS, "(-2 * lam, 2 * lam, -2 * lam, lam, 1)")]),
    "shift_second": ("_homotopy_factors", [(_FACTORS, "(-2 * lam, -2 * lam, 2 * lam, lam, 1)")]),
    "shift_both": ("_homotopy_factors", [(_FACTORS, "(-2 * lam, -2 * lam, -2 * lam, -lam, 1)")]),
    "tail": ("_homotopy_factors", [(_FACTORS, "(-2 * lam, -2 * lam, -2 * lam, lam, -1)")]),
    **{"d3-sign-%d" % i: ("_boundary_terms", [flip]) for i, flip in enumerate(D3_SIGN_FLIPS)},
    "swap-uy-vy": ("ContractingHomotopy._scaled_phi2",
                   [("uy = spec.sub_coords(u, y)", "uy = spec.sub_coords(v, y)"),
                    ("vy = spec.sub_coords(v, y)", "vy = spec.sub_coords(u, y)")]),
    "drop-tail-term": ("ContractingHomotopy._scaled_phi2",
                       [("if tail and sign:", "if False:")]),
}


D_OMEGA, D_ETA = "d(omega) = 0", "d(eta) = omega"
RADICAL_PAIRING = "<u, z-u> = 0 in a radical grading"

# Mutants of the code behind the formal omega and h1 identities: name ->
# (the function, as for OUTER_MUTANTS, its replacements, and the
# identity each suite's entry must name when it is refuted).
OMEGA_MUTANTS = {
    **{"d4-sign-%d" % i: ("_boundary_terms", [flip], {"omega": D_OMEGA})
       for i, flip in enumerate(D4_SIGN_FLIPS)},
    **{"d3-sign-%d" % i: ("_boundary_terms", [flip], {"omega": D_ETA})
       for i, flip in enumerate(D3_SIGN_FLIPS)},
    **{"primitive" + name: ("_scaled_primitive", [("-2 * f_num + g", new)], {"omega": D_ETA})
       for name, new in (("+2f-g", "2 * f_num - g"), ("+2f+g", "2 * f_num + g"),
                         ("-2f-g", "-2 * f_num - g"))},
    "omega-reads-g0-g2": ("_omega", [("key[0], key[1]", "key[0], key[2]")], {"omega": D_ETA}),
    "radical-dropped": ("FormalSpec.__init__",
                        [("if i not in radical and j not in radical", "if True")],
                        {"omega": D_OMEGA, "h1": RADICAL_PAIRING}),
}


UNIT_PARTNER = "a unit pairs nonzero with a derived z"

# Mutants of the unit lemma and the radical lemma: name -> (the function,
# as for OUTER_MUTANTS, its replacements, and the identity each suite's
# entry must name when refuted; "homology" stands for the main-theorem
# entry of a radical grading).  The first one leaves ``_partner`` the
# radical units only, so no derived grading finds its y or u; the second
# flips the sign of d_2.
LEMMA_MUTANTS = {
    "units-radical-only": ("_partner", [("in spec.units", "in spec.units if y.in_kernel_mu()")],
                           {"outer": UNIT_PARTNER, "h1": UNIT_PARTNER, "gk": UNIT_PARTNER}),
    "d2-sign": ("_boundary_terms", [("[(-coeff, (add(a, b),))]", "[(coeff, (add(a, b),))]")],
                {"h1": RADICAL_PAIRING, "homology": RADICAL_PAIRING}),
}


F_ADDITIVE = "proj_coords is additive on signed units"
F_KILLS_BOUNDARIES = "f(d(w)) = 0"
# The identities every inner entry requires, in order.
INNER_IDENTITIES = ["add_coords = canonical a + b on signed units",
                    "sub_coords = canonical a - b on signed units",
                    "pair_coords = a Omega~ b^T on signed units", F_ADDITIVE, F_KILLS_BOUNDARIES]

_PROJ_SUM = "sum(c * a for c, a in zip(coords, col) if c)"

# Mutants of the code behind the inner f identities: name -> (the
# function, as for OUTER_MUTANTS, its replacements, and the identity the
# inner and main-theorem entries must name when refuted).  That the
# projection kills z is QuotientTensorSpace's own check.  Not listed,
# because harmless: f_on_ordered reading key[1], which is -f and has the
# same kernel.
INNER_MUTANTS = {
    **{"d3-sign-%d" % i: ("_boundary_terms", [flip], F_KILLS_BOUNDARIES)
       for i, flip in enumerate(D3_SIGN_FLIPS)},
    "radical-dropped": ("FormalSpec.__init__",
                        [("if i not in radical and j not in radical", "if True")],
                        F_KILLS_BOUNDARIES),
    "proj-squared": ("QuotientTensorSpace.proj_coords",
                     [(_PROJ_SUM, "(%s) ** 2" % _PROJ_SUM)], F_ADDITIVE),
    "proj-misses-z": ("QuotientTensorSpace.proj_coords",
                      [(_PROJ_SUM, "%s + coords[-1]" % _PROJ_SUM)],
                      "z survived its own quotient"),
}


def outer_mutant(name):
    """(owner, attribute, mutated function) for OUTER_MUTANTS[name], ready
    for ``monkeypatch.setattr`` or ``mock.patch.object``."""
    return verify_mutant(*OUTER_MUTANTS[name])


def omega_mutant(name):
    """(owner, attribute, mutated function) for OMEGA_MUTANTS[name]."""
    return verify_mutant(*OMEGA_MUTANTS[name][:2])


def verify_mutant(path, replacements):
    """(owner, attribute, mutated function) for the function at ``path``
    in goldman.verify with ``replacements`` applied."""
    from goldman import verify
    *owners, attr = path.split(".")
    owner = verify
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr, source_mutant(getattr(owner, attr), replacements)
