"""Shared test helpers: a pool of small validated group presentations,
an independent Fraction reference for the CE differential, and source
mutants of the production outer homotopy."""

import inspect
import itertools
import math
import textwrap
from fractions import Fraction

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
# Source mutants: a function recompiled with exact snippets replaced.


def source_mutant(fn, replacements):
    """fn recompiled from its dedented source with each (old, new) of
    ``replacements`` applied (each old occurring once), in a copy of its
    module's globals."""
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in replacements:
        assert source.count(old) == 1, old
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


def outer_mutant(name):
    """(owner, attribute, mutated function) for OUTER_MUTANTS[name], ready
    for ``monkeypatch.setattr`` or ``mock.patch.object``."""
    from goldman import verify
    path, replacements = OUTER_MUTANTS[name]
    *owners, attr = path.split(".")
    owner = verify
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr, source_mutant(getattr(owner, attr), replacements)
