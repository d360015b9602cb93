"""Q[H] arithmetic: the bracket, the map K, and g_K membership."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from goldman.algebra import AlgebraVector, bracket, in_gk, k_map
from goldman.complexes import WedgeChain, box_by_weight, wedge_chain
from goldman.groups import GroupSpec, surface_presentation

from conftest import random_element, spec_pool

POOL = spec_pool()


@st.composite
def vector_pair(draw, max_terms=3):
    """Two vectors over a common spec, small coordinates and coefficients."""
    spec = draw(st.sampled_from(POOL))
    n = spec.n_generators

    def one():
        terms = []
        for _ in range(draw(st.integers(1, max_terms))):
            coords = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
            terms.append((spec.canonical(coords), coeff))
        return AlgebraVector(spec, terms)

    return one(), one()


@st.composite
def single_term_triple(draw):
    spec = draw(st.sampled_from(POOL))
    n = spec.n_generators
    out = []
    for _ in range(3):
        coords = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        out.append(AlgebraVector.basis(spec.canonical(coords)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Bracket values


def test_bracket_symplectic_hand_values():
    z2 = POOL[0]
    x = AlgebraVector.basis(z2.canonical([1, 0]))
    y = AlgebraVector.basis(z2.canonical([0, 1]))
    assert bracket(x, y).to_pairs() == [(Fraction(1), (1, 1))]
    assert bracket(y, x).to_pairs() == [(Fraction(-1), (1, 1))]
    assert bracket(x, x).is_zero()
    # Pairing zero kills the bracket even for distinct labels.
    u = AlgebraVector.basis(z2.canonical([3, 0]))
    assert bracket(x, u).is_zero()


def test_bracket_bilinear_hand_instance():
    z2 = POOL[0]
    x = AlgebraVector.basis(z2.canonical([1, 0]))
    y = AlgebraVector.basis(z2.canonical([0, 1]))
    lhs = bracket(x + 2 * y, 3 * x - y)
    rhs = 3 * bracket(x, x) - bracket(x, y) + 6 * bracket(y, x) - 2 * bracket(y, y)
    assert lhs == rhs
    # Skew makes [a, a] collapse entirely.
    assert bracket(x + y, x + y).is_zero()


def test_scaled_pairing_spec_scales_coefficient():
    blocks = POOL[3]
    e = blocks.generators()
    assert bracket(AlgebraVector.basis(e[0]), AlgebraVector.basis(e[1])).to_pairs() == [
        (Fraction(2), (1, 1, 0, 0))]
    assert bracket(AlgebraVector.basis(e[2]), AlgebraVector.basis(e[3])).to_pairs() == [
        (Fraction(3), (0, 0, 1, 1))]


def test_coefficient_scaling_is_not_label_scaling():
    # c[x] and [cx] are different vectors in Q[H].
    z2 = POOL[0]
    x = z2.canonical([1, 0])
    assert 2 * AlgebraVector.basis(x) != AlgebraVector.basis(2 * x)
    assert (2 * AlgebraVector.basis(x)).coefficient(x) == 2
    assert AlgebraVector.basis(2 * x).coefficient(x) == 0


def test_vector_normalization_invariants():
    z2 = POOL[0]
    x = z2.canonical([1, 0])
    v = AlgebraVector(z2, [(x, Fraction(1, 2)), (x, Fraction(-1, 2))])
    assert v.is_zero() and v.terms == {}
    w = AlgebraVector(z2, [(x, 2), (x, Fraction(2, 4))])
    assert w.coefficient(x) == Fraction(5, 2)
    assert all(c != 0 for _, c in w.items())


def test_mismatched_specs_are_rejected():
    a = AlgebraVector.basis(POOL[0].canonical([1, 0]))
    b = AlgebraVector.basis(POOL[1].canonical([1, 0, 0]))
    with pytest.raises(ValueError):
        bracket(a, b)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        AlgebraVector(POOL[0], [(POOL[1].canonical([1, 0, 0]), 1)])


# ---------------------------------------------------------------------------
# The shared sparse combination arithmetic, against a plain dict

# Per kind: a small label pool on a spec, the constructor, the label key.
COMBINATIONS = {
    "vector": (lambda spec: list(itertools.islice(box_by_weight(spec, 1), 4)),
               AlgebraVector,
               lambda x: x.coords),
    "chain": (lambda spec: [tuple(sorted(x.coords for x in pair)) for pair in
                            itertools.combinations(itertools.islice(
                                box_by_weight(spec, 1), 4), 2)],
              lambda spec, terms: WedgeChain(spec, 2, terms),
              lambda key: key),
}


@st.composite
def combination_case(draw):
    """Two term lists over a small pool (repeats and cancellations
    included) for one kind, and a scalar that may be zero."""
    spec = draw(st.sampled_from(POOL))
    labels, make, key = COMBINATIONS[draw(st.sampled_from(sorted(COMBINATIONS)))]
    pool = labels(spec)
    coeff = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    terms = st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=6)
    return spec, make, key, draw(terms), draw(terms), draw(coeff)


def _dict_reference(terms):
    out = {}
    for label, coeff in terms:
        out[label] = out.get(label, 0) + coeff
    return {label: coeff for label, coeff in out.items() if coeff}


@given(combination_case())
@settings(max_examples=120, deadline=None)
def test_combination_arithmetic_matches_dict_reference(case):
    spec, make, key, s, t, scalar = case
    a, b = make(spec, s), make(spec, t)
    negated = [(label, -c) for label, c in t]
    for got, want in ((a, _dict_reference(s)),
                      (a + b, _dict_reference(s + t)),
                      (a - b, _dict_reference(s + negated)),
                      (-b, _dict_reference(negated)),
                      (scalar * a, _dict_reference([(l, scalar * c) for l, c in s])),
                      (a * 3, _dict_reference([(l, 3 * c) for l, c in s]))):
        assert got.terms == want
        assert all(type(c) is Fraction and c for c in got.terms.values())
        ordered = sorted(want.items(), key=lambda kv: key(kv[0]))
        assert got.items() == ordered
        assert got.to_pairs() == [(c, key(label)) for label, c in ordered]
        assert got == make(spec, ordered)
        assert got.is_zero() == (not want)


def test_combination_kinds_and_spaces_do_not_mix():
    z2, z3 = POOL[0], POOL[1]
    u, v = z2.canonical([1, 0]), z2.canonical([0, 1])
    vector, chain = AlgebraVector.basis(u), wedge_chain(z2, [u, v])
    with pytest.raises(TypeError):
        vector + chain
    with pytest.raises(TypeError):
        chain - vector
    assert vector != chain
    with pytest.raises(ValueError):
        chain + wedge_chain(z2, [u, v, u + v])
    with pytest.raises(ValueError):
        chain + wedge_chain(z3, [z3.canonical([1, 0, 0]), z3.canonical([0, 1, 0])])
    assert WedgeChain.zero(z2, 2) != WedgeChain.zero(z2, 3)
    assert WedgeChain.zero(z2, 2) == 0 * chain


# ---------------------------------------------------------------------------
# K and g_K


def test_k_map_hand_values():
    z2 = POOL[0]
    u = z2.canonical([1, 0])
    v = AlgebraVector.basis(2 * u) - 2 * AlgebraVector.basis(u)
    assert k_map(v) == (0, 0)
    assert k_map(AlgebraVector.basis(u) + AlgebraVector.basis(z2.canonical([0, 1]))) \
        == (1, 1)
    assert k_map(AlgebraVector.basis(u, Fraction(1, 3))) == (Fraction(1, 3), 0)
    assert all(type(c) is Fraction for c in k_map(v))
    # One coordinate per free canonical index; the torsion one dies.
    mixed = POOL[2]
    t = next(x for x in mixed.generators() if x.is_torsion())
    assert k_map(AlgebraVector.basis(t)) == (0, 0)
    assert k_map(AlgebraVector.basis(t, Fraction(7, 3))) == (0, 0)


def test_in_gk_examples():
    z2 = POOL[0]
    u = z2.canonical([1, 0])
    assert in_gk(AlgebraVector.basis(2 * u) - 2 * AlgebraVector.basis(u))
    assert not in_gk(AlgebraVector.basis(u))
    s = surface_presentation(1, 2)
    z = s.element([0, 0, 1, 0])
    a = s.element([1, 0, 0, 0])
    assert z.in_kernel_mu() and not z.is_torsion()
    telescope = (AlgebraVector.basis(z - 2 * a)
                 - 2 * AlgebraVector.basis(z - a)
                 + AlgebraVector.basis(z))
    # (z - 2a) - 2(z - a) + z = 0 in Q (x) H.
    assert in_gk(telescope)


def test_k_of_single_term_bracket_value():
    # K([[x],[y]]) = <x,y>(K[x] + K[y]); K kills brackets of g_K members
    # but not brackets in general.
    rng = random.Random(11)
    for spec in POOL:
        for _ in range(20):
            x = random_element(rng, spec)
            y = random_element(rng, spec)
            a, b = AlgebraVector.basis(x), AlgebraVector.basis(y)
            want = tuple(spec.pairing(x, y) * (p + q)
                         for p, q in zip(k_map(a), k_map(b)))
            assert k_map(bracket(a, b)) == want


@given(vector_pair())
@settings(max_examples=60, deadline=None)
def test_gk_closed_under_bracket(pair):
    a, b = pair
    spec = a.spec
    # Project both vectors into g_K by subtracting a K-preimage built
    # from multiples of basis labels; then the bracket must stay inside.
    def into_gk(v):
        out = AlgebraVector.zero(spec)
        for element, coeff in v.items():
            out = out + coeff * (AlgebraVector.basis(element + element)
                                 - 2 * AlgebraVector.basis(element))
        return out

    ga, gb = into_gk(a), into_gk(b)
    assert in_gk(ga) and in_gk(gb)
    assert in_gk(bracket(ga, gb))


# ---------------------------------------------------------------------------
# Lie axioms


@given(vector_pair())
@settings(max_examples=80, deadline=None)
def test_bracket_skew(pair):
    a, b = pair
    assert bracket(a, b) == -bracket(b, a)


@given(single_term_triple())
@settings(max_examples=80, deadline=None)
def test_bracket_jacobi(triple):
    a, b, c = triple
    total = (bracket(a, bracket(b, c))
             + bracket(b, bracket(c, a))
             + bracket(c, bracket(a, b)))
    assert total.is_zero()


def test_bracket_axioms_seeded_bulk():
    rng = random.Random(2024)
    for _ in range(150):
        spec = POOL[rng.randrange(len(POOL))]
        a, b, c = (AlgebraVector.basis(random_element(rng, spec)) for _ in range(3))
        assert bracket(a, b) == -bracket(b, a)
        total = (bracket(a, bracket(b, c))
                 + bracket(b, bracket(c, a))
                 + bracket(c, bracket(a, b)))
        assert total.is_zero()


# ---------------------------------------------------------------------------
# Center


def test_kernel_mu_elements_are_central():
    rng = random.Random(5)
    for spec in POOL:
        kernel_gens = spec.kernel_basis_elements()
        for u in kernel_gens:
            for _ in range(10):
                b = AlgebraVector.basis(random_element(rng, spec))
                assert bracket(AlgebraVector.basis(u), b).is_zero()


def test_derived_elements_are_not_central():
    rng = random.Random(6)
    for spec in POOL:
        gens = [AlgebraVector.basis(g) for g in spec.generators()]
        for _ in range(15):
            u = random_element(rng, spec)
            if u.in_kernel_mu():
                continue
            hits = [g for g in gens
                    if not bracket(AlgebraVector.basis(u), g).is_zero()]
            assert hits, "derived element %r brackets to zero with every generator" % u
