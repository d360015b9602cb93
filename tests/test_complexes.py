"""CE chains: boundary, coboundary duality, grading, basis enumeration."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from goldman.complexes import (
    BOX_BUDGET,
    Wedge,
    _box_size,
    _boundary_terms,
    _slice_size,
    _sort_sign,
    Cochain,
    WedgeChain,
    boundary,
    box_by_weight,
    box_support,
    coboundary,
    enumerate_basis,
    enumerate_keys,
    project_derived,
    wedge_chain,
)
from goldman.groups import GroupSpec, surface_presentation

from conftest import (
    random_element,
    reference_boundary,
    reference_normalize,
    scaled_blocks_z4,
    spec_pool,
    symplectic_z2,
    z2_z2torsion,
    z3_rank2_form,
)

POOL = spec_pool()
# Free, surface (a dead coordinate), torsion reduction, and a rank-2 form.
DIFFERENTIAL_SPECS = [symplectic_z2(), surface_presentation(1, 2),
                      z2_z2torsion(), z3_rank2_form()]


def _grading(spec, key):
    """The factor sum of a wedge key, by group-element arithmetic."""
    return functools.reduce(lambda a, b: a + b, (spec.canonical(list(f)) for f in key))


def random_wedge(rng, spec, p, radius=3, pool=None):
    """A degree-p wedge with distinct random factors, or None if unlucky."""
    labels = set()
    for _ in range(40):
        if pool is None:
            labels.add(random_element(rng, spec, radius))
        else:
            labels.add(pool[rng.randrange(len(pool))])
        if len(labels) == p:
            return wedge_chain(spec, sorted(labels))
    return None


# ---------------------------------------------------------------------------
# Boundary values


def test_boundary_degree2_hand_values():
    z2 = POOL[0]
    u, v = z2.canonical([1, 0]), z2.canonical([0, 1])
    assert boundary(wedge_chain(z2, [u, v])).to_pairs() == [(Fraction(-1), ((1, 1),))]
    # Swapping the factor order flips the input sign, hence the output.
    assert boundary(wedge_chain(z2, [v, u])).to_pairs() == [(Fraction(1), ((1, 1),))]
    # Pairing zero: boundary dies.
    assert boundary(wedge_chain(z2, [u, 3 * u])).is_zero()


def test_boundary_kernel_grading_dies():
    s = surface_presentation(1, 2)
    z = s.element([0, 0, 1, 0])
    a = s.element([1, 0, 0, 0])
    assert z.in_kernel_mu()
    assert boundary(wedge_chain(s, [a, z - a])).is_zero()


def test_boundary_degree3_expansion():
    # d3([a]^[b]^[c]) = -<a,b>[a+b]^[c] + <a,c>[a+c]^[b] - <b,c>[b+c]^[a].
    z2 = POOL[0]
    a, b, c = z2.canonical([1, 0]), z2.canonical([0, 1]), z2.canonical([1, 1])
    got = boundary(wedge_chain(z2, [a, b, c]))
    want = (wedge_chain(z2, [a + b, c], -z2.pairing(a, b))
            + wedge_chain(z2, [a + c, b], z2.pairing(a, c))
            + wedge_chain(z2, [b + c, a], -z2.pairing(b, c)))
    assert got == want
    # [a+b] = [c] here, so the first term collapsed on a repeated factor.
    assert len(got.terms) == 2


def test_boundary_degree3_kernel_grading_identity():
    # For z in ker mu: d3([u]^[v]^[z-u-v])
    #   = -<u,v>([u+v]^[z-u-v] - [u]^[z-u] - [v]^[z-v]).
    s = surface_presentation(1, 2)
    z = s.element([0, 0, 1, 0])
    u = s.element([1, 0, 0, 0])
    v = s.element([0, 1, 0, 0])
    got = boundary(wedge_chain(s, [u, v, z - u - v]))
    lam = s.pairing(u, v)
    want = (wedge_chain(s, [u + v, z - u - v], -lam)
            + wedge_chain(s, [u, z - u], lam)
            + wedge_chain(s, [v, z - v], lam))
    assert got == want


def test_boundary_of_degree1_is_zero():
    z2 = POOL[0]
    c = wedge_chain(z2, [z2.canonical([1, 0])])
    out = boundary(c)
    assert out.degree == 0 and out.is_zero()
    with pytest.raises(ValueError):
        boundary(out)


# ---------------------------------------------------------------------------
# d o d = 0, grading, kernel chains


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_boundary_squares_to_zero(data):
    spec = data.draw(st.sampled_from(POOL))
    p = data.draw(st.integers(2, 5))
    n = spec.n_generators
    labels = set()
    for _ in range(p):
        coords = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        labels.add(spec.canonical(coords))
    c = wedge_chain(spec, sorted(labels)) if len(labels) == p else None
    if c is None:
        return
    assert boundary(boundary(c)).is_zero()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_boundary_kernel_matches_reference_formula(data):
    spec = data.draw(st.sampled_from(DIFFERENTIAL_SPECS))
    p = data.draw(st.integers(2, 5))
    n = spec.n_generators
    factors = [spec.canonical(data.draw(st.lists(st.integers(-3, 3),
                                                 min_size=n, max_size=n)))
               for _ in range(p)]
    _assert_kernel_matches_reference(spec, factors)


def _assert_kernel_matches_reference(spec, factors):
    sign, key = reference_normalize(factors)
    if not sign:
        return
    p = len(factors)
    want = reference_boundary(spec, factors)
    # The kernel runs on the sorted key; the sorting sign carries over.
    got = {}
    for coeff, term in _boundary_terms(spec, key):
        assert type(coeff) is int
        assert list(term) == sorted(set(term)) and len(term) == p - 1
        got[term] = got.get(term, 0) + sign * coeff
    assert {k: v for k, v in got.items() if v} == want
    chain = boundary(wedge_chain(spec, factors))
    assert chain.terms == want


@pytest.mark.parametrize("spec", [symplectic_z2(), z2_z2torsion()],
                         ids=["Z2", "Z2+Z/2"])
def test_degree3_kernel_matches_reference_on_every_small_key(spec):
    """Every 3-set of box(1): each pair sum lands before or after the
    remaining factor, hits it, or wraps around a torsion coordinate."""
    box = box_support(spec, 1)
    for factors in itertools.combinations(box, 3):
        _assert_kernel_matches_reference(spec, list(factors))


@pytest.mark.parametrize("spec", [symplectic_z2(), z2_z2torsion()],
                         ids=["Z2", "Z2+Z/2"])
def test_degree4_kernel_matches_reference_on_every_small_key(spec):
    """Every 4-set of box(1): pair sums land before, between and after
    the two remaining factors, hit one of them, hit 0, or wrap around a
    torsion coordinate."""
    box = box_support(spec, 1)
    for factors in itertools.combinations(box, 4):
        _assert_kernel_matches_reference(spec, list(factors))


def test_degree4_kernel_hand_cases():
    z2 = symplectic_z2()
    e1, e2 = z2.canonical([1, 0]), z2.canonical([0, 1])
    # e1 + e2 is itself a factor: that term drops out.
    _assert_kernel_matches_reference(z2, [e1, e2, e1 + e2, 2 * e1])
    # A pair summing to 0 pairs to 0 and contributes nothing.
    _assert_kernel_matches_reference(z2, [e1, -e1, e2, z2.zero])
    # The torsion coordinate (first in canonical order) wraps:
    # (1, 0, 1) + (1, 1, 0) = (0, 1, 1).
    t = z2_z2torsion()
    assert t.torsion == ((0, 2),)
    factors = [t.canonical(c) for c in ([1, 0, 1], [1, 1, 0], [0, 2, 0], [1, 0, 0])]
    key = tuple(sorted(f.coords for f in factors))
    assert any((0, 1, 1) in term for _, term in _boundary_terms(t, key))
    _assert_kernel_matches_reference(t, factors)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_degree4_kernel_matches_reference_on_crowded_keys(data):
    """Degree 4 on factors from box(1), where sums collide often."""
    spec = data.draw(st.sampled_from(DIFFERENTIAL_SPECS + [scaled_blocks_z4()]))
    box = box_support(spec, 1)
    factors = data.draw(st.lists(st.sampled_from(box), min_size=4, max_size=4,
                                 unique=True))
    _assert_kernel_matches_reference(spec, factors)


def test_boundary_squares_to_zero_seeded_bulk():
    rng = random.Random(99)
    checked = 0
    for _ in range(250):
        spec = POOL[rng.randrange(len(POOL))]
        c = random_wedge(rng, spec, rng.randint(2, 5))
        if c is None or c.is_zero():
            continue
        assert boundary(boundary(c)).is_zero()
        checked += 1
    assert checked >= 200


def test_boundary_preserves_grading():
    rng = random.Random(3)
    for _ in range(60):
        spec = POOL[rng.randrange(len(POOL))]
        c = random_wedge(rng, spec, rng.randint(2, 4))
        if c is None or c.is_zero():
            continue
        z = c.common_grading()
        for key in boundary(c).terms:
            assert _grading(spec, key) == z


def test_kernel_only_chains_have_zero_boundary():
    # Radical labels pair to zero with everything; Q[ker mu] is abelian.
    rng = random.Random(4)
    for spec in POOL:
        pool = [x for x in box_support(spec, 2) if x.in_kernel_mu()]
        if len(pool) < 3:
            continue
        for _ in range(10):
            c = random_wedge(rng, spec, 3, pool=pool)
            if c is None or c.is_zero():
                continue
            assert boundary(c).is_zero()


def test_mixed_grading_chain_is_rejected_by_common_grading():
    z2 = POOL[0]
    c = (wedge_chain(z2, [z2.canonical([1, 0]), z2.canonical([0, 1])])
         + wedge_chain(z2, [z2.canonical([1, 0]), z2.canonical([1, 1])]))
    with pytest.raises(ValueError):
        c.common_grading()


# ---------------------------------------------------------------------------
# Cochains and duality


def _full_cochain(rng, spec, support, p):
    """Random values on every degree-p wedge of the support; a wedge
    outside it raises KeyError, so a test never leaves the support."""
    values = {key: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for key in itertools.combinations(sorted(x.coords for x in support), p)}
    return Cochain(spec, p, values.__getitem__)


def test_duality_of_boundary_and_coboundary():
    rng = random.Random(12)
    z2 = POOL[0]
    eta = _full_cochain(rng, z2, box_support(z2, 2), 2)
    deta = coboundary(eta, 2)
    inner = box_support(z2, 1)
    for _ in range(40):
        c = random_wedge(rng, z2, 3, pool=inner)
        if c is None or c.is_zero():
            continue
        assert deta.evaluate(c) == eta.evaluate(boundary(c))


def test_coboundary_squares_to_zero():
    rng = random.Random(13)
    z2 = POOL[0]
    eta = _full_cochain(rng, z2, box_support(z2, 3), 1)
    dd_eta = coboundary(coboundary(eta, 1), 2)
    for _ in range(30):
        c = random_wedge(rng, z2, 3, pool=box_support(z2, 1))
        if c is None or c.is_zero():
            continue
        assert dd_eta.evaluate(c) == 0


def test_coboundary_hand_value():
    # (d eta)([u]^[v]) = eta(d([u]^[v])) = -<u,v> eta([u+v]).
    z2 = POOL[0]
    u, v = z2.canonical([1, 0]), z2.canonical([0, 1])
    eta = Cochain(z2, 1, {((u + v).coords,): Fraction(7)}.__getitem__)
    deta = coboundary(eta, 1)
    assert deta.evaluate(wedge_chain(z2, [u, v])) == -7


def test_cochain_rejects_a_degree_mismatch():
    z2 = POOL[0]
    u, v = z2.canonical([1, 0]), z2.canonical([0, 1])
    eta = Cochain(z2, 1, {(u.coords,): Fraction(1)}.__getitem__)
    assert eta.evaluate(wedge_chain(z2, [u])) == 1
    with pytest.raises(ValueError):
        eta.evaluate(wedge_chain(z2, [u, v]))
    with pytest.raises(ValueError):
        coboundary(eta, 2)


def test_cochain_evaluates_its_rule_once_per_wedge():
    z2 = POOL[0]
    u, v = z2.canonical([1, 0]), z2.canonical([0, 1])
    calls = []

    def rule(key):
        calls.append(key)
        return len(calls)

    eta = Cochain(z2, 1, rule)
    c = wedge_chain(z2, [u]) + 2 * wedge_chain(z2, [v])
    assert eta.evaluate(c) == eta.evaluate(c) == 5
    assert calls == [(u.coords,), (v.coords,)]


# ---------------------------------------------------------------------------
# Basis enumeration and supports


def test_box_support_sizes():
    assert len(box_support(POOL[0], 1)) == 9
    assert len(box_support(POOL[2], 1)) == 18
    z1 = GroupSpec(1)
    assert len(box_support(z1, 2)) == 5
    assert len(box_support(POOL[4], 1)) == 24  # torsion only: 4 * 6
    assert box_support(POOL[0], 0) == [POOL[0].zero]


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_box_orders_match_sorted(radius):
    for spec in POOL:
        box = box_support(spec, radius)
        assert box == sorted(box)
        assert box_by_weight(spec, radius) == sorted(box, key=lambda e: e.sort_key())


def test_box_is_built_once_and_never_mutated():
    spec = symplectic_z2()
    first = box_support(spec, 1)
    first.reverse()
    first.append(spec.zero)
    again = box_support(spec, 1)
    assert again == sorted(again) and len(again) == 9
    # One set of elements per (spec, radius), in both orders.
    assert all(a is b for a, b in zip(again, box_support(spec, 1)))
    ordered = box_by_weight(spec, 1)
    assert {id(x) for x in ordered} == {id(x) for x in again}
    ordered.clear()
    assert len(box_by_weight(spec, 1)) == 9


def test_box_over_the_budget_is_refused_before_enumeration():
    spec = surface_presentation(3, 1)   # Z^6
    assert _box_size(spec, 10) == 21 ** 6 > BOX_BUDGET
    for build in (box_support, box_by_weight):
        with pytest.raises(ValueError, match="85766121 elements, over the budget of 1000000"):
            build(spec, 10)
    assert 10 not in spec._boxes
    assert len(box_support(spec, 1)) == 3 ** 6


def test_enumerate_basis_hand_oracles():
    z2 = POOL[0]
    zero = z2.zero
    derived = [x for x in box_support(z2, 1) if x.is_derived_element()]
    derived_pairs = enumerate_basis(derived, 2, zero)
    assert len(derived_pairs) == 4
    for a, b in derived_pairs:
        assert _grading(z2, (a, b)) == zero
        assert z2.canonical(list(b)) == -z2.canonical(list(a))
    u = z2.canonical([1, 1])
    assert enumerate_basis(box_support(z2, 1), 1, u) == [(u.coords,)]
    # The radical of Z^2 is {0}: one 1-wedge and no 2-wedge on it.
    radical = [x.coords for x in box_support(z2, 1) if x.in_kernel_mu()]
    assert list(enumerate_keys(z2, radical, 1, zero.coords)) == [(zero.coords,)]
    assert list(enumerate_keys(z2, radical, 2, zero.coords)) == []


def test_enumerate_basis_matches_bruteforce():
    rng = random.Random(21)
    for spec in POOL[:5]:
        support = box_support(spec, 1)
        for p in (2, 3):
            for _ in range(4):
                z = random_element(rng, spec, 2)
                fast = enumerate_basis(support, p, z)
                slow = [tuple(x.coords for x in combo)
                        for combo in itertools.combinations(sorted(support), p)
                        if sum(combo[1:], combo[0]) == z]
                assert fast == sorted(slow)


@pytest.mark.parametrize("spec", [symplectic_z2(), z2_z2torsion()], ids=["free", "torsion"])
def test_enumerate_keys_is_a_lazy_filter_of_combinations(spec):
    # Every factor comes from the pool.
    rng = random.Random(22)
    pool = sorted(x.coords for x in box_by_weight(spec, 1)[:7])
    add = spec.add_coords
    found = 0
    for p in (1, 2, 3, 4):
        for z in [spec.zero] + [random_element(rng, spec, 2) for _ in range(3)]:
            keys = enumerate_keys(spec, pool, p, z.coords)
            assert iter(keys) is keys
            slow = [t for t in itertools.combinations(pool, p)
                    if functools.reduce(add, t) == z.coords]
            assert list(keys) == slow
            found += len(slow)
    assert found > 0
    with pytest.raises(ValueError):
        enumerate_keys(spec, pool, 0, spec.zero.coords)


def _slice_gradings(spec, m):
    """Gradings for box(m): 0, an element of 2H, one with a free
    coordinate past 2m, one on the edge 2m, and one with odd torsion."""
    free = [j for j, d in enumerate(spec.divisors) if d == 0]

    def element(free_values, torsion):
        coords = [torsion % d if d else 0 for d in spec.divisors]
        for j, x in zip(free, free_values):
            coords[j] = x
        return spec.element(coords)
    return [spec.zero, element([2] * len(free), 2), element([2 * m + 1], 0),
            element([-2 * m, 1], 1), element([1, -1], -1)]


@pytest.mark.parametrize("spec", [
    surface_presentation(1, 2), surface_presentation(2, 3), z2_z2torsion(),
    GroupSpec(3, relations=[[0, 0, 16]], form=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]])],
    ids=["s12", "s23", "z2+z2", "z2+z16"])
def test_slice_size_counts_the_degree_2_basis(spec):
    # The closed form against the walk: pairs {u, z-u} of the box, with
    # u = z-u counted out; none when z leaves box(2m).
    for m in (1, 2, 3):
        support = box_support(spec, m)
        counts = [(_slice_size(spec, m, z.coords), len(enumerate_basis(support, 2, z)))
                  for z in _slice_gradings(spec, m)]
        assert all(fast == slow for fast, slow in counts), counts
        assert counts[2] == (0, 0) and counts[0][0] > 0


def test_enumerate_basis_is_deterministic():
    z2 = POOL[0]
    support = box_support(z2, 2)
    a = enumerate_basis(support, 3, z2.zero)
    b = enumerate_basis(list(reversed(support)) + support[:5], 3, z2.zero)
    assert a == b == sorted(a) and a


# ---------------------------------------------------------------------------
# Projection to derived-only chains


def test_project_derived_kills_radical_factors():
    spec = POOL[1]  # Z^3 with rank-2 form: e3 spans the radical free part.
    e1, e2, e3 = spec.generators()
    mixed = wedge_chain(spec, [e1, e3]) + wedge_chain(spec, [e1, e2])
    out = project_derived(mixed)
    assert out == wedge_chain(spec, [e1, e2])
    assert project_derived(out) == out


def test_project_derived_is_identity_on_derived_chains():
    rng = random.Random(31)
    for spec in POOL:
        pool = [x for x in box_support(spec, 2) if x.is_derived_element()]
        if len(pool) < 3:
            continue
        for _ in range(10):
            c = random_wedge(rng, spec, 3, pool=pool)
            if c is None or c.is_zero():
                continue
            assert project_derived(c) == c


# ---------------------------------------------------------------------------
# Wedge normalization


def test_wedge_make_sign_matches_permutation_parity():
    z2 = POOL[0]
    labels = sorted({z2.canonical([1, 0]), z2.canonical([0, 1]),
                     z2.canonical([1, 1]), z2.canonical([-1, 2])})
    for perm in itertools.permutations(range(4)):
        sign, w = Wedge.make([labels[i] for i in perm])
        # Parity by counting inversions.
        inv = sum(1 for a in range(4) for b in range(a + 1, 4)
                  if perm[a] > perm[b])
        assert sign == (1 if inv % 2 == 0 else -1)
        assert w.factors == tuple(labels)


def test_sort_sign_of_three_matches_inversion_parity():
    # Three factors take an unrolled path; repeats included.
    spec = POOL[0]
    labels = [spec.canonical(c) for c in ([1, 0], [0, 1], [1, 1], [-1, 2])]
    for factors in itertools.product(labels, repeat=3):
        sign, key = reference_normalize(factors)
        assert _sort_sign([f.coords for f in factors]) == (sign, key)
        assert _sort_sign(tuple(f.coords for f in factors)) == (sign, key)


def test_wedge_repeat_gives_zero():
    z2 = POOL[0]
    u, v = z2.canonical([1, 0]), z2.canonical([0, 1])
    sign, w = Wedge.make([u, v, u])
    assert sign == 0 and w is None
    assert wedge_chain(z2, [u, v, u]).is_zero()


def test_wedge_chain_refuses_a_factor_of_another_group():
    z2, z3 = POOL[0], POOL[1]
    u, x = z2.canonical([1, 0]), z3.canonical([0, 1, 0])
    for factors in ([u, x], [x, u], [x]):
        with pytest.raises(ValueError, match="different group"):
            wedge_chain(z2, factors)


def test_chain_arithmetic_and_serialization():
    z2 = POOL[0]
    u, v, s = z2.canonical([1, 0]), z2.canonical([0, 1]), z2.canonical([1, 1])
    c = wedge_chain(z2, [u, v], Fraction(1, 2)) + wedge_chain(z2, [u, s], 3)
    # Sorting [u, v] into canonical order swaps once, so the stored
    # coefficient carries the sign.
    assert c.coefficient((v.coords, u.coords)) == Fraction(-1, 2)
    assert (c - c).is_zero()
    assert (2 * c).to_pairs() == [(Fraction(-1), ((0, 1), (1, 0))),
                                  (Fraction(6), ((1, 0), (1, 1)))]
    # A label is a strictly increasing key of the chain's degree: a
    # short, an unsorted or a repeating key is refused.
    for bad in ((u.coords,), (u.coords, v.coords), (u.coords, u.coords)):
        with pytest.raises(ValueError):
            WedgeChain(z2, 2, [(bad, 1)])
    assert WedgeChain(z2, 2, [((v.coords, u.coords), 1)]) == wedge_chain(z2, [v, u])
