"""The exact polynomial ring and the formal group of goldman.formal."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from goldman.formal import FormalSpec, Poly

from conftest import reference_pair_coords

NAMES = ("x", "y", "z")


def random_pair(rng):
    """A random Poly and the same polynomial in sympy."""
    poly, oracle = Poly(), sympy.Integer(0)
    for _ in range(rng.randint(0, 4)):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        exps = [rng.randint(0, 2) for _ in NAMES]
        term, sym = Poly({(): c}), sympy.Rational(c.numerator, c.denominator)
        for name, e in zip(NAMES, exps):
            term = term * Poly.var(name) ** e
            sym = sym * sympy.Symbol(name) ** e
        poly, oracle = poly + term, oracle + sym
    return poly, oracle


def as_sympy(poly):
    out = sympy.Integer(0)
    for m, c in poly.terms.items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for v in m:
            term *= sympy.Symbol(v)
        out += term
    return out


@pytest.mark.parametrize("seed", range(20))
def test_poly_arithmetic_matches_sympy(seed):
    rng = random.Random(seed)
    (p, sp), (q, sq) = random_pair(rng), random_pair(rng)
    k = rng.randint(0, 3)
    for got, want in ((p + q, sp + sq), (p - q, sp - sq), (p * q, sp * sq), (p ** k, sp ** k),
                      (3 - p, 3 - sp), (Fraction(1, 2) * q, sq / 2)):
        assert sympy.expand(as_sympy(got) - want) == 0
        assert bool(got) == (sympy.expand(want) != 0)
    assert (p * q == q * p) and (p - p == 0) and not (p - p)


def test_poly_equality_and_constants():
    x = Poly.var("x")
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert Poly({(): 3}) == 3 and 3 == Poly({(): 3})
    assert x != x + 1
    with pytest.raises(TypeError):
        hash(x)
    assert repr(2 * x ** 2 - 1) == "-1 + 2*x*x"


def test_formal_pairing_is_alternating_and_bilinear():
    spec = FormalSpec(3)
    a, b, c = spec.symbols()
    u, v = spec.generic("u"), spec.generic("v")
    assert not spec.pairing(u, u)
    assert spec.pairing(u, v) == -spec.pairing(v, u)
    assert spec.pairing(u + v, c) == spec.pairing(u, c) + spec.pairing(v, c)
    assert spec.pairing(a, b) == Poly.var("P0_1")
    assert spec.pairing(b + c, a) == -Poly.var("P0_1") - Poly.var("P0_2")
    assert (a + b - a).coords == b.coords and (-a).coords == (-1, 0, 0)
    assert spec.free_indices == (0, 1, 2) and spec.zero.coords == (0, 0, 0)


def test_arithmetic_keeps_terms_sorted_and_nonzero():
    # The constructor and * sort monomials; +, - and scalar * only merge
    # them.  Whatever the order the inputs were given in, every result
    # keeps sorted monomials and no zero coefficient.
    p = Poly({("y", "x"): 2, ("x", "y"): 1, ("z",): 0, ("z", "x", "x"): -1})
    q = Poly([(("y", "x"), -3), (("y",), Fraction(1, 2))])
    assert p.terms == {("x", "y"): 3, ("x", "x", "z"): -1}
    assert p + q == Poly({("y",): Fraction(1, 2), ("x", "x", "z"): -1})
    for r in (p, q, p + q, q + p, p - q, -p, 3 - p, p - 3, p * q, q * p, 2 * p, p * 0,
              Fraction(1, 3) * q, p ** 0, p ** 2, (p + q) ** 3, p - p, p + 0):
        assert all(list(m) == sorted(m) for m in r.terms), r
        assert all(r.terms.values()), r
    assert not (p - p).terms and not (p * 0).terms and (p + 0) == p


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pair_coords_is_the_pairwise_sum(data):
    # The one merge over nonzero products against the sum of every
    # product, on integer and generic (Poly) coordinates alike.
    n = data.draw(st.integers(1, 6))
    radical = data.draw(st.sets(st.integers(0, n - 1)))
    spec = FormalSpec(n, radical)

    def coords(name):
        if data.draw(st.booleans()):
            return spec.generic(name).coords
        return tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))

    a, b = coords("a"), coords("b")
    assert spec.pair_coords(a, b) == reference_pair_coords(n, radical, a, b)
