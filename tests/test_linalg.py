"""Exact sparse rational matrices: ranks, kernels, witnesses, certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from goldman.linalg import CertificateError, SparseRationalMatrix


def dense(rows):
    return SparseRationalMatrix.from_dense(rows)


def test_rank_hand_oracles():
    assert dense([[1, 2], [2, 4]]).rank() == 1
    assert dense([[1, 0], [0, 1]]).rank() == 2
    assert dense([[0, 0], [0, 0]]).rank() == 0
    assert dense([[1, 2, 3]]).rank() == 1
    assert dense([[Fraction(1, 2), 1], [1, 2], [0, 1]]).rank() == 2


def test_rank_matches_sympy_oracle():
    from sympy import Matrix, Rational

    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                 for _ in range(n)] for _ in range(m)]
        ours = dense(rows).rank()
        theirs = Matrix([[Rational(v.numerator, v.denominator) for v in row]
                         for row in rows]).rank()
        assert ours == theirs


def test_kernel_basis_oracle():
    m = dense([[1, 2], [2, 4]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    assert basis[0] == (Fraction(-2), Fraction(1))
    assert dense([[1, 0], [0, 1]]).kernel_basis() == []


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                min_size=2, max_size=4))
@settings(max_examples=50, deadline=None)
def test_kernel_dimension_and_exactness(rows):
    m = dense(rows)
    basis = m.kernel_basis()
    assert len(basis) == m.n_cols - m.rank()
    for vec in basis:
        assert all(v == 0 for v in m.matvec(vec))


def test_in_span_witness():
    m = dense([[1, 0, 1], [0, 1, 1]])
    ok, witness = m.in_span([2, 3])
    assert ok
    assert m.matvec(witness) == [Fraction(2), Fraction(3)]
    ok, witness = dense([[1, 2], [2, 4]]).in_span([1, 0])
    assert not ok and witness is None


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_in_span_of_image_always_true(rows, x):
    m = dense(rows)
    v = m.matvec([Fraction(c) for c in x])
    ok, witness = m.in_span(v)
    assert ok
    assert m.matvec(witness) == v


def test_solve_affine_solution():
    m = dense([[1, 1], [0, 1]])
    sol, cert = m.solve_affine([3, 1])
    assert cert is None
    assert sol == (Fraction(2), Fraction(1))


def test_solve_affine_certificate():
    # x + y = 0 and 2x + 2y = 1 contradict: y = (-2, 1) annihilates the
    # matrix and pairs to 1 with the right-hand side.
    m = dense([[1, 1], [2, 2]])
    sol, cert = m.solve_affine([0, 1])
    assert sol is None
    assert cert is not None
    combo = [Fraction(0), Fraction(0)]
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    rhs = [Fraction(0), Fraction(1)]
    for r, c in cert.items():
        combo = [a + c * b for a, b in zip(combo, rows[r])]
    assert all(v == 0 for v in combo)
    assert sum(c * rhs[r] for r, c in cert.items()) != 0


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=2, max_size=5),
       st.lists(st.integers(-4, 4), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_solve_affine_total(rows, b):
    # Either outcome must carry its exact witness; the checks inside
    # solve_affine re-verify, so surviving the call is the property.
    b = (b + [0] * len(rows))[:len(rows)]
    m = dense(rows)
    sol, cert = m.solve_affine(b)
    assert (sol is None) != (cert is None)
    if sol is not None:
        assert list(m.matvec(sol)) == [Fraction(v) for v in b]


@pytest.mark.parametrize("call, identity", [
    (lambda m: m.kernel_basis(), "M x = 0 for a kernel vector"),
    (lambda m: m.in_span([1, 2]), "M x = v for the span witness"),
    (lambda m: m.solve_affine([1, 2]), "M x = b for the affine solution"),
])
def test_rechecks_raise_certificate_errors(call, identity, monkeypatch):
    m = dense([[1, 0, 1], [0, 1, 1]])
    call(m)
    matvec = SparseRationalMatrix.matvec
    monkeypatch.setattr(SparseRationalMatrix, "matvec",
                        lambda self, x: [v + 1 for v in matvec(self, x)])
    with pytest.raises(CertificateError) as info:
        call(m)
    assert info.value.identity == identity


def test_farkas_recheck_raises_certificate_errors(monkeypatch):
    m = dense([[1, 1], [2, 2]])
    eliminate = SparseRationalMatrix._eliminate_affine
    for corrupt, identity in ((lambda y: {r: 2 * c if r == 0 else c for r, c in y.items()},
                               "y M = 0 for the Farkas certificate"),
                              (lambda y: {0: Fraction(0), 1: Fraction(0)},
                               "y b != 0 for the Farkas certificate")):
        monkeypatch.setattr(
            SparseRationalMatrix, "_eliminate_affine",
            lambda self, b, order, corrupt=corrupt: (None, corrupt(eliminate(self, b, order)[1])))
        with pytest.raises(CertificateError) as info:
            m.solve_affine([0, 1])
        assert info.value.identity == identity


def test_solve_affine_row_order():
    m = dense([[1, 1], [2, 2], [1, 0]])
    sol, cert = m.solve_affine([0, 1, 5], row_order=[2, 0, 1])
    assert sol is None and cert is not None


def test_triplet_round_trip():
    m = SparseRationalMatrix(3, 4)
    m[0, 0] = Fraction(1, 2)
    m[2, 3] = -7
    text = m.to_triplet_text()
    back = SparseRationalMatrix.from_triplet_text(text)
    assert back.n_rows == 3 and back.n_cols == 4
    assert back.entries == m.entries
    assert back.to_triplet_text() == text


def test_triplet_rejects_garbage():
    with pytest.raises(ValueError):
        SparseRationalMatrix.from_triplet_text("")
    with pytest.raises(ValueError):
        SparseRationalMatrix.from_triplet_text("1 1 2\n0 0 1\n")


def test_from_columns_and_transpose():
    m = SparseRationalMatrix.from_columns(2, [{0: 1}, {1: Fraction(1, 3)}, {}])
    assert m.n_cols == 3
    t = m.transpose()
    assert t[1, 1] == Fraction(1, 3)
    assert t.n_rows == 3 and t.n_cols == 2


def test_setitem_bounds_and_zero_drop():
    m = SparseRationalMatrix(2, 2)
    m[0, 1] = 5
    m[0, 1] = 0
    assert (0, 1) not in m.entries
    with pytest.raises(IndexError):
        m[2, 0] = 1
