"""Exact sparse rational matrices: ranks, span witnesses, certificates."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from goldman.linalg import CertificateError, SparseRationalMatrix, _IncrementalSpan


def dense(rows):
    return SparseRationalMatrix(len(rows), len(rows[0]), {
        (i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


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
    # The residual of the first inconsistent row [row | b | tags] has its
    # least entry on the right-hand side coordinate, n_cols = 2; its tag
    # part (rows 3 and 4) is the unchecked certificate.  Corrupt that.
    m = dense([[1, 1], [2, 2]])
    reduce = _IncrementalSpan.reduce
    for corrupt, identity in ((lambda y: {r: 2 * c if r == min(y) else c for r, c in y.items()},
                               "y M = 0 for the Farkas certificate"),
                              (lambda y: {r: Fraction(0) for r in y},
                               "y b != 0 for the Farkas certificate")):
        def corrupted(self, vec, corrupt=corrupt):
            residual = reduce(self, vec)
            if residual and min(residual) == 2:
                tags = {k: c for k, c in residual.items() if k > 2}
                residual = {2: residual[2], **corrupt(tags)}
            return residual

        monkeypatch.setattr(_IncrementalSpan, "reduce", corrupted)
        with pytest.raises(CertificateError) as info:
            m.solve_affine([0, 1])
        assert info.value.identity == identity


def test_certificate_error_survives_pickling():
    error = CertificateError("d(x) = y")
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is CertificateError
    assert back.identity == "d(x) = y"
    assert str(back) == str(error) == "certificate identity failed: d(x) = y"


def test_wrong_lengths_are_rejected():
    m = dense([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError):
        m.in_span([1, 2, 3])
    with pytest.raises(ValueError):
        m.solve_affine([1])


def test_setitem_bounds_and_zero_drop():
    m = SparseRationalMatrix(2, 2)
    m[0, 1] = 5
    m[0, 1] = 0
    assert (0, 1) not in m.entries
    with pytest.raises(IndexError):
        m[2, 0] = 1


# ---------------------------------------------------------------------------
# The eliminations the kernel replaced, kept as the reference: every
# rank, witness, solution and certificate of the kernel must
# equal theirs, which is what keeps the reports byte for byte.


def _reference_reduce(vec, comb, pivots):
    # Repeatedly cancel the least-index row of vec against the pivot
    # stored there, if any; termination because the least index climbs.
    while vec:
        r = min(vec)
        if r not in pivots:
            return
        pvec, pcomb = pivots[r]
        factor = vec[r] / pvec[r]
        for i, v in pvec.items():
            newv = vec.get(i, Fraction(0)) - factor * v
            if newv:
                vec[i] = newv
            else:
                vec.pop(i, None)
        for c, v in pcomb.items():
            newv = comb.get(c, Fraction(0)) - factor * v
            if newv:
                comb[c] = newv
            else:
                comb.pop(c, None)


def _reference_column_echelon(m):
    """Incremental column reduction with combination tracking: pivots
    mapping a row to (reduced column, combination)."""
    pivots = {}
    for j, col in enumerate(m.columns()):
        vec = dict(col)
        comb = {j: Fraction(1)}
        _reference_reduce(vec, comb, pivots)
        if vec:
            pivots[min(vec)] = (vec, comb)
    return pivots


def _reference_in_span(m, v):
    pivots = _reference_column_echelon(m)
    vec = {i: Fraction(x) for i, x in enumerate(v) if x}
    comb = {}
    _reference_reduce(vec, comb, pivots)
    if vec:
        return False, None
    witness = [Fraction(0)] * m.n_cols
    for j, c in comb.items():
        witness[j] = -c
    return True, tuple(witness)


def _reference_solve_affine(m, b):
    """Row elimination on [row | b | combination], back substitution
    with free variables at zero."""
    b = [Fraction(x) for x in b]
    rows = m.row_list()
    pivots = {}
    for i in range(m.n_rows):
        vec = dict(rows[i])
        vec_b = b[i]
        comb = {i: Fraction(1)}
        while vec:
            c = min(vec)
            if c not in pivots:
                break
            pvec, pb, pcomb = pivots[c]
            factor = vec[c] / pvec[c]
            for jj, v in pvec.items():
                newv = vec.get(jj, Fraction(0)) - factor * v
                if newv:
                    vec[jj] = newv
                else:
                    vec.pop(jj, None)
            vec_b -= factor * pb
            for cc, v in pcomb.items():
                newv = comb.get(cc, Fraction(0)) - factor * v
                if newv:
                    comb[cc] = newv
                else:
                    comb.pop(cc, None)
        if vec:
            pivots[min(vec)] = (vec, vec_b, comb)
        elif vec_b:
            return None, dict(comb)
    solution = [Fraction(0)] * m.n_cols
    for c in sorted(pivots, reverse=True):
        pvec, pb, _ = pivots[c]
        acc = pb
        for jj, v in pvec.items():
            if jj != c:
                acc -= v * solution[jj]
        solution[c] = acc / pvec[c]
    return tuple(solution), None


@st.composite
def dependent_systems(draw):
    """(rows, b): a small matrix with dependent columns and rows spliced
    in at random places, and b = M x, or M x pushed off the image."""
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
    rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 2))):
        a, c = draw(st.integers(0, n_cols - 1)), draw(st.integers(0, n_cols - 1))
        ka, kc = draw(entry), draw(entry)
        at = draw(st.integers(0, n_cols))
        for row in rows:
            row.insert(at, ka * row[a] + kc * row[c])
        n_cols += 1
    for _ in range(draw(st.integers(0, 2))):
        a, c = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
        ka, kc = draw(entry), draw(entry)
        rows.insert(draw(st.integers(0, n_rows)),
                    [ka * x + kc * y for x, y in zip(rows[a], rows[c])])
        n_rows += 1
    x = [draw(entry) for _ in range(n_cols)]
    b = [sum(r * v for r, v in zip(row, x)) for row in rows]
    if draw(st.booleans()):
        b[draw(st.integers(0, n_rows - 1))] += draw(st.integers(1, 3))
    return rows, b


@given(dependent_systems())
@settings(max_examples=300, deadline=None)
def test_kernel_equals_the_reference_eliminations(system):
    rows, b = system
    m = dense(rows)
    assert m.rank() == len(_reference_column_echelon(m))
    assert m.in_span(b) == _reference_in_span(m, b)
    assert m.solve_affine(b) == _reference_solve_affine(m, b)
    for col in m.columns():
        v = [col.get(i, 0) for i in range(m.n_rows)]
        assert m.in_span(v) == _reference_in_span(m, v)
