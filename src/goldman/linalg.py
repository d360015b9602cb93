"""Sparse exact linear algebra over the rationals.

Everything downstream that needs a rank, a kernel, a membership witness
or an infeasibility certificate funnels through this module.  Matrices
are dictionaries mapping (row, col) to Fraction; the eliminations keep
enough bookkeeping to hand back certificates:

* ``in_span(M, v)`` returns the coefficient vector x with M x = v when
  one exists (column-span membership with witness);
* ``kernel_basis(M)`` returns vectors spanning {x : M x = 0} by tracking
  the column combinations that reduce to zero;
* ``solve_affine(M, b)`` returns a solution of M x = b, or a Farkas-style
  certificate y with y M = 0 and y b != 0 proving there is none.

All pivots are chosen by deterministic rules (least index), so repeated
runs produce identical results; correctness never depends on pivot
choice, only exactness does, and Fraction arithmetic is exact.

Every kernel vector, span witness, Farkas certificate and affine
solution is multiplied back through the matrix before it is returned;
a failure raises CertificateError naming the identity, an explicit
check that also runs under ``python -O``.

>>> m = SparseRationalMatrix.from_dense([[1, 2], [2, 4]])
>>> m.rank()
1
>>> m.kernel_basis()
[(Fraction(-2, 1), Fraction(1, 1))]
"""

from fractions import Fraction

__all__ = ["CertificateError", "SparseRationalMatrix"]


class CertificateError(Exception):
    """An identity a certificate rests on failed when re-checked.

    ``identity`` names it.  Raised by explicit checks, not asserts, so
    the re-verification also runs under ``python -O``.
    """

    def __init__(self, identity):
        super().__init__("certificate identity failed: %s" % identity)
        self.identity = identity


def _require(condition, identity):
    if not condition:
        raise CertificateError(identity)


def _as_fraction(v):
    return v if isinstance(v, Fraction) else Fraction(v)


class SparseRationalMatrix:
    """An n_rows x n_cols matrix with Fraction entries stored sparsely."""

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows, n_cols, entries=None):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    # -- construction and access -------------------------------------------------

    @classmethod
    def from_dense(cls, rows):
        m = cls(len(rows), len(rows[0]) if rows else 0)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    m.entries[(i, j)] = _as_fraction(v)
        return m

    @classmethod
    def from_columns(cls, n_rows, columns):
        """Build from a list of sparse columns (dicts row -> value)."""
        m = cls(n_rows, len(columns))
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    m.entries[(i, j)] = _as_fraction(v)
        return m

    def __setitem__(self, key, v):
        i, j = key
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(key)
        v = _as_fraction(v)
        if v:
            self.entries[key] = v
        else:
            self.entries.pop(key, None)

    def __getitem__(self, key):
        return self.entries.get(key, Fraction(0))

    def column(self, j):
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self):
        cols = [dict() for _ in range(self.n_cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def row_list(self):
        rows = [dict() for _ in range(self.n_rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def transpose(self):
        t = SparseRationalMatrix(self.n_cols, self.n_rows)
        t.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return t

    def matvec(self, x):
        """M x for a dense sequence x of length n_cols."""
        out = [Fraction(0)] * self.n_rows
        for (i, j), v in self.entries.items():
            xj = x[j]
            if xj:
                out[i] += v * xj
        return out

    # -- triplet text format -------------------------------------------------------

    def to_triplet_text(self):
        """Serialize as 'rows cols nnz' then one 'i j value' line per entry."""
        lines = ["%d %d %d" % (self.n_rows, self.n_cols, len(self.entries))]
        for (i, j) in sorted(self.entries):
            lines.append("%d %d %s" % (i, j, self.entries[(i, j)]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_triplet_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty triplet text")
        n_rows, n_cols, nnz = (int(v) for v in lines[0].split())
        if len(lines) - 1 != nnz:
            raise ValueError("expected %d entries, found %d" % (nnz, len(lines) - 1))
        m = cls(n_rows, n_cols)
        for ln in lines[1:]:
            i, j, v = ln.split()
            m[(int(i), int(j))] = Fraction(v)
        return m

    # -- elimination core ----------------------------------------------------------

    def _column_echelon(self):
        """Incremental column reduction with combination tracking.

        Returns (pivots, kernel) where pivots maps a pivot row index to
        (reduced column, combination over original columns) and kernel
        lists the combinations that reduced to zero.
        """
        pivots = {}
        kernel = []
        cols = self.columns()
        for j, col in enumerate(cols):
            vec = dict(col)
            comb = {j: Fraction(1)}
            self._reduce_against(vec, comb, pivots)
            if vec:
                r = min(vec)
                pivots[r] = (vec, comb)
            else:
                kernel.append(comb)
        return pivots, kernel

    @staticmethod
    def _reduce_against(vec, comb, pivots):
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
            if comb is not None:
                for c, v in pcomb.items():
                    newv = comb.get(c, Fraction(0)) - factor * v
                    if newv:
                        comb[c] = newv
                    else:
                        comb.pop(c, None)

    def rank(self):
        pivots = {}
        for j, col in enumerate(self.columns()):
            vec = dict(col)
            self._reduce_against(vec, None, pivots)
            if vec:
                pivots[min(vec)] = (vec, None)
        return len(pivots)

    def kernel_basis(self):
        """Vectors x (dense tuples) spanning {x : M x = 0}."""
        _, kernel = self._column_echelon()
        out = []
        for comb in kernel:
            vec = [Fraction(0)] * self.n_cols
            for j, v in comb.items():
                vec[j] = v
            out.append(tuple(vec))
        for vec in out:
            _require(not any(self.matvec(vec)), "M x = 0 for a kernel vector")
        return out

    def in_span(self, v):
        """Is the dense vector v in the column span?  Returns (bool, witness).

        The witness x satisfies M x = v exactly and is re-verified before
        being returned.
        """
        pivots, _ = self._column_echelon()
        vec = {i: _as_fraction(x) for i, x in enumerate(v) if x}
        comb = {}
        self._reduce_against(vec, comb, pivots)
        if vec:
            return False, None
        # v reduced to zero through the pivots: v = sum_j (-comb_j) col_j.
        witness = [Fraction(0)] * self.n_cols
        for j, c in comb.items():
            witness[j] = -c
        check = self.matvec(witness)
        target = [_as_fraction(x) for x in v]
        _require(all(a == b for a, b in zip(check, target)),
                 "M x = v for the span witness")
        return True, tuple(witness)

    def solve_affine(self, b, row_order=None):
        """Solve M x = b exactly, else return a Farkas certificate.

        Returns (solution, None) with M @ solution = b, or (None,
        certificate) where the certificate y is a sparse dict over row
        indices with y M = 0 and y b != 0: no solution can exist because
        applying y to both sides gives 0 = nonzero.  ``row_order`` lets
        the caller schedule rows (certificates surface early when the
        contradictory rows come first); default is index order.  Either
        answer is re-checked against M and b before it is returned.
        """
        b = [_as_fraction(x) for x in b]
        solution, certificate = self._eliminate_affine(b, row_order)
        if certificate is not None:
            check = {}
            for (r, j), v in self.entries.items():
                if r in certificate:
                    check[j] = check.get(j, 0) + certificate[r] * v
            _require(not any(check.values()), "y M = 0 for the Farkas certificate")
            _require(sum(c * b[r] for r, c in certificate.items()) != 0,
                     "y b != 0 for the Farkas certificate")
            return None, certificate
        _require(all(x == y for x, y in zip(self.matvec(solution), b)),
                 "M x = b for the affine solution")
        return solution, None

    def _eliminate_affine(self, b, row_order):
        """(solution, None) or (None, certificate) for M x = b, by row
        elimination; unchecked (``solve_affine`` checks both)."""
        rows = self.row_list()
        order = row_order if row_order is not None else range(self.n_rows)
        pivots = {}
        for i in order:
            vec = dict(rows[i])
            vec_b = b[i]
            comb = {i: Fraction(1)}
            # Reduce the augmented row [row | b_i | comb] against pivots.
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
                # 0 = vec_b != 0: comb is the contradiction certificate.
                return None, dict(comb)
        # Back-substitute on the echelon rows, free variables at zero.
        solution = [Fraction(0)] * self.n_cols
        for c in sorted(pivots, reverse=True):
            pvec, pb, _ = pivots[c]
            acc = pb
            for jj, v in pvec.items():
                if jj != c:
                    acc -= v * solution[jj]
            solution[c] = acc / pvec[c]
        return tuple(solution), None

    def __repr__(self):
        return "SparseRationalMatrix(%d x %d, nnz=%d)" % (
            self.n_rows, self.n_cols, len(self.entries))
