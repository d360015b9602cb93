"""Sparse exact linear algebra, on one elimination kernel.

Every rank, span witness and Farkas certificate here is computed by
``_IncrementalSpan``: a reduced echelon form over the rationals that
takes one sparse vector at a time (the omega obstruction of
``goldman.verify`` is a closed form, and no command calls
``solve_affine``).  Integer vectors stay in integer arithmetic while
every pivot is +1 or -1, and Fractions appear only at another pivot.
Its reduction step hands back the residual of a vector modulo the span
without keeping it.

``SparseRationalMatrix`` keeps its entries as a dictionary mapping
(row, col) to Fraction and tracks combinations with tag coordinates: a
vector inserted as the i-th one carries a 1 on a tag coordinate of its
own, placed after the real coordinates, and a residual whose real part
is zero is read, never kept.  Pivots are always real coordinates, so
the tag part of a residual is the combination that produced it:

* ``rank(M)`` is the number of columns [col_j | tag_j] kept when they
  are inserted in index order;
* ``in_span(M, v)`` inserts the same columns and reduces [v | 0]; if
  the real part vanishes, the negated tag part is a coefficient vector
  x with M x = v;
* ``solve_affine(M, b)`` inserts the rows [row_i | b_i | tag_i] in
  index order.  The first row whose real part reduces to zero with a
  nonzero b part has a tag part y with y M = 0 and y b != 0, a
  Farkas-style certificate that no solution exists; if there is none,
  the solution reads b off the normalised pivot rows, free variables 0.

Each of these is unique whatever elimination finds it.  The columns (or
rows) kept are the greedy independent set in index order, which no
elimination changes; a span witness or a solution with its free
variables at 0 is then the unique one over that set, and a Farkas
certificate is fixed by the first inconsistent row and the independent
rows before it.  So the kernel returns exactly what any textbook
elimination in index order returns, bit for bit.

Every span witness, Farkas certificate and affine solution is
multiplied back through the matrix before it is returned; a failure
raises CertificateError naming the identity, an explicit check that
also runs under ``python -O``.

>>> m = SparseRationalMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
>>> m.rank()
1
>>> m.in_span((3, 6))
(True, (Fraction(3, 1), Fraction(0, 1)))
>>> m.in_span((1, 0))
(False, None)
"""

from fractions import Fraction

__all__ = ["CertificateError", "SparseRationalMatrix"]


class CertificateError(Exception):
    """An identity a certificate rests on failed when re-checked.

    ``identity`` names it.  Raised by explicit checks, not asserts, so
    the re-verification also runs under ``python -O``.
    """

    def __init__(self, identity):
        # Only the identity goes into ``args``, so the error pickles back to itself.
        super().__init__(identity)
        self.identity = identity

    def __str__(self):
        return "certificate identity failed: %s" % self.identity


def _require(condition, identity):
    if not condition:
        raise CertificateError(identity)


def _as_fraction(v):
    return v if isinstance(v, Fraction) else Fraction(v)


class _IncrementalSpan:
    """Reduced echelon form over Q that accepts one sparse vector at a time.

    Entries are ints or Fractions.  A kept residual is divided by its
    lead, except that a lead of +1 or -1 is multiplied instead, so
    integer vectors stay ints through elimination for as long as every
    pivot is a unit, and Fractions appear only at another pivot.

    ``pivots`` maps each pivot row r to the tail of its basis vector:
    the vector is 1 at r, 0 at every other pivot row, and the tail holds
    its entries on non-pivot rows, all of them after r.  ``_users`` maps
    each non-pivot row to the pivot rows whose tails use it.  A vector
    is then reduced with one tail subtraction per pivot row it touches,
    and a kept residual is eliminated from the tails that use its pivot
    row.  The pivot of a kept residual is its least row, so the pivot
    rows are the least rows of the span's vectors.
    """

    __slots__ = ("pivots", "_users")

    def __init__(self):
        self.pivots = {}
        self._users = {}

    def reduce(self, vec):
        """The residual of vec (dict row -> coefficient) modulo the span:
        the unique vector of vec + span that is zero on every pivot row,
        as a dict without zero entries.  The span is not changed."""
        pivots = self.pivots
        acc = {}
        for k, c in vec.items():
            tail = pivots.get(k)
            if tail is None:
                acc[k] = acc.get(k, 0) + c
            elif c:
                for r, t in tail.items():
                    acc[r] = acc.get(r, 0) - c * t
        return {r: v for r, v in acc.items() if v}

    def keep(self, residual):
        """Add a nonzero residual of ``reduce`` to the span (the dict is
        consumed); it pivots on its least row."""
        pivots = self.pivots
        # Rows are indexed heavy first by the inner search, so a column
        # [u+v]-[u]-[v] usually pivots on a row no tail uses yet.
        r = min(residual)
        lead = residual.pop(r)
        # 1 / lead is lead itself when lead is a unit, and keeps ints ints.
        inv = lead if lead in (1, -1) else Fraction(1) / lead
        new = {s: v * inv for s, v in residual.items()}
        users = self._users
        for k in users.pop(r, ()):
            tail = pivots[k]
            t = tail.pop(r)
            for s, v in new.items():
                x = tail.get(s, 0) - t * v
                if x:
                    tail[s] = x
                    users.setdefault(s, set()).add(k)
                else:
                    del tail[s]
                    users[s].discard(k)
        pivots[r] = new
        for s in new:
            users.setdefault(s, set()).add(r)

    def insert(self, vec):
        """Reduce vec and keep it if it is independent; True if kept."""
        residual = self.reduce(vec)
        if not residual:
            return False
        self.keep(residual)
        return True

    @property
    def rank(self):
        return len(self.pivots)


def _untag(residual, offset, length):
    """The dense vector (of ``length``) of the entries of a residual on
    the tag rows from ``offset`` on."""
    out = [Fraction(0)] * length
    for k, v in residual.items():
        out[k - offset] = v
    return out


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

    def matvec(self, x):
        """M x for a dense sequence x of length n_cols."""
        out = [Fraction(0)] * self.n_rows
        for (i, j), v in self.entries.items():
            xj = x[j]
            if xj:
                out[i] += v * xj
        return out

    # -- elimination ---------------------------------------------------------------

    def _column_echelon(self):
        """The span of the tagged columns [col_j | tag_j], tag j on row
        n_rows + j, keeping the independent ones in index order.

        The kernel's one column pass, behind rank and in_span; the
        benchmark's per-layer hook counts it by this name."""
        n = self.n_rows
        span = _IncrementalSpan()
        for j, col in enumerate(self.columns()):
            col[n + j] = Fraction(1)
            residual = span.reduce(col)
            if min(residual) < n:
                span.keep(residual)
        return span

    def rank(self):
        return self._column_echelon().rank

    def in_span(self, v):
        """Is the dense vector v in the column span?  Returns (bool, witness).

        The witness x satisfies M x = v exactly and is re-verified before
        being returned.
        """
        if len(v) != self.n_rows:
            raise ValueError("vector of length %d, expected %d" % (len(v), self.n_rows))
        span = self._column_echelon()
        target = [_as_fraction(x) for x in v]
        residual = span.reduce({i: x for i, x in enumerate(target) if x})
        if residual and min(residual) < self.n_rows:
            return False, None
        # The residual is [v | 0] - [M x | x] for the witness x.
        witness = tuple(-c for c in _untag(residual, self.n_rows, self.n_cols))
        _require(self.matvec(witness) == target, "M x = v for the span witness")
        return True, witness

    def solve_affine(self, b):
        """Solve M x = b exactly, else return a Farkas certificate.

        Returns (solution, None) with M @ solution = b, or (None,
        certificate) where the certificate y is a sparse dict over row
        indices with y M = 0 and y b != 0: no solution can exist because
        applying y to both sides gives 0 = nonzero.  Either answer is
        re-checked against M and b before it is returned.
        """
        if len(b) != self.n_rows:
            raise ValueError("right-hand side of length %d, expected %d"
                             % (len(b), self.n_rows))
        b = [_as_fraction(x) for x in b]
        n = self.n_cols
        span = _IncrementalSpan()
        for i, row in enumerate(self.row_list()):
            row[n] = b[i]
            row[n + 1 + i] = Fraction(1)
            residual = span.reduce(row)
            if min(residual) < n:
                span.keep(residual)
            elif n in residual:
                # 0 = residual[n] != 0: the tag part is the certificate.
                certificate = {k - n - 1: c for k, c in residual.items() if k > n}
                check = {}
                for (r, j), v in self.entries.items():
                    if r in certificate:
                        check[j] = check.get(j, 0) + certificate[r] * v
                _require(not any(check.values()), "y M = 0 for the Farkas certificate")
                _require(sum(c * b[r] for r, c in certificate.items()) != 0,
                         "y b != 0 for the Farkas certificate")
                return None, certificate
        # Each pivot row reads x_c + (free variables) = its b entry.
        solution = [Fraction(0)] * n
        for c, tail in span.pivots.items():
            solution[c] = tail.get(n, Fraction(0))
        solution = tuple(solution)
        _require(self.matvec(solution) == b, "M x = b for the affine solution")
        return solution, None

    def __repr__(self):
        return "SparseRationalMatrix(%d x %d, nnz=%d)" % (
            self.n_rows, self.n_cols, len(self.entries))
