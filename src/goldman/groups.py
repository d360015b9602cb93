"""Finitely generated abelian groups carrying an alternating integer form.

A group is presented by an integer relation matrix R acting on n
generators: H = Z^n / (row lattice of R).  Everything downstream needs a
canonical form for elements, which the Smith normal form provides: with
unimodular U, V such that U R V = D diagonal, the coordinate change
x |-> x V (rows act on the right throughout) carries the relation
lattice onto the lattice spanned by the d_i e_i.  An element is then
canonically a length-n integer tuple whose i-th entry is reduced mod d_i
when d_i > 1, is identically 0 when d_i = 1, and is a free integer when
d_i = 0.

The group carries an alternating bilinear form given on generators by an
integer matrix Omega with x Omega y^T the pairing of row vectors.  For
the pairing to descend to H the relations must pair to zero with
everything: R Omega = 0.  In canonical coordinates the form becomes
Omega~ = V^{-1} Omega V^{-T}, and the descent condition makes every row
of Omega~ at a non-free index vanish, so the canonical pairing is
well defined.

The radical ker mu = {x : <x, y> = 0 for all y} plays a structural role:
its complement H^(1) = H minus ker mu indexes the derived part of the
Goldman bracket, and the pairing of x with all of H vanishes exactly
when the canonical coordinate row of x annihilates Omega~.

Coordinate arithmetic (sum, difference and pairing of canonical
tuples) is generated per group as straight-line code: each spec
compiles its own three functions once, specialised to its rank, its
torsion moduli and the nonzero entries of Omega~, and the tests check
them against the loop forms.

>>> z2 = GroupSpec(2, form=[[0, 1], [-1, 0]])
>>> x, y = z2.generators()
>>> z2.pairing(x, y)
1
>>> (x + y - x).coords
(0, 1)
>>> x.in_kernel_mu()
False
>>> mixed = GroupSpec(3, relations=[[0, 0, 2]], form=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
>>> mixed.torsion_coefficients
(2,)
>>> t = mixed.element([0, 0, 3])
>>> t.coords[mixed.torsion_indices[0]]
1
>>> t.is_torsion() and t.in_kernel_mu()
True
"""

__all__ = [
    "smith_normal_form",
    "SnfDecomposition",
    "GroupSpec",
    "GroupElement",
    "surface_presentation",
]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    if not a:
        return []
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * p
        for k, v in enumerate(row):
            if v:
                brow = b[k]
                for j in range(p):
                    acc[j] += v * brow[j]
        out.append(acc)
    return out


def _determinant(m):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact by Sylvester's identity: prev divides the product.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _strict_int(value, what):
    """value itself when it is an int (bool excluded); ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


class SnfDecomposition:
    """Smith normal form U @ R @ V = D with unimodular U, V, and the
    integer inverse ``V_inv`` of V.

    ``diagonal`` lists the diagonal of D padded to the column count, so
    entry j is the invariant factor of the j-th canonical coordinate
    (0 = free, 1 = dead, d > 1 = torsion of order d).
    """

    __slots__ = ("matrix", "U", "D", "V", "V_inv", "diagonal")

    def __init__(self, matrix, U, D, V, V_inv, diagonal):
        self.matrix = matrix
        self.U = U
        self.D = D
        self.V = V
        self.V_inv = V_inv
        self.diagonal = diagonal

    def validate(self):
        """Recheck U R V = D, unimodularity, V V_inv = I, and the
        divisibility chain."""
        m = len(self.matrix)
        if _mat_mul(_mat_mul(self.U, self.matrix), self.V) != self.D:
            raise AssertionError("U R V != D")
        if abs(_determinant(self.U)) != 1 or abs(_determinant(self.V)) != 1:
            raise AssertionError("transform matrix is not unimodular")
        if _mat_mul(self.V, self.V_inv) != _identity(len(self.V)):
            raise AssertionError("V V_inv != I")
        nonzero = [d for d in self.diagonal if d != 0]
        for a, b in zip(nonzero, nonzero[1:]):
            if b % a != 0:
                raise AssertionError("divisibility chain broken: %d does not divide %d" % (a, b))
        seen_zero = False
        for d in self.diagonal[:m]:
            if d == 0:
                seen_zero = True
            elif seen_zero:
                raise AssertionError("nonzero invariant factor after a zero")
        return True


def smith_normal_form(rows, n_cols=None):
    """Smith normal form of an integer matrix given as a list of rows.

    Returns an SnfDecomposition with U (m x m), V (n x n), D = U R V
    diagonal with nonnegative entries in a divisibility chain, and
    V_inv = V^{-1}: each column operation on V is mirrored on V_inv as
    the inverse row operation.
    ``n_cols`` is required when ``rows`` is empty.

    >>> snf = smith_normal_form([[2, 4], [6, 8]])
    >>> snf.diagonal
    (2, 4)
    >>> snf.validate()
    True
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        if n_cols is None:
            raise ValueError("n_cols required for an empty matrix")
        n = n_cols
    else:
        n = len(rows[0])
        if n_cols is not None and n_cols != n:
            raise ValueError("n_cols disagrees with row width")
        if any(len(r) != n for r in rows):
            raise ValueError("ragged matrix")
    a = [r[:] for r in rows]
    u = _identity(m)
    v = _identity(n)
    v_inv = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src, mirrored on U to keep U R V = A.
        arow, asrc = a[dst], a[src]
        for j in range(n):
            arow[j] += q * asrc[j]
        urow, usrc = u[dst], u[src]
        for j in range(m):
            urow[j] += q * usrc[j]

    def add_col(dst, src, q):
        # col_dst += q * col_src, mirrored on V; V_inv takes the inverse
        # row operation, row_src -= q * row_dst.
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        vsrc, vdst = v_inv[src], v_inv[dst]
        for j in range(n):
            vsrc[j] -= q * vdst[j]

    t = 0
    while t < min(m, n):
        # Pick the nonzero entry of smallest magnitude as pivot; small
        # pivots keep the Euclidean passes short.
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = a[i][j]
                if val != 0 and (best is None or abs(val) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # Euclidean reduction of column t, then row t, against the pivot.
            moved = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        moved = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        moved = True
            if moved:
                continue
            # Divisibility fix-up: fold in any entry the pivot misses.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1

    diagonal = tuple(a[j][j] if j < m else 0 for j in range(n))
    return SnfDecomposition(rows, u, a, v, v_inv, diagonal)


def _coordinate_kernels(divisors, pair_entries):
    """Straight-line (add_coords, sub_coords, pair_coords) for one group.

    The source of each function is generated for the group's invariant
    factors and the nonzero entries of Omega~ above the diagonal, then
    compiled once with ``exec`` (as ``dataclasses`` builds its methods):
    a free coordinate is a plain sum, a torsion coordinate of order d a
    sum ``% d``, and a dead coordinate the constant 0, which it is on
    every canonical tuple.  The pairing is the sum of
    w (a_i b_j - a_j b_i) over the entries (i, j, w), with i < j.

    >>> add, sub, pair = _coordinate_kernels((1, 0, 2), ((1, 2, 3),))
    >>> add((0, 4, 1), (0, -1, 1)), sub((0, 4, 1), (0, -1, 1))
    ((0, 3, 0), (0, 5, 0))
    >>> pair((0, 1, 0), (0, 0, 1))
    3
    """
    def coordinate(op, j, d):
        if d == 1:
            return "0"
        term = "a[%d] %s b[%d]" % (j, op, j)
        return term if d == 0 else "(%s) %% %d" % (term, d)

    def coords(op):
        return "(%s,)" % ", ".join(coordinate(op, j, d) for j, d in enumerate(divisors))

    terms = []
    for i, j, w in pair_entries:
        cross = "(a[%d] * b[%d] - a[%d] * b[%d])" % (i, j, j, i)
        terms.append(cross if w == 1 else "-" + cross if w == -1 else "%d * %s" % (w, cross))
    source = ("def add_coords(a, b):\n    return %s\n\n"
              "def sub_coords(a, b):\n    return %s\n\n"
              "def pair_coords(a, b):\n    return %s\n"
              % (coords("+"), coords("-"), " + ".join(terms) or "0"))
    namespace = {"__name__": __name__}
    exec(source, namespace)
    return namespace["add_coords"], namespace["sub_coords"], namespace["pair_coords"]


class GroupElement:
    """An element of a GroupSpec group in canonical coordinates.

    Instances are immutable, hashable, and totally ordered within one
    spec (lexicographically on canonical coordinates), which the rest of
    the package leans on for deterministic enumeration.
    """

    __slots__ = ("spec", "coords", "_derived")

    def __init__(self, spec, coords):
        self.spec = spec
        self.coords = coords
        self._derived = None

    def __add__(self, other):
        if other.spec is not self.spec:
            raise ValueError("elements belong to different groups")
        return GroupElement(self.spec, self.spec.add_coords(self.coords, other.coords))

    def __sub__(self, other):
        if other.spec is not self.spec:
            raise ValueError("elements belong to different groups")
        return GroupElement(self.spec, self.spec.sub_coords(self.coords, other.coords))

    def __neg__(self):
        spec = self.spec
        return GroupElement(spec, spec.sub_coords(spec.zero.coords, self.coords))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return self.spec._reduce([k * a for a in self.coords])

    __rmul__ = __mul__

    def in_kernel_mu(self):
        """True when <self, y> = 0 for every y, i.e. self lies in the radical."""
        if self._derived is None:
            pair, coords = self.spec.pair_coords, self.coords
            self._derived = any(pair(coords, e.coords) for e in self.spec.units)
        return not self._derived

    def is_derived_element(self):
        """True when self pairs nonzero with something (lies in H^(1))."""
        return not self.in_kernel_mu()

    def is_torsion(self):
        return all(self.coords[j] == 0 for j in self.spec.free_indices)

    def weight(self):
        """Deterministic size: free coordinates by |.|, torsion by cyclic distance."""
        w = 0
        for j in self.spec.free_indices:
            w += abs(self.coords[j])
        for j, d in self.spec.torsion:
            c = self.coords[j]
            w += min(c, d - c)
        return w

    def sort_key(self):
        return (self.weight(), self.coords)

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and other.spec is self.spec
                and other.coords == self.coords)

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        if other.spec is not self.spec:
            raise ValueError("elements belong to different groups")
        return self.coords < other.coords

    def __le__(self, other):
        return self == other or self < other

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class GroupSpec:
    """A finitely presented abelian group with an alternating form.

    Arguments: the generator count, an optional iterable of integer
    relation rows, the form matrix Omega (defaults to zero), and
    optional generator names used only for display.

    Validation is eager: Omega must be alternating and must pair to zero
    with every relation row (otherwise the form would not descend to the
    quotient).  Both failures raise ValueError naming the violation, as
    does any entry of the generator count, relations or form that is not
    an int (floats such as 1.5 or 2.0, and bools, are rejected, never
    truncated).

    ``add_coords(a, b)``, ``sub_coords(a, b)`` and ``pair_coords(a, b)``
    work on canonical coordinate tuples: the coordinates of a + b and
    a - b, and the integer <a, b>.  They are the arithmetic under every
    differential and of ``GroupElement``'s sum, difference, negation and
    radical test (against ``units``), so each spec generates them as
    straight-line code for its own rank, torsion and form
    (``_coordinate_kernels``); the tests check them against plain loops
    over ``torsion`` and the Omega~ entries.  ``label`` names the group
    in reports ("Z^3 + Z/2"); it is computed once, here.  ``units``, the
    elements of weight 1 in ``sort_key`` order, generate H;
    ``kernel_basis``, integer generators of ker mu, is also computed once.
    """

    __slots__ = ("n_generators", "relations", "form", "names", "snf",
                 "divisors", "free_indices", "torsion", "dead_indices",
                 "omega_tilde", "zero", "units", "kernel_basis", "_v",
                 "_pair_entries", "torsion_indices", "torsion_coefficients",
                 "free_rank", "label", "add_coords", "sub_coords", "pair_coords", "_boxes")

    def __init__(self, n_generators, relations=(), form=None, names=None):
        n = _strict_int(n_generators, "n_generators")
        if n < 1:
            raise ValueError("need at least one generator")
        self.n_generators = n
        self.relations = tuple(
            tuple(_strict_int(v, "relations[%d][%d]" % (i, j)) for j, v in enumerate(row))
            for i, row in enumerate(relations))
        for row in self.relations:
            if len(row) != n:
                raise ValueError("relation row has wrong width")
        if form is None:
            form = [[0] * n for _ in range(n)]
        self.form = tuple(
            tuple(_strict_int(v, "form[%d][%d]" % (i, j)) for j, v in enumerate(row))
            for i, row in enumerate(form))
        if len(self.form) != n or any(len(r) != n for r in self.form):
            raise ValueError("form matrix must be %d x %d" % (n, n))
        for i in range(n):
            if self.form[i][i] != 0:
                raise ValueError("form is not alternating: Omega[%d][%d] != 0" % (i, i))
            for j in range(i + 1, n):
                if self.form[i][j] != -self.form[j][i]:
                    raise ValueError(
                        "form is not alternating: Omega[%d][%d] != -Omega[%d][%d]"
                        % (i, j, j, i))
        for idx, row in enumerate(self.relations):
            # Descent: the pairing of a relation with every generator vanishes.
            prod = [sum(row[i] * self.form[i][j] for i in range(n)) for j in range(n)]
            if any(prod):
                raise ValueError(
                    "form does not descend: relation row %d pairs nonzero (R Omega != 0)" % idx)
        self.names = tuple(names) if names is not None else None
        if self.names is not None and len(self.names) != n:
            raise ValueError("need one name per generator")

        self.snf = smith_normal_form(self.relations, n_cols=n)
        self.divisors = self.snf.diagonal
        self._v = self.snf.V
        self.free_indices = tuple(j for j, d in enumerate(self.divisors) if d == 0)
        self.torsion = tuple((j, d) for j, d in enumerate(self.divisors) if d > 1)
        self.dead_indices = tuple(j for j, d in enumerate(self.divisors) if d == 1)
        self.torsion_indices = tuple(j for j, _ in self.torsion)
        self.torsion_coefficients = tuple(d for _, d in self.torsion)
        self.free_rank = len(self.free_indices)
        parts = ["Z^%d" % self.free_rank if self.free_rank > 1 else "Z"] if self.free_rank else []
        parts.extend("Z/%d" % d for d in self.torsion_coefficients)
        self.label = " + ".join(parts) or "0"

        vinv = self.snf.V_inv
        omega = [[sum(vinv[i][a] * self.form[a][b] * vinv[j][b]
                      for a in range(n) for b in range(n))
                  for j in range(n)] for i in range(n)]
        # Descent forces d_i * row_i(Omega~) = 0, so non-free rows vanish.
        for j in range(n):
            if j not in self.free_indices and any(omega[j]):
                raise ValueError("row %d of Omega~ at a non-free index is nonzero "
                                 "(descent of the form failed)" % j)
        self.omega_tilde = tuple(tuple(row) for row in omega)
        # The form is alternating, so the entries above the diagonal
        # determine it: <a, b> = sum of w (a_i b_j - a_j b_i) over i < j.
        self._pair_entries = tuple(
            (i, j, self.omega_tilde[i][j])
            for i in range(n) for j in range(i + 1, n) if self.omega_tilde[i][j])
        self.add_coords, self.sub_coords, self.pair_coords = _coordinate_kernels(
            self.divisors, self._pair_entries)
        self._boxes = {}
        self.zero = GroupElement(self, (0,) * n)
        # +-e_j on a free coordinate, e_j and (d - 1) e_j on one of order d.
        self.units = tuple(sorted(
            (GroupElement(self, tuple(v * (i == j) for i in range(n)))
             for j, d in enumerate(self.divisors) if d != 1
             for v in ({-1, 1} if d == 0 else {1, d - 1})), key=GroupElement.sort_key))
        # Integer generators of ker mu: the torsion units, then a lattice
        # basis of the kernel of the free block of Omega~ (the rows of U
        # whose Smith divisor is 0).
        basis = [self.canonical([int(i == j) for i in range(n)]) for j in self.torsion_indices]
        free = self.free_indices
        if free:
            snf = smith_normal_form([[omega[i][j] for j in free] for i in free], n_cols=len(free))
            for row, d in zip(snf.U, snf.diagonal):
                if d == 0:
                    coords = [0] * n
                    for idx, c in zip(free, row):
                        coords[idx] = c
                    basis.append(self.canonical(coords))
        self.kernel_basis = tuple(basis)

    def _reduce(self, coords):
        for j, d in self.torsion:
            coords[j] %= d
        for j in self.dead_indices:
            coords[j] = 0
        return GroupElement(self, tuple(coords))

    def element(self, coords):
        """Build an element from original-generator coordinates.

        Every coordinate must be an int (bools and floats such as 1.5 or
        2.0 raise ValueError, never truncate).
        """
        coords = [_strict_int(c, "coords[%d]" % i) for i, c in enumerate(coords)]
        if len(coords) != self.n_generators:
            raise ValueError("expected %d coordinates" % self.n_generators)
        v = self._v
        canon = [sum(coords[i] * v[i][j] for i in range(self.n_generators) if coords[i])
                 for j in range(self.n_generators)]
        return self._reduce(canon)

    def canonical(self, coords):
        """Build an element directly from canonical coordinates (ints
        only, as for ``element``)."""
        coords = [_strict_int(c, "coords[%d]" % i) for i, c in enumerate(coords)]
        if len(coords) != self.n_generators:
            raise ValueError("expected %d coordinates" % self.n_generators)
        return self._reduce(coords)

    def generators(self):
        n = self.n_generators
        return [self.element([int(i == k) for i in range(n)]) for k in range(n)]

    def pairing(self, x, y):
        """The alternating pairing <x, y>, an integer."""
        if x.spec is not self or y.spec is not self:
            raise ValueError("elements belong to different groups")
        return self.pair_coords(x.coords, y.coords)

    def mu_is_zero(self):
        """True when the form vanishes identically on H (the abelian case)."""
        return all(all(v == 0 for v in row) for row in self.omega_tilde)

    def describe(self):
        """Structure summary used by validation output."""
        return {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion_coefficients),
            "group": self.label,
            "kernel_mu_generators": [repr(x) for x in self.kernel_basis],
            "form_is_zero": self.mu_is_zero(),
        }

    def __repr__(self):
        return "GroupSpec(n=%d, relations=%d, torsion=%s)" % (
            self.n_generators, len(self.relations), list(self.torsion_coefficients))


def surface_presentation(g, r):
    """First homology of a compact oriented surface of genus g with r boundary circles.

    Generators A_1, B_1, ..., A_g, B_g, C_1, ..., C_r with the single
    relation C_1 + ... + C_r = 0 (no relation when r = 0) and the
    intersection form <A_i, B_i> = 1, all other pairings of generators
    zero.  The boundary classes span ker mu.

    >>> s = surface_presentation(1, 2)
    >>> s.describe()["group"]
    'Z^3'
    >>> [x.in_kernel_mu() for x in s.generators()]
    [False, False, True, True]
    """
    if g < 0 or r < 0:
        raise ValueError("genus and boundary count must be nonnegative")
    if g == 0 and r == 0:
        raise ValueError("genus 0 with no boundary gives the trivial group; "
                         "at least one generator is required")
    n = 2 * g + r
    form = [[0] * n for _ in range(n)]
    for i in range(g):
        form[2 * i][2 * i + 1] = 1
        form[2 * i + 1][2 * i] = -1
    relations = []
    if r >= 1:
        relations.append([0] * (2 * g) + [1] * r)
    names = []
    for i in range(g):
        names.extend(["A%d" % (i + 1), "B%d" % (i + 1)])
    names.extend("C%d" % (j + 1) for j in range(r))
    return GroupSpec(n, relations=relations, form=form, names=names)
