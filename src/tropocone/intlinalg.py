"""Exact integer linear algebra: Smith/Hermite normal forms, lattices,
quotient presentations, and integer solvability.

Everything runs over arbitrary-precision Python integers; the rational
rank and solve eliminate fraction-free and return fractions.Fraction
values.  No floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .value import Value, set_field


class ZeroVector(ValueError):
    """Raised when a primitive vector of the zero vector is requested."""


class NotSublattice(ValueError):
    """Raised when an alleged sublattice vector is not an integer
    combination of the ambient basis."""


# ---------------------------------------------------------------------------
# vectors

def dot(u, v):
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def is_zero_vec(u):
    return not any(u)


def primitive(v):
    """Divide an integer vector by the gcd of its entries, sign preserved."""
    v = tuple(map(int, v))
    g = gcd(*v)
    if g == 0:
        raise ZeroVector("primitive() of the zero vector")
    return v if g == 1 else tuple(a // g for a in v)


def sign_normalized(v):
    """Primitive vector scaled so its first nonzero entry is positive.

    Canonical representative of the hyperplane {v = 0}.
    """
    p = primitive(v)
    for a in p:
        if a != 0:
            return p if a > 0 else tuple(-x for x in p)
    raise ZeroVector("sign_normalized() of the zero vector")


# ---------------------------------------------------------------------------
# matrices

class IntMatrix(Value):
    """Immutable integer matrix, row-major entries."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the stated shape")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)

    @staticmethod
    def from_rows(rows, cols=None):
        rows = [tuple(int(x) for x in r) for r in rows]
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
            cols = width
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        flat = tuple(x for r in rows for x in r)
        return IntMatrix(len(rows), cols, flat)

    @staticmethod
    def from_cols(cols, rows=None):
        cols = [tuple(int(x) for x in c) for c in cols]
        if cols:
            height = len(cols[0])
            if rows is not None and rows != height:
                raise ValueError("explicit row count disagrees with columns")
            rows = height
            if any(len(c) != rows for c in cols):
                raise ValueError("ragged columns")
        elif rows is None:
            rows = 0
        flat = tuple(cols[j][i] for i in range(rows) for j in range(len(cols)))
        return IntMatrix(rows, len(cols), flat)

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(1 if i == j else 0
                                     for i in range(n) for j in range(n)))

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         tuple(self.entry(i, j)
                               for j in range(self.cols)
                               for i in range(self.rows)))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = [other.entries[j::other.cols] for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols, tuple(
            dot(self.row(i), c) for i in range(self.rows) for c in cols))

    def apply(self, vec):
        """Matrix times column vector; accepts int or Fraction entries."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(dot(self.row(i), vec) for i in range(self.rows))

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i))
                               for i in range(self.rows)) + "]"


def block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = []
    for i in range(a.rows):
        rows.append(tuple(a.row(i)) + (0,) * b.cols)
    for i in range(b.rows):
        rows.append((0,) * a.cols + tuple(b.row(i)))
    return IntMatrix.from_rows(rows, a.cols + b.cols)


# ---------------------------------------------------------------------------
# rational elimination helpers, fraction-free: rows are scaled to integers
# and every row operation is divided by the gcd of the new row

def _integer_rows(rows):
    """Integer rows spanning the same lines as int/Fraction ``rows``: each
    row times the lcm of its denominators."""
    out = []
    for r in rows:
        d = lcm(*(x.denominator for x in r))
        out.append([x.numerator * (d // x.denominator) for x in r])
    return out


def _eliminate(m, ncols, full):
    """Integer row echelon form of ``m`` in place, over its first ``ncols``
    columns; ``full`` also clears the entries above each pivot.  Returns
    the pivot columns."""
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        a = p[col]
        for i in range(0 if full else rank + 1, len(m)):
            b = m[i][col]
            if b and i != rank:
                row = [a * x - b * y for x, y in zip(m[i], p)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return pivots


def frac_rank(rows):
    """Rank over the rationals of a list of integer/Fraction row vectors."""
    m = _integer_rows(rows)
    return len(_eliminate(m, len(m[0]) if m else 0, full=False))


def frac_solve(a_rows, b):
    """One rational solution x of A x = b, or None if inconsistent.

    Free variables are set to zero.  A system without rows has no column
    count, so it raises ValueError.
    """
    if not a_rows:
        raise ValueError("a system without rows has no column count")
    if len(b) != len(a_rows):
        raise ValueError("right-hand side length does not match the rows")
    ncols = len(a_rows[0])
    m = _integer_rows([tuple(r) + (bi,) for r, bi in zip(a_rows, b)])
    pivots = _eliminate(m, ncols, full=True)
    if any(r[ncols] for r in m[len(pivots):]):
        return None
    from fractions import Fraction
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = Fraction(m[r][ncols], m[r][col])
    return tuple(x)


# ---------------------------------------------------------------------------
# normal forms

def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for r in m:
        r[i], r[j] = r[j], r[i]


def _add_row(m, dst, src, c):
    m[dst] = [a + c * b for a, b in zip(m[dst], m[src])]


def _add_col(m, dst, src, c):
    for r in m:
        r[dst] += c * r[src]


# bounded memo of small SNFs (frozen results, shared safely); (rows + cols)^2
# bounds the cells of the key and of D, U, V, so the memo is bounded in bytes
_SNF_MEMO_SIZE = 4096
_SNF_MEMO_CELLS = 256


def smith_normal_form(mat: IntMatrix):
    """Smith normal form with transforms: U @ mat @ V == D.

    D is diagonal with d_i | d_{i+1} and d_i >= 0; U and V are unimodular.
    Pivot choice is by minimal absolute value, which keeps coefficient
    growth tame at the matrix sizes used here.
    """
    if (mat.rows + mat.cols) ** 2 <= _SNF_MEMO_CELLS:
        return _smith_normal_form(mat)
    return _smith_normal_form.__wrapped__(mat)


@lru_cache(maxsize=_SNF_MEMO_SIZE)
def _smith_normal_form(mat: IntMatrix):
    r, c = mat.rows, mat.cols
    a = mat.to_rows()
    u = IntMatrix.identity(r).to_rows()
    v = IntMatrix.identity(c).to_rows()

    def reduce_at(t):
        while True:
            piv = None
            best = None
            for i in range(t, r):
                for j in range(t, c):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        piv = (i, j)
            if piv is None:
                return False
            if piv != (t, t):
                _swap_rows(a, t, piv[0])
                _swap_rows(u, t, piv[0])
                _swap_cols(a, t, piv[1])
                _swap_cols(v, t, piv[1])
            clean = True
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    _add_row(a, i, t, -q)
                    _add_row(u, i, t, -q)
                    if a[i][t] != 0:
                        clean = False
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    _add_col(a, j, t, -q)
                    _add_col(v, j, t, -q)
                    if a[t][j] != 0:
                        clean = False
            if clean:
                return True

    for t in range(min(r, c)):
        if not reduce_at(t):
            break

    # enforce the divisibility chain; the nonzero pivots stay a prefix, as
    # reduce_at fails only when the whole remaining block is zero
    changed = True
    while changed:
        changed = False
        for i in range(min(r, c) - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj != 0 and di != 0 and dj % di != 0:
                _add_col(a, i, i + 1, 1)
                _add_col(v, i, i + 1, 1)
                for k in range(i, min(r, c)):
                    if not reduce_at(k):
                        break
                changed = True
                break

    for i in range(min(r, c)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    return (IntMatrix.from_rows(a, c),
            IntMatrix.from_rows(u, r),
            IntMatrix.from_rows(v, c))


def snf_diagonal(mat: IntMatrix):
    d, _, _ = smith_normal_form(mat)
    return [d.entry(i, i) for i in range(min(mat.rows, mat.cols))]


def det(mat: IntMatrix):
    """Exact determinant via fraction-free Bareiss elimination."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    a = mat.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hermite_rows(rows):
    """Row-style Hermite normal form of sparse integer rows, each a dict
    from column to nonzero entry (left unmodified): the canonical basis of
    their row lattice, in increasing pivot (least) column, with positive
    pivots and the entries above each pivot in [0, pivot)."""
    # Euclid on the rows whose least column is the least one present; a
    # row that loses that column waits for its new least column
    waiting = {}
    for r in rows:
        if r:
            waiting.setdefault(min(r), []).append(r)
    out = []
    while waiting:
        col = min(waiting)
        live = waiting.pop(col)
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base, new_live = live[0], live[:1]
            for r in live[1:]:
                rr = _sub_multiple(r, r[col] // base[col], base)
                if col in rr:
                    new_live.append(rr)
                elif rr:
                    waiting.setdefault(min(rr), []).append(rr)
            live = new_live
        piv = live[0]
        out.append((col, piv if piv[col] > 0 else
                    {j: -x for j, x in piv.items()}))
    # reduce above pivots: each row, from the last one up, against the rows
    # below it in pivot order; those rows are reduced already
    for i in reversed(range(len(out))):
        ci, ri = out[i]
        for ck, rk in out[i + 1:]:
            q = ri.get(ck, 0) // rk[ck]
            if q:
                ri = _sub_multiple(ri, q, rk)
        out[i] = (ci, ri)
    return [r for _, r in out]


def _sub_multiple(r, q, base):
    """The sparse row r - q * base, for q != 0."""
    out = dict(r)
    for j, y in base.items():
        x = out.get(j, 0) - q * y
        if x:
            out[j] = x
        else:
            del out[j]
    return out


def hermite_row_basis(mat: IntMatrix) -> IntMatrix:
    """``hermite_rows`` of the rows of ``mat``, as an IntMatrix."""
    hnf = hermite_rows([{j: x for j, x in enumerate(mat.row(i)) if x}
                        for i in range(mat.rows)])
    return IntMatrix(len(hnf), mat.cols,
                     tuple(r.get(j, 0) for r in hnf for j in range(mat.cols)))


def integer_kernel(mat: IntMatrix) -> IntMatrix:
    """Basis (rows) of the saturated lattice {x : mat @ x = 0}."""
    d, _, v = smith_normal_form(mat)
    rank = sum(1 for i in range(min(mat.rows, mat.cols)) if d.entry(i, i) != 0)
    basis = [v.col(j) for j in range(rank, mat.cols)]
    return IntMatrix.from_rows(basis, mat.cols)


def solve_integer(mat: IntMatrix, b):
    """Integer solution x of mat @ x = b, or None when none exists."""
    if len(b) != mat.rows:
        raise ValueError("right-hand side length mismatch")
    x = solve_integer_columns(mat, IntMatrix.from_cols([b], mat.rows))
    return None if x is None else x.col(0)


def solve_integer_columns(mat: IntMatrix, rhs: IntMatrix):
    """Integer X with mat @ X == rhs, column by column from one Smith
    normal form of ``mat``, or None when some column has no solution."""
    if rhs.rows != mat.rows:
        raise ValueError("right-hand side height mismatch")
    if rhs.cols == 0:
        return IntMatrix(mat.cols, 0, ())
    d, u, v = smith_normal_form(mat)
    cols = []
    for j in range(rhs.cols):
        c = u.apply(rhs.col(j))
        y = [0] * mat.cols
        for i in range(mat.rows):
            di = d.entry(i, i) if i < min(mat.rows, mat.cols) else 0
            if di != 0:
                if c[i] % di != 0:
                    return None
                y[i] = c[i] // di
            elif c[i] != 0:
                return None
        cols.append(v.apply(tuple(y)))
    return IntMatrix.from_cols(cols, mat.cols)


def unimodular_inverse(mat: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix (exact, integer)."""
    inv = solve_integer_columns(mat, IntMatrix.identity(mat.rows)) \
        if mat.rows == mat.cols else None
    if inv is None:
        raise ValueError("matrix is not unimodular")
    return inv


def saturation(generators: IntMatrix) -> IntMatrix:
    """Basis (rows) of the saturation Z^n ∩ span_Q(rows of generators)."""
    return saturation_coordinates(generators)[0]


def saturation_coordinates(generators: IntMatrix):
    """(basis, coordinates): the ``saturation`` basis rows, and per row of
    ``generators`` its integer coordinates in that basis.

    Both come from one Smith form U g V = D.  D is zero beyond its rank r,
    so g = (g V) V^-1 only uses the first r columns of g V and the first r
    rows of V^-1: those rows are the basis, and the first r entries of
    each row of g V are the coordinates."""
    d, _, v = smith_normal_form(generators)
    rank = sum(1 for i in range(min(generators.rows, generators.cols))
               if d.entry(i, i) != 0)
    vinv = unimodular_inverse(v)
    coords = generators @ v
    return (IntMatrix.from_rows([vinv.row(i) for i in range(rank)],
                                generators.cols),
            [coords.row(i)[:rank] for i in range(coords.rows)])


# ---------------------------------------------------------------------------
# lattices and quotients

class Lattice(Value):
    """A sublattice of an ambient Z^n, given by basis rows."""

    __slots__ = _fields = ("ambient_rank", "basis")

    def __init__(self, ambient_rank: int, basis: IntMatrix):
        if basis.cols != ambient_rank:
            raise ValueError("basis width disagrees with ambient rank")
        if frac_rank(basis.to_rows()) != basis.rows:
            raise ValueError("basis rows are rationally dependent")
        set_field(self, "ambient_rank", ambient_rank)
        set_field(self, "basis", basis)

    @staticmethod
    def standard(n):
        return Lattice(n, IntMatrix.identity(n))

    @property
    def rank(self):
        return self.basis.rows


def lattice_index(sup: Lattice, sub: Lattice):
    """|sup/sub| when finite; None when the ranks differ (infinite index).

    Raises NotSublattice when some sub basis vector is not an integer
    combination of sup's basis.
    """
    if sup.ambient_rank != sub.ambient_rank:
        raise NotSublattice("ambient ranks differ")
    sup_t = sup.basis.transpose()
    coords = []
    for i in range(sub.basis.rows):
        x = solve_integer(sup_t, sub.basis.row(i))
        if x is None:
            raise NotSublattice(
                f"vector {sub.basis.row(i)} is not in the ambient lattice")
        coords.append(x)
    if sub.rank < sup.rank:
        return None
    coeff = IntMatrix.from_rows(coords, sup.rank)
    factors = snf_diagonal(coeff)
    idx = 1
    for f in factors:
        idx *= abs(f)
    if idx == 0:
        raise NotSublattice("sublattice basis is degenerate")
    return idx


class QuotientPresentation(Value):
    """Presentation of Z^n / L for a subgroup L, with full torsion data.

    free projection: Z^n -> Z^free_rank; torsion projections come with
    their moduli (the invariant factors >= 2, each dividing the next).
    """

    __slots__ = _fields = ("source_rank", "free_rank", "torsion_factors",
                           "projection", "torsion_projection")

    def __init__(self, source_rank: int, free_rank: int,
                 torsion_factors: tuple, projection: IntMatrix,
                 torsion_projection: IntMatrix):
        set_field(self, "source_rank", source_rank)
        set_field(self, "free_rank", free_rank)
        set_field(self, "torsion_factors", torsion_factors)
        set_field(self, "projection", projection)
        set_field(self, "torsion_projection", torsion_projection)

    def free_part(self, v):
        return self.projection.apply(v)

    def torsion_part(self, v):
        raw = self.torsion_projection.apply(v)
        return tuple(x % m for x, m in zip(raw, self.torsion_factors))

    def contains(self, v):
        """True iff v lies in the quotiented subgroup."""
        return (is_zero_vec(self.free_part(v))
                and is_zero_vec(self.torsion_part(v)))

    def image(self, v):
        return (self.free_part(v), self.torsion_part(v))


def quotient(ambient_rank: int, generators: IntMatrix) -> QuotientPresentation:
    """Presentation of Z^ambient_rank modulo the row span of generators."""
    if generators.cols != ambient_rank:
        raise ValueError("generators have the wrong width")
    m = generators.transpose()  # columns generate the subgroup
    d, u, _ = smith_normal_form(m)
    k = min(m.rows, m.cols)
    diag = [d.entry(i, i) for i in range(k)]
    rank = sum(1 for x in diag if x != 0)
    torsion_rows = []
    torsion_factors = []
    for i in range(rank):
        if diag[i] >= 2:
            torsion_rows.append(u.row(i))
            torsion_factors.append(diag[i])
    free_rows = [u.row(i) for i in range(rank, ambient_rank)]
    return QuotientPresentation(
        source_rank=ambient_rank,
        free_rank=ambient_rank - rank,
        torsion_factors=tuple(torsion_factors),
        projection=IntMatrix.from_rows(free_rows, ambient_rank),
        torsion_projection=IntMatrix.from_rows(torsion_rows, ambient_rank),
    )
