"""Exact integer linear algebra: Smith/Hermite normal forms, lattices,
quotient presentations, and integer solvability.

Everything runs over arbitrary-precision Python integers; the few rational
helpers use fractions.Fraction.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class ZeroVector(ValueError):
    """Raised when a primitive vector of the zero vector is requested."""


class NotSublattice(ValueError):
    """Raised when an alleged sublattice vector is not an integer
    combination of the ambient basis."""


# ---------------------------------------------------------------------------
# vectors

def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def is_zero_vec(u):
    return all(a == 0 for a in u)


def gcd_vector(v):
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries, sign preserved."""
    v = tuple(int(a) for a in v)
    g = gcd_vector(v)
    if g == 0:
        raise ZeroVector("primitive() of the zero vector")
    return tuple(a // g for a in v)


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

@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match the stated shape")

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
        rows = []
        for i in range(self.rows):
            r = self.row(i)
            rows.append(tuple(dot(r, other.col(j)) for j in range(other.cols)))
        return IntMatrix.from_rows(rows, other.cols)

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
# rational elimination helpers

def frac_rank(rows):
    """Rank over the rationals of a list of integer/Fraction row vectors."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def frac_solve(a_rows, b):
    """One rational solution x of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    m = [[Fraction(x) for x in r] + [Fraction(bi)]
         for r, bi in zip(a_rows, b)]
    nrows = len(m)
    ncols = len(a_rows[0]) if a_rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, nrows):
        if m[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
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


def smith_normal_form(mat: IntMatrix):
    """Smith normal form with transforms: U @ mat @ V == D.

    D is diagonal with d_i | d_{i+1} and d_i >= 0; U and V are unimodular.
    Pivot choice is by minimal absolute value, which keeps coefficient
    growth tame at the matrix sizes used here.
    """
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

    t = 0
    while t < min(r, c):
        if not reduce_at(t):
            break
        t += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(min(r, c) - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj != 0 and di != 0 and dj % di != 0:
                _add_col(a, i, i + 1, 1)
                _add_col(v, i, i + 1, 1)
                k = i
                while k < min(r, c):
                    if not reduce_at(k):
                        break
                    k += 1
                changed = True
                break
            if di == 0 and dj != 0:
                _swap_rows(a, i, i + 1)
                _swap_rows(u, i, i + 1)
                _swap_cols(a, i, i + 1)
                _swap_cols(v, i, i + 1)
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


def hermite_row_basis(mat: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form; rows are a canonical basis of the
    integer row lattice of ``mat`` (zero rows dropped, pivots positive,
    entries above pivots reduced)."""
    rows = [list(mat.row(i)) for i in range(mat.rows)]
    out = []
    col = 0
    while col < mat.cols and rows:
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            new_live = [base]
            for r in live[1:]:
                q = r[col] // base[col]
                rr = [x - q * y for x, y in zip(r, base)]
                if rr[col] != 0:
                    new_live.append(rr)
                elif any(rr):
                    rest.append(rr)
            if len(new_live) == len(live) and all(
                    r[col] % new_live[0][col] == 0 for r in new_live[1:]):
                base = new_live[0]
                for r in new_live[1:]:
                    q = r[col] // base[col]
                    rr = [x - q * y for x, y in zip(r, base)]
                    if any(rr):
                        rest.append(rr)
                new_live = [base]
            live = new_live
        piv = live[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        out.append((col, piv))
        rows = [r for r in rest if any(r)]
    # reduce above pivots
    for k in range(len(out)):
        ck, rk = out[k]
        for i in range(k):
            _, ri = out[i]
            q = ri[ck] // rk[ck]
            if q:
                out[i] = (out[i][0], [x - q * y for x, y in zip(ri, rk)])
    return IntMatrix.from_rows([r for _, r in out], mat.cols)


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
    if mat.rows != mat.cols:
        raise ValueError("inverse of a non-square matrix")
    n = mat.rows
    cols = []
    rows = mat.to_rows()
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        x = frac_solve(rows, e)
        if x is None or any(f.denominator != 1 for f in x):
            raise ValueError("matrix is not unimodular")
        cols.append(tuple(int(f) for f in x))
    return IntMatrix.from_cols(cols, n)


def saturation(generators: IntMatrix) -> IntMatrix:
    """Basis (rows) of the saturation Z^n ∩ span_Q(rows of generators)."""
    d, _, v = smith_normal_form(generators)
    rank = sum(1 for i in range(min(generators.rows, generators.cols))
               if d.entry(i, i) != 0)
    vinv = unimodular_inverse(v)
    return IntMatrix.from_rows([vinv.row(i) for i in range(rank)],
                               generators.cols)


# ---------------------------------------------------------------------------
# lattices and quotients

@dataclass(frozen=True)
class Lattice:
    """A sublattice of an ambient Z^n, given by basis rows."""

    ambient_rank: int
    basis: IntMatrix

    def __post_init__(self):
        if self.basis.cols != self.ambient_rank:
            raise ValueError("basis width disagrees with ambient rank")
        if frac_rank(self.basis.to_rows()) != self.basis.rows:
            raise ValueError("basis rows are rationally dependent")

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


@dataclass(frozen=True)
class QuotientPresentation:
    """Presentation of Z^n / L for a subgroup L, with full torsion data.

    free projection: Z^n -> Z^free_rank; torsion projections come with
    their moduli (the invariant factors >= 2, each dividing the next).
    """

    source_rank: int
    free_rank: int
    torsion_factors: tuple
    projection: IntMatrix
    torsion_projection: IntMatrix

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
