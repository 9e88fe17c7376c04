"""Property tests of the Smith and Hermite normal forms, the integer
kernel, quotients, lattice indices and the rational rank and solve against
sympy's independent implementation, on small random integer (and
rational) matrices."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.matrices.normalforms import \
    hermite_normal_form as sympy_hnf  # noqa: E402
from sympy.matrices.normalforms import \
    smith_normal_form as sympy_snf  # noqa: E402

from tropocone import intlinalg  # noqa: E402
from tropocone.intlinalg import (  # noqa: E402
    IntMatrix,
    Lattice,
    det,
    frac_rank,
    frac_solve,
    hermite_row_basis,
    hermite_rows,
    integer_kernel,
    lattice_index,
    quotient,
    smith_normal_form,
)

# deterministic examples and no example database, so tier-1 runs repeat
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def matrices(draw, max_side=5, bound=20):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    entries = st.integers(-bound, bound)
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)], cols


def _diagonal(d):
    return [d.entry(i, i) for i in range(min(d.rows, d.cols))]


def _sympy_diagonal(rows, cols):
    d = sympy_snf(sympy.Matrix(len(rows), cols, [x for r in rows for x in r]),
                  domain=sympy.ZZ)
    return [abs(int(d[i, i])) for i in range(min(d.rows, d.cols))]


@PROPERTY
@given(matrices())
def test_snf_agrees_with_sympy_and_is_a_smith_form(data):
    rows, cols = data
    m = IntMatrix.from_rows(rows, cols)
    d, u, v = smith_normal_form(m)
    diag = _diagonal(d)
    assert diag == _sympy_diagonal(rows, cols)
    assert u @ m @ v == d
    assert all(d.entry(i, j) == 0 for i in range(d.rows)
               for j in range(d.cols) if i != j)
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b == 0) if a == 0 else (b % a == 0)


@PROPERTY
@given(matrices())
def test_integer_kernel_is_the_saturated_kernel(data):
    rows, cols = data
    m = IntMatrix.from_rows(rows, cols)
    k = integer_kernel(m)
    assert k.cols == cols
    rank = sympy.Matrix(len(rows), cols,
                        [x for r in rows for x in r]).rank() if rows else 0
    assert k.rows == cols - rank
    for i in range(k.rows):
        assert m.apply(k.row(i)) == (0,) * m.rows
    # saturated: every invariant factor of the kernel basis is 1
    assert _sympy_diagonal(k.to_rows(), cols) == [1] * k.rows


@PROPERTY
@given(matrices())
def test_snf_of_equal_matrices_is_equal_however_built(data):
    rows, cols = data
    by_rows = IntMatrix.from_rows(rows, cols)
    by_cols = IntMatrix.from_cols(
        [[r[j] for r in rows] for j in range(cols)], len(rows))
    assert by_rows == by_cols and hash(by_rows) == hash(by_cols)
    fresh = intlinalg._smith_normal_form.__wrapped__(by_rows)
    assert smith_normal_form(by_rows) == fresh
    assert smith_normal_form(by_cols) == fresh


def _sympy_matrix(rows, cols):
    return sympy.Matrix(len(rows), cols, [x for r in rows for x in r])


def _reference_frac_solve(a_rows, b):
    """Gauss-Jordan elimination over Fraction entries, as before the
    fraction-free elimination."""
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


@st.composite
def systems(draw, rational=False):
    """(rows, cols, b), with b often in the column span of the rows."""
    rows, cols = draw(matrices())
    if rational:
        dens = st.integers(1, 6)
        rows = [[Fraction(x, draw(dens)) for x in r] for r in rows]
    if draw(st.booleans()):
        x = [draw(st.integers(-5, 5)) for _ in range(cols)]
        b = tuple(sum(a * y for a, y in zip(r, x)) for r in rows)
    else:
        b = tuple(draw(st.integers(-20, 20)) for _ in rows)
    return rows, cols, b


@PROPERTY
@given(matrices())
def test_frac_rank_agrees_with_sympy(data):
    rows, cols = data
    assert frac_rank(rows) == (_sympy_matrix(rows, cols).rank() if rows
                               else 0)


@PROPERTY
@given(systems())
def test_frac_solve_is_exact_with_free_variables_zero(data):
    rows, cols, b = data
    if not rows:
        with pytest.raises(ValueError):
            frac_solve(rows, b)
        return
    x = frac_solve(rows, b)
    a = _sympy_matrix(rows, cols)
    ab = a.row_join(sympy.Matrix(len(rows), 1, list(b)))
    assert (x is None) == (ab.rank() > a.rank())
    if x is not None:
        assert len(x) == cols
        assert all(type(v) is Fraction for v in x)
        assert tuple(sum(p * q for p, q in zip(r, x)) for r in rows) == b
        pivots = a.rref()[1]
        assert all(x[j] == 0 for j in range(len(x)) if j not in pivots)


@PROPERTY
@given(st.one_of(systems(), systems(rational=True)))
def test_frac_solve_matches_fraction_reference(data):
    rows, _, b = data
    if rows:
        assert frac_solve(rows, b) == _reference_frac_solve(rows, b)
    assert frac_rank(rows) == frac_rank(
        [[Fraction(x) for x in r] for r in rows])


def test_frac_solve_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(ValueError):
        frac_solve([(1, 0), (0, 1)], (1,))
    with pytest.raises(ValueError):
        frac_solve([(1, 0)], (1, 2))


def _same_lattice(rows_a, rows_b, cols):
    """Two generating sets of Z^cols span one lattice iff stacking them
    keeps the rank and the product of the nonzero invariant factors of
    each (the index of a lattice in its saturation)."""
    def volume(rows):
        d = [x for x in _sympy_diagonal(rows, cols) if x] if rows else []
        return len(d), math.prod(d)
    return volume(rows_a) == volume(rows_b) == volume(rows_a + rows_b)


@st.composite
def unimodular(draw, n):
    """A product of elementary row operations on n rows."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = draw(st.integers(-3, 3))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return IntMatrix.from_rows(u, n)


@PROPERTY
@given(matrices())
def test_hermite_rows_span_the_lattice_of_sympy_hnf_columns(data):
    """sympy's HNF of A^T is column-style, so its columns are compared
    with the rows of hermite_row_basis(A) as lattices."""
    rows, cols = data
    h = hermite_row_basis(IntMatrix.from_rows(rows, cols))
    hs = sympy_hnf(_sympy_matrix(rows, cols).T) if rows and cols else None
    sympy_rows = [[int(hs[i, j]) for i in range(hs.rows)]
                  for j in range(hs.cols)] if hs is not None else []
    assert h.rows == len(sympy_rows)
    assert _same_lattice(h.to_rows(), sympy_rows, cols)
    assert _same_lattice(h.to_rows(), rows, cols)


@PROPERTY
@given(st.data())
def test_hermite_basis_is_invariant_under_unimodular_row_operations(data):
    rows, cols = data.draw(matrices())
    a = IntMatrix.from_rows(rows, cols)
    u = data.draw(unimodular(len(rows)))
    assert abs(det(u)) == 1
    assert hermite_row_basis(u @ a) == hermite_row_basis(a)


def _reference_hermite_row_basis(mat: IntMatrix) -> IntMatrix:
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


@PROPERTY
@given(matrices())
def test_hermite_row_basis_matches_the_dense_reference(data):
    rows, cols = data
    a = IntMatrix.from_rows(rows, cols)
    assert hermite_row_basis(a) == _reference_hermite_row_basis(a)


@pytest.mark.parametrize("rows, cols", [
    ([], 0), ([], 3), ([[], []], 0),               # no rows, no columns
    ([[0, 0, 0], [0, 0, 0]], 3),                    # all zero
    ([[0, 0, 0], [0, 2, 4], [0, 0, 0]], 3),         # zero rows and column
    ([[0, 3, 0, 1], [0, 5, 0, 0]], 4),              # zero columns
    ([[-2, 1], [0, -3]], 2),                        # negative pivots
    ([[-4, 7, 1], [0, 0, -5], [-6, 2, 0]], 3),
    ([[3, 1, 0], [-3, 0, 1], [3, 2, 2]], 3),        # tied absolute values
    ([[2, 5], [-2, 1], [2, -7], [-2, 0]], 2),
    ([[6, 4, 0, 9], [-4, 6, 0, 3], [10, 0, 0, -2]], 4),
])
def test_hermite_row_basis_matches_the_reference_on_edge_cases(rows, cols):
    a = IntMatrix.from_rows(rows, cols)
    assert hermite_row_basis(a) == _reference_hermite_row_basis(a)


@PROPERTY
@given(matrices(max_side=6))
def test_hermite_rows_take_sparse_rows_in_any_column_order(data):
    """Dict rows whose columns are inserted from last to first give the
    reference basis, with no zero entry stored, and are left unmodified."""
    rows, cols = data
    sparse = [{j: r[j] for j in reversed(range(cols)) if r[j]} for r in rows]
    before = [dict(r) for r in sparse]
    hnf = hermite_rows(sparse)
    assert sparse == before
    assert all(all(hnf_row.values()) for hnf_row in hnf)
    dense = [[r.get(j, 0) for j in range(cols)] for r in hnf]
    assert IntMatrix.from_rows(dense, cols) \
        == _reference_hermite_row_basis(IntMatrix.from_rows(rows, cols))


@PROPERTY
@given(matrices())
def test_quotient_torsion_is_sympy_invariant_factors_from_two(data):
    rows, cols = data
    q = quotient(cols, IntMatrix.from_rows(rows, cols))
    diag = _sympy_diagonal(rows, cols) if rows else []
    assert q.torsion_factors == tuple(x for x in diag if x >= 2)
    assert q.free_rank == cols - sum(1 for x in diag if x)


@PROPERTY
@given(st.data())
def test_lattice_index_is_the_determinant_of_the_coordinates(data):
    n = data.draw(st.integers(1, 4))
    r = data.draw(st.integers(1, n))
    entries = st.integers(-6, 6)
    basis = [[data.draw(entries) for _ in range(n)] for _ in range(r)]
    coords = [[data.draw(entries) for _ in range(r)] for _ in range(r)]
    hypothesis.assume(frac_rank(basis) == r and frac_rank(coords) == r)
    sup = IntMatrix.from_rows(basis, n)
    c = IntMatrix.from_rows(coords, r)
    assert lattice_index(Lattice(n, sup), Lattice(n, c @ sup)) \
        == abs(int(_sympy_matrix(coords, r).det()))
