import random

import pytest

from tropocone.intlinalg import (
    IntMatrix,
    Lattice,
    NotSublattice,
    ZeroVector,
    det,
    frac_rank,
    frac_solve,
    hermite_row_basis,
    integer_kernel,
    lattice_index,
    primitive,
    quotient,
    saturation,
    smith_normal_form,
    solve_integer,
    solve_integer_columns,
    unimodular_inverse,
)


def diag_entries(d):
    return [d.entry(i, i) for i in range(min(d.rows, d.cols))]


def check_snf(m):
    d, u, v = smith_normal_form(m)
    assert (u @ m @ v).entries == d.entries
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    ds = diag_entries(d)
    for i in range(len(ds) - 1):
        if ds[i + 1] != 0:
            assert ds[i] != 0 and ds[i + 1] % ds[i] == 0
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entry(i, j) == 0
    assert all(x >= 0 for x in ds)
    return ds


def test_snf_identity():
    m = IntMatrix.identity(2)
    assert check_snf(m) == [1, 1]


def test_snf_example_2x2():
    # row/column reduction by hand gives diag(2, 4); det = -8 = ±(2*4)
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert det(m) == -8
    assert check_snf(m) == [2, 4]


def test_snf_zero():
    m = IntMatrix.from_rows([[0]])
    assert check_snf(m) == [0]


def test_snf_rectangular_and_random():
    rng = random.Random(7)
    for _ in range(150):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        check_snf(m)


def test_lattice_index_diagonal():
    sup = Lattice.standard(2)
    sub = Lattice(2, IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert lattice_index(sup, sub) == 6


def test_lattice_index_identity():
    sup = Lattice.standard(2)
    assert lattice_index(sup, sup) == 1


def test_lattice_index_rank_drop_is_infinite():
    sup = Lattice.standard(2)
    sub = Lattice(2, IntMatrix.from_rows([[2, 0]]))
    assert lattice_index(sup, sub) is None


def test_lattice_index_not_sublattice():
    sup = Lattice(2, IntMatrix.from_rows([[2, 0], [0, 1]]))
    sub = Lattice(2, IntMatrix.from_rows([[1, 0], [0, 1]]))
    with pytest.raises(NotSublattice):
        lattice_index(sup, sub)


def test_quotient_free_line():
    q = quotient(2, IntMatrix.from_rows([[1, 0]]))
    assert q.free_rank == 1
    assert q.torsion_factors == ()
    assert q.contains((3, 0))
    assert not q.contains((0, 1))


def test_quotient_z_mod_2():
    q = quotient(1, IntMatrix.from_rows([[2]]))
    assert q.free_rank == 0
    assert q.torsion_factors == (2,)
    assert q.contains((4,))
    assert not q.contains((3,))


def test_quotient_with_mixed_generators():
    # SNF oracle: diag of [[2,0],[0,1]]^T is (1,2) -> free rank 0, Z/2
    q = quotient(2, IntMatrix.from_rows([[2, 0], [0, 1]]))
    assert q.free_rank == 0
    assert q.torsion_factors == (2,)
    assert q.contains((2, 5))
    assert not q.contains((1, 0))


def test_quotient_consistency_with_solver():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        gens = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)])
        q = quotient(n, gens)
        v = tuple(rng.randint(-6, 6) for _ in range(n))
        solvable = solve_integer(gens.transpose(), v) is not None
        assert q.contains(v) == solvable


def test_solve_integer_examples():
    assert solve_integer(IntMatrix.from_rows([[2]]), (4,)) == (2,)
    assert solve_integer(IntMatrix.from_rows([[2]]), (3,)) is None
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    x = solve_integer(a, (1, 1))
    assert x is not None and a.apply(x) == (1, 1)
    # direct substitution oracle
    assert a.apply((-1, 1)) == (1, 1)


def test_solve_integer_columns_matches_solve_integer():
    rng = random.Random(17)
    for _ in range(60):
        r, c, k = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3)
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)], c)
        rhs = IntMatrix.from_cols(
            [a.apply(tuple(rng.randint(-2, 2) for _ in range(c)))
             if rng.random() < 0.7
             else tuple(rng.randint(-3, 3) for _ in range(r))
             for _ in range(k)], r)
        cols = [solve_integer(a, rhs.col(j)) for j in range(k)]
        x = solve_integer_columns(a, rhs)
        if any(col is None for col in cols):
            assert x is None
        else:
            assert x == IntMatrix.from_cols(cols, c)
            assert a @ x == rhs


def test_primitive():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((0, -3)) == (0, -1)
    assert primitive((6, 10, 15)) == (6, 10, 15)
    with pytest.raises(ZeroVector):
        primitive((0, 0))


def test_integer_kernel_is_saturated():
    m = IntMatrix.from_rows([[1, 2, 3]])
    k = integer_kernel(m)
    assert k.rows == 2
    for i in range(k.rows):
        assert m.apply(k.row(i)) == (0,)
    # saturation: the kernel lattice has index 1 in its saturation
    sat = saturation(k)
    assert lattice_index(Lattice(3, sat), Lattice(3, k)) == 1


def test_saturation():
    g = IntMatrix.from_rows([[2, 0], [0, 4]])
    s = saturation(g)
    assert s.rows == 2
    assert abs(det(s)) == 1
    g = IntMatrix.from_rows([[2, 2]])
    s = saturation(g)
    assert s.rows == 1
    assert tuple(s.row(0)) in {(1, 1), (-1, -1)}


def test_unimodular_inverse():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = unimodular_inverse(m)
    assert (m @ inv).entries == IntMatrix.identity(2).entries


def _reference_unimodular_inverse(mat):
    """The column-by-column rational solve that unimodular_inverse used
    before it solved all columns from one Smith normal form."""
    if mat.rows != mat.cols:
        raise ValueError("inverse of a non-square matrix")
    n = mat.rows
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        x = frac_solve(mat.to_rows(), e)
        if x is None or any(f.denominator != 1 for f in x):
            raise ValueError("matrix is not unimodular")
        cols.append(tuple(int(f) for f in x))
    return IntMatrix.from_cols(cols, n)


def _random_unimodular(rng, n, steps=12):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], [-x for x in rows[i]]
    return IntMatrix.from_rows(rows)


def test_unimodular_inverse_matches_reference():
    rng = random.Random(31)
    for k in range(25):
        m = _random_unimodular(rng, 2 + k % 5)
        assert unimodular_inverse(m) == _reference_unimodular_inverse(m)
    for bad in (IntMatrix.from_rows([[2, 1], [1, 2]]),     # det 3
                IntMatrix.from_rows([[1, 2], [2, 4]]),     # singular
                IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]),
                IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])):
        with pytest.raises(ValueError, match="matrix is not unimodular"):
            unimodular_inverse(bad)


def test_hermite_row_basis():
    m = IntMatrix.from_rows([[2, 0], [0, 3], [2, 3]])
    h = hermite_row_basis(m)
    assert h.rows == 2
    # the row lattice contains (2,0) and (0,3)
    assert solve_integer(h.transpose(), (2, 0)) is not None
    assert solve_integer(h.transpose(), (0, 3)) is not None
    # and not (1,0)
    assert solve_integer(h.transpose(), (1, 0)) is None


def test_frac_helpers():
    assert frac_rank([[1, 2], [2, 4]]) == 1
    assert frac_solve([[2, 0], [0, 2]], (1, 1)) is not None
    assert frac_solve([[1, 0], [1, 0]], (0, 1)) is None


def test_frac_solve_rejects_an_empty_system():
    # without rows there is no column count to size a solution by
    with pytest.raises(ValueError):
        frac_solve([], ())
