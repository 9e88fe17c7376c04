"""Property tests of the Smith normal form and the integer kernel against
sympy's independent implementation, on small random integer matrices."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.matrices.normalforms import \
    smith_normal_form as sympy_snf  # noqa: E402

from tropocone import intlinalg  # noqa: E402
from tropocone.intlinalg import (  # noqa: E402
    IntMatrix,
    det,
    integer_kernel,
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
