"""Weights, normal vectors, balancing, and Minkowski-weight lattices.

Balancing at a codimension-1 cone s demands that the weighted sum of
normal vectors vanishes in the honest quotient N_X / X_s(N^s), torsion
included.  The constraint is encoded as an integer linear system with
auxiliary unknowns witnessing membership in X_s(N^s), so one integer
kernel computation yields the exact weight lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import LinearStructure, PoicComplex, star1
from .intlinalg import (
    IntMatrix,
    hermite_row_basis,
    integer_kernel,
    quotient,
    solve_integer,
    vadd,
    vscale,
)


class WeightError(ValueError):
    pass


class BadCodimension(WeightError):
    pass


class NotPure(WeightError):
    pass


class NotSubcomplexWeight(WeightError):
    pass


@dataclass(frozen=True)
class Weight:
    """Integer function on the k-dimensional isomorphism classes."""

    dim: int
    values: dict

    def __getitem__(self, cls):
        return self.values.get(cls, 0)

    def scaled(self, c):
        return Weight(self.dim, {k: c * v for k, v in self.values.items()})

    def plus(self, other):
        if other.dim != self.dim:
            raise WeightError("dimension mismatch")
        keys = set(self.values) | set(other.values)
        return Weight(self.dim, {k: self[k] + other[k] for k in keys})

    def nonzero(self):
        return {k: v for k, v in self.values.items() if v != 0}


@dataclass(frozen=True)
class NormalVector:
    """Normal vector u^X_{[s->t]} as an element of N_X / X_s(N^s).

    ``lift`` is an integer representative in N_X; ``free`` and ``torsion``
    are its coordinates in the quotient presentation.
    """

    at: str
    toward: str
    lift: tuple
    free: tuple
    torsion: tuple


def _quotient_at(phi: PoicComplex, lin: LinearStructure, s):
    xs = lin.maps[s]
    gens = IntMatrix.from_rows(
        [xs.col(j) for j in range(xs.cols)], lin.target_rank)
    return quotient(lin.target_rank, gens)


def normal_vector_lift(phi: PoicComplex, lin: LinearStructure, s, t):
    """Integer lift in N_X of the normal vector of the relation s < t."""
    if phi.dim(t) != phi.dim(s) + 1:
        raise BadCodimension(f"{s} -> {t} is not a codimension-1 relation")
    m = phi.facemap(s, t)
    q = quotient(phi.dim(t), IntMatrix.from_rows(
        [m.col(j) for j in range(m.cols)], phi.dim(t)))
    if q.free_rank != 1 or q.torsion_factors:
        raise WeightError(f"face lattice of {s} in {t} is not saturated")
    pi = q.projection
    w = phi.cones[t].interior_point()
    side = pi.apply(w)[0]
    sign = 1 if side > 0 else -1
    v = solve_integer(pi, (sign,))
    if v is None:
        raise WeightError("no integral generator on the cone side")
    return lin.maps[t].apply(v)


def normal_vector(phi: PoicComplex, lin: LinearStructure, s, t) -> NormalVector:
    lift = normal_vector_lift(phi, lin, s, t)
    q = _quotient_at(phi, lin, s)
    return NormalVector(at=s, toward=t, lift=lift,
                        free=q.free_part(lift), torsion=q.torsion_part(lift))


def is_balanced_at(phi: PoicComplex, lin: LinearStructure, omega: Weight, s):
    """Balancing verdict at the codim-1 class s, with certificate.

    Returns (flag, certificate): the certificate is the integer vector
    lambda with sum = X_s(lambda) when balanced, None otherwise.
    """
    if phi.dim(s) != omega.dim - 1:
        raise BadCodimension(
            f"cone {s} has dimension {phi.dim(s)}, weight has {omega.dim}")
    total = (0,) * lin.target_rank
    for t in star1(phi, s):
        lift = normal_vector_lift(phi, lin, s, t)
        total = vadd(total, vscale(omega[t], lift))
    lam = solve_integer(lin.maps[s], total)
    return (lam is not None), lam


def is_balanced(phi, lin, omega):
    for s in phi.classes(omega.dim - 1):
        flag, _ = is_balanced_at(phi, lin, omega, s)
        if not flag:
            return False
    return True


@dataclass(frozen=True)
class WeightLattice:
    dim: int
    basis: tuple  # of Weight

    @property
    def rank(self):
        return len(self.basis)


def _stacked_balancing_system(phi, lin, k, extra_rows=None):
    """Integer matrix whose kernel (projected to the weight block) is the
    Minkowski-weight lattice M_k."""
    classes = phi.classes(k)
    col_of = {t: i for i, t in enumerate(classes)}
    lower = phi.classes(k - 1) if k >= 1 else []
    aux_offset = {}
    ncols = len(classes)
    for s in lower:
        aux_offset[s] = ncols
        ncols += phi.dim(s)
    rows = []
    for s in lower:
        lifts = {t: normal_vector_lift(phi, lin, s, t) for t in star1(phi, s)}
        xs = lin.maps[s]
        for i in range(lin.target_rank):
            row = [0] * ncols
            for t, lift in lifts.items():
                row[col_of[t]] += lift[i]
            for j in range(phi.dim(s)):
                row[aux_offset[s] + j] -= xs.entry(i, j)
            rows.append(row)
    if extra_rows:
        for r in extra_rows:
            rows.append(list(r) + [0] * (ncols - len(classes)))
    return IntMatrix.from_rows(rows, ncols), classes


def minkowski_basis(phi: PoicComplex, lin: LinearStructure, k,
                    extra_rows=None) -> WeightLattice:
    """Z-basis of the lattice of X-balanced k-weights.

    ``extra_rows`` appends additional integer conditions on the weight
    coordinates (used for equivariance constraints).
    """
    classes = phi.classes(k)
    if not classes:
        return WeightLattice(dim=k, basis=())
    system, classes = _stacked_balancing_system(phi, lin, k, extra_rows)
    if system.rows == 0:
        gens = IntMatrix.identity(len(classes))
    else:
        kern = integer_kernel(system)
        proj = [kern.row(i)[:len(classes)] for i in range(kern.rows)]
        gens = hermite_row_basis(IntMatrix.from_rows(proj, len(classes)))
    basis = []
    for i in range(gens.rows):
        row = gens.row(i)
        basis.append(Weight(k, {t: row[j] for j, t in enumerate(classes)
                                if row[j] != 0}))
    return WeightLattice(dim=k, basis=tuple(basis))


def cross_product(omega: Weight, eta: Weight, pairs) -> Weight:
    """Cross product on a product complex; ``pairs`` maps product ids to
    factor ids (as returned by product_complex)."""
    k = omega.dim + eta.dim
    values = {}
    for pid, (p, q) in pairs.items():
        v = omega.values.get(p, 0) * eta.values.get(q, 0)
        if v != 0:
            values[pid] = v
    return Weight(k, values)


def pullback(subdivision, omega: Weight) -> Weight:
    """S^* omega: value omega([S(p)]) when dimensions match, else 0."""
    values = {}
    src = subdivision.source
    for p in src.ids():
        tgt = subdivision.cone_map[p]
        if src.dim(p) == omega.dim \
                and subdivision.target.dim(tgt) == omega.dim:
            v = omega.values.get(tgt, 0)
            if v != 0:
                values[p] = v
    return Weight(omega.dim, values)


def extend_by_zero(phi: PoicComplex, sub_ids, omega: Weight) -> Weight:
    """Extension by zero of a weight on a full subcomplex."""
    missing = set(omega.values) - set(sub_ids)
    if missing or not set(sub_ids) <= set(phi.cones):
        raise NotSubcomplexWeight("weight is not supported on the subcomplex")
    return Weight(omega.dim, dict(omega.values))


def is_irreducible(phi: PoicComplex, lin: LinearStructure) -> bool:
    """True iff the top Minkowski-weight lattice has rank exactly 1."""
    n = phi.max_dim()
    if not phi.is_pure(n):
        raise NotPure("complex is not pure")
    return minkowski_basis(phi, lin, n).rank == 1
