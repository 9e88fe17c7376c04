"""Weights, normal vectors, balancing, and Minkowski-weight lattices.

Balancing at a codimension-1 cone s demands that the weighted sum of
normal vectors vanishes in the honest quotient N_X / X_s(N^s), torsion
included.  Each free coordinate of that quotient gives one integer
equation on the weights and each torsion factor d one congruence mod d,
so one Hermite normal form yields the exact weight lattice.  Each
equation involves only the classes above one codimension-1 cone, so the
rows are kept sparse throughout the elimination.
"""

from __future__ import annotations

from .complexes import LinearStructure, PoicComplex, star1
from .intlinalg import (
    hermite_rows,
    quotient,
    solve_integer,
    vadd,
    vscale,
)
from .value import Value, set_field


class WeightError(ValueError):
    pass


class BadCodimension(WeightError):
    pass


class NotPure(WeightError):
    pass


class NotSubcomplexWeight(WeightError):
    pass


class Weight(Value):
    """Integer function on the k-dimensional isomorphism classes."""

    __slots__ = _fields = ("dim", "values")

    def __init__(self, dim: int, values: dict):
        set_field(self, "dim", dim)
        set_field(self, "values", values)

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


class NormalVector(Value):
    """Normal vector u^X_{[s->t]} as an element of N_X / X_s(N^s).

    ``lift`` is an integer representative in N_X; ``free`` and ``torsion``
    are its coordinates in the quotient presentation.
    """

    __slots__ = _fields = ("at", "toward", "lift", "free", "torsion")

    def __init__(self, at: str, toward: str, lift: tuple, free: tuple,
                 torsion: tuple):
        set_field(self, "at", at)
        set_field(self, "toward", toward)
        set_field(self, "lift", lift)
        set_field(self, "free", free)
        set_field(self, "torsion", torsion)


def _quotient_at(phi: PoicComplex, lin: LinearStructure, s):
    return quotient(lin.target_rank, lin.maps[s].transpose())


def normal_vector_lift(phi: PoicComplex, lin: LinearStructure, s, t):
    """Integer lift in N_X of the normal vector of the relation s < t."""
    if phi.dim(t) != phi.dim(s) + 1:
        raise BadCodimension(f"{s} -> {t} is not a codimension-1 relation")
    m = phi.facemap(s, t)
    q = quotient(phi.dim(t), m.transpose())
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


def _certificate(lin: LinearStructure, s, lifts, omega: Weight):
    """lambda with sum_t omega(t) lifts[t] = X_s(lambda) for the lifts of
    the star of s, or None when omega is not balanced at s."""
    total = (0,) * lin.target_rank
    for t, lift in lifts.items():
        total = vadd(total, vscale(omega[t], lift))
    return solve_integer(lin.maps[s], total)


def is_balanced_at(phi: PoicComplex, lin: LinearStructure, omega: Weight, s):
    """Balancing verdict at the codim-1 class s, with certificate.

    Returns (flag, certificate): the certificate is the integer vector
    lambda with sum = X_s(lambda) when balanced, None otherwise.
    """
    if phi.dim(s) != omega.dim - 1:
        raise BadCodimension(
            f"cone {s} has dimension {phi.dim(s)}, weight has {omega.dim}")
    lam = _certificate(lin, s, {
        t: normal_vector_lift(phi, lin, s, t) for t in star1(phi, s)}, omega)
    return (lam is not None), lam


def is_balanced(phi, lin, omega):
    for s in phi.classes(omega.dim - 1):
        flag, _ = is_balanced_at(phi, lin, omega, s)
        if not flag:
            return False
    return True


class WeightLattice(Value):
    """A lattice of ``dim``-weights, with a tuple of Weights as its
    basis."""

    __slots__ = _fields = ("dim", "basis")

    def __init__(self, dim: int, basis: tuple):
        set_field(self, "dim", dim)
        set_field(self, "basis", basis)

    @property
    def rank(self):
        return len(self.basis)


def minkowski_basis(phi: PoicComplex, lin: LinearStructure, k,
                    extra_rows=None) -> WeightLattice:
    """Z-basis of the lattice of X-balanced k-weights.

    ``extra_rows`` appends additional integer conditions on the weight
    coordinates (used for equivariance constraints).
    """
    return certified_minkowski_basis(phi, lin, k, extra_rows)[0]


def certified_minkowski_basis(phi: PoicComplex, lin: LinearStructure, k,
                              extra_rows=None):
    """``minkowski_basis``, and an iterator over its basis weights of
    their balancing certificates at each codim-1 class, as
    ``is_balanced_at`` gives them: one pass of lifts serves both.

    Each codim-1 class s gives one condition per free coordinate and one
    congruence mod d per torsion factor d of N_X / X_s(N^s), whose
    coefficient of a class t > s is that coordinate of its lift.  With m
    conditions, class i is the sparse row with 1 in column m + i and its
    coefficient in condition j in column j, and a congruence mod d of
    condition j is the row d e_j.  The Hermite rows whose least column is
    at least m are the HNF basis of the weights w with C w = 0.
    """
    lifts = {s: {t: normal_vector_lift(phi, lin, s, t) for t in star1(phi, s)}
             for s in phi.classes(k - 1)}
    classes = phi.classes(k)
    conditions = []
    for s, star in lifts.items():
        q = _quotient_at(phi, lin, s)
        parts = {t: q.image(lift) for t, lift in star.items()}
        conditions += [({t: free[i] for t, (free, _) in parts.items()}, 0)
                       for i in range(q.free_rank)]
        conditions += [({t: tors[i] for t, (_, tors) in parts.items()}, d)
                       for i, d in enumerate(q.torsion_factors)]
    conditions += [(dict(zip(classes, r)), 0) for r in extra_rows or ()]
    m = len(conditions)
    rows = {t: {m + i: 1} for i, t in enumerate(classes)}
    congruences = []
    for j, (coeffs, d) in enumerate(conditions):
        for t, a in coeffs.items():
            if a:
                rows[t][j] = a
        if d:
            congruences.append({j: d})
    lat = WeightLattice(dim=k, basis=tuple(
        Weight(k, {classes[c - m]: a for c, a in sorted(r.items())})
        for r in hermite_rows([*rows.values(), *congruences]) if min(r) >= m))
    return lat, ({s: _certificate(lin, s, star, w)
                  for s, star in lifts.items()} for w in lat.basis)


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
