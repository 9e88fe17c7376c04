"""Partially open integral cones (poics).

A poic is a full-dimensional cone in the real span of a lattice Z^n, cut
out by finitely many integral half-spaces each flagged strict (open) or
non-strict (closed).  The module provides construction with validation,
face enumeration with the strictness filter, products, and morphism
checks, all in exact arithmetic.

Conventions: facet normals point inward (constraint is normal . x >= 0 or
> 0), are primitive, and the stored facet list is minimal (no constraint
implied by the others, with strictness semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .intlinalg import (
    IntMatrix,
    Lattice,
    dot,
    frac_rank,
    frac_solve,
    integer_kernel,
    is_zero_vec,
    lattice_index,
    primitive,
    saturation,
    vadd,
)


class ConeError(ValueError):
    pass


class EmptyCone(ConeError):
    """No rational point satisfies all constraints (strict ones strictly)."""


class NotFullDimensional(ConeError):
    """The closure does not span the ambient space of the stated lattice."""


class NotIntoCodomain(ConeError):
    """Some point of the domain cone maps outside the codomain cone."""


# ---------------------------------------------------------------------------
# exact double description

# bounded per-process memos: the cone conversions are exact and their
# results are immutable tuples, so equal inputs may share one result.  The
# public functions stay plain functions around the memoized helpers, so a
# call-level tracer still sees every request.
_DD_MEMO_SIZE = 4096
_FACES_MEMO_SIZE = 1024


def _prune_generators(gens, normals, rank, pointed=False):
    """Reduce a generating set of {x : n.x >= 0 for n in normals} to
    ±(lineality basis) plus one representative per extreme ray.

    ``pointed`` states that the cone is known to contain no line, which
    spares the kernel computation."""
    lin = IntMatrix.from_rows([], rank) if pointed \
        else integer_kernel(IntMatrix.from_rows(list(normals), rank))
    ldim = lin.rows
    out = []
    for i in range(ldim):
        row = lin.row(i)
        out.append(primitive(row))
        out.append(primitive(tuple(-x for x in row)))
    seen_tight = set()
    candidates = []
    for g in gens:
        if is_zero_vec(g):
            continue
        g = primitive(g)
        tight = tuple(i for i, n in enumerate(normals) if dot(n, g) == 0)
        if len(tight) == len(normals):
            continue  # inside the lineality space
        if frac_rank([normals[i] for i in tight] or [(0,) * rank]) \
                == rank - ldim - 1:
            candidates.append((tight, g))
    candidates.sort(key=lambda t: (t[0], t[1]))
    for tight, g in candidates:
        if tight not in seen_tight:
            seen_tight.add(tight)
            out.append(g)
    # dedupe and sort for determinism
    return sorted(set(out))


def dual_generators(normals, rank):
    """Generators of the closed cone {x in R^rank : n.x >= 0 for all n}.

    Returns ±(basis of the lineality space) together with one primitive
    representative per extreme ray, sorted.
    """
    return _dual_generators(cell_key(normals), rank)


@lru_cache(maxsize=_DD_MEMO_SIZE)
def _dual_generators(normals, rank):
    """Double description of ``dual_generators`` for a frozenset of
    primitive nonzero normals."""
    if rank == 0:
        return ()
    gens = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        gens.append(e)
        gens.append(tuple(-x for x in e))
    if not normals:
        return tuple(sorted(gens))
    inserted = []
    pointed = False
    for a in sorted(normals):
        pos = [g for g in gens if dot(a, g) > 0]
        zero = [g for g in gens if dot(a, g) == 0]
        neg = [g for g in gens if dot(a, g) < 0]
        combos = []
        for p in pos:
            ap = dot(a, p)
            for m in neg:
                am = dot(a, m)
                combo = tuple(ap * x - am * y for x, y in zip(m, p))
                if not is_zero_vec(combo):
                    combos.append(primitive(combo))
        inserted.append(a)
        gens = _prune_generators(pos + zero + combos, inserted, rank, pointed)
        # a cone without a ± pair of generators is pointed, and stays
        # pointed as constraints are added
        if not pointed:
            present = set(gens)
            pointed = not any(tuple(-x for x in g) in present for g in gens)
    return tuple(gens)


def facets_from_rays(gens, rank):
    """H-description of the closed cone generated by ``gens``.

    Returns (facet_normals, span_annihilator_rows): the cone equals
    {x : n.x >= 0 for facets} ∩ {x : a.x = 0 for annihilator rows}.
    """
    gens = [primitive(g) for g in gens if not is_zero_vec(g)]
    if rank == 0:
        return (), ()
    if not gens:
        ann = IntMatrix.identity(rank)
        return (), tuple(ann.row(i) for i in range(rank))
    ann_mat = integer_kernel(IntMatrix.from_rows(gens, rank))
    ann = tuple(ann_mat.row(i) for i in range(ann_mat.rows))
    dual = dual_generators(gens, rank)  # {a : g.a >= 0 for all g}
    # dual generators inside the annihilator span are the lineality of the
    # dual cone: they encode equalities, reported separately
    facets = []
    for a in dual:
        if ann:
            cols = [tuple(r[j] for r in ann) for j in range(rank)]
            if frac_solve(cols, a) is not None:
                continue
        facets.append(a)
    return tuple(sorted(set(facets))), ann


def strict_feasible(constraints, rank):
    """Witness of {x : n.x >= 0 (or > 0 if strict)} or None if empty.

    ``constraints`` is a list of (normal, strict) pairs; the system is
    homogeneous, so emptiness means no rational point at all.
    """
    normals = [c[0] for c in constraints if not is_zero_vec(c[0])]
    for n, s in constraints:
        if is_zero_vec(n) and s:
            return None
    gens = dual_generators(normals, rank)
    witness = (0,) * rank
    for g in gens:
        witness = vadd(witness, g)
    for n, s in constraints:
        if not s or is_zero_vec(n):
            continue
        if not any(dot(n, g) > 0 for g in gens):
            return None
    return witness


def _implied(constraints, target, rank):
    """True iff ``target`` is implied by ``constraints`` (with strictness)."""
    normal, strict = target
    negation = (tuple(-x for x in normal), not strict)
    return strict_feasible(list(constraints) + [negation], rank) is None


def _minimal(constraints, rank):
    """Drop constraints implied by the others, one at a time, in a
    deterministic scan order.

    One pass suffices: a constraint not implied by some set is not implied
    by any subset of it either, so a kept constraint stays kept."""
    minimal = list(constraints)
    i = 0
    while i < len(minimal):
        rest = minimal[:i] + minimal[i + 1:]
        if _implied(rest, minimal[i], rank):
            minimal = rest
        else:
            i += 1
    return minimal


def cell_key(gens):
    """The primitive nonzero generators of a closed cell, as a set: the
    key under which cells and images of cones are compared, and sets of
    normals are memoized."""
    return frozenset(primitive(g) for g in gens if not is_zero_vec(g))


# ---------------------------------------------------------------------------
# the Poic type

@dataclass(frozen=True)
class Poic:
    """Validated partially open integral cone, full-dimensional in Z^rank."""

    rank: int
    facets: tuple          # ((normal, strict), ...), minimal, sorted
    closure_rays: tuple    # generators of the closure (± lineality + extremes)

    @property
    def dim(self):
        return self.rank

    def normals(self, strict_only=None):
        if strict_only is None:
            return [n for n, _ in self.facets]
        return [n for n, s in self.facets if s == strict_only]

    def interior_point(self):
        """An integer point of the relative interior."""
        w = (0,) * self.rank
        for g in self.closure_rays:
            w = vadd(w, g)
        return w

    def contains(self, point, strictly=False):
        """Exact membership; ``strictly`` tests the relative interior."""
        for n, s in self.facets:
            v = dot(n, point)
            if strictly or s:
                if not v > 0:
                    return False
            elif not v >= 0:
                return False
        return True

    def is_closed(self):
        return all(not s for _, s in self.facets)

    def closure(self):
        return poic_new(self.rank, [(n, False) for n, _ in self.facets])

    def relint(self):
        return poic_new(self.rank, [(n, True) for n, _ in self.facets])

    def pointed(self):
        """True when the closure contains no line."""
        if not self.facets:
            return self.rank == 0
        return integer_kernel(
            IntMatrix.from_rows(self.normals(), self.rank)).rows == 0


def poic_new(lattice_rank, facets):
    """Validated poic from (normal, strict) pairs.

    Raises EmptyCone when no point satisfies the constraints (strict ones
    strictly) and NotFullDimensional when the closure span is proper.
    Redundant constraints are removed; a strict constraint whose closed
    version is redundant is kept whenever it still cuts points.
    """
    rank = int(lattice_rank)
    cleaned = {}
    for normal, strict in facets:
        normal = tuple(int(x) for x in normal)
        if len(normal) != rank:
            raise ConeError("facet normal has the wrong length")
        if is_zero_vec(normal):
            if strict:
                raise EmptyCone("constraint 0 > 0 is unsatisfiable")
            continue
        normal = primitive(normal)
        cleaned[normal] = bool(strict) or cleaned.get(normal, False)
    constraints = sorted(cleaned.items())
    if strict_feasible(constraints, rank) is None:
        raise EmptyCone("no point satisfies all constraints")
    closed_normals = [n for n, _ in constraints]
    gens = dual_generators(closed_normals, rank)
    if frac_rank(list(gens) or [(0,) * rank]) != rank and rank > 0:
        raise NotFullDimensional(
            "closure span is a proper subspace; re-coordinate first")
    minimal = _minimal(constraints, rank)
    gens = dual_generators([n for n, _ in minimal], rank)
    return Poic(rank=rank, facets=tuple(minimal), closure_rays=tuple(gens))


def chart_cone(gens, rank, ambient):
    """The closed cone generated by ``gens`` in Z^rank, re-coordinated to
    its saturated lattice and cut by the pullbacks of the ``ambient``
    (normal, strict) pairs.  Returns (poic, embedding into Z^rank)."""
    gens = list(gens)
    basis = saturation(IntMatrix.from_rows(gens, rank)) if gens \
        else IntMatrix.from_rows([], rank)
    d = basis.rows
    cols = [tuple(basis.col(j)) for j in range(rank)]
    local = [tuple(int(x) for x in frac_solve(cols, g)) for g in gens]
    facets, _ = facets_from_rays(local, d)
    constraints = [(f, False) for f in facets]
    for n, strict in ambient:
        pn = tuple(dot(n, basis.row(j)) for j in range(d))
        if not is_zero_vec(pn):
            constraints.append((pn, strict))
    return poic_new(d, constraints), basis.transpose()


def product(sigma: Poic, xi: Poic) -> Poic:
    """Product poic over the direct sum of the lattices."""
    facets = []
    for n, s in sigma.facets:
        facets.append((n + (0,) * xi.rank, s))
    for n, s in xi.facets:
        facets.append(((0,) * sigma.rank + n, s))
    return poic_new(sigma.rank + xi.rank, facets)


# ---------------------------------------------------------------------------
# faces

@dataclass(frozen=True)
class FaceEmbedding:
    """A face of ``sup`` re-coordinated to its own saturated lattice.

    ``matrix`` maps N^sub into N^sup; its image lattice is Lin_N(face).
    ``gens_key`` is the set of closure rays of sup tight on the face.
    """

    sub: Poic
    sup: Poic
    matrix: IntMatrix
    gens_key: tuple

    @property
    def dim(self):
        return self.sub.rank

    def ambient_interior_point(self):
        """Integer relative-interior point of the face, in sup coordinates."""
        w = (0,) * self.sup.rank
        for g in self.gens_key:
            w = vadd(w, g)
        return w


def _closed_facet_normals(sigma: Poic):
    """Normals that are facets of the closure (strictness ignored): those
    whose tight closure rays span a hyperplane."""
    return [n for n, _ in sigma.facets
            if frac_rank([g for g in sigma.closure_rays if dot(n, g) == 0])
            == sigma.rank - 1]


def faces(sigma: Poic):
    """All faces of the poic, each as a FaceEmbedding; includes sigma.

    A face of the closure is present iff its relative interior satisfies
    every strict constraint of sigma.
    """
    return _faces(sigma)


@lru_cache(maxsize=_FACES_MEMO_SIZE)
def _faces(sigma: Poic):
    facet_normals = _closed_facet_normals(sigma)
    rays = sigma.closure_rays
    seen = {}
    n_facets = len(facet_normals)
    for mask in range(1 << n_facets):
        tight_set = [facet_normals[i] for i in range(n_facets) if mask >> i & 1]
        gens = tuple(g for g in rays
                     if all(dot(a, g) == 0 for a in tight_set))
        if gens not in seen:
            seen[gens] = tight_set
    out = []
    for gens in sorted(seen, key=lambda g: (frac_rank(list(g) or [(0,) * max(sigma.rank, 1)]), g)):
        witness = (0,) * sigma.rank
        for g in gens:
            witness = vadd(witness, g)
        if not all(dot(n, witness) > 0 for n, s in sigma.facets if s):
            continue  # dropped by strictness
        if len(gens) == len(rays):
            # the improper face: sigma itself
            out.append(FaceEmbedding(sub=sigma, sup=sigma,
                                     matrix=IntMatrix.identity(sigma.rank),
                                     gens_key=gens))
            continue
        basis = saturation(IntMatrix.from_rows(list(gens), sigma.rank)) \
            if gens else IntMatrix.from_rows([], sigma.rank)
        d = basis.rows
        pulled = []
        for n, s in sigma.facets:
            pn = tuple(dot(n, basis.row(j)) for j in range(d))
            if not is_zero_vec(pn):
                pulled.append((pn, s))
        sub = poic_new(d, pulled)
        out.append(FaceEmbedding(sub=sub, sup=sigma,
                                 matrix=basis.transpose(),
                                 gens_key=gens))
    return tuple(sorted(out, key=lambda f: (f.dim, f.gens_key)))


def poic_subset(a: Poic, b: Poic):
    """Exact test a ⊆ b for poics in the same coordinates."""
    if a.rank != b.rank:
        raise ConeError("rank mismatch in subset test")
    for f in faces(a):
        if not b.contains(f.ambient_interior_point()):
            return False
    return True


def poic_equal_sets(a: Poic, b: Poic):
    return poic_subset(a, b) and poic_subset(b, a)


# ---------------------------------------------------------------------------
# morphisms

@dataclass(frozen=True)
class PoicMorphism:
    matrix: IntMatrix
    domain: Poic
    codomain: Poic
    injective: bool
    face_embedding: bool


def _image_in_cone(matrix, sigma, xi):
    """Check matrix(sigma) ⊆ xi; returns an offending witness or None."""
    for g in sigma.closure_rays:
        img = matrix.apply(g)
        for n, _ in xi.facets:
            if dot(n, img) < 0:
                return g
    for f in faces(sigma):
        w = f.ambient_interior_point()
        if not xi.contains(matrix.apply(w)):
            return w
    return None


def _face_target(matrix, sigma, xi):
    """The face of xi equal to matrix(sigma), or None.

    Assumes injectivity was already established.
    """
    facet_normals = _closed_facet_normals(xi)
    for f in faces(xi):
        if f.dim != sigma.rank:
            continue
        # face set = {x in xi : tight normals vanish}
        tight_normals = [n for n in facet_normals
                         if all(dot(n, g) == 0 for g in f.gens_key)]

        def in_face(point):
            if any(dot(a, point) != 0 for a in tight_normals):
                return False
            return xi.contains(point)

        # matrix(sigma) ⊆ face: every sigma face witness lands in the face set
        ok = True
        for sf in faces(sigma):
            if not in_face(matrix.apply(sf.ambient_interior_point())):
                ok = False
                break
        if not ok:
            continue
        # face ⊆ matrix(sigma): pull each face witness back into sigma
        rows = [tuple(matrix.row(i)) for i in range(matrix.rows)]
        for ff in faces(f.sub):
            w = f.matrix.apply(ff.ambient_interior_point())
            pre = frac_solve(rows, w)
            if pre is None or not sigma.contains(pre):
                ok = False
                break
        if ok:
            return f
    return None


def check_morphism(matrix: IntMatrix, sigma: Poic, xi: Poic) -> PoicMorphism:
    """Validated poic morphism; also reports injectivity and whether the
    map is a face-embedding (image is a face, lattice saturated)."""
    if matrix.cols != sigma.rank or matrix.rows != xi.rank:
        raise ConeError("matrix shape does not match the lattice ranks")
    bad = _image_in_cone(matrix, sigma, xi)
    if bad is not None:
        raise NotIntoCodomain(f"point {bad} maps outside the codomain")
    injective = frac_rank([matrix.col(j) for j in range(matrix.cols)]) \
        == sigma.rank
    face_embedding = False
    if injective:
        f = _face_target(matrix, sigma, xi)
        if f is not None:
            if sigma.rank == 0:
                face_embedding = True
            else:
                sup_lat = Lattice(xi.rank, f.matrix.transpose())
                sub_lat = Lattice(
                    xi.rank,
                    IntMatrix.from_rows(
                        [matrix.col(j) for j in range(matrix.cols)], xi.rank))
                face_embedding = lattice_index(sup_lat, sub_lat) == 1
    return PoicMorphism(matrix=matrix, domain=sigma, codomain=xi,
                        injective=injective, face_embedding=face_embedding)


def rational_preimage(matrix: IntMatrix, point):
    """One rational preimage of ``point`` under ``matrix`` or None."""
    rows = [tuple(matrix.row(i)) for i in range(matrix.rows)]
    return frac_solve(rows, point)
