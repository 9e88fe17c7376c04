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

from functools import lru_cache

from .intlinalg import (
    IntMatrix,
    Lattice,
    dot,
    frac_rank,
    frac_solve,
    hermite_row_basis,
    integer_kernel,
    is_zero_vec,
    lattice_index,
    primitive,
    saturation,
    saturation_coordinates,
)
from .value import TropoconeError, Value


class ConeError(TropoconeError):
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
_MORPHISM_MEMO_SIZE = 4096


def _maximal(sets):
    """Flags of the bitmasks that no other of ``sets`` strictly contains."""
    return [not any(w != z and w & z == z for w in sets) for z in sets]


def _prune_generators(gens, normals, rank, pointed=False):
    """Reduce a generating set of {x : n.x >= 0 for n in normals} to
    ±(lineality basis) plus one representative per extreme ray.

    A generator's tight set (the normals vanishing on it) names the
    smallest face containing it, and distinct faces have distinct tight
    sets.  The extreme rays modulo the lineality space are the minimal
    faces beyond it, each with a generator; so a tight set is kept iff no
    other generator's tight set strictly contains it, and is represented
    by its least primitive generator.  ``pointed`` states that the cone is
    known to contain no line, which spares the kernel computation."""
    out = []
    if not pointed:
        lin = integer_kernel(IntMatrix.from_rows(list(normals), rank))
        for i in range(lin.rows):
            row = lin.row(i)
            out.append(primitive(row))
            out.append(primitive(tuple(-x for x in row)))
    full = (1 << len(normals)) - 1
    least = {}
    for g in gens:
        g = primitive(g)
        tight = sum(1 << i for i, n in enumerate(normals) if dot(n, g) == 0)
        if tight != full and (tight not in least or g < least[tight]):
            least[tight] = g  # tight == full: inside the lineality space
    out.extend(g for g, top in zip(least.values(), _maximal(list(least)))
               if top)
    # dedupe and sort for determinism
    return sorted(set(out))


def dual_generators(normals, rank):
    """Generators of the closed cone {x in R^rank : n.x >= 0 for all n}:
    its ``cell_key``, sorted, whatever the order, scaling or repetition of
    the normals."""
    gens, pointed = _dual_generators(
        frozenset(primitive(n) for n in normals if not is_zero_vec(n)), rank)
    return gens if pointed else tuple(sorted(cell_key(gens)))


@lru_cache(maxsize=_DD_MEMO_SIZE)
def _dual_generators(normals, rank):
    """Double description for a frozenset of primitive nonzero normals:
    the sorted pruned generators, and whether the cone is pointed."""
    gens, inserted, pointed = _dd_start(rank), [], False
    for a in sorted(normals):
        inserted.append(a)
        gens, pointed = _dd_step(gens, inserted, rank, pointed)
    return tuple(sorted(gens)), pointed


def _dd_start(rank):
    """The generators ±e_i of R^rank, where every double description
    starts."""
    gens = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        gens += [e, tuple(-x for x in e)]
    return gens


def _dd_step(gens, inserted, rank, pointed):
    """One double-description insertion: from generators of the cone of
    ``inserted[:-1]``, the pruned generators of the cone of ``inserted``
    and whether that cone is pointed.  A cone without a ± pair of
    generators is pointed, and stays pointed as normals are added."""
    a = inserted[-1]
    pos, zero, neg = [], [], []
    for g in gens:
        v = dot(a, g)
        (pos if v > 0 else neg if v < 0 else zero).append((v, g))
    combos = []
    for ap, p in pos:
        for am, m in neg:
            combo = tuple(ap * x - am * y for x, y in zip(m, p))
            if not is_zero_vec(combo):
                combos.append(primitive(combo))
    gens = _prune_generators([g for _, g in pos + zero] + combos, inserted,
                             rank, pointed)
    if not pointed:
        present = set(gens)
        pointed = not any(tuple(-x for x in g) in present for g in gens)
    return gens, pointed


def facets_from_rays(gens, rank):
    """H-description of the closed cone generated by ``gens``.

    Returns (facet_normals, span_annihilator_rows): the cone equals
    {x : n.x >= 0 for facets} ∩ {x : a.x = 0 for annihilator rows}.
    """
    return _facets_from_rays(
        tuple(primitive(g) for g in gens if not is_zero_vec(g)), rank)


@lru_cache(maxsize=_DD_MEMO_SIZE)
def _facets_from_rays(gens, rank):
    """``facets_from_rays`` for an ordered tuple of primitive nonzero
    generators: the annihilator basis depends on their order."""
    ann_mat = integer_kernel(IntMatrix.from_rows(gens, rank))
    ann = tuple(ann_mat.row(i) for i in range(ann_mat.rows))
    # dual generators in ker G = span(ann) are equalities, reported as ann;
    # the others are facets, in any representatives modulo ker G
    facets = {a for a in _dual_generators(frozenset(gens), rank)[0]
              if not all(dot(g, a) == 0 for g in gens)}
    return tuple(sorted(facets)), ann


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
    for n, s in constraints:
        if not s or is_zero_vec(n):
            continue
        if not any(dot(n, g) > 0 for g in gens):
            return None
    return _ray_sum(gens, rank)


def _ray_sum(rays, rank):
    """The sum of ``rays`` in Z^rank: a relative-interior point of the
    closed cone they generate."""
    return tuple(map(sum, zip((0,) * rank, *rays)))


def _zero_sets(normals, rays):
    """Per normal, the bitmask of the rays on which it vanishes."""
    return [sum(1 << j for j, g in enumerate(rays) if dot(n, g) == 0)
            for n in normals]


def _minimal(constraints, rays):
    """Drop the constraints implied by the others, one at a time in the
    given order, for a nonempty full-dimensional poic with closure rays
    ``rays``.

    A normal vanishing on a maximal set of rays is a facet of the closure
    and is kept; every other normal cuts a smaller face F of the closure.
    Such a closed normal is implied by the facets.  Such a strict normal
    is implied iff some strict normal still in the list is zero on all of
    F, as the points of F it removes are then removed already."""
    zeros = _zero_sets([n for n, _ in constraints], rays)
    kept = _maximal(zeros)
    for i, ((_, strict), z) in enumerate(zip(constraints, zeros)):
        if not kept[i]:
            kept[i] = strict and not any(
                (kept[j] or j > i) and constraints[j][1]
                and w & z == z for j, w in enumerate(zeros))
    return [c for c, k in zip(constraints, kept) if k]


def cell_key(gens):
    """The canonical key of a closed cell, from generators holding ± a
    basis of its lineality space and one per extreme ray: the primitive
    generators of a pointed cell; for a cell with a line, ± the Hermite
    basis of the saturated lattice its ± pairs span, and its other
    generators with that basis's pivot columns cleared, made primitive.
    Clearing projects linearly along the line space, so neither the
    representatives nor the basis show."""
    key = frozenset(primitive(g) for g in gens if not is_zero_vec(g))
    line = [g for g in key if tuple(-x for x in g) in key]
    if not line:
        return key
    hnf = hermite_row_basis(saturation(IntMatrix.from_rows(line)))
    basis = [hnf.row(i) for i in range(hnf.rows)]
    out = {v for h in basis for v in (h, tuple(-x for x in h))}
    for g in key.difference(line):
        for h in basis:
            c = next(j for j, x in enumerate(h) if x)
            g = tuple(h[c] * x - g[c] * y for x, y in zip(g, h))
        if not is_zero_vec(g):
            out.add(primitive(g))
    return frozenset(out)


# ---------------------------------------------------------------------------
# the Poic type

class Poic(Value):
    """Validated partially open integral cone, full-dimensional in Z^rank.

    ``facets`` is the minimal sorted tuple of (normal, strict) pairs, and
    ``closure_rays`` the closure's ``cell_key``, sorted.
    """

    __slots__ = _fields = ("rank", "facets", "closure_rays")

    @property
    def dim(self):
        return self.rank

    def normals(self):
        return [n for n, _ in self.facets]

    def interior_point(self):
        """An integer point of the relative interior."""
        return _ray_sum(self.closure_rays, self.rank)

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
        """True when the closure contains no line: the closure rays hold
        ± a lineality basis, and otherwise no ray and its negative."""
        rays = set(self.closure_rays)
        return not any(tuple(-x for x in g) in rays for g in rays)


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
    facets, rays = _poic_new(rank, tuple(sorted(cleaned.items())))
    return Poic(rank=rank, facets=facets, closure_rays=rays)


@lru_cache(maxsize=_DD_MEMO_SIZE)
def _poic_new(rank, constraints):
    """(facets, closure_rays) of ``poic_new`` for sorted (primitive
    normal, strict) pairs; EmptyCone and NotFullDimensional are raised,
    and so never memoized."""
    if strict_feasible(constraints, rank) is None:
        raise EmptyCone("no point satisfies all constraints")
    gens = dual_generators([n for n, _ in constraints], rank)
    if frac_rank(list(gens) or [(0,) * rank]) != rank and rank > 0:
        raise NotFullDimensional(
            "closure span is a proper subspace; re-coordinate first")
    # the minimal constraints cut out the same closure, keyed by gens
    return tuple(_minimal(constraints, gens)), gens


def chart_cone(gens, rank, ambient):
    """The closed cone generated by ``gens`` in Z^rank, re-coordinated to
    its saturated lattice and cut by the pullbacks of the ``ambient``
    (normal, strict) pairs.  Returns (poic, embedding into Z^rank)."""
    basis, local = saturation_coordinates(IntMatrix.from_rows(list(gens),
                                                              rank))
    d = basis.rows
    embed = basis.transpose()
    facets, _ = facets_from_rays(local, d)
    constraints = [(f, False) for f in facets]
    for n, strict in ambient:
        # a zero pullback stays: poic_new drops 0 >= 0 and rejects 0 > 0
        constraints.append((tuple(dot(n, basis.row(j)) for j in range(d)),
                            strict))
    return poic_new(d, constraints), embed


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

class FaceEmbedding(Value):
    """A face of ``sup`` re-coordinated to its own saturated lattice.

    ``matrix`` maps N^sub into N^sup; its image lattice is Lin_N(face).
    ``gens_key`` is the set of closure rays of sup tight on the face.
    """

    __slots__ = _fields = ("sub", "sup", "matrix", "gens_key")

    @property
    def dim(self):
        return self.sub.rank

    def ambient_interior_point(self):
        """Integer relative-interior point of the face, in sup coordinates."""
        return _ray_sum(self.gens_key, self.sup.rank)


def _closed_facet_normals(sigma: Poic):
    """Normals that are facets of the closure (strictness ignored): those
    vanishing on a maximal set of closure rays."""
    normals = sigma.normals()
    return [n for n, top in zip(
        normals, _maximal(_zero_sets(normals, sigma.closure_rays))) if top]


def closure_faces(sigma: Poic):
    """The faces of sigma's closure, sorted, each as the sorted tuple of
    the closure rays it contains: the whole closure and the intersections
    of the closed facets' zero sets, closed one facet at a time."""
    rays = sigma.closure_rays
    masks = {(1 << len(rays)) - 1}
    for z in _zero_sets(_closed_facet_normals(sigma), rays):
        masks |= {m & z for m in masks}
    return sorted(tuple(g for j, g in enumerate(rays) if m >> j & 1)
                  for m in masks)


def faces(sigma: Poic):
    """All faces of the poic, each as a FaceEmbedding; includes sigma.

    A face of the closure is present iff its relative interior satisfies
    every strict constraint of sigma.
    """
    return _faces(sigma)


@lru_cache(maxsize=_FACES_MEMO_SIZE)
def _faces(sigma: Poic):
    out = []
    for gens in closure_faces(sigma):
        witness = _ray_sum(gens, sigma.rank)
        if not all(dot(n, witness) > 0 for n, s in sigma.facets if s):
            continue  # dropped by strictness
        if len(gens) == len(sigma.closure_rays):
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
    return _image_in_cone(IntMatrix.identity(a.rank), a, b) is None


def poic_equal_sets(a: Poic, b: Poic):
    return poic_subset(a, b) and poic_subset(b, a)


# ---------------------------------------------------------------------------
# morphisms

class PoicMorphism(Value):
    """A checked lattice map of cones; ``face`` is the face of codomain
    equal to the image, or None."""

    __slots__ = _fields = ("matrix", "domain", "codomain", "injective",
                           "face_embedding", "face")


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


def _carrier(point, xi: Poic):
    """The gens_key of the smallest face of xi's closure containing
    ``point``: the closure rays tight on every normal vanishing there."""
    tight = [n for n, _ in xi.facets if dot(n, point) == 0]
    return tuple(g for g in xi.closure_rays
                 if all(dot(n, g) == 0 for n in tight))


def closed_cone_contains(gens, points, rank):
    """True iff every point lies in the closed cone generated by gens."""
    if not points:
        return True
    facets, ann = facets_from_rays(list(gens), rank)
    return all(all(dot(f, x) >= 0 for f in facets)
               and all(dot(a, x) == 0 for a in ann) for x in points)


def image_face(matrix, sigma, xi):
    """The face of xi equal to matrix(sigma), or None.

    Assumes matrix(sigma) ⊆ xi and that matrix is injective.  Then
    matrix(sigma) lies in the carrier f of the image of an interior point
    of sigma, and equals f iff f has sigma's dimension, every ray of f
    lies in the closed cone matrix(closure of sigma) (equal closures), and
    f has as many present faces as sigma (each present face of sigma maps
    onto a distinct present face of f).
    """
    key = _carrier(matrix.apply(sigma.interior_point()), xi)
    f = next((f for f in faces(xi) if f.gens_key == key), None)
    if f is None or f.dim != sigma.rank:
        return None
    image = [matrix.apply(g) for g in sigma.closure_rays]
    if not closed_cone_contains(image, key, xi.rank):
        return None
    if len(faces(f.sub)) != len(faces(sigma)):
        return None
    return f


def is_injective(matrix: IntMatrix):
    return frac_rank([matrix.col(j) for j in range(matrix.cols)]) \
        == matrix.cols


def check_morphism(matrix: IntMatrix, sigma: Poic, xi: Poic) -> PoicMorphism:
    """Validated poic morphism; also reports injectivity and whether the
    map is a face-embedding (image is a face, lattice saturated)."""
    if matrix.cols != sigma.rank or matrix.rows != xi.rank:
        raise ConeError("matrix shape does not match the lattice ranks")
    injective, face_embedding, face = _check_morphism(matrix, sigma, xi)
    return PoicMorphism(matrix=matrix, domain=sigma, codomain=xi,
                        injective=injective, face_embedding=face_embedding,
                        face=face)


@lru_cache(maxsize=_MORPHISM_MEMO_SIZE)
def _check_morphism(matrix, sigma, xi):
    """(injective, face_embedding, face) of a shape-checked morphism; a
    NotIntoCodomain is raised, and so never memoized."""
    bad = _image_in_cone(matrix, sigma, xi)
    if bad is not None:
        raise NotIntoCodomain(f"point {bad} maps outside the codomain")
    injective = is_injective(matrix)
    face = image_face(matrix, sigma, xi) if injective else None
    face_embedding = face is not None
    if face_embedding and sigma.rank > 0:
        sub_lat = Lattice(xi.rank, IntMatrix.from_rows(
            [matrix.col(j) for j in range(matrix.cols)], xi.rank))
        face_embedding = lattice_index(
            Lattice(xi.rank, face.matrix.transpose()), sub_lat) == 1
    return injective, face_embedding, face


def rational_preimage(matrix: IntMatrix, point):
    """One rational preimage of ``point`` under ``matrix`` or None."""
    if len(point) != matrix.rows:
        raise ValueError("point length does not match the rows")
    if not matrix.rows:
        from fractions import Fraction
        return (Fraction(0),) * matrix.cols
    rows = [tuple(matrix.row(i)) for i in range(matrix.rows)]
    return frac_solve(rows, point)
