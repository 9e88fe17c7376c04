"""Poic-complexes: skeletonized (poset) diagrams of poics whose morphisms
are face-embeddings and in which every face of every cone is uniquely
realized.  Also linear structures, products, subcomplexes, stars, the
conification of rational polyhedral complexes, and skeletonization of thin
presentations.
"""

from __future__ import annotations

import math
from functools import cached_property

from .cone import (
    Poic,
    chart_cone,
    check_morphism,
    closed_cone_contains,
    faces,
    poic_new,
)
from .cone import product as cone_product
from .intlinalg import (
    IntMatrix,
    block_diag,
    primitive,
    solve_integer_columns,
    unimodular_inverse,
)
from .value import TropoconeError, Value


class ComplexError(TropoconeError):
    pass


class MissingFace(ComplexError):
    """Axiom 2 fails: some face of some cone has no realizing source."""


class DuplicateFace(ComplexError):
    """Axiom 2 fails: some face of some cone is realized more than once."""


class NotFaceEmbedding(ComplexError):
    pass


class NonFunctorial(ComplexError):
    pass


class NotThin(ComplexError):
    pass


class NotSubcomplex(ComplexError):
    pass


class NotPolyhedralComplex(ComplexError):
    pass


class PoicComplex(Value):
    """Skeletonized poic-complex: a strict poset of cone ids with one
    face-embedding matrix per relation (relations are transitively closed).
    """

    _fields = ("cones", "order", "face_maps")

    def ids(self):
        return sorted(self.cones)

    def dim(self, p):
        return self.cones[p].rank

    def classes(self, k):
        """Isomorphism classes of k-dimensional cones (= cone ids here)."""
        return [p for p in self.ids() if self.dim(p) == k]

    def max_dim(self):
        return max((c.rank for c in self.cones.values()), default=-1)

    @cached_property
    def _neighbours(self):
        """The cones below and above each cone, sorted, built once."""
        below, above = {}, {}
        for (p, q) in sorted(self.order):
            above.setdefault(p, []).append(q)
            below.setdefault(q, []).append(p)
        return below, above

    def below(self, q):
        return list(self._neighbours[0].get(q, ()))

    def above(self, p):
        return list(self._neighbours[1].get(p, ()))

    def facemap(self, p, q):
        if p == q:
            return IntMatrix.identity(self.dim(p))
        return self.face_maps[(p, q)]

    def arrows(self):
        """The hom-sets: each cone's identity, then each face map."""
        homs = {(p, p): (IntMatrix.identity(self.dim(p)),)
                for p in self.ids()}
        homs.update(((p, q), (self.face_maps[(p, q)],))
                    for (p, q) in self.order)
        return homs

    def is_pure(self, n=None):
        """Every cone lies under some top-dimensional cone."""
        if n is None:
            n = self.max_dim()
        for p in self.ids():
            if self.dim(p) == n:
                continue
            if not any(self.dim(q) == n for q in self.above(p)):
                return False
        return True


def complex_new(cones, order, face_maps) -> PoicComplex:
    """Validated poic-complex from cones, a strict order, and face maps.

    Both poic-complex axioms are verified exhaustively on the finite data.
    """
    cones = dict(cones)
    order = frozenset(tuple(r) for r in order)
    face_maps = dict(face_maps)
    for (p, q) in order:
        if p == q:
            raise NonFunctorial(f"order is not irreflexive at {p}")
        if (q, p) in order:
            raise NonFunctorial(f"order is not antisymmetric on {p},{q}")
        if p not in cones or q not in cones:
            raise ComplexError(f"relation {p}<{q} references unknown cones")
        if (p, q) not in face_maps:
            raise ComplexError(f"missing face map for {p}<{q}")
    # the relations out of and into each cone, sorted; only composable
    # pairs p<q<r are checked
    phi = PoicComplex(cones=cones, order=order, face_maps=face_maps)
    below, above = phi._neighbours
    relations = [(p, q) for p, qs in above.items() for q in qs]
    for (p, q) in relations:
        for r in above.get(q, ()):
            if (p, r) not in order:
                raise NonFunctorial(
                    f"order is not transitively closed: {p}<{q}<{r}")
    # axiom 1: every morphism is a face-embedding
    image_key = {}
    for (p, q) in relations:
        m = face_maps[(p, q)]
        mor = check_morphism(m, cones[p], cones[q])
        if not mor.face_embedding:
            raise NotFaceEmbedding(f"map for {p}<{q} is not a face-embedding")
        image_key[(p, q)] = mor.face.gens_key
    # functoriality: face maps compose
    for (p, q) in relations:
        for r in above.get(q, ()):
            lhs = face_maps[(q, r)] @ face_maps[(p, q)]
            if lhs != face_maps[(p, r)]:
                raise NonFunctorial(
                    f"face maps do not compose along {p}<{q}<{r}")
    # axiom 2: every face of every cone realized exactly once
    for q in sorted(cones):
        sigma = cones[q]
        realized = {sigma.closure_rays}
        for p in below.get(q, ()):
            key = image_key[(p, q)]
            if key in realized:
                raise DuplicateFace(
                    f"face {sorted(key)} of {q} realized more than once")
            realized.add(key)
        for f in faces(sigma):
            if f.gens_key not in realized:
                raise MissingFace(
                    f"face {sorted(f.gens_key)} of cone {q} has no source "
                    f"object")
    return phi


def single_cone_complex(sigma: Poic, name="c0") -> PoicComplex:
    """The complex underline(sigma): sigma together with all its faces."""
    fs = faces(sigma)
    ids = {}
    cones = {}
    for i, f in enumerate(fs):
        cid = name if f.dim == sigma.rank else f"{name}.f{i}"
        ids[frozenset(f.gens_key)] = cid
        cones[cid] = f.sub
    order = set()
    face_maps = {}
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            ki, kj = frozenset(f.gens_key), frozenset(g.gens_key)
            if ki == kj or not ki <= kj:
                continue
            p, q = ids[ki], ids[kj]
            # matrix: solve g.matrix @ m == f.matrix
            fm = solve_integer_columns(g.matrix, f.matrix)
            if fm is None:
                raise ComplexError("face embedding is not saturated")
            order.add((p, q))
            face_maps[(p, q)] = fm
    return complex_new(cones, order, face_maps)


def relint_complex(sigma: Poic, name="c0") -> PoicComplex:
    """The one-cone complex underline(sigma°)."""
    return complex_new({name: sigma.relint()}, set(), {})


def skeleton(phi: PoicComplex, k: int) -> PoicComplex:
    """Full subcomplex on the cones of dimension <= k."""
    return subcomplex(phi, [p for p in phi.ids() if phi.dim(p) <= k])


def subcomplex(phi: PoicComplex, ids) -> PoicComplex:
    ids = set(ids)
    missing = ids - set(phi.cones)
    if missing:
        raise NotSubcomplex(f"unknown cones {sorted(missing)}")
    return PoicComplex(
        cones={p: phi.cones[p] for p in ids},
        order=frozenset((p, q) for (p, q) in phi.order
                        if p in ids and q in ids),
        face_maps={(p, q): m for (p, q), m in phi.face_maps.items()
                   if p in ids and q in ids},
    )


def product_id(p, q):
    return f"{p} x {q}"


def product_objects(objects1, objects2):
    """One product cone per pair of factor cones, in id order; returns
    (cones, pairs) where pairs maps each product id to its factor ids."""
    cones, pairs = {}, {}
    for p in sorted(objects1):
        for q in sorted(objects2):
            pid = product_id(p, q)
            cones[pid] = cone_product(objects1[p], objects2[q])
            pairs[pid] = (p, q)
    return cones, pairs


def product_homs(homs1, homs2):
    """The product rule for arrows: each pair of factor hom-sets (x1, y1)
    and (x2, y2) gives the hom-set of (x1, x2) -> (y1, y2), the
    block_diag of each pair of their matrices."""
    return {(product_id(x1, x2), product_id(y1, y2)):
            tuple(block_diag(a, b) for a in ms1 for b in ms2)
            for (x1, y1), ms1 in homs1.items()
            for (x2, y2), ms2 in homs2.items()}


def product_complex(phi: PoicComplex, psi: PoicComplex):
    """Product complex; returns (complex, pairs) where pairs maps each
    product id to its factor ids.  Each product relation is a pair of
    factor arrows (relations or identities, not both identities)."""
    cones, pairs = product_objects(phi.cones, psi.cones)
    face_maps = {r: m for r, (m,) in product_homs(phi.arrows(),
                                                   psi.arrows()).items()
                 if r[0] != r[1]}
    return PoicComplex(cones=cones, order=frozenset(face_maps),
                       face_maps=face_maps), pairs


def star1(phi: PoicComplex, s):
    """Classes [s -> t] with dimension gap exactly 1."""
    d = phi.dim(s)
    return [t for t in phi.above(s) if phi.dim(t) == d + 1]


class LinearStructure(Value):
    """Per-cone integer matrices into a fixed lattice N_X, natural with
    respect to all face maps."""

    __slots__ = _fields = ("target_rank", "maps")

    def map(self, p):
        return self.maps[p]


def validate_linear(phi: PoicComplex, lin: LinearStructure):
    for p in phi.ids():
        m = lin.maps.get(p)
        if m is None:
            raise ComplexError(f"linear structure missing cone {p}")
        if m.rows != lin.target_rank or m.cols != phi.dim(p):
            raise ComplexError(f"linear map shape mismatch at {p}")
    for (p, q) in phi.order:
        lhs = lin.maps[q] @ phi.facemap(p, q)
        if lhs != lin.maps[p]:
            raise NonFunctorial(f"linear structure not natural at {p}<{q}")
    return True


def product_linear(phi, lin_phi, psi, lin_psi, pairs):
    maps = {}
    for pid, (p, q) in pairs.items():
        maps[pid] = block_diag(lin_phi.maps[p], lin_psi.maps[q])
    return LinearStructure(target_rank=lin_phi.target_rank
                           + lin_psi.target_rank, maps=maps)


def restrict_linear(lin: LinearStructure, ids):
    return LinearStructure(target_rank=lin.target_rank,
                           maps={p: lin.maps[p] for p in ids})


# ---------------------------------------------------------------------------
# skeletonization of thin presentations

def skeletonize(objects, morphisms):
    """Skeletonize an essentially finite thin presentation.

    ``objects``: dict id -> Poic; ``morphisms``: list of (src, dst, matrix).
    Isomorphisms (invertible face-embeddings onto the whole codomain) are
    contracted; returns (PoicComplex, equivalence) where equivalence maps
    each input object to (representative, matrix into representative).
    """
    objects = dict(objects)
    mors = [(s, t, m) for (s, t, m) in morphisms]
    iso_edges = []
    plain = []
    for (s, t, m) in mors:
        if objects[s].rank == objects[t].rank and s != t:
            try:
                inv = unimodular_inverse(m)
            except ValueError:
                inv = None
            if inv is not None:
                mor = check_morphism(m, objects[s], objects[t])
                if mor.face_embedding:
                    iso_edges.append((s, t, m, inv))
                    continue
        plain.append((s, t, m))
    # union-find with transport matrices to the class representative
    parent = {o: o for o in objects}
    to_parent = {o: IntMatrix.identity(objects[o].rank) for o in objects}

    def find(o):
        path = []
        while parent[o] != o:
            path.append(o)
            o = parent[o]
        for x in reversed(path):
            to_parent[x] = to_parent[parent[x]] @ to_parent[x]
            parent[x] = o
        return o

    for (s, t, m, inv) in iso_edges:
        rs, rt = find(s), find(t)
        if rs == rt:
            if to_parent[t] @ m != to_parent[s]:
                raise NotThin(f"non-identity automorphism at {rs}")
            continue
        # transport: rs -> s -> t -> rt; keep the lexicographically smaller id
        keep, drop = sorted((rs, rt))
        if keep == rs:
            # map rt into rs: rt -> t (inverse of to_parent[t]) -> s -> rs
            m_td = unimodular_inverse(to_parent[t])
            mat = to_parent[s] @ inv @ m_td
            parent[rt] = rs
            to_parent[rt] = mat
        else:
            m_sd = unimodular_inverse(to_parent[s])
            mat = to_parent[t] @ m @ m_sd
            parent[rs] = rt
            to_parent[rs] = mat

    reps = sorted({find(o) for o in objects})
    cones = {r: objects[r] for r in reps}
    rel = {}
    for (s, t, m) in plain:
        rs, rt = find(s), find(t)
        mat = to_parent[t] @ m @ unimodular_inverse(to_parent[s])
        if rs == rt:
            if mat != IntMatrix.identity(mat.rows):
                raise NotThin(f"non-identity endomorphism at {rs}")
            continue
        key = (rs, rt)
        if key in rel and rel[key] != mat:
            raise NotThin(f"two distinct parallel morphisms {rs} -> {rt}")
        rel[key] = mat
    # transitive closure
    changed = True
    while changed:
        changed = False
        for (p, q) in list(rel):
            for (q2, r) in list(rel):
                if q2 != q or (p, r) in rel:
                    continue
                rel[(p, r)] = rel[(q, r)] @ rel[(p, q)]
                changed = True
    phi = complex_new(cones, set(rel), rel)
    equivalence = {o: (find(o), to_parent[o]) for o in objects}
    return phi, equivalence


# ---------------------------------------------------------------------------
# conification of rational polyhedral complexes

class PolyhedralCell(Value):
    """V-representation of a rational polyhedron: vertices and rays."""

    __slots__ = _fields = ("name", "vertices", "rays")


def _cell_cone_gens(cell: PolyhedralCell):
    from fractions import Fraction
    den = math.lcm(*(Fraction(x).denominator
                     for v in cell.vertices for x in v))
    gens = [tuple(int(Fraction(x) * den) for x in v) + (den,)
            for v in cell.vertices]
    for r in cell.rays:
        fr = [Fraction(x) for x in r]
        d = math.lcm(*(f.denominator for f in fr))
        gens.append(tuple(int(f * d) for f in fr) + (0,))
    return [primitive(g) for g in gens]


def conify(cells):
    """Conify a rational polyhedral complex whose recession cones form a fan.

    Each cell's cone sigma_cell is generated by (cell x {1}) and
    (recession(cell) x {0}) in N ⊕ Z.  When every cell is bounded the cones
    are closed (the origin is adjoined); otherwise the half-space z > 0 is
    imposed on every cone so that the collection stays a poic-complex.

    Returns (complex, linear structure, cell_ids): the linear structure is
    the natural embedding into N ⊕ Z, and cell_ids maps cell names to cone
    ids; slicing a cone at z = 1 recovers its cell.
    """
    cells = list(cells)
    if not cells:
        raise NotPolyhedralComplex("no cells")
    ambient = len(cells[0].vertices[0]) if cells[0].vertices else \
        len(cells[0].rays[0])
    n = ambient + 1
    unbounded = any(c.rays for c in cells)
    cone_gens = {}
    for c in cells:
        if not c.vertices:
            raise NotPolyhedralComplex(f"cell {c.name} has no vertices")
        gens = _cell_cone_gens(c)
        if any(len(g) != n for g in gens):
            raise NotPolyhedralComplex("inconsistent ambient dimension")
        cone_gens[c.name] = gens
    poics = {}
    embeds = {}
    # every cone has a vertex generator with last coordinate > 0, so the
    # cut z > 0 of unbounded complexes never pulls back to zero
    cuts = [((0,) * ambient + (1,), True)] if unbounded else []
    for name, gens in sorted(cone_gens.items()):
        poics[name], embeds[name] = chart_cone(gens, n, cuts)
    cones = dict(poics)
    order = set()
    face_maps = {}
    names = sorted(cone_gens)
    if not unbounded:
        # adjoin the origin as the common zero-dimensional face
        origin = "origin"
        cones[origin] = poic_new(0, [])
        embeds[origin] = IntMatrix(n, 0, ())
        for name in names:
            order.add((origin, name))
            face_maps[(origin, name)] = IntMatrix(poics[name].rank, 0, ())
    for a in names:
        for b in names:
            if a == b:
                continue
            # a is a face of b iff every generator of a's cone lies in b's
            # cone and the face relation holds cone-wise
            ga = cone_gens[a]
            if closed_cone_contains(cone_gens[b], ga, n):
                if len(ga) == len(cone_gens[b]) and set(ga) == set(
                        cone_gens[b]):
                    raise NotPolyhedralComplex(
                        f"cells {a} and {b} span the same cone")
                fm = solve_integer_columns(embeds[b], embeds[a])
                if fm is None:
                    raise NotPolyhedralComplex(
                        f"lattice of {a} not saturated inside {b}")
                order.add((a, b))
                face_maps[(a, b)] = fm
    try:
        phi = complex_new(cones, order, face_maps)
    except ComplexError as exc:
        raise NotPolyhedralComplex(str(exc)) from exc
    lin = LinearStructure(target_rank=n,
                          maps={p: embeds[p] for p in cones})
    validate_linear(phi, lin)
    return phi, lin, {name: name for name in names}
