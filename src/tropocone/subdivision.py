"""Subdivision calculus: validation, stellar and barycentric (ord)
subdivisions, honest common refinements, weak properness, P-fine
refinements, pushforwards, and cycle equality.

The shared engine is ``refine_assemble``: it takes, for every cone of a
complex, a family of closed cells (V-representations in cone coordinates)
subordinate to the cone, filters them against the cone's strictness
pattern, re-coordinates each surviving cell to its saturated lattice, and
assembles the refined poic-complex together with the subdivision map.
"""

from __future__ import annotations

from functools import cached_property

from . import cone
from .cone import (
    Poic,
    _carrier,
    _dd_start,
    _dd_step,
    _ray_sum,
    cell_key,
    chart_cone,
    check_morphism,
    closure_faces,
    dual_generators,
    faces,
    facets_from_rays,
    is_injective,
)
from .complexes import (
    ComplexError,
    PoicComplex,
    complex_new,
)
from .intlinalg import (
    IntMatrix,
    Lattice,
    dot,
    is_zero_vec,
    lattice_index,
    primitive,
    saturation,
    sign_normalized,
    smith_normal_form,
    solve_integer_columns,
)
from .value import TropoconeError, Value
from .weights import Weight


class SubdivisionError(TropoconeError):
    pass


class RayNotInterior(SubdivisionError):
    pass


class AmbientMismatch(SubdivisionError):
    pass


class NotPFine(SubdivisionError):
    pass


class IncomparableSubdivisions(SubdivisionError):
    pass


class ComplexMorphism(Value):
    """A morphism of poic-complexes: a target cone and a lattice map per
    source cone.  Subdivisions are the morphisms that satisfy the three
    subdivision axioms (``validate_subdivision``)."""

    _fields = ("source", "target", "cone_map", "matrices")

    @cached_property
    def _pieces_by_target(self):
        """The sorted source cones over each target cone, built once:
        ``cone_map`` is never changed after construction."""
        index = {}
        for p in sorted(self.cone_map):
            index.setdefault(self.cone_map[p], []).append(p)
        return index

    def pieces_over(self, s):
        return list(self._pieces_by_target.get(s, ()))

    def image_gens(self, p):
        return _image(self.matrices[p], self.source.cones[p])

    def _image_hdescs(self, s):
        """(piece, facets, annihilator) per piece over s: the
        H-description of the closed cone its image spans."""
        rank = self.target.dim(s)
        return [(p, *facets_from_rays(self.image_gens(p), rank))
                for p in self.pieces_over(s)]

    def pieces_containing(self, s, point):
        """The pieces over s whose relative interior maps onto a set
        containing point.

        Needs injective maps, as a subdivision's are (axiom 1): an
        injective map sends the relative interior of a piece onto the
        relative interior of its closed image cone."""
        return _relint_members(self._image_hdescs(s), point)

    def shape_issues(self):
        """One message per source cone whose map data is missing, names no
        target cone or does not fit the ranks, and per map entry naming no
        source cone."""
        for p in sorted({*self.cone_map, *self.matrices, *self.source.cones}):
            s, m = self.cone_map.get(p), self.matrices.get(p)
            if p not in self.source.cones or m is None \
                    or s not in self.target.cones:
                yield f"map data of {p} is missing or names no cone"
            elif (m.rows, m.cols) != (self.target.dim(s), self.source.dim(p)):
                yield f"matrix shape mismatch at {p}"


def _image(matrix, cone):
    return [tuple(matrix.apply(g)) for g in cone.closure_rays]


def _relint_members(hdescs, x):
    """The pieces of (piece, facets, annihilator) triples whose closed cone
    has x in its relative interior: every annihilator row vanishes on x
    and every facet normal is positive on it."""
    return [p for p, facets, ann in hdescs
            if all(dot(a, x) == 0 for a in ann)
            and all(dot(f, x) > 0 for f in facets)]


Subdivision = ComplexMorphism


def identity_subdivision(phi: PoicComplex) -> Subdivision:
    return ComplexMorphism(
        source=phi, target=phi,
        cone_map={p: p for p in phi.ids()},
        matrices={p: IntMatrix.identity(phi.dim(p)) for p in phi.ids()},
    )


# ---------------------------------------------------------------------------
# cell helpers (closed cells as tuples of generator vectors)

def cell_witness(gens, rank):
    return _ray_sum(cell_key(gens), rank)


def intersect_cells(gens_a, gens_b, rank):
    """Generators of cone(gens_a) ∩ cone(gens_b), cut out by generators of
    both dual cones: their memoized double descriptions, without the
    cell_key that ``dual_generators`` computes on every call."""
    duals = [cone._dual_generators(frozenset(
        primitive(g) for g in gens if not is_zero_vec(g)), rank)[0]
        for gens in (gens_a, gens_b)]
    return dual_generators(duals[0] + duals[1], rank)


def fold_cells(systems, rank):
    """Common refinement of closed-cell systems that each cover one cone:
    the distinct intersections of one cell from every system, as sorted
    generator tuples.  ``intersect_cells`` already returns the sorted
    ``cell_key`` of each intersection (the key of a double-description
    output is its own key), so the intersections are compared as they
    are."""
    current = [tuple(sorted(cell_key(c))) for c in systems[0]]
    for nxt in systems[1:]:
        current = list(dict.fromkeys(intersect_cells(c1, c2, rank)
                                     for c1 in current for c2 in nxt))
    return current


# ---------------------------------------------------------------------------
# assembling refined complexes

def refine_assemble(phi: PoicComplex, cells_per_cone) -> Subdivision:
    """Build the refined complex from per-cone families of closed cells.

    Cells are V-representations in the coordinates of their cone and must
    be subordinate to the closure; a cell is attached to the cone whose
    relative interior contains the cell's relative interior.  The result
    is validated as a poic-complex.
    """
    pieces = {}   # piece id -> (cone, poic, embed matrix, ambient key)
    for s in phi.ids():
        sigma = phi.cones[s]
        seen = set()
        kept = []
        for gens in cells_per_cone.get(s, [tuple(sigma.closure_rays)]):
            key = cell_key(gens)
            if key in seen:
                continue
            seen.add(key)
            for g in key:
                if not all(dot(n, g) >= 0 for n, _ in sigma.facets):
                    raise SubdivisionError(
                        f"cell generator {g} escapes the closure of {s}")
            w = cell_witness(gens, sigma.rank)
            if not sigma.contains(w, strictly=True):
                continue  # the cell belongs to a face of s, not to s
            kept.append(key)
        kept.sort(key=lambda k: (len(k), sorted(k)))
        cuts = [(n, True) for n, strict in sigma.facets if strict]
        for i, key in enumerate(kept):
            poic, embed = chart_cone(sorted(key), sigma.rank, cuts)
            pieces[f"{s}/{i}"] = (s, poic, embed, key)

    # the pieces by (cone, ambient key of one of their faces), so each
    # piece finds the pieces it is a face of by lookup
    pieces_by_face = {}
    for pid, (s, poic, embed, key) in pieces.items():
        for f in faces(poic):
            fkey = cell_key(embed.apply(f.matrix.apply(g))
                            for g in f.sub.closure_rays)
            pieces_by_face.setdefault((s, fkey), {})[pid] = f.dim

    cones = {pid: data[1] for pid, data in pieces.items()}
    order = set()
    face_maps = {}
    for p1 in sorted(pieces):
        s1, poic1, emb1, key1 = pieces[p1]
        found = {}
        for s2 in [s1] + phi.above(s1):
            fmap = phi.facemap(s1, s2)
            lifted = cell_key(fmap.apply(g) for g in key1)
            for p2, dim in pieces_by_face.get((s2, lifted), {}).items():
                if p2 != p1 and dim == poic1.rank:
                    found[p2] = fmap
        for p2 in sorted(found):
            fm = solve_integer_columns(pieces[p2][2], found[p2] @ emb1)
            if fm is None:
                raise SubdivisionError(
                    f"piece lattice of {p1} not saturated inside {p2}")
            order.add((p1, p2))
            face_maps[(p1, p2)] = fm

    source = complex_new(cones, order, face_maps)
    return ComplexMorphism(
        source=source, target=phi,
        cone_map={pid: pieces[pid][0] for pid in pieces},
        matrices={pid: pieces[pid][2] for pid in pieces},
    )


def compose_subdivisions(outer: ComplexMorphism,
                         inner: Subdivision) -> ComplexMorphism:
    """outer ∘ inner where inner subdivides outer's source; outer is a
    subdivision or any other morphism of complexes."""
    if inner.target is not outer.source and \
            inner.target.cones != outer.source.cones:
        raise AmbientMismatch("inner subdivision does not match the source")
    return ComplexMorphism(
        source=inner.source, target=outer.target,
        cone_map={p: outer.cone_map[inner.cone_map[p]]
                  for p in inner.source.ids()},
        matrices={p: outer.matrices[inner.cone_map[p]] @ inner.matrices[p]
                  for p in inner.source.ids()},
    )


# ---------------------------------------------------------------------------
# arrangement cells

def arrangement_cells(sigma: Poic, walls):
    """Closed cells (all dimensions) of the wall arrangement inside the
    closure of sigma, as generator tuples.

    The walk branches on the sign of each facet normal (> 0 or = 0) and
    then of each wall (> 0, < 0 or = 0).  Each node's cone is one double
    description step from its parent's, and a node is dropped when some
    strict normal is positive on no generator.  A wall parallel to a facet
    normal is dropped up front: that facet's branch fixes its sign."""
    rank = sigma.rank
    facets = [n for n, _ in sigma.facets]
    parallel = {*facets, *(tuple(-x for x in n) for n in facets)}
    levels = [[[(n, True)], [(n, False), (tuple(-x for x in n), False)]]
              for n in facets]
    for w in sorted({sign_normalized(w) for w in walls
                     if not is_zero_vec(w)} - parallel):
        m = tuple(-x for x in w)
        levels.append([[(w, True)], [(m, True)], [(w, False), (m, False)]])
    cells = {}

    def rec(i, constraints, gens, inserted, pointed):
        if i == len(levels):
            key = cell_key(gens)
            cells.setdefault(key, tuple(sorted(key)))
            return
        for branch in levels[i]:
            g, ins, pt = gens, inserted, pointed
            for n, _ in branch:
                if n not in ins:
                    ins = ins + (n,)
                    g, pt = _dd_step(g, ins, rank, pt)
            cons = constraints + branch
            if all(any(dot(n, x) > 0 for x in g) for n, s in cons if s):
                rec(i + 1, cons, g, ins, pt)

    rec(0, [], _dd_start(rank), (), False)
    return sorted(cells.values(), key=lambda c: (len(c), c))


# ---------------------------------------------------------------------------
# validation

class Report(Value):
    """Outcome of an exact axiom check: one issue per violation, each
    naming its axiom, a message and a witness.  Mutable, so unhashable."""

    __slots__ = _fields = ("issues",)
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, issues: list = None):
        self.issues = [] if issues is None else issues

    @property
    def ok(self):
        return not self.issues

    def add(self, axiom, message, witness=None):
        self.issues.append({"axiom": axiom, "message": message,
                            "witness": witness})


def _square_issues(mor: ComplexMorphism):
    """(message, relation) for every relation of the source, in sorted
    order, whose image breaks the target order or whose square of
    matrices does not commute."""
    src, tgt = mor.source, mor.target
    for (p, q) in sorted(src.order):
        sp, sq = mor.cone_map[p], mor.cone_map[q]
        if not (sp == sq or (sp, sq) in tgt.order):
            yield f"relation {p}<{q} breaks order", (p, q)
        elif tgt.facemap(sp, sq) @ mor.matrices[p] \
                != mor.matrices[q] @ src.facemap(p, q):
            yield f"matrices do not commute along {p}<{q}", (p, q)


def validate_subdivision(sub: Subdivision) -> Report:
    """Check the three subdivision axioms exactly; report violations with
    witnesses.  Shape issues are reported alone: the axioms need maps that
    fit their cones."""
    report = Report()
    for message in sub.shape_issues():
        report.add("shape", message)
    if not report.ok:
        return report
    src, tgt = sub.source, sub.target
    # axiom 1: functorial, order preserving, injective, iso when dims agree
    hit = set(sub.cone_map.values())
    for t in tgt.ids():
        if t not in hit:
            report.add("surjective", f"target cone {t} has no piece", t)
    for p in src.ids():
        m = sub.matrices[p]
        if not is_injective(m):
            report.add("injective", f"matrix at {p} is not injective", p)
        if src.dim(p) == tgt.dim(sub.cone_map[p]):
            d, _, _ = smith_normal_form(m)
            diag = [d.entry(i, i) for i in range(min(m.rows, m.cols))]
            if any(x != 1 for x in diag):
                report.add("lattice-iso",
                           f"piece {p} is not a lattice isomorphism", p)
    for message, relation in _square_issues(sub):
        report.add("functorial", message, relation)
    if not report.ok:
        return report
    # axiom 2: relative interiors partition each target interior
    for s in tgt.ids():
        sigma = tgt.cones[s]
        hdescs = sub._image_hdescs(s)
        walls = [w for _, fs, ann in hdescs for w in (*fs, *ann)]
        for cell in arrangement_cells(sigma, walls):
            w = cell_witness(cell, sigma.rank)
            if not sigma.contains(w, strictly=True):
                continue
            covering = _relint_members(hdescs, w)
            if len(covering) == 0:
                report.add("partition",
                           f"interior point {w} of {s} is uncovered", w)
            elif len(covering) > 1:
                report.add("partition",
                           f"interior point {w} of {s} covered by "
                           f"{covering}", w)
    # axiom 3: every target relation out of S(t) lifts to a source relation
    for t in src.ids():
        st = sub.cone_map[t]
        for s2 in tgt.above(st):
            if not any(sub.cone_map[q] == s2 for q in src.above(t)):
                report.add("face-lifting",
                           f"relation {st}<{s2} does not lift above {t}",
                           (t, s2))
    return report


# ---------------------------------------------------------------------------
# stellar subdivision

def stellar(phi: PoicComplex, s, ray) -> Subdivision:
    """Stellar subdivision at a primitive ray in the relative interior of
    Phi(s); cones above s are re-subdivided by coning from their faces."""
    ray = tuple(int(x) for x in ray)
    if is_zero_vec(ray) or not phi.cones[s].contains(ray, strictly=True):
        raise RayNotInterior(f"ray {ray} is not interior to {s}")
    if not phi.cones[s].facets:
        raise SubdivisionError(
            f"{s} is a linear space: it has no face to cone from")
    ray = primitive(ray)
    above = [s] + [t for t in phi.above(s)]
    cells_per_cone = {}
    for t in phi.ids():
        sigma_t = phi.cones[t]
        if t not in above:
            cells_per_cone[t] = closure_faces(sigma_t)
            continue
        r_t = tuple(phi.facemap(s, t).apply(ray))
        carrier = set(_carrier(r_t, sigma_t))
        cells = []
        for face in closure_faces(sigma_t):
            if carrier <= set(face):
                continue  # r_t lies in this face
            cells.append(face)
            cells.append(tuple(sorted({*face, r_t})))
        cells_per_cone[t] = cells
    return refine_assemble(phi, cells_per_cone)


# ---------------------------------------------------------------------------
# the ord (barycentric) subdivision

def ord_subdivision(phi: PoicComplex) -> Subdivision:
    """Barycentric-style subdivision via the chains-of-faces construction.

    A chain of faces that ends at a cone lies in that cone's own face
    lattice, so each cone is refined on its own: a cell is spanned by the
    barycenters (sums of primitive closure rays) of a chain of nonzero
    closure faces ending at the whole closure.  Faces absent from a
    partially open cone are dropped again by the strictness filter.
    """
    cells_per_cone = {}
    for s in phi.ids():
        sigma = phi.cones[s]
        if not sigma.pointed():
            raise SubdivisionError(
                "ord subdivision needs pointed closures")
        if sigma.rank == 0:
            cells_per_cone[s] = [()]
            continue
        keys = [frozenset(f) for f in closure_faces(sigma)]
        # the chains are grown downwards from the whole closure, so only
        # those ending there are built
        chains = [[frozenset(sigma.closure_rays)]]
        for chain in chains:
            chains.extend([k] + chain for k in keys if k and k < chain[0])
        cells_per_cone[s] = [tuple(cell_witness(k, sigma.rank) for k in c)
                             for c in chains]
    return refine_assemble(phi, cells_per_cone)


# ---------------------------------------------------------------------------
# common refinement of subdivisions

def common_refinement(subs) -> Subdivision:
    """Common refinement of subdivisions of one complex, by pairwise
    intersection of pieces within each cone."""
    if not subs:
        raise AmbientMismatch("no subdivisions given")
    base = subs[0].target
    for s in subs[1:]:
        if s.target is not base and s.target.cones != base.cones:
            raise AmbientMismatch("subdivisions have different targets")
    cells_per_cone = {}
    for y in base.ids():
        rank = base.dim(y)
        systems = [[tuple(sub.image_gens(p)) for p in sub.pieces_over(y)]
                   for sub in subs]
        cells_per_cone[y] = fold_cells(systems, rank)
    return refine_assemble(base, cells_per_cone)


def honest_subdivision_refine(subs) -> Subdivision:
    """Common refinement of honest subdivisions of a partially open fan.

    Raises AmbientMismatch when the inputs do not subdivide one complex.
    """
    if len(subs) == 1:
        return subs[0]
    return common_refinement(list(subs))


# ---------------------------------------------------------------------------
# morphisms of complexes, weak properness, P-fine refinement, pushforward

def validate_complex_morphism(mor: ComplexMorphism):
    for p in mor.source.ids():
        src, tgt = mor.source.cones[p], mor.target.cones[mor.cone_map[p]]
        m = mor.matrices[p]
        check_morphism(m, src, tgt)
        # non-degeneracy: the image does not lie in a proper face
        if _carrier(m.apply(src.interior_point()), tgt) != tgt.closure_rays:
            raise ComplexError(
                f"image of {p} lies in a proper face of its target")
    for message, _ in _square_issues(mor):
        raise ComplexError(f"morphism fails: {message}")
    return True


def _injective_cones(mor: ComplexMorphism, dims=None):
    """(source cone, target cone, image generators) for every source cone,
    of a dimension in ``dims`` when given, with an injective matrix."""
    for s in mor.source.ids():
        if dims is not None and mor.source.dim(s) not in dims:
            continue
        if is_injective(mor.matrices[s]):
            yield s, mor.cone_map[s], mor.image_gens(s)


def is_weakly_proper(mor: ComplexMorphism):
    """Lifting test for faces of image closures inside the target cones.

    For every source cone with injective linear part, every proper face of
    the relative closure of its image (a face of the closure surviving the
    target cone's strictness) must arise, with matching codimension, as
    the image closure of a face of the source cone present in the source
    complex.  Returns (flag, witness).
    """
    src, tgt = mor.source, mor.target
    for s, y, gens in _injective_cones(mor):
        if not gens:
            continue
        m = mor.matrices[s]
        target_cone = tgt.cones[y]
        rel_closure, embed = chart_cone(gens, target_cone.rank,
                                        target_cone.facets)
        d = rel_closure.rank
        for f in faces(rel_closure):
            if f.dim >= d:
                continue
            tau_gens = [tuple(embed.apply(f.matrix.apply(g)))
                        for g in f.sub.closure_rays]
            codim = d - f.dim
            if not any(cell_key(_image(m @ src.facemap(q, s), src.cones[q]))
                       == cell_key(tau_gens) for q in src.below(s)
                       if src.dim(s) - src.dim(q) == codim):
                return False, (s, tuple(tau_gens))
    return True, None


def _retraction(m: IntMatrix) -> IntMatrix:
    """Integer left inverse of an injective matrix with saturated image."""
    d, u, v = smith_normal_form(m)
    k = min(m.rows, m.cols)
    if any(d.entry(i, i) != 1 for i in range(k)) or k != m.cols:
        raise SubdivisionError("matrix image is not saturated")
    dplus = IntMatrix.from_rows(
        [[1 if i == j else 0 for j in range(m.rows)]
         for i in range(m.cols)], m.rows)
    return v @ dplus @ u


def pfine_refinement(mor: ComplexMorphism) -> Subdivision:
    """A subdivision of the target fine enough for the pushforward: every
    source cone with injective linear part has a matching piece with the
    same open image.  Built by per-cone hyperplane arrangements spanned by
    the facets of all source images."""
    tgt = mor.target
    walls = {y: [] for y in tgt.ids()}
    for _, y, gens in _injective_cones(mor):
        gens = [g for g in gens if not is_zero_vec(g)]
        if not gens:
            continue
        basis = saturation(IntMatrix.from_rows(gens, tgt.dim(y)))
        rho = _retraction(basis.transpose())
        local = [tuple(rho.apply(g)) for g in gens]
        lf, _ = facets_from_rays(local, basis.rows)
        _, ann = facets_from_rays(gens, tgt.dim(y))
        walls[y].extend(ann)
        walls[y].extend(tuple(dot(f, rho.col(j)) for j in range(rho.cols))
                        for f in lf)
    return refine_by_walls(tgt, walls)


_WALL_PASSES = 8


def refine_by_walls(phi: PoicComplex, walls_per_cone) -> Subdivision:
    """Refine each cone by a hyperplane arrangement (walls in cone
    coordinates); walls are propagated down to faces and extended up to
    cofaces so the per-cone arrangements glue.  Raises SubdivisionError
    when the propagation has not settled within its pass bound."""
    walls = {p: set() for p in phi.ids()}
    for p, ws in walls_per_cone.items():
        for w in ws:
            if not is_zero_vec(w):
                walls[p].add(sign_normalized(w))
    for _ in range(_WALL_PASSES):
        changed = False
        for (f, y) in sorted(phi.order):
            fmap = phi.facemap(f, y)
            for w in sorted(walls[y]):
                pw = tuple(dot(w, fmap.col(j)) for j in range(fmap.cols))
                if not is_zero_vec(pw):
                    pw = sign_normalized(pw)
                    if pw not in walls[f]:
                        walls[f].add(pw)
                        changed = True
            rho = _retraction(fmap)
            for w in sorted(walls[f]):
                ext = tuple(dot(w, rho.col(j)) for j in range(rho.cols))
                if not is_zero_vec(ext):
                    ext = sign_normalized(ext)
                    if ext not in walls[y]:
                        walls[y].add(ext)
                        changed = True
        if not changed:
            break
    else:
        raise SubdivisionError(
            f"walls still change after {_WALL_PASSES} propagation passes")
    cells = {p: arrangement_cells(phi.cones[p], walls[p])
             for p in phi.ids()}
    return refine_assemble(phi, cells)


def pfine_matching(mor: ComplexMorphism, sub: Subdivision, dims=None):
    """Match every injective source cone to the subdivision piece with the
    same open image; raises NotPFine when a required match is missing."""
    match = {}
    for s, y, gens in _injective_cones(mor, dims):
        found = None
        for t in sub.pieces_over(y):
            if sub.source.dim(t) != mor.source.dim(s):
                continue
            if cell_key(gens) == cell_key(sub.image_gens(t)):
                found = t
                break
        if found is None:
            raise NotPFine(
                f"source cone {s} has no matching piece in the subdivision")
        match[s] = found
    return match


def pushforward(mor: ComplexMorphism, sub: Subdivision, omega: Weight,
                k: int) -> Weight:
    """Index-weighted pushforward of a k-weight along a (weakly proper)
    morphism to a P-fine subdivision of the target."""
    match = pfine_matching(mor, sub, dims={k})
    values = {}
    for s in mor.source.ids():
        if mor.source.dim(s) != k or s not in match:
            continue
        v = omega.values.get(s, 0)
        if v == 0:
            continue
        t = match[s]
        y = mor.cone_map[s]
        rank = mor.target.dim(y)
        idx = lattice_index(Lattice(rank, sub.matrices[t].transpose()),
                            Lattice(rank, mor.matrices[s].transpose()))
        if idx is None:
            raise NotPFine(f"index of {s} in its match is infinite")
        values[t] = values.get(t, 0) + v * idx
    return Weight(k, {t: v for t, v in values.items() if v != 0})


def proper_probe(mor: ComplexMorphism, subdivisions):
    """Bounded properness check: weak properness of mor ∘ S for each of
    the given engine-generated subdivisions of the source.  Returns the
    list of failures as (subdivision index, witness)."""
    failures = []
    for i, sub in enumerate(subdivisions):
        flag, witness = is_weakly_proper(compose_subdivisions(mor, sub))
        if not flag:
            failures.append((i, witness))
    return failures


# ---------------------------------------------------------------------------
# cycles

class Cycle(Value):
    """A weight on a subdivision of a base complex, up to refinement."""

    __slots__ = _fields = ("base", "subdivision", "weight")


def cycle_equal(c1: Cycle, c2: Cycle) -> bool:
    """Equality of cycles: pullbacks to a common refinement agree."""
    if c1.base.cones != c2.base.cones:
        raise IncomparableSubdivisions("cycles live on different complexes")
    if c1.weight.dim != c2.weight.dim:
        return False
    k = c1.weight.dim
    common = common_refinement([c1.subdivision, c2.subdivision])
    hdescs = {}   # (side, target cone) -> H-descriptions, formed once
    for r in common.source.ids():
        if common.source.dim(r) != k:
            continue
        y = common.cone_map[r]
        w = tuple(common.matrices[r].apply(
            common.source.cones[r].interior_point()))
        vals = []
        for i, c in enumerate((c1, c2)):
            if (i, y) not in hdescs:
                hdescs[i, y] = c.subdivision._image_hdescs(y)
            found = _relint_members(hdescs[i, y], w)
            if not found:
                raise IncomparableSubdivisions(
                    f"cannot locate witness {w} in a subdivision")
            p = found[0]
            v = c.weight.values.get(p, 0) \
                if c.subdivision.source.dim(p) == k else 0
            vals.append(v)
        if vals[0] != vals[1]:
            return False
    return True
