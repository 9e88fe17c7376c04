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

from dataclasses import dataclass, field

from .cone import (
    Poic,
    cell_key,
    chart_cone,
    dual_generators,
    faces,
    facets_from_rays,
    rational_preimage,
    strict_feasible,
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
    frac_rank,
    is_zero_vec,
    lattice_index,
    primitive,
    saturation,
    sign_normalized,
    smith_normal_form,
    solve_integer_columns,
    vadd,
)
from .weights import Weight


class SubdivisionError(ValueError):
    pass


class RayNotInterior(SubdivisionError):
    pass


class AmbientMismatch(SubdivisionError):
    pass


class NotPFine(SubdivisionError):
    pass


class IncomparableSubdivisions(SubdivisionError):
    pass


@dataclass(frozen=True)
class Subdivision:
    source: PoicComplex
    target: PoicComplex
    cone_map: dict
    matrices: dict

    def pieces_over(self, s):
        return sorted(p for p, t in self.cone_map.items() if t == s)


def identity_subdivision(phi: PoicComplex) -> Subdivision:
    return Subdivision(
        source=phi, target=phi,
        cone_map={p: p for p in phi.ids()},
        matrices={p: IntMatrix.identity(phi.dim(p)) for p in phi.ids()},
    )


# ---------------------------------------------------------------------------
# cell helpers (closed cells as tuples of generator vectors)

def cell_witness(gens, rank):
    w = (0,) * rank
    for g in cell_key(gens):
        w = vadd(w, g)
    return w


def closed_cone_contains(gens, points, rank):
    """True iff every point lies in the closed cone generated by gens."""
    if not points:
        return True
    facets, ann = facets_from_rays(list(gens), rank)
    return all(all(dot(f, x) >= 0 for f in facets)
               and all(dot(a, x) == 0 for a in ann) for x in points)


def closed_cone_equal(gens_a, gens_b, rank):
    return (closed_cone_contains(gens_b, gens_a, rank)
            and closed_cone_contains(gens_a, gens_b, rank))


def intersect_cells(gens_a, gens_b, rank):
    """Generators of cone(gens_a) ∩ cone(gens_b)."""
    fa, aa = facets_from_rays(list(gens_a), rank)
    fb, ab = facets_from_rays(list(gens_b), rank)
    normals = list(fa) + list(fb)
    for a in aa + ab:
        normals.append(a)
        normals.append(tuple(-x for x in a))
    return dual_generators(normals, rank)


def fold_cells(systems, rank):
    """Common refinement of closed-cell systems that each cover one cone:
    the distinct intersections of one cell from every system, as sorted
    generator tuples."""
    current = [tuple(sorted(cell_key(c))) for c in systems[0]]
    for nxt in systems[1:]:
        merged = {}
        for c1 in current:
            for c2 in nxt:
                key = cell_key(intersect_cells(c1, c2, rank))
                merged.setdefault(key, tuple(sorted(key)))
        current = list(merged.values())
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

    # ambient keys of the faces of each piece, used for face detection
    face_keys = {}
    for pid, (s, poic, embed, key) in pieces.items():
        fk = {}
        for f in faces(poic):
            fk[cell_key(embed.apply(f.matrix.apply(g))
                        for g in f.sub.closure_rays)] = f.dim
        face_keys[pid] = fk

    cones = {pid: data[1] for pid, data in pieces.items()}
    order = set()
    face_maps = {}
    ids = sorted(pieces)
    for p1 in ids:
        s1, poic1, emb1, key1 = pieces[p1]
        for p2 in ids:
            if p1 == p2:
                continue
            s2, poic2, emb2, key2 = pieces[p2]
            if not (s1 == s2 or (s1, s2) in phi.order):
                continue
            fmap = phi.facemap(s1, s2)
            lifted = cell_key(fmap.apply(g) for g in key1)
            if lifted not in face_keys[p2]:
                continue
            if face_keys[p2][lifted] != poic1.rank:
                continue
            fm = solve_integer_columns(emb2, fmap @ emb1)
            if fm is None:
                raise SubdivisionError(
                    f"piece lattice of {p1} not saturated inside {p2}")
            order.add((p1, p2))
            face_maps[(p1, p2)] = fm

    source = complex_new(cones, order, face_maps)
    return Subdivision(
        source=source, target=phi,
        cone_map={pid: pieces[pid][0] for pid in pieces},
        matrices={pid: pieces[pid][2] for pid in pieces},
    )


def compose_subdivisions(outer: Subdivision, inner: Subdivision) -> Subdivision:
    """outer ∘ inner where inner subdivides outer's source."""
    if inner.target is not outer.source and \
            inner.target.cones != outer.source.cones:
        raise AmbientMismatch("inner subdivision does not match the source")
    return Subdivision(
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
    closure of sigma, as generator tuples."""
    norm_walls = []
    seen = set()
    for w in walls:
        if is_zero_vec(w):
            continue
        w = sign_normalized(w)
        if w not in seen:
            seen.add(w)
            norm_walls.append(w)
    facets = [n for n, _ in sigma.facets]
    cells = {}

    def rec(i, constraints):
        if strict_feasible(constraints, sigma.rank) is None:
            return
        if i < len(facets):
            n = facets[i]
            rec(i + 1, constraints + [(n, True)])
            rec(i + 1, constraints + [(n, False),
                                      (tuple(-x for x in n), False)])
            return
        j = i - len(facets)
        if j < len(norm_walls):
            w = norm_walls[j]
            rec(i + 1, constraints + [(w, True)])
            rec(i + 1, constraints + [(tuple(-x for x in w), True)])
            rec(i + 1, constraints + [(w, False),
                                      (tuple(-x for x in w), False)])
            return
        closed = [(n, False) for n, _ in constraints]
        gens = dual_generators([n for n, _ in closed], sigma.rank)
        # honor the one-sided closed constraints exactly
        gens = tuple(g for g in gens
                     if all(dot(n, g) >= 0 for n, _ in closed))
        key = cell_key(gens)
        cells.setdefault(key, tuple(sorted(key)))

    rec(0, [])
    return sorted(cells.values(), key=lambda c: (len(c), c))


# ---------------------------------------------------------------------------
# validation

@dataclass
class Report:
    """Outcome of an exact axiom check: one issue per violation, each
    naming its axiom, a message and a witness."""

    issues: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.issues

    def add(self, axiom, message, witness=None):
        self.issues.append({"axiom": axiom, "message": message,
                            "witness": witness})


def validate_subdivision(sub: Subdivision) -> Report:
    """Check the three subdivision axioms exactly; report violations with
    witnesses."""
    report = Report()
    src, tgt = sub.source, sub.target
    for p in src.ids():
        if p not in sub.cone_map or p not in sub.matrices:
            report.add("shape", f"piece {p} lacks map data")
            return report
    # axiom 1: functorial, order preserving, injective, iso when dims agree
    hit = set(sub.cone_map.values())
    for t in tgt.ids():
        if t not in hit:
            report.add("surjective", f"target cone {t} has no piece", t)
    for p in src.ids():
        m = sub.matrices[p]
        s = sub.cone_map[p]
        if m.cols != src.dim(p) or m.rows != tgt.dim(s):
            report.add("shape", f"matrix shape mismatch at {p}")
            continue
        if frac_rank([m.col(j) for j in range(m.cols)]) != src.dim(p):
            report.add("injective", f"matrix at {p} is not injective", p)
        if src.dim(p) == tgt.dim(s):
            d, _, _ = smith_normal_form(m)
            diag = [d.entry(i, i) for i in range(min(m.rows, m.cols))]
            if any(x != 1 for x in diag):
                report.add("lattice-iso",
                           f"piece {p} is not a lattice isomorphism", p)
    for (p, q) in src.order:
        sp, sq = sub.cone_map[p], sub.cone_map[q]
        if not (sp == sq or (sp, sq) in tgt.order):
            report.add("functorial",
                       f"relation {p}<{q} breaks order", (p, q))
            continue
        lhs = tgt.facemap(sp, sq) @ sub.matrices[p]
        rhs = sub.matrices[q] @ src.facemap(p, q)
        if lhs != rhs:
            report.add("functorial",
                       f"matrices do not commute along {p}<{q}", (p, q))
    if not report.ok:
        return report
    # axiom 2: relative interiors partition each target interior
    for s in tgt.ids():
        sigma = tgt.cones[s]
        ps = sub.pieces_over(s)
        walls = set()
        images = {}
        for p in ps:
            m = sub.matrices[p]
            gens = [tuple(m.apply(g)) for g in src.cones[p].closure_rays]
            images[p] = gens
            fs, ann = facets_from_rays(gens, sigma.rank)
            for wvec in list(fs) + list(ann):
                if not is_zero_vec(wvec):
                    walls.add(sign_normalized(wvec))
        for cell in arrangement_cells(sigma, sorted(walls)):
            w = cell_witness(cell, sigma.rank)
            if not sigma.contains(w, strictly=True):
                continue
            covering = []
            for p in ps:
                pre = rational_preimage(sub.matrices[p], w)
                if pre is not None and src.cones[p].contains(pre,
                                                             strictly=True):
                    covering.append(p)
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

def _closure_face_cells(sigma: Poic):
    closed = sigma.closure()
    return [tuple(sorted(f.gens_key)) for f in faces(closed)]


def stellar(phi: PoicComplex, s, ray) -> Subdivision:
    """Stellar subdivision at a primitive ray in the relative interior of
    Phi(s); cones above s are re-subdivided by coning from their faces."""
    ray = primitive(tuple(int(x) for x in ray))
    sigma = phi.cones[s]
    if not sigma.contains(ray, strictly=True):
        raise RayNotInterior(f"ray {ray} is not interior to {s}")
    above = [s] + [t for t in phi.above(s)]
    cells_per_cone = {}
    for t in phi.ids():
        sigma_t = phi.cones[t]
        if t not in above:
            cells_per_cone[t] = _closure_face_cells(sigma_t)
            continue
        r_t = tuple(phi.facemap(s, t).apply(ray))
        closed = sigma_t.closure()
        cells = []
        for f in faces(closed):
            gens = tuple(sorted(f.gens_key))
            tight = [n for n, _ in closed.facets
                     if all(dot(n, g) == 0 for g in gens)]
            in_face = closed.contains(r_t) \
                and all(dot(n, r_t) == 0 for n in tight)
            if in_face:
                continue
            cells.append(gens)
            cells.append(tuple(sorted(set(gens) | {r_t})))
        cells_per_cone[t] = cells
    return refine_assemble(phi, cells_per_cone)


# ---------------------------------------------------------------------------
# the ord (barycentric) subdivision

def ord_subdivision(phi: PoicComplex) -> Subdivision:
    """Barycentric-style subdivision via the chains-of-faces construction.

    Works per connected component; partially open complexes are completed
    by their missing closure faces first, the chain cones are built from
    the sums of primitive ray generators, and faces absent from the
    partially open cones are dropped again by the strictness filter.
    """
    for p in phi.ids():
        if not phi.cones[p].pointed():
            raise SubdivisionError(
                "ord subdivision needs pointed closures")
    # global closure completion: union-find over (cone, closure-face key)
    nodes = {}
    for s in phi.ids():
        closed = phi.cones[s].closure()
        for f in faces(closed):
            nodes[(s, frozenset(f.gens_key))] = (s, frozenset(f.gens_key))
    parent = dict(nodes)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (f_id, s_id) in phi.order:
        fmap = phi.facemap(f_id, s_id)
        closed_f = phi.cones[f_id].closure()
        for f in faces(closed_f):
            union((f_id, frozenset(f.gens_key)),
                  (s_id, cell_key(fmap.apply(g) for g in f.gens_key)))

    classes = {}
    for key in nodes:
        classes.setdefault(find(key), []).append(key)

    class_of = {key: find(key) for key in nodes}
    original = {}
    for s in phi.ids():
        topkey = frozenset(phi.cones[s].closure_rays)
        original[class_of[(s, topkey)]] = s
    dims = {}
    nvecs = {}
    for root, members in classes.items():
        s0, key0 = sorted(members)[0]
        gens = sorted(key0)
        dims[root] = frac_rank(list(gens) or [(0,) * max(phi.dim(s0), 1)])
        per_cone = {}
        for (s, key) in members:
            w = (0,) * phi.dim(s)
            for g in sorted(key):
                w = vadd(w, g)
            per_cone[s] = w
        nvecs[root] = per_cone

    # bar order between classes
    roots = sorted(classes, key=lambda r: (dims[r], str(r)))
    less = set()
    for r1 in roots:
        for r2 in roots:
            if r1 == r2 or dims[r1] >= dims[r2]:
                continue
            for (s, k2) in classes[r2]:
                match = next((k1 for (s1, k1) in classes[r1] if s1 == s), None)
                if match is not None and match <= k2:
                    less.add((r1, r2))
                    break

    def chain_cells():
        cells_per_cone = {t: [] for t in phi.ids()}
        nontrivial = [r for r in roots if dims[r] > 0]
        chains = []

        def extend(chain):
            chains.append(chain)
            top = chain[-1]
            for r in nontrivial:
                if (top, r) in less:
                    extend(chain + [r])

        for r in nontrivial:
            extend([r])
        for chain in chains:
            top = chain[-1]
            if top not in original:
                continue
            t = original[top]
            gens = []
            ok = True
            for r in chain:
                if t not in nvecs[r]:
                    ok = False
                    break
                gens.append(nvecs[r][t])
            if ok:
                cells_per_cone[t].append(tuple(gens))
        for s in phi.ids():
            if phi.dim(s) == 0:
                cells_per_cone[s].append(())
        return cells_per_cone

    return refine_assemble(phi, chain_cells())


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
        systems = [[tuple(tuple(sub.matrices[p].apply(g))
                          for g in sub.source.cones[p].closure_rays)
                    for p in sub.pieces_over(y)] for sub in subs]
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

@dataclass(frozen=True)
class ComplexMorphism:
    source: PoicComplex
    target: PoicComplex
    cone_map: dict
    matrices: dict
    int_matrix: IntMatrix = None  # optional linear part N_X -> N_Y

    def image_gens(self, p):
        m = self.matrices[p]
        return [tuple(m.apply(g))
                for g in self.source.cones[p].closure_rays]


def validate_complex_morphism(mor: ComplexMorphism):
    from .cone import check_morphism
    for p in mor.source.ids():
        tgt = mor.target.cones[mor.cone_map[p]]
        check_morphism(mor.matrices[p], mor.source.cones[p], tgt)
        # non-degeneracy: the image does not lie in a proper face
        gens = mor.image_gens(p)
        for f in faces(tgt):
            if f.dim >= tgt.rank:
                continue
            tight = [n for n, _ in tgt.closure().facets
                     if all(dot(n, g) == 0 for g in f.gens_key)]
            if tight and all(all(dot(n, g) == 0 for n in tight)
                             for g in gens):
                raise ComplexError(
                    f"image of {p} lies in a proper face of its target")
    for (p, q) in mor.source.order:
        tp, tq = mor.cone_map[p], mor.cone_map[q]
        if not (tp == tq or (tp, tq) in mor.target.order):
            raise ComplexError(f"morphism breaks the order at {p}<{q}")
        lhs = mor.target.facemap(tp, tq) @ mor.matrices[p]
        rhs = mor.matrices[q] @ mor.source.facemap(p, q)
        if lhs != rhs:
            raise ComplexError(f"morphism squares fail at {p}<{q}")
    return True


def compose_with_subdivision(mor: ComplexMorphism,
                             sub: Subdivision) -> ComplexMorphism:
    """mor ∘ sub where sub subdivides mor's source."""
    return ComplexMorphism(
        source=sub.source, target=mor.target,
        cone_map={p: mor.cone_map[sub.cone_map[p]]
                  for p in sub.source.ids()},
        matrices={p: mor.matrices[sub.cone_map[p]] @ sub.matrices[p]
                  for p in sub.source.ids()},
        int_matrix=mor.int_matrix,
    )


def _is_injective(matrix):
    return frac_rank([matrix.col(j) for j in range(matrix.cols)]) \
        == matrix.cols


def is_weakly_proper(mor: ComplexMorphism):
    """Lifting test for faces of image closures inside the target cones.

    For every source cone with injective linear part, every proper face of
    the relative closure of its image (a face of the closure surviving the
    target cone's strictness) must arise, with matching codimension, as
    the image closure of a face of the source cone present in the source
    complex.  Returns (flag, witness).
    """
    src, tgt = mor.source, mor.target
    for s in src.ids():
        m = mor.matrices[s]
        if not _is_injective(m):
            continue
        y = mor.cone_map[s]
        target_cone = tgt.cones[y]
        gens = mor.image_gens(s)
        if not gens:
            continue
        rel_closure, embed = chart_cone(gens, target_cone.rank,
                                        target_cone.facets)
        d = rel_closure.rank
        for f in faces(rel_closure):
            if f.dim >= d:
                continue
            tau_gens = [tuple(embed.apply(f.matrix.apply(g)))
                        for g in f.sub.closure_rays]
            codim = d - f.dim
            lifted = False
            for q in src.below(s):
                if src.dim(s) - src.dim(q) != codim:
                    continue
                q_img = [tuple((m @ src.facemap(q, s)).apply(g))
                         for g in src.cones[q].closure_rays]
                if closed_cone_equal(q_img, tau_gens, target_cone.rank):
                    lifted = True
                    break
            if not lifted:
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
    for s in mor.source.ids():
        m = mor.matrices[s]
        if not _is_injective(m):
            continue
        y = mor.cone_map[s]
        gens = [g for g in mor.image_gens(s) if not is_zero_vec(g)]
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
    cells = {p: arrangement_cells(phi.cones[p], sorted(walls[p]))
             for p in phi.ids()}
    return refine_assemble(phi, cells)


def pfine_matching(mor: ComplexMorphism, sub: Subdivision, dims=None):
    """Match every injective source cone to the subdivision piece with the
    same open image; raises NotPFine when a required match is missing."""
    match = {}
    for s in mor.source.ids():
        if dims is not None and mor.source.dim(s) not in dims:
            continue
        m = mor.matrices[s]
        if not _is_injective(m):
            continue
        y = mor.cone_map[s]
        gens = mor.image_gens(s)
        found = None
        for t in sub.pieces_over(y):
            if sub.source.dim(t) != mor.source.dim(s):
                continue
            tg = [tuple(sub.matrices[t].apply(g))
                  for g in sub.source.cones[t].closure_rays]
            if closed_cone_equal(gens, tg, mor.target.dim(y)):
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
        sup = Lattice(mor.target.dim(y), IntMatrix.from_rows(
            [sub.matrices[t].col(j) for j in range(sub.matrices[t].cols)],
            mor.target.dim(y)))
        m = mor.matrices[s]
        sub_lat = Lattice(mor.target.dim(y), IntMatrix.from_rows(
            [m.col(j) for j in range(m.cols)], mor.target.dim(y)))
        idx = lattice_index(sup, sub_lat)
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
        comp = compose_with_subdivision(mor, sub)
        flag, witness = is_weakly_proper(comp)
        if not flag:
            failures.append((i, witness))
    return failures


# ---------------------------------------------------------------------------
# cycles

@dataclass(frozen=True)
class Cycle:
    """A weight on a subdivision of a base complex, up to refinement."""

    base: PoicComplex
    subdivision: Subdivision
    weight: Weight


def _locate_value(sub: Subdivision, y, witness, k):
    """Pullback value of a weight under refinement at a located witness."""
    for p in sub.pieces_over(y):
        pre = rational_preimage(sub.matrices[p], witness)
        if pre is not None and sub.source.cones[p].contains(pre,
                                                            strictly=True):
            return p
    return None


def cycle_equal(c1: Cycle, c2: Cycle) -> bool:
    """Equality of cycles: pullbacks to a common refinement agree."""
    if c1.base.cones != c2.base.cones:
        raise IncomparableSubdivisions("cycles live on different complexes")
    if c1.weight.dim != c2.weight.dim:
        return False
    k = c1.weight.dim
    common = common_refinement([c1.subdivision, c2.subdivision])
    for r in common.source.ids():
        if common.source.dim(r) != k:
            continue
        y = common.cone_map[r]
        w = tuple(common.matrices[r].apply(
            common.source.cones[r].interior_point()))
        vals = []
        for c in (c1, c2):
            p = _locate_value(c.subdivision, y, w, k)
            if p is None:
                raise IncomparableSubdivisions(
                    f"cannot locate witness {w} in a subdivision")
            v = c.weight.values.get(p, 0) \
                if c.subdivision.source.dim(p) == k else 0
            vals.append(v)
        if vals[0] != vals[1]:
            return False
    return True
