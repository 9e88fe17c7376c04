"""Poic-fibrations: validation, compatible subdivisions, and equivariant
Minkowski weights.

A fibration maps a (linear) poic-complex onto a poic-space so that each
cone's transform is an isomorphism of relative interiors and morphisms of
the space lift uniquely up to isomorphism.  Equivariance of a weight on a
compatible subdivision is a fixed-point condition under finitely many
permutations of subdivision pieces, appended to the balancing system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cone import cell_key, dual_generators, faces, facets_from_rays
from .complexes import LinearStructure, PoicComplex
from .intlinalg import IntMatrix, unimodular_inverse
from .spaces import PoicSpace, iso_class_reps, space_isos
from .subdivision import (
    Report,
    Subdivision,
    fold_cells,
    refine_assemble,
    validate_subdivision,
)
from .weights import Weight, WeightLattice, minkowski_basis


class FibrationError(ValueError):
    pass


class NotCompatible(FibrationError):
    pass


class NotPureSource(FibrationError):
    pass


@dataclass(frozen=True)
class Fibration:
    complex: PoicComplex
    space: PoicSpace
    object_map: dict      # cone id -> space object id
    transforms: dict      # cone id -> IntMatrix: sigma_p -> X(pi(p))
    morphism_map: dict    # (p, q) -> IntMatrix in hom(pi p, pi q)
    linear: LinearStructure = None

    def pi(self, p):
        return self.object_map[p]

    def pi_mor(self, p, q):
        if p == q:
            return IntMatrix.identity(self.space.dim(self.pi(p)))
        return self.morphism_map[(p, q)]


def validate_fibration(fib: Fibration) -> Report:
    """Verify the three fibration axioms on the finite data."""
    report = Report()
    phi, space = fib.complex, fib.space
    # naturality of the transforms
    for (p, q) in sorted(phi.order):
        if (p, q) not in fib.morphism_map:
            report.add("shape", f"morphism map missing for {p}<{q}")
            continue
        m = fib.morphism_map[(p, q)]
        if m not in space.hom(fib.pi(p), fib.pi(q)):
            report.add("shape",
                       f"morphism map of {p}<{q} is not a hom of the space")
        lhs = m @ fib.transforms[p]
        rhs = fib.transforms[q] @ phi.facemap(p, q)
        if lhs != rhs:
            report.add("shape", f"transform square fails at {p}<{q}")
    for (p, q) in sorted(phi.order):
        for (q2, r) in sorted(phi.order):
            if q2 != q:
                continue
            lhs = fib.pi_mor(q, r) @ fib.pi_mor(p, q)
            if lhs != fib.pi_mor(p, r):
                report.add("shape", f"morphism map not functorial "
                                    f"at {p}<{q}<{r}")
    if not report.ok:
        return report
    # axiom 1: essential surjectivity
    reps = iso_class_reps(space)
    hit = {reps[fib.pi(p)] for p in phi.ids()}
    for x in space.ids():
        if reps[x] not in hit:
            report.add("surjective", f"space class of {x} is not hit", x)
    # axiom 2: transforms are isomorphisms of relative interiors
    for p in phi.ids():
        eta = fib.transforms[p]
        target = space.objects[fib.pi(p)]
        sigma = phi.cones[p]
        if eta.rows != target.rank or eta.cols != sigma.rank \
                or eta.rows != eta.cols:
            report.add("interior-iso", f"transform at {p} is not square", p)
            continue
        try:
            inv = unimodular_inverse(eta)
        except ValueError:
            report.add("interior-iso",
                       f"transform at {p} is not unimodular", p)
            continue
        a, b = sigma.relint(), target.relint()
        ok = True
        for f in faces(a):
            w = f.ambient_interior_point()
            if not b.contains(eta.apply(w)):
                ok = False
        for f in faces(b):
            w = f.ambient_interior_point()
            if not a.contains(inv.apply(w)):
                ok = False
        if not ok:
            report.add("interior-iso",
                       f"transform at {p} does not identify interiors", p)
    # axiom 3: lifting of space morphisms, unique up to isomorphism (the
    # valid factorizations may differ by cones with isomorphic images, as
    # in the two-sheet examples; their images must be isomorphic)
    for p in sorted(phi.ids()):
        x0 = fib.pi(p)
        for x in space.ids():
            for f in space.hom(x0, x):
                valid_q = set()
                for q in [p] + phi.above(p):
                    pih = fib.pi_mor(p, q)
                    for g in space_isos(space, fib.pi(q), x):
                        if g @ pih == f:
                            valid_q.add(q)
                if not valid_q:
                    report.add("lifting",
                               f"morphism {x0}->{x} does not lift at {p}",
                               (p, x))
                elif len({reps[fib.pi(q)] for q in valid_q}) > 1:
                    report.add("lifting",
                               f"lifts of {x0}->{x} at {p} land in "
                               f"non-isomorphic images: {sorted(valid_q)}",
                               (p, x))
    return report


# ---------------------------------------------------------------------------
# pi-compatibility

def _canonical_closed_key(gens, rank):
    facets, ann = facets_from_rays(list(gens), rank)
    normals = list(facets)
    for a in ann:
        normals.append(a)
        normals.append(tuple(-x for x in a))
    return frozenset(dual_generators(normals, rank))


def _piece_keys(fib: Fibration, sub: Subdivision, p, transport=None):
    """Closed keys of the subdivision pieces of cone p, pushed to the
    space cone of p (optionally further through ``transport``)."""
    out = {}
    eta = fib.transforms[p]
    for t in sub.pieces_over(p):
        m = eta @ sub.matrices[t]
        if transport is not None:
            m = transport @ m
        gens = [tuple(m.apply(g))
                for g in sub.source.cones[t].closure_rays]
        out[t] = _canonical_closed_key(gens, m.rows)
    return out


def compatibility_generators(fib: Fibration):
    """Representative triples (p, q, f) whose stability implies
    pi-equivariance: transports to class representatives plus the
    automorphisms of the representatives."""
    phi = fib.complex
    reps = iso_class_reps(fib.space)
    members = {}
    for p in sorted(phi.ids()):
        members.setdefault(reps[fib.pi(p)], []).append(p)
    triples = []
    for cls in sorted(members):
        group = members[cls]
        rep = group[0]
        for s in group[1:]:
            isos = space_isos(fib.space, fib.pi(rep), fib.pi(s))
            if not isos:
                raise FibrationError(
                    f"no isomorphism between images of {rep} and {s}")
            triples.append((rep, s, sorted(isos,
                                           key=lambda m: m.entries)[0]))
        for a in space_isos(fib.space, fib.pi(rep), fib.pi(rep)):
            triples.append((rep, rep, a))
    return triples


def piece_bijection(fib: Fibration, sub: Subdivision, p, q, f):
    """The bijection b_f between pieces of p and q induced by the space
    isomorphism f: pi(p) -> pi(q); None when the piece systems differ."""
    keys_p = _piece_keys(fib, sub, p, transport=f)
    keys_q = _piece_keys(fib, sub, q)
    inverse = {}
    for t, key in keys_q.items():
        inverse.setdefault(key, []).append(t)
    mapping = {}
    for t, key in keys_p.items():
        cands = [c for c in inverse.get(key, [])
                 if sub.source.dim(c) == sub.source.dim(t)]
        if len(cands) != 1:
            return None
        mapping[t] = cands[0]
    if len(set(mapping.values())) != len(mapping) \
            or len(mapping) != len(keys_q):
        return None
    return mapping


def is_pi_compatible(fib: Fibration, sub: Subdivision):
    """True iff the pushed piece systems agree under every isomorphism of
    space images (checked on the generating triples)."""
    for (p, q, f) in compatibility_generators(fib):
        if piece_bijection(fib, sub, p, q, f) is None:
            return False, (p, q)
    return True, None


# ---------------------------------------------------------------------------
# compatible refinement

def _apply_cells(matrix, cells):
    return [tuple(tuple(matrix.apply(g)) for g in cell) for cell in cells]


def _absent_closure_faces(phi: PoicComplex, s):
    """Closure faces of Phi(s) not realized by cones of the complex."""
    sigma = phi.cones[s]
    realized = {frozenset(sigma.closure_rays)}
    for f in phi.below(s):
        m = phi.facemap(f, s)
        realized.add(cell_key(m.apply(g) for g in phi.cones[f].closure_rays))
    out = []
    for f in faces(sigma.closure()):
        key = frozenset(f.gens_key)
        if key not in realized:
            out.append(tuple(sorted(key)))
    return out


def compatible_refinement(fib: Fibration, sub: Subdivision) -> Subdivision:
    """Refine a subdivision of the fibration source until it is
    pi-compatible (identity-on-compatible-input).

    Follows the inductive scheme: cone off the already-refined boundary of
    each cone, intersect with the given pieces, transport all class
    members to a representative, close under the automorphisms of the
    representative, and transport back.
    """
    phi = fib.complex
    n = phi.max_dim()
    if not phi.is_pure(n):
        raise NotPureSource("fibration source is not pure")
    flag, _ = is_pi_compatible(fib, sub)
    if flag:
        return sub

    reps = iso_class_reps(fib.space)
    refined = {}
    for d in range(0, n + 1):
        groups = {}
        for p in sorted(phi.ids()):
            if phi.dim(p) == d:
                groups.setdefault(reps[fib.pi(p)], []).append(p)
        for cls in sorted(groups):
            members = groups[cls]
            rep = members[0]
            systems_at_rep = []
            transports = {}
            for s in members:
                sigma = phi.cones[s]
                # boundary cells: refined faces plus absent closure faces
                bd = []
                for f in phi.below(s):
                    m = phi.facemap(f, s)
                    bd.extend(_apply_cells(m, refined[f]))
                bd.extend(_absent_closure_faces(phi, s))
                # full covers of the closure: cone-off and the given pieces
                if d == 0:
                    cover = [()]
                    sp_cells = [()]
                else:
                    r_s = sigma.interior_point()
                    cone_off = list(bd)
                    for cell in bd:
                        cone_off.append(tuple(sorted(set(cell) | {r_s})))
                    cone_off.append((r_s,))
                    sp_cells = list(bd)
                    for f in [s] + phi.below(s):
                        m = phi.facemap(f, s) if f != s \
                            else IntMatrix.identity(sigma.rank)
                        for t in sub.pieces_over(f):
                            cell = tuple(
                                tuple((m @ sub.matrices[t]).apply(g))
                                for g in sub.source.cones[t].closure_rays)
                            sp_cells.append(cell)
                    cover = fold_cells([cone_off, sp_cells], sigma.rank)
                # transport member-cells to the representative
                f_s = sorted(space_isos(fib.space, fib.pi(rep), fib.pi(s)),
                             key=lambda m: m.entries)[0]
                a_s = unimodular_inverse(fib.transforms[rep]) \
                    @ unimodular_inverse(f_s) @ fib.transforms[s]
                transports[s] = a_s
                systems_at_rep.append(_apply_cells(a_s, cover))
            rank = phi.dim(rep)
            merged = fold_cells(systems_at_rep, rank) \
                if systems_at_rep else [()]
            # close under the automorphism group of the representative
            autos = [unimodular_inverse(fib.transforms[rep]) @ a
                     @ fib.transforms[rep]
                     for a in space_isos(fib.space, fib.pi(rep),
                                         fib.pi(rep))]
            group = {IntMatrix.identity(rank).entries:
                     IntMatrix.identity(rank)}
            frontier = list(autos)
            while frontier:
                g = frontier.pop()
                if g.entries in group:
                    continue
                group[g.entries] = g
                for a in autos:
                    frontier.append(a @ g)
            for _ in range(len(group)):
                stable = True
                for g in group.values():
                    moved = _apply_cells(g, merged)
                    new = fold_cells([merged, moved], rank)
                    if {cell_key(c) for c in new} != \
                            {cell_key(c) for c in merged}:
                        merged = new
                        stable = False
                if stable:
                    break
            for s in members:
                back = unimodular_inverse(transports[s])
                refined[s] = _apply_cells(back, merged)
    out = refine_assemble(phi, refined)
    rep = validate_subdivision(out)
    if not rep.ok:
        raise FibrationError(f"refinement failed validation: {rep.issues}")
    flag, witness = is_pi_compatible(fib, out)
    if not flag:
        raise NotCompatible(f"refinement is not compatible at {witness}")
    return out


# ---------------------------------------------------------------------------
# equivariant weights

def composed_linear(fib: Fibration, sub: Subdivision) -> LinearStructure:
    lin = fib.linear
    return LinearStructure(
        target_rank=lin.target_rank,
        maps={t: lin.maps[sub.cone_map[t]] @ sub.matrices[t]
              for t in sub.source.ids()})


def stability_pairs(fib: Fibration, sub: Subdivision, k):
    """Piece pairs (t, t') that an equivariant weight must equate."""
    pairs = []
    for (p, q, f) in compatibility_generators(fib):
        mapping = piece_bijection(fib, sub, p, q, f)
        if mapping is None:
            raise NotCompatible(
                f"subdivision is not pi-compatible at ({p},{q})")
        for t, t2 in mapping.items():
            if sub.source.dim(t) == k and t != t2:
                pairs.append((t, t2))
    return sorted(set(pairs))


def is_equivariant(fib: Fibration, sub: Subdivision, omega: Weight):
    for (t, t2) in stability_pairs(fib, sub, omega.dim):
        if omega.values.get(t, 0) != omega.values.get(t2, 0):
            return False
    return True


def equivariant_basis(fib: Fibration, k, sub: Subdivision) -> WeightLattice:
    """Z-basis of the pi-equivariant Minkowski weights on a compatible
    subdivision: balancing plus the stability permutations in one integer
    kernel computation."""
    if fib.linear is None:
        raise FibrationError("equivariant weights need a linear source")
    flag, witness = is_pi_compatible(fib, sub)
    if not flag:
        raise NotCompatible(f"subdivision is not pi-compatible at {witness}")
    classes = sub.source.classes(k)
    col = {t: i for i, t in enumerate(classes)}
    extra = []
    for (t, t2) in stability_pairs(fib, sub, k):
        row = [0] * len(classes)
        row[col[t]] += 1
        row[col[t2]] -= 1
        extra.append(tuple(row))
    return minkowski_basis(sub.source, composed_linear(fib, sub), k,
                           extra_rows=extra)


def fibration_from_complex(phi: PoicComplex,
                           lin: LinearStructure = None) -> Fibration:
    """A poic-complex viewed as the identity fibration over itself."""
    from .spaces import space_from_complex
    space = space_from_complex(phi)
    return Fibration(
        complex=phi, space=space,
        object_map={p: p for p in phi.ids()},
        transforms={p: IntMatrix.identity(phi.dim(p)) for p in phi.ids()},
        morphism_map={(p, q): phi.facemap(p, q) for (p, q) in phi.order},
        linear=lin,
    )
