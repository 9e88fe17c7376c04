"""Poic-fibrations: validation, compatible subdivisions, and equivariant
Minkowski weights.

A fibration maps a (linear) poic-complex onto a poic-space so that each
cone's transform is an isomorphism of relative interiors and morphisms of
the space lift uniquely up to isomorphism.  Equivariance of a weight on a
compatible subdivision is a fixed-point condition under finitely many
permutations of subdivision pieces, appended to the balancing system.
"""

from __future__ import annotations

from .cone import (
    NotIntoCodomain,
    cell_key,
    check_morphism,
    closure_faces,
    image_face,
)
from .complexes import LinearStructure, PoicComplex
from .intlinalg import IntMatrix, unimodular_inverse
from .spaces import PoicSpace, iso_class_reps, space_from_complex, space_isos
from .subdivision import (
    Report,
    Subdivision,
    fold_cells,
    refine_assemble,
    validate_subdivision,
)
from .weights import Weight, WeightLattice, minkowski_basis
from .value import Value, set_field


class FibrationError(ValueError):
    pass


class NotCompatible(FibrationError):
    pass


class NotPureSource(FibrationError):
    pass


class Fibration(Value):
    """A poic-fibration: ``object_map`` sends a cone id to a space object
    id, ``transforms`` a cone id to its IntMatrix sigma_p -> X(pi(p)), and
    ``morphism_map`` a relation (p, q) to an IntMatrix in
    hom(pi p, pi q)."""

    __slots__ = _fields = ("complex", "space", "object_map", "transforms",
                           "morphism_map", "linear")

    def __init__(self, complex: PoicComplex, space: PoicSpace,
                 object_map: dict, transforms: dict, morphism_map: dict,
                 linear: LinearStructure = None):
        set_field(self, "complex", complex)
        set_field(self, "space", space)
        set_field(self, "object_map", object_map)
        set_field(self, "transforms", transforms)
        set_field(self, "morphism_map", morphism_map)
        set_field(self, "linear", linear)

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
    relations = sorted(phi.order)
    above = phi._neighbours[1]
    # naturality of the transforms
    for (p, q) in relations:
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
    for (p, q) in relations:
        for r in above.get(q, ()):
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
            unimodular_inverse(eta)
        except ValueError:
            report.add("interior-iso",
                       f"transform at {p} is not unimodular", p)
            continue
        try:
            face = check_morphism(eta, sigma.relint(), target.relint()).face
        except NotIntoCodomain:
            face = None
        if face is None or face.dim != target.rank:
            report.add("interior-iso",
                       f"transform at {p} does not identify interiors", p)
    # axiom 3: lifting of space morphisms, unique up to isomorphism (the
    # valid factorizations may differ by cones with isomorphic images, as
    # in the two-sheet examples; their images must be isomorphic)
    # in which q each composite g @ pi(p<q), g an iso pi(q) -> x, lands;
    # the composites are formed once per (p, x) and looked up per f
    for p in sorted(phi.ids()):
        x0 = fib.pi(p)
        for x in space.ids():
            homs = space.hom(x0, x)
            if not homs:
                continue
            lands = {}
            for q in [p] + above.get(p, []):
                pih = fib.pi_mor(p, q)
                for g in space_isos(space, fib.pi(q), x):
                    lands.setdefault(g @ pih, set()).add(q)
            for f in homs:
                valid_q = lands.get(f, ())
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

def _piece_keys(fib: Fibration, sub: Subdivision, p, transport=None):
    """Closed keys of the subdivision pieces of cone p, pushed to the
    space cone of p (optionally further through ``transport``)."""
    m = fib.transforms[p]
    if transport is not None:
        m = transport @ m
    return {t: cell_key(m.apply(g) for g in sub.image_gens(t))
            for t in sub.pieces_over(p)}


def _first_iso(fib: Fibration, p, q):
    """The least isomorphism pi(p) -> pi(q) by entries."""
    isos = space_isos(fib.space, fib.pi(p), fib.pi(q))
    if not isos:
        raise FibrationError(f"no isomorphism between images of {p} and {q}")
    return min(isos, key=lambda m: m.entries)


def _classes(fib: Fibration):
    """The sorted source cones of each isomorphism class of images, by
    class representative."""
    reps = iso_class_reps(fib.space)
    classes = {}
    for p in sorted(fib.complex.ids()):
        classes.setdefault(reps[fib.pi(p)], []).append(p)
    return classes


def compatibility_generators(fib: Fibration):
    """Representative triples (p, q, f) whose stability implies
    pi-equivariance: transports to class representatives plus the
    automorphisms of the representatives."""
    classes = _classes(fib)
    triples = []
    for cls in sorted(classes):
        rep, *others = classes[cls]
        triples += [(rep, s, _first_iso(fib, rep, s)) for s in others]
        triples += [(rep, rep, a)
                    for a in space_isos(fib.space, fib.pi(rep), fib.pi(rep))]
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
    realized = {sigma.closure_rays}
    for f in phi.below(s):
        face = image_face(phi.facemap(f, s), phi.cones[f], sigma)
        realized.add(face.gens_key)
    return [f for f in closure_faces(sigma) if f not in realized]


def _cover(phi: PoicComplex, sub: Subdivision, refined, s):
    """Closed cells covering the closure of s: the cone-off of its refined
    boundary (the refined faces and the absent closure faces), cut by the
    pieces over s.  Each refined face cell lies in one piece over its
    face and meets the others in faces of itself, so the pieces over
    lower faces cut nothing more."""
    sigma = phi.cones[s]
    bd = [cell for f in phi.below(s)
          for cell in _apply_cells(phi.facemap(f, s), refined[f])]
    bd += _absent_closure_faces(phi, s)
    r = sigma.interior_point()
    cone_off = bd + [tuple(sorted({*cell, r})) for cell in bd] + [(r,)]
    pieces = [tuple(sub.image_gens(t)) for t in sub.pieces_over(s)]
    return fold_cells([cone_off, bd + pieces], sigma.rank)


def compatible_refinement(fib: Fibration, sub: Subdivision) -> Subdivision:
    """Refine a subdivision of the fibration source until it is
    pi-compatible (identity-on-compatible-input).  The fibration's space
    must be validated: its automorphisms then form a group.

    Follows the inductive scheme, one isomorphism class of cones at a
    time in order of dimension: cover each member by the cone-off of its
    already-refined boundary cut by its pieces, move every cover to the
    class representative by its transport and by each automorphism of
    the representative, take their common refinement, and move it back
    to every member.
    """
    phi = fib.complex
    if not phi.is_pure(phi.max_dim()):
        raise NotPureSource("fibration source is not pure")
    if is_pi_compatible(fib, sub)[0]:
        return sub

    classes = _classes(fib)
    refined = {}
    for cls in sorted(classes, key=lambda c: (phi.dim(classes[c][0]), c)):
        members = classes[cls]
        rep = members[0]
        to_rep = unimodular_inverse(fib.transforms[rep])
        autos = [to_rep @ a @ fib.transforms[rep]
                 for a in space_isos(fib.space, fib.pi(rep), fib.pi(rep))]
        transports = {
            s: to_rep @ unimodular_inverse(_first_iso(fib, rep, s))
            @ fib.transforms[s] for s in members}
        covers = {s: _cover(phi, sub, refined, s) for s in members}
        merged = fold_cells([_apply_cells(g @ transports[s], covers[s])
                             for s in members for g in autos], phi.dim(rep))
        for s in members:
            refined[s] = _apply_cells(unimodular_inverse(transports[s]),
                                      merged)
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
                f"subdivision is not pi-compatible at {(p, q)}")
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
    kernel computation.  Raises NotCompatible when the subdivision is not
    pi-compatible."""
    if fib.linear is None:
        raise FibrationError("equivariant weights need a linear source")
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
    space = space_from_complex(phi)
    return Fibration(
        complex=phi, space=space,
        object_map={p: p for p in phi.ids()},
        transforms={p: IntMatrix.identity(phi.dim(p)) for p in phi.ids()},
        morphism_map={(p, q): phi.facemap(p, q) for (p, q) in phi.order},
        linear=lin,
    )
