import math
import random
import sys

import pytest

from tropocone import cone, intlinalg, io_json, subdivision
from tropocone.cone import (
    ConeError,
    cell_key,
    chart_cone,
    dual_generators,
    faces,
    facets_from_rays,
    is_injective,
    poic_new,
    rational_preimage,
    strict_feasible,
)
from tropocone.complexes import (
    ComplexError,
    LinearStructure,
    PoicComplex,
    complex_new,
    product_complex,
    relint_complex,
    single_cone_complex,
)
from tropocone.intlinalg import (
    IntMatrix,
    dot,
    frac_rank,
    is_zero_vec,
    primitive,
    sign_normalized,
    smith_normal_form,
    solve_integer_columns,
    vadd,
)
from tropocone.moduli import build_moduli
from tropocone.stfib import spanning_tree_fibration
from tropocone.subdivision import (
    AmbientMismatch,
    ComplexMorphism,
    Cycle,
    NotPFine,
    RayNotInterior,
    Subdivision,
    SubdivisionError,
    arrangement_cells,
    cell_witness,
    common_refinement,
    compose_subdivisions,
    cycle_equal,
    honest_subdivision_refine,
    identity_subdivision,
    intersect_cells,
    is_weakly_proper,
    ord_subdivision,
    pfine_refinement,
    proper_probe,
    pushforward,
    refine_assemble,
    refine_by_walls,
    stellar,
    validate_complex_morphism,
    validate_subdivision,
)
from tropocone.weights import Weight, is_balanced, minkowski_basis, pullback


def quadrant_complex():
    return single_cone_complex(
        poic_new(2, [((1, 0), False), ((0, 1), False)]), "q")


def fan3():
    ray = poic_new(1, [((1,), False)])
    origin = poic_new(0, [])
    cones = {"o": origin, "r1": ray, "r2": ray, "r3": ray}
    order = {("o", "r1"), ("o", "r2"), ("o", "r3")}
    fmaps = {k: IntMatrix(1, 0, ()) for k in order}
    phi = complex_new(cones, order, fmaps)
    lin = LinearStructure(2, {
        "o": IntMatrix(2, 0, ()),
        "r1": IntMatrix.from_cols([(1, 0)]),
        "r2": IntMatrix.from_cols([(0, 1)]),
        "r3": IntMatrix.from_cols([(-1, -1)]),
    })
    return phi, lin


def test_identity_subdivision_valid():
    phi = quadrant_complex()
    rep = validate_subdivision(identity_subdivision(phi))
    assert rep.ok, rep.issues


def test_stellar_quadrant_at_diagonal():
    phi = quadrant_complex()
    top = phi.classes(2)[0]
    sub = stellar(phi, top, (1, 1))
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    dims = sorted(sub.source.dim(p) for p in sub.source.ids())
    # origin, 3 rays (two old + diagonal), 2 sectors
    assert dims == [0, 1, 1, 1, 2, 2]


def test_stellar_open_octant():
    octant = poic_new(3, [((1, 0, 0), True), ((0, 1, 0), True),
                          ((0, 0, 1), True)])
    phi = relint_complex(octant, "c")
    sub = stellar(phi, "c", (1, 1, 1))
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    dims = sorted(sub.source.dim(p) for p in sub.source.ids())
    # the ray, 3 walls, 3 maximal cones; boundary pieces are dropped
    assert dims == [1, 2, 2, 2, 3, 3, 3]


def test_stellar_ray_noop():
    ray_cplx = single_cone_complex(poic_new(1, [((1,), False)]), "r")
    sub = stellar(ray_cplx, "r", (1,))
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    assert sorted(sub.source.dim(p) for p in sub.source.ids()) == [0, 1]


def test_stellar_ray_not_interior():
    phi = quadrant_complex()
    top = phi.classes(2)[0]
    with pytest.raises(RayNotInterior):
        stellar(phi, top, (1, 0))


def test_stellar_at_the_zero_ray_is_not_interior():
    phi = single_cone_complex(poic_new(3, []), "c")
    with pytest.raises(RayNotInterior):
        stellar(phi, "c", (0, 0, 0))


HALF_SPACE = poic_new(3, [((1, -1, 2), False)])


@pytest.mark.parametrize("build", [
    lambda: refine_by_walls(single_cone_complex(poic_new(3, []), "c"),
                            {"c": [(-1, 2, 0), (0, 1, 1)]}),
    lambda: refine_by_walls(single_cone_complex(HALF_SPACE, "c"),
                            {"c": [(-1, 1, 2), (-1, 1, -2)]}),
    lambda: stellar(single_cone_complex(HALF_SPACE, "c"), "c", (-3, -3, 1)),
    lambda: stellar(relint_complex(poic_new(3, [
        ((0, 1, 0), True), ((0, 0, 1), False)]), "c"), "c", (-1, 2, 1)),
], ids=["walls-in-R3", "walls-in-a-half-space", "stellar-half-space",
        "stellar-open-wedge"])
def test_refinements_of_cones_with_a_line_glue(build):
    """Wall and stellar refinements of rank-3 cones with a line: the cells
    of neighbouring pieces meet in faces with one key, so every face of a
    piece is a piece and the subdivision validates."""
    report = validate_subdivision(build())
    assert report.ok, report.issues


def test_seeded_refinements_of_cones_with_a_line_validate():
    rng = random.Random(2718)
    lined = 0
    while lined < 12:
        sigma = _random_cone(rng, 2 + lined % 3)
        if sigma.pointed():
            continue
        lined += 1
        for phi in (single_cone_complex(sigma, "c"),
                    relint_complex(sigma, "c")):
            walls = [_vec(rng, sigma.rank) for _ in range(2)]
            subs = [refine_by_walls(phi, {"c": walls})]
            if sigma.facets:
                # a positive combination of all closure rays
                subs.append(stellar(phi, "c", vadd(
                    sigma.interior_point(), rng.choice(sigma.closure_rays))))
            else:  # a linear space has no face to cone from
                with pytest.raises(SubdivisionError, match="c is a linear"):
                    stellar(phi, "c", sigma.closure_rays[0])
            for sub in subs:
                report = validate_subdivision(sub)
                assert report.ok, (sigma, walls, report.issues)


def test_validate_catches_overlap():
    # two overlapping sectors of the quadrant: A = [e1,(1,1)], B = [(2,1),e2]
    phi = quadrant_complex()
    top = phi.classes(2)[0]
    a = poic_new(2, [((0, 1), False), ((1, -1), False)])
    b = poic_new(2, [((1, 0), False), ((-1, 2), False)])
    ray = poic_new(1, [((1,), False)])
    origin = poic_new(0, [])
    cones = {"A": a, "B": b, "d1": ray, "d2": ray, "e1": ray, "e2": ray,
             "o": origin}
    order = {("o", "A"), ("o", "B"), ("o", "d1"), ("o", "d2"), ("o", "e1"),
             ("o", "e2"), ("d1", "A"), ("e1", "A"), ("d2", "B"), ("e2", "B")}
    fmaps = {}
    for (p, q) in order:
        if p == "o":
            fmaps[(p, q)] = IntMatrix(cones[q].rank, 0, ())
    fmaps[("d1", "A")] = IntMatrix.from_cols([(1, 1)])
    fmaps[("e1", "A")] = IntMatrix.from_cols([(1, 0)])
    fmaps[("d2", "B")] = IntMatrix.from_cols([(2, 1)])
    fmaps[("e2", "B")] = IntMatrix.from_cols([(0, 1)])
    src = complex_new(cones, order, fmaps)
    qtop = top
    # identify target cones
    xray = next(p for p in phi.classes(1)
                if phi.facemap(p, qtop).col(0) == (1, 0))
    yray = next(p for p in phi.classes(1)
                if phi.facemap(p, qtop).col(0) == (0, 1))
    oid = phi.classes(0)[0]
    sub = Subdivision(
        source=src, target=phi,
        cone_map={"A": qtop, "B": qtop, "d1": qtop, "d2": qtop,
                  "e1": xray, "e2": yray, "o": oid},
        matrices={"A": IntMatrix.identity(2), "B": IntMatrix.identity(2),
                  "d1": IntMatrix.from_cols([(1, 1)]),
                  "d2": IntMatrix.from_cols([(2, 1)]),
                  "e1": IntMatrix.identity(1), "e2": IntMatrix.identity(1),
                  "o": IntMatrix(0, 0, ())},
    )
    rep = validate_subdivision(sub)
    assert not rep.ok
    assert any(i["axiom"] == "partition" for i in rep.issues)


def test_a_subdivision_is_a_complex_morphism():
    assert Subdivision is ComplexMorphism
    assert isinstance(identity_subdivision(quadrant_complex()),
                      ComplexMorphism)


def test_compose_rejects_a_subdivision_of_another_source():
    with pytest.raises(AmbientMismatch):
        compose_subdivisions(halfplane_projection(),
                             identity_subdivision(quadrant_complex()))


def test_composition_with_a_subdivision_keeps_the_morphism():
    mor = halfplane_projection()
    split = refine_by_walls(mor.source, {"h": [(1, -1)]})
    comp = compose_subdivisions(mor, split)
    assert comp.source is split.source and comp.target is mor.target
    validate_complex_morphism(comp)
    for p in split.source.ids():
        assert comp.matrices[p] == mor.matrices["h"] @ split.matrices[p]


def test_functorial_issues_come_in_sorted_relation_order():
    """Negating the rays of M_0,5 breaks every square ray < wall."""
    phi = build_moduli(0, ["1", "2", "3", "4", "5"]).complex
    sub = identity_subdivision(phi)
    sub = Subdivision(
        source=phi, target=phi, cone_map=sub.cone_map,
        matrices={p: IntMatrix.from_rows([[-1]]) if phi.dim(p) == 1
                  else m for p, m in sub.matrices.items()})
    rep = validate_subdivision(sub)
    broken = [i["witness"] for i in rep.issues if i["axiom"] == "functorial"]
    assert len(broken) == 30
    assert broken == sorted(broken)
    assert all(phi.dim(p) == 1 for p, _ in broken)


def test_shape_issues_are_reported_alone():
    phi = quadrant_complex()
    sub = identity_subdivision(phi)
    top = phi.classes(2)[0]
    bad = Subdivision(source=phi, target=phi, cone_map=sub.cone_map,
                      matrices={**sub.matrices,
                                top: IntMatrix.from_rows([[1, 0]])})
    rep = validate_subdivision(bad)
    assert [i["axiom"] for i in rep.issues] == ["shape"]
    del bad.matrices[top]
    assert [i["axiom"] for i in validate_subdivision(bad).issues] \
        == ["shape"]


def test_ord_closed_quadrant():
    phi = quadrant_complex()
    sub = ord_subdivision(phi)
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    dims = sorted(sub.source.dim(p) for p in sub.source.ids())
    # chains {r1},{r2},{q} of length 1, {r1<q},{r2<q} of length 2, + origin
    assert dims == [0, 1, 1, 1, 2, 2]


def test_ord_single_ray():
    phi = single_cone_complex(poic_new(1, [((1,), False)]), "r")
    sub = ord_subdivision(phi)
    assert sorted(sub.source.dim(p) for p in sub.source.ids()) == [0, 1]


def test_ord_fan3():
    phi, _ = fan3()
    sub = ord_subdivision(phi)
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    assert sorted(sub.source.dim(p) for p in sub.source.ids()) == [0, 1, 1, 1]


def test_ord_open_cone_is_barycentric():
    octant = poic_new(2, [((1, 0), True), ((0, 1), True)])
    phi = relint_complex(octant, "c")
    sub = ord_subdivision(phi)
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    assert sorted(sub.source.dim(p) for p in sub.source.ids()) == [1, 2, 2]


def test_ord_chain_count_matches():
    # for closed complexes: #k-cones == #length-k chains of nontrivial cones
    phi = quadrant_complex()
    sub = ord_subdivision(phi)
    n1 = sum(1 for p in sub.source.ids() if sub.source.dim(p) == 1)
    n2 = sum(1 for p in sub.source.ids() if sub.source.dim(p) == 2)
    assert n1 == 3   # three nontrivial cones
    assert n2 == 2   # two 2-chains


def test_common_refinement_two_stellars():
    phi = quadrant_complex()
    top = phi.classes(2)[0]
    s1 = stellar(phi, top, (1, 2))
    s2 = stellar(phi, top, (2, 1))
    ref = honest_subdivision_refine([s1, s2])
    rep = validate_subdivision(ref)
    assert rep.ok, rep.issues
    assert sum(1 for p in ref.source.ids() if ref.source.dim(p) == 2) == 3


def test_common_refinement_idempotent():
    phi = quadrant_complex()
    top = phi.classes(2)[0]
    s1 = stellar(phi, top, (1, 2))
    ref = honest_subdivision_refine([s1, s1])
    assert len(ref.source.ids()) == len(s1.source.ids())
    assert honest_subdivision_refine([s1]) is s1


def test_common_refinement_ambient_mismatch():
    phi = quadrant_complex()
    phi2, _ = fan3()
    with pytest.raises(AmbientMismatch):
        common_refinement([identity_subdivision(phi),
                           identity_subdivision(phi2)])


def halfplane_projection():
    """underline(H_{y>0}) -> underline(R) via the second coordinate."""
    h = poic_new(2, [((0, 1), True)])
    src = relint_complex(h, "h")
    line = poic_new(1, [])
    tgt = relint_complex(line, "L")
    return ComplexMorphism(source=src, target=tgt, cone_map={"h": "L"},
                           matrices={"h": IntMatrix.from_rows([[0, 1]])})


def test_weakly_proper_projection_vacuous():
    mor = halfplane_projection()
    validate_complex_morphism(mor)
    flag, _ = is_weakly_proper(mor)
    assert flag


@pytest.mark.parametrize("row, ok", [
    ((0, 1), True),    # onto the open half plane
    ((1, 0), False),   # into the line y = 0, its proper face
])
def test_complex_morphism_image_must_meet_the_interior(row, ok):
    """The ray into the closed half plane y >= 0, a target with lineality."""
    src = relint_complex(poic_new(1, [((1,), True)]), "r")
    tgt = single_cone_complex(poic_new(2, [((0, 1), False)]), "H")
    mor = ComplexMorphism(source=src, target=tgt, cone_map={"r": "H"},
                          matrices={"r": IntMatrix.from_cols([row])})
    if ok:
        assert validate_complex_morphism(mor)
    else:
        with pytest.raises(ComplexError, match="proper face"):
            validate_complex_morphism(mor)


def test_weakly_proper_fails_for_offaxis_ray():
    src = relint_complex(poic_new(1, [((1,), True)]), "r")
    tgt = relint_complex(poic_new(1, []), "L")
    mor = ComplexMorphism(source=src, target=tgt, cone_map={"r": "L"},
                          matrices={"r": IntMatrix.identity(1)})
    flag, witness = is_weakly_proper(mor)
    assert not flag
    assert witness[0] == "r"


def test_weakly_proper_open_into_open():
    sigma = poic_new(2, [((1, 0), True), ((0, 1), True)])
    src = relint_complex(sigma, "c")
    tgt = single_cone_complex(sigma, "t")
    top = tgt.classes(2)[0]
    mor = ComplexMorphism(source=src, target=tgt, cone_map={"c": top},
                          matrices={"c": IntMatrix.identity(2)})
    flag, _ = is_weakly_proper(mor)
    assert flag


def test_weakly_proper_open_into_closed_fails():
    # the inclusion of the open quadrant into the closed quadrant complex
    # cannot lift the boundary rays: pushforwards would not balance there
    sigma = poic_new(2, [((1, 0), False), ((0, 1), False)])
    src = relint_complex(sigma.relint(), "c")
    tgt = quadrant_complex()
    top = tgt.classes(2)[0]
    mor = ComplexMorphism(source=src, target=tgt, cone_map={"c": top},
                          matrices={"c": IntMatrix.identity(2)})
    flag, witness = is_weakly_proper(mor)
    assert not flag


def test_pfine_identity():
    phi = quadrant_complex()
    mor = ComplexMorphism(
        source=phi, target=phi,
        cone_map={p: p for p in phi.ids()},
        matrices={p: IntMatrix.identity(phi.dim(p)) for p in phi.ids()})
    sub = pfine_refinement(mor)
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    assert len(sub.source.ids()) == len(phi.ids())


def test_pfine_diagonal_into_open_quadrant():
    openq = poic_new(2, [((1, 0), True), ((0, 1), True)])
    tgt = relint_complex(openq, "q")
    src = relint_complex(poic_new(1, [((1,), True)]), "d")
    mor = ComplexMorphism(source=src, target=tgt, cone_map={"d": "q"},
                          matrices={"d": IntMatrix.from_cols([(1, 1)])})
    sub = pfine_refinement(mor)
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    dims = sorted(sub.source.dim(p) for p in sub.source.ids())
    assert dims == [1, 2, 2]
    w = pushforward(mor, sub, Weight(1, {"d": 1}), 1)
    assert sorted(w.values.values()) == [1]


def test_pfine_two_rays_into_quadrant():
    tgt = quadrant_complex()
    top = tgt.classes(2)[0]
    ray = poic_new(1, [((1,), True)])
    src = complex_new({"a": ray, "b": ray}, set(), {})
    mor = ComplexMorphism(
        source=src, target=tgt, cone_map={"a": top, "b": top},
        matrices={"a": IntMatrix.from_cols([(1, 2)]),
                  "b": IntMatrix.from_cols([(2, 1)])})
    sub = pfine_refinement(mor)
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    assert sum(1 for p in sub.source.ids() if sub.source.dim(p) == 2) == 3


def test_pushforward_identity():
    phi, lin = fan3()
    mor = ComplexMorphism(
        source=phi, target=phi,
        cone_map={p: p for p in phi.ids()},
        matrices={p: IntMatrix.identity(phi.dim(p)) for p in phi.ids()})
    sub = identity_subdivision(phi)
    w = Weight(1, {"r1": 1, "r2": 2, "r3": 3})
    out = pushforward(mor, sub, w, 1)
    assert out.values == w.values


def test_pushforward_index_two():
    ray_cplx = single_cone_complex(poic_new(1, [((1,), False)]), "r")
    mor = ComplexMorphism(
        source=ray_cplx, target=ray_cplx,
        cone_map={p: p for p in ray_cplx.ids()},
        matrices={p: IntMatrix.from_rows([[2]]) if ray_cplx.dim(p) == 1
                  else IntMatrix(0, 0, ()) for p in ray_cplx.ids()})
    validate_complex_morphism(mor)
    flag, _ = is_weakly_proper(mor)
    assert flag
    sub = identity_subdivision(ray_cplx)
    rid = ray_cplx.classes(1)[0]
    out = pushforward(mor, sub, Weight(1, {rid: 1}), 1)
    assert out.values == {rid: 2}


def test_pushforward_preserves_balancing_fan_into_plane():
    phi, lin = fan3()
    plane = relint_complex(poic_new(2, []), "P")
    mor = ComplexMorphism(
        source=phi, target=plane,
        cone_map={p: "P" for p in phi.ids()},
        matrices={p: lin.maps[p] for p in phi.ids()})
    validate_complex_morphism(mor)
    flag, _ = is_weakly_proper(mor)
    assert flag
    sub = pfine_refinement(mor)
    rep = validate_subdivision(sub)
    assert rep.ok, rep.issues
    omega = minkowski_basis(phi, lin, 1).basis[0]
    out = pushforward(mor, sub, omega, 1)
    # the pushed weight is balanced for the embedding structure of the
    # subdivided plane
    sub_lin = LinearStructure(2, dict(sub.matrices))
    assert is_balanced(sub.source, sub_lin, out)


def test_pullback_and_pushforward_inverse_on_subdivision():
    phi, lin = fan3()
    sub = ord_subdivision(phi)
    omega = minkowski_basis(phi, lin, 1).basis[0]
    pulled = pullback(sub, omega)
    sub_lin = LinearStructure(2, {p: lin.maps[sub.cone_map[p]]
                                  @ sub.matrices[p]
                                  for p in sub.source.ids()})
    assert is_balanced(sub.source, sub_lin, pulled)
    # push back along the subdivision morphism with the identity target
    mor = ComplexMorphism(
        source=sub.source, target=phi,
        cone_map=dict(sub.cone_map), matrices=dict(sub.matrices))
    out = pushforward(mor, identity_subdivision(phi), pulled, 1)
    assert out.values == omega.values


def test_proper_probe_detects_failure():
    # the projection of the open half-plane onto the line is (vacuously)
    # weakly proper but not proper: an off-axis wall refinement of the
    # source produces a 1-dimensional piece whose image closure gains a
    # face that does not lift
    halfplane = poic_new(2, [((0, 1), True)])
    src = relint_complex(halfplane, "h")
    tgt = relint_complex(poic_new(1, []), "L")
    mor = ComplexMorphism(source=src, target=tgt,
                          cone_map={"h": "L"},
                          matrices={"h": IntMatrix.from_rows([[0, 1]])})
    validate_complex_morphism(mor)
    flag, _ = is_weakly_proper(mor)
    assert flag
    split = refine_by_walls(src, {"h": [(1, -1)]})
    rep = validate_subdivision(split)
    assert rep.ok, rep.issues
    failures = proper_probe(mor, [split])
    assert failures


def test_cycle_equal():
    phi, lin = fan3()
    omega = minkowski_basis(phi, lin, 1).basis[0]
    ident = identity_subdivision(phi)
    c1 = Cycle(base=phi, subdivision=ident, weight=omega)
    assert cycle_equal(c1, c1)
    sub = ord_subdivision(phi)
    c2 = Cycle(base=phi, subdivision=sub, weight=pullback(sub, omega))
    assert cycle_equal(c1, c2)
    c3 = Cycle(base=phi, subdivision=ident, weight=omega.scaled(2))
    assert not cycle_equal(c1, c3)


# ---------------------------------------------------------------------------
# the incremental arrangement walk and the indexed face lookup against the
# from-scratch walk and the all-pairs scan they replaced

def _reference_arrangement_cells(sigma, walls):
    norm_walls = sorted({sign_normalized(w) for w in walls
                         if not is_zero_vec(w)})
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
        gens = tuple(g for g in gens
                     if all(dot(n, g) >= 0 for n, _ in closed))
        key = cell_key(gens)
        cells.setdefault(key, tuple(sorted(key)))

    rec(0, [])
    return sorted(cells.values(), key=lambda c: (len(c), c))


def _reference_refine_assemble(phi, cells_per_cone):
    pieces = {}
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
                continue
            kept.append(key)
        kept.sort(key=lambda k: (len(k), sorted(k)))
        cuts = [(n, True) for n, strict in sigma.facets if strict]
        for i, key in enumerate(kept):
            poic, embed = chart_cone(sorted(key), sigma.rank, cuts)
            pieces[f"{s}/{i}"] = (s, poic, embed, key)
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
    return ComplexMorphism(
        source=source, target=phi,
        cone_map={pid: pieces[pid][0] for pid in pieces},
        matrices={pid: pieces[pid][2] for pid in pieces},
    )


def _vec(rng, rank, bound=2):
    return tuple(rng.randint(-bound, bound) for _ in range(rank))


def _lined(cell):
    """True when the cell's generators hold a ± pair (a line)."""
    return any(tuple(-x for x in g) in cell for g in cell)


def _special_cones():
    """Cones with lineality and small pointed ones, strict and closed."""
    yield poic_new(0, [])
    for strict in (False, True):
        yield poic_new(1, [((1,), strict)])
        yield poic_new(2, [((1, 2), strict)])                    # half-plane
        yield poic_new(2, [((0, 1), strict)])                    # R x R>=0
        yield poic_new(2, [((1, 0), strict), ((0, 1), False)])
        yield poic_new(3, [((0, 1, 0), strict), ((0, 0, 1), False)])
        yield poic_new(3, [((1, -1, 2), strict)])
        yield poic_new(3, [((1, 0, 0), strict), ((0, 1, 0), strict),
                           ((0, 0, 1), False)])
    yield poic_new(1, [])
    yield poic_new(2, [])                                        # plane
    yield poic_new(3, [])


def _random_cone(rng, rank):
    """A seeded poic of the given rank: pointed (normals positive on an
    interior point, plus the coordinate ones) or with lineality (normals
    orthogonal to a random direction)."""
    while True:
        if rng.random() < 0.5:
            point = tuple(rng.randint(1, 3) for _ in range(rank))
            normals = [tuple(int(i == j) for j in range(rank))
                       for i in range(rank)]
            normals += [n for n in (_vec(rng, rank)
                                    for _ in range(rng.randint(0, 2)))
                        if dot(n, point) > 0]
        else:
            v = _vec(rng, rank)
            normals = [n for n in (_vec(rng, rank)
                                   for _ in range(rng.randint(1, rank)))
                       if dot(n, v) == 0 and not is_zero_vec(n)]
        try:
            return poic_new(rank, [(n, rng.random() < 0.4)
                                   for n in normals])
        except ConeError:
            continue


def _random_walls(rng, sigma):
    """Seeded walls: random ones, then copies that are duplicated, scaled,
    ± facet normals, zero, and sums of facet normals, which touch the
    closure only on its boundary."""
    rank = sigma.rank
    walls = [_vec(rng, rank) for _ in range(rng.randint(0, 2))]
    normals = sigma.normals()
    extra = []
    if walls:
        extra.append(rng.choice(walls))
        k = rng.randint(2, 3)
        extra.append(tuple(k * x for x in rng.choice(walls)))
    if normals:
        n = rng.choice(normals)
        extra.append(n if rng.random() < 0.5 else tuple(-x for x in n))
    if len(normals) >= 2:
        a, b = rng.sample(normals, 2)
        extra.append(vadd(a, b))
    extra.append((0,) * rank)
    return walls + rng.sample(extra, rng.randint(0, len(extra)))


def _arrangement_cases():
    rng = random.Random(1414)
    for sigma in _special_cones():
        yield sigma, []
        yield sigma, [(0,) * sigma.rank]
        for _ in range(3):
            yield sigma, _random_walls(rng, sigma)
    yield poic_new(3, []), [(1, 2, -1)]                          # R^3, 1 wall
    for i in range(90):
        sigma = _random_cone(rng, 1 + i % 3)
        yield sigma, _random_walls(rng, sigma)


def test_arrangement_cells_match_the_from_scratch_walk():
    lined = pointed = 0
    for sigma, walls in _arrangement_cases():
        got = arrangement_cells(sigma, walls)
        assert got == _reference_arrangement_cells(sigma, walls), \
            (sigma, walls)
        lined += any(_lined(c) for c in got)
        pointed += sigma.rank > 0 and sigma.pointed()
    assert arrangement_cells(poic_new(0, []), []) == [()]
    assert lined >= 15 and pointed >= 30


def _complete_fan(rng):
    """A seeded complete fan in Z^2 (closed cones, coordinate rays plus up
    to two more)."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    rays |= {primitive(v) for v in (_vec(rng, 2, 3) for _ in range(2))
             if not is_zero_vec(v)}
    rays = sorted(rays, key=lambda r: math.atan2(r[1], r[0]))
    ray = poic_new(1, [((1,), False)])
    cones = {"o": poic_new(0, [])}
    fmaps = {}
    for i, r in enumerate(rays):
        cones[f"r{i}"] = ray
        fmaps[("o", f"r{i}")] = IntMatrix(1, 0, ())
    for j in range(len(rays)):
        pair = (rays[j], rays[(j + 1) % len(rays)])
        facets, _ = facets_from_rays(list(pair), 2)
        cones[f"c{j}"] = poic_new(2, [(f, False) for f in facets])
        fmaps[("o", f"c{j}")] = IntMatrix(2, 0, ())
        for k in (j, (j + 1) % len(rays)):
            fmaps[(f"r{k}", f"c{j}")] = IntMatrix.from_cols([rays[k]])
    return complex_new(cones, set(fmaps), fmaps)


def test_refine_assemble_matches_the_pair_scan(monkeypatch):
    compared = []
    real = subdivision.refine_assemble

    def both(phi, cells):
        got, ref = real(phi, cells), _reference_refine_assemble(phi, cells)
        assert list(got.source.cones) == list(ref.source.cones)
        assert got.source.cones == ref.source.cones
        assert got.source.order == ref.source.order
        assert list(got.source.face_maps.items()) == \
            list(ref.source.face_maps.items())
        assert (got.cone_map, got.matrices) == (ref.cone_map, ref.matrices)
        compared.append(len(got.source.order))
        return got

    monkeypatch.setattr(subdivision, "refine_assemble", both)
    rng = random.Random(1415)
    for _ in range(6):
        phi = _complete_fan(rng)
        top = rng.choice(phi.classes(2))
        g1, g2 = phi.cones[top].closure_rays[:2]
        k = rng.randint(1, 3)
        ray = primitive(vadd(tuple(k * x for x in g1), g2))
        stellar(phi, top, ray)
        ord_subdivision(phi)
        walls = {c: [_vec(rng, 2, 3) for _ in range(rng.randint(1, 2))]
                 for c in phi.classes(2)}
        refine_by_walls(phi, walls)
        for c, ws in walls.items():
            assert arrangement_cells(phi.cones[c], ws) == \
                _reference_arrangement_cells(phi.cones[c], ws)
    assert len(compared) == 18 and min(compared) > 0


def test_arrangement_walk_runs_no_from_scratch_description(monkeypatch):
    """The walk makes each cone one double-description step from its
    parent: no strict_feasible call and no from-scratch dual_generators
    call, also at a leaf whose cell has a line.  Every leaf of a walk in a
    space without facets is a distinct cell, unless an empty node (one
    whose older strict normal an equation has made zero) is walked on."""
    octant = poic_new(3, [((1, 0, 0), False), ((0, 1, 0), True),
                          ((0, 0, 1), False)])
    sector = poic_new(2, [((1, 0), False), ((-1, 3), True)])
    plane, space = poic_new(2, []), poic_new(3, [])
    calls = {"strict_feasible": [], "dual_generators": []}
    for name, log in calls.items():
        real = getattr(cone, name)

        def counted(*args, real=real, log=log):
            out = real(*args)
            log.append(out)
            return out

        for module in (cone, subdivision):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    for sigma, walls in ((sector, [(1, -1), (2, 1)]),
                         (octant, [(1, -1, 0), (0, 1, -2), (1, 1, 1)])):
        cells = arrangement_cells(sigma, walls)
        assert len(cells) > 5
        assert calls == {"strict_feasible": [], "dual_generators": []}
    for sigma, walls, count in ((plane, [(1, 2)], 3),
                                (space, [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
                                 13)):
        cells = arrangement_cells(sigma, walls)
        assert len(cells) == count and all(_lined(set(c)) for c in cells)
        assert calls == {"strict_feasible": [], "dual_generators": []}


# ---------------------------------------------------------------------------
# the per-cone ord subdivision against the complex-wide construction it
# replaced: a union-find over the closure faces of all cones, an order on
# the glued classes, and the chains of the whole class poset

def _reference_ord_subdivision(phi: PoicComplex) -> Subdivision:
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


def _pointed_cone(rng, rank):
    while True:
        sigma = _random_cone(rng, rank)
        if sigma.pointed():
            return sigma


def _ord_cases():
    rng = random.Random(1516)
    for _ in range(40):
        yield _complete_fan(rng)
    for n in (4, 5, 6):
        yield build_moduli(0, [str(i) for i in range(1, n + 1)]).complex
    for g, labels in ((1, ["a"]), (1, ["a", "b"]), (2, [])):
        yield spanning_tree_fibration(g, labels).complex
    for i in range(24):
        sigma = _pointed_cone(rng, 1 + i % 3)
        yield single_cone_complex(sigma, "c")
        yield relint_complex(sigma, "c")
    half_open = poic_new(2, [((1, 0), True), ((0, 1), False)])
    yield product_complex(build_moduli(0, ["1", "2", "3", "4"]).complex,
                          single_cone_complex(half_open, "q"))[0]


def test_ord_subdivision_matches_the_complex_wide_construction():
    partially_open = 0
    for phi in _ord_cases():
        got = io_json.dumps(io_json.subdivision_to_json(ord_subdivision(phi)))
        assert got == io_json.dumps(io_json.subdivision_to_json(
            _reference_ord_subdivision(phi)))
        partially_open += any(strict for c in phi.cones.values()
                              for _, strict in c.facets)
    assert partially_open >= 20
    shear = complex_new(
        {"a": poic_new(2, []), "b": poic_new(3, [((0, 0, 1), False)])},
        {("a", "b")},
        {("a", "b"): IntMatrix.from_rows([[1, 1], [0, 1], [0, 0]])})
    for phi in (shear, single_cone_complex(poic_new(2, [((1, 0), False)]))):
        for build in (ord_subdivision, _reference_ord_subdivision):
            with pytest.raises(SubdivisionError,
                               match="ord subdivision needs pointed"):
                build(phi)


# ---------------------------------------------------------------------------
# membership by signs against the rational solves it replaced: the parent's
# pieces_over, pieces_containing (one rational preimage per piece) and
# validate_subdivision, verbatim apart from calling those two as functions

def _reference_pieces_over(self, s):
    return sorted(p for p, t in self.cone_map.items() if t == s)


def _reference_pieces_containing(self, s, point):
    """The pieces over s whose relative interior maps onto a set
    containing point."""
    found = []
    for p in _reference_pieces_over(self, s):
        pre = rational_preimage(self.matrices[p], point)
        if pre is not None and self.source.cones[p].contains(
                pre, strictly=True):
            found.append(p)
    return found


def _reference_validate_subdivision(sub: Subdivision):
    """Check the three subdivision axioms exactly; report violations with
    witnesses.  Shape issues are reported alone: the axioms need maps that
    fit their cones."""
    report = subdivision.Report()
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
    for message, relation in subdivision._square_issues(sub):
        report.add("functorial", message, relation)
    if not report.ok:
        return report
    # axiom 2: relative interiors partition each target interior
    for s in tgt.ids():
        sigma = tgt.cones[s]
        ps = _reference_pieces_over(sub, s)
        walls = []
        for p in ps:
            fs, ann = facets_from_rays(sub.image_gens(p), sigma.rank)
            walls += [*fs, *ann]
        for cell in arrangement_cells(sigma, walls):
            w = cell_witness(cell, sigma.rank)
            if not sigma.contains(w, strictly=True):
                continue
            covering = _reference_pieces_containing(sub, s, w)
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


def _edit_piece(sub, piece, twin=None):
    """``sub`` with one maximal piece dropped (twin None) or doubled under
    the id ``twin``: a morphism that keeps axiom 1 and breaks axiom 2 with
    covering count 0 or 2."""
    src = sub.source
    keep = [p for p in src.ids() if p != piece or twin]
    cones = {p: src.cones[p] for p in keep}
    face_maps = {r: m for r, m in src.face_maps.items()
                 if piece not in r or twin}
    cone_map = {p: sub.cone_map[p] for p in keep}
    matrices = {p: sub.matrices[p] for p in keep}
    if twin:
        cones[twin] = src.cones[piece]
        face_maps.update({(p, twin): m for (p, q), m in src.face_maps.items()
                          if q == piece})
        cone_map[twin] = sub.cone_map[piece]
        matrices[twin] = sub.matrices[piece]
    return ComplexMorphism(complex_new(cones, set(face_maps), face_maps),
                           sub.target, cone_map, matrices)


def _membership_subdivisions():
    """Stellar, ord and P-fine subdivisions of 40 seeded complete fans, the
    ord subdivisions of M_0,4/5/6, wall refinements of cones with
    lineality, partially open cones and rank-0 cones, and mutants of
    these whose axiom 2 fails with covering counts 0 and 2."""
    rng = random.Random(1618)
    for _ in range(40):
        phi = _complete_fan(rng)
        top = rng.choice(phi.classes(2))
        g1, g2 = phi.cones[top].closure_rays[:2]
        ray = primitive(vadd(tuple(rng.randint(1, 3) * x for x in g1), g2))
        star = stellar(phi, top, ray)
        yield star
        yield ord_subdivision(phi)
        yield pfine_refinement(star)
    for n in (4, 5, 6):
        yield ord_subdivision(build_moduli(
            0, [str(i) for i in range(1, n + 1)]).complex)
    cones = list(_special_cones())
    cones += [_random_cone(rng, 1 + i % 3) for i in range(24)]
    for sigma in cones:
        for phi in (single_cone_complex(sigma, "c"),
                    relint_complex(sigma, "c")):
            yield refine_by_walls(phi, {"c": _random_walls(rng, sigma)})
    rng = random.Random(1619)
    for sub in (stellar(quadrant_complex(), "q", (1, 1)),
                ord_subdivision(_complete_fan(rng)),
                refine_by_walls(relint_complex(poic_new(3, [
                    ((1, 0, 0), True), ((0, 1, 0), False)]), "c"),
                    {"c": [(1, -1, 0), (0, 1, 2)]})):
        top = max(sub.source.ids(), key=sub.source.dim)
        yield _edit_piece(sub, top)
        yield _edit_piece(sub, top, twin=top + "'")


def _witnesses(sub, s):
    """Witnesses of the cells of the arrangement of the piece images in the
    closure of s, boundary cells included (at most about 16, spread over
    the cells), and their negatives, mostly off the cone."""
    sigma = sub.target.cones[s]
    walls = []
    for p in _reference_pieces_over(sub, s):
        facets, ann = facets_from_rays(sub.image_gens(p), sigma.rank)
        walls += [*facets, *ann]
    points = [cell_witness(c, sigma.rank)
              for c in arrangement_cells(sigma, walls)]
    points = points[::max(1, len(points) // 16)]
    return points + [tuple(-x for x in w) for w in points]


def test_membership_by_signs_matches_the_rational_solves():
    seen = {"uncovered": 0, "covered by": 0, "lined": 0, "open": 0,
            "rank 0": 0}
    for sub in _membership_subdivisions():
        report = validate_subdivision(sub)
        assert report.issues == _reference_validate_subdivision(sub).issues
        for issue in report.issues:
            for key in ("uncovered", "covered by"):
                seen[key] += key in issue["message"]
        for s in sub.target.ids() + ["no such cone"]:
            assert sub.pieces_over(s) == _reference_pieces_over(sub, s)
        targets = sub.target.ids()
        for s in targets[::max(1, len(targets) // 24)]:
            for w in _witnesses(sub, s):
                assert sub.pieces_containing(s, w) == \
                    _reference_pieces_containing(sub, s, w), (s, w)
        pieces = sub.source.cones.values()
        seen["lined"] += any(not c.pointed() for c in pieces)
        seen["open"] += any(not c.is_closed() for c in pieces)
        seen["rank 0"] += any(c.rank == 0 for c in pieces)
    assert min(seen.values()) >= 3, seen


def test_subdivisions_are_built_as_with_the_rational_solves(monkeypatch):
    """The JSON bytes of every subdivision above, built again with the
    rational-solve chart_cone and image_face (memos cleared, so no result
    of the new code is reused)."""
    from test_cone import _reference_chart_cone, _reference_image_face

    def build():
        return [io_json.dumps(io_json.subdivision_to_json(sub))
                for sub in _membership_subdivisions()]

    got = build()
    try:
        with monkeypatch.context() as m:
            m.setattr(cone, "chart_cone", _reference_chart_cone)
            m.setattr(subdivision, "chart_cone", _reference_chart_cone)
            m.setattr(cone, "image_face", _reference_image_face)
            _clear_memos()
            assert build() == got
    finally:
        _clear_memos()


def _clear_memos():
    for memo in (cone._dual_generators, cone._facets_from_rays,
                 cone._poic_new, cone._faces, cone._check_morphism,
                 intlinalg._smith_normal_form):
        memo.cache_clear()


def test_library_paths_make_no_rational_solve(monkeypatch):
    """stellar, ord, P-fine, validation, cycle equality and the M_0,5
    build give the same results with frac_solve and rational_preimage
    raising at every name the library binds them under (memos cleared, so
    nothing computed before is reused)."""
    def run():
        rng = random.Random(1620)
        out = []
        for _ in range(4):
            phi = _complete_fan(rng)
            top = rng.choice(phi.classes(2))
            g1, g2 = phi.cones[top].closure_rays[:2]
            star = stellar(phi, top, vadd(g1, g2))
            other = stellar(phi, top, vadd(vadd(g1, g1), g2))
            subs = [star, other, ord_subdivision(phi), pfine_refinement(star)]
            out += [io_json.dumps(io_json.subdivision_to_json(s))
                    for s in subs]
            out += [validate_subdivision(s).issues for s in subs]
            ones = [Cycle(phi, s, Weight(2, {p: 1 for p in
                                             s.source.classes(2)}))
                    for s in (star, other)]
            twice = Cycle(phi, other, Weight(2, {
                p: 1 + (p == other.source.classes(2)[0])
                for p in other.source.classes(2)}))
            out += [cycle_equal(*ones), cycle_equal(ones[0], twice)]
        m = build_moduli(0, ["1", "2", "3", "4", "5"])
        out.append(io_json.dumps(io_json.complex_to_json(m.complex,
                                                         m.linear)))
        return out

    def refuse(*args):
        raise AssertionError("a rational solve on a library path")

    expected = run()
    assert expected[-3:-1] == [True, False]
    solves = (intlinalg.frac_solve, cone.rational_preimage)
    patched = 0
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tropocone":
            for attr, value in list(vars(module).items()):
                if any(value is f for f in solves):
                    monkeypatch.setattr(module, attr, refuse)
                    patched += 1
    assert patched >= 3
    try:
        _clear_memos()
        assert run() == expected
    finally:
        monkeypatch.undo()
        _clear_memos()


def _reference_cycle_equal(c1, c2):
    """cycle_equal locating every witness with pieces_containing."""
    if c1.base.cones != c2.base.cones:
        raise subdivision.IncomparableSubdivisions(
            "cycles live on different complexes")
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
            found = c.subdivision.pieces_containing(y, w)
            if not found:
                raise subdivision.IncomparableSubdivisions(
                    f"cannot locate witness {w} in a subdivision")
            p = found[0]
            v = c.weight.values.get(p, 0) \
                if c.subdivision.source.dim(p) == k else 0
            vals.append(v)
        if vals[0] != vals[1]:
            return False
    return True


def test_cycle_equal_forms_hdescs_once_per_target(monkeypatch):
    """On pullbacks of seeded weights of complete fans to stellar and ord
    subdivisions, and on copies with one value changed, cycle_equal gives
    the reference's answers and forms at most two H-description lists
    (one per side) per target cone that carries a k-cone of the common
    refinement."""
    calls = []
    real = ComplexMorphism._image_hdescs

    def counted(self, s):
        calls.append(s)
        return real(self, s)

    rng = random.Random(1717)
    answers = []
    for _ in range(5):
        phi = _complete_fan(rng)
        top = rng.choice(phi.classes(2))
        g1, g2 = phi.cones[top].closure_rays[:2]
        subs = [stellar(phi, top, vadd(g1, g2)), ord_subdivision(phi)]
        for k in (1, 2):
            omega = Weight(k, {p: rng.randint(1, 3)
                               for p in phi.classes(k)})
            pulled = [pullback(s, omega) for s in subs]
            p = rng.choice(sorted(pulled[1].values))
            bumped = Weight(k, {**pulled[1].values, p: pulled[1].values[p]
                                + 1})
            for w2 in (pulled[1], bumped):
                c1 = Cycle(phi, subs[0], pulled[0])
                c2 = Cycle(phi, subs[1], w2)
                calls.clear()
                monkeypatch.setattr(ComplexMorphism, "_image_hdescs",
                                    counted)
                got = cycle_equal(c1, c2)
                monkeypatch.undo()
                common = common_refinement(subs)
                targets = {common.cone_map[r] for r in common.source.ids()
                           if common.source.dim(r) == k}
                assert len(calls) <= 2 * len(targets)
                assert got == _reference_cycle_equal(c1, c2)
                answers.append(got)
    assert answers.count(True) == answers.count(False) == 10


def _reference_closed_normals(gens, rank):
    """Normals n with cone(gens) = {x : n.x >= 0 for all n}: the facet
    normals and ± each annihilator row."""
    facets, ann = facets_from_rays(list(gens), rank)
    return [*facets, *ann, *(tuple(-x for x in a) for a in ann)]


def _random_cell(rng, rank, shared=()):
    """A seeded generator list in Z^rank, with part of ``shared``, and
    sometimes the negative of its first generator."""
    gens = [tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(0, rank + 2))]
    gens += [g for g in shared if rng.random() < 0.6]
    if gens and rng.random() < 0.4:
        gens.append(tuple(-x for x in gens[0]))
    return gens


def test_intersect_cells_matches_the_facet_normal_reference():
    """Intersecting through the dual cones gives the cell that the facet
    normals and ± annihilator rows of both cells give, on seeded pairs of
    cells of ranks 1-4 (the second sharing part of the first), with zero,
    lower-dimensional, full and lined intersections."""
    rng = random.Random(2203)
    kinds = {"zero": 0, "lower": 0, "full": 0, "lined": 0}
    for i in range(400):
        rank = 1 + i % 4
        a = _random_cell(rng, rank)
        b = _random_cell(rng, rank, a)
        out = intersect_cells(a, b, rank)
        assert out == dual_generators(
            _reference_closed_normals(a, rank)
            + _reference_closed_normals(b, rank), rank), (a, b)
        dim = frac_rank(list(out) or [(0,) * rank])
        kinds["zero"] += dim == 0
        kinds["lower"] += 0 < dim < rank
        kinds["full"] += dim == rank
        kinds["lined"] += any(tuple(-x for x in g) in out for g in out)
    assert min(kinds.values()) >= 40, kinds


def test_cell_key_is_idempotent_on_double_description_outputs():
    """The sorted ``cell_key`` that ``dual_generators`` and
    ``intersect_cells`` return is its own ``cell_key``, on seeded normals
    and pairs of cells of ranks 2-4, many of them with a line; this is
    what lets ``fold_cells`` compare intersections as they are."""
    rng = random.Random(2411)
    lined = 0
    for i in range(6000):
        rank = 2 + i % 3
        if i % 2:
            a = _random_cell(rng, rank)
            out = intersect_cells(a, _random_cell(rng, rank, a), rank)
        else:
            normals = [_vec(rng, rank) for _ in range(rng.randint(0, 4))]
            out = dual_generators(normals, rank)
        assert tuple(sorted(cell_key(out))) == out, out
        lined += _lined(out)
    assert lined >= 1500, lined


def _reference_fold_cells(systems, rank):
    """``fold_cells`` as it was, keying every intersection again."""
    current = [tuple(sorted(cell_key(c))) for c in systems[0]]
    for nxt in systems[1:]:
        merged = {}
        for c1 in current:
            for c2 in nxt:
                key = cell_key(intersect_cells(c1, c2, rank))
                merged.setdefault(key, tuple(sorted(key)))
        current = list(merged.values())
    return current


def _fold_cases():
    """Seeded systems of closed cells: wall arrangements of one seeded
    cone (pointed or with a line), and lists of random cells, most of
    them holding ± one line that the systems share."""
    rng = random.Random(2412)
    for i in range(60):
        sigma = _random_cone(rng, 1 + i % 3)
        yield sigma.rank, [arrangement_cells(sigma, _random_walls(rng, sigma))
                           for _ in range(rng.randint(2, 3))]
    for i in range(60):
        rank = 2 + i % 3
        line = _vec(rng, rank)
        yield rank, [[_random_cell(rng, rank)
                      + ([line, tuple(-x for x in line)]
                         if rng.random() < 0.7 else [])
                      for _ in range(rng.randint(1, 3))]
                     for _ in range(rng.randint(2, 3))]


def test_fold_cells_matches_the_reference_and_keys_no_intersection(
        monkeypatch):
    """``fold_cells`` returns the reference's cells in the reference's
    order, and calls ``cell_key`` only on the cells of the first system."""
    calls = []
    monkeypatch.setattr(subdivision, "cell_key",
                        lambda gens: calls.append(1) or cell_key(gens))
    lined = 0
    for rank, systems in _fold_cases():
        expected = _reference_fold_cells(systems, rank)
        calls.clear()
        assert subdivision.fold_cells(systems, rank) == expected, systems
        assert len(calls) == len(systems[0])
        lined += any(_lined(c) for c in expected)
    assert lined >= 40, lined
