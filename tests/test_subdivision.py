import pytest

from tropocone.cone import poic_new
from tropocone.complexes import (
    ComplexError,
    LinearStructure,
    complex_new,
    relint_complex,
    single_cone_complex,
)
from tropocone.intlinalg import IntMatrix
from tropocone.moduli import build_moduli
from tropocone.subdivision import (
    AmbientMismatch,
    ComplexMorphism,
    Cycle,
    NotPFine,
    RayNotInterior,
    Subdivision,
    common_refinement,
    compose_subdivisions,
    cycle_equal,
    honest_subdivision_refine,
    identity_subdivision,
    is_weakly_proper,
    ord_subdivision,
    pfine_refinement,
    proper_probe,
    pushforward,
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
