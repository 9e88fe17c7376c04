import pytest

from tropocone.cone import poic_new
from tropocone.cone import product as cone_product
from tropocone.complexes import (
    LinearStructure,
    MissingFace,
    NotPolyhedralComplex,
    NotThin,
    PoicComplex,
    PolyhedralCell,
    complex_new,
    conify,
    product_complex,
    product_id,
    relint_complex,
    single_cone_complex,
    skeleton,
    skeletonize,
    star1,
    validate_linear,
)
from tropocone.intlinalg import IntMatrix, block_diag
from tropocone.moduli import build_moduli
from tropocone.spaces import space_new


def quadrant():
    return poic_new(2, [((1, 0), False), ((0, 1), False)])


def quadrant_complex():
    return single_cone_complex(quadrant(), "q")


def test_single_open_cone_complex():
    phi = relint_complex(poic_new(1, [((1,), True)]), "r")
    assert phi.ids() == ["r"]
    assert phi.order == frozenset()


def test_quadrant_complex_build():
    phi = quadrant_complex()
    dims = sorted(phi.dim(p) for p in phi.ids())
    assert dims == [0, 1, 1, 2]
    # a valid complex passes complex_new round-trip
    again = complex_new(phi.cones, phi.order, phi.face_maps)
    assert set(again.ids()) == set(phi.ids())


def test_missing_face():
    phi = quadrant_complex()
    origin = phi.classes(0)[0]
    cones = {p: phi.cones[p] for p in phi.ids() if p != origin}
    order = {(p, q) for (p, q) in phi.order if origin not in (p, q)}
    fmaps = {k: v for k, v in phi.face_maps.items() if origin not in k}
    with pytest.raises(MissingFace):
        complex_new(cones, order, fmaps)


SHEAR = IntMatrix.from_rows([[1, 1], [0, 1], [0, 0]])


def shear_cones():
    """R^2 and R^2 x R>=0: SHEAR maps the first onto the face z = 0 of the
    second, and the images of its rays are not the face's rays."""
    return {"a": poic_new(2, []), "b": poic_new(3, [((0, 0, 1), False)])}


def test_face_map_into_cone_with_lineality():
    phi = complex_new(shear_cones(), {("a", "b")}, {("a", "b"): SHEAR})
    assert phi.ids() == ["a", "b"]
    space = space_new(shear_cones(), {
        ("a", "a"): (IntMatrix.identity(2),),
        ("b", "b"): (IntMatrix.identity(3),),
        ("a", "b"): (SHEAR,)})
    assert space.ids() == ["a", "b"]
    # without the plane, the face z = 0 of the slab is realized by nothing
    with pytest.raises(MissingFace):
        complex_new({"b": shear_cones()["b"]}, set(), {})


def test_half_open_complex():
    # {x>=0, y>0}: faces are the cone and the open ray x=0,y>0
    sigma = poic_new(2, [((1, 0), False), ((0, 1), True)])
    phi = single_cone_complex(sigma, "h")
    assert sorted(phi.dim(p) for p in phi.ids()) == [1, 2]


def test_skeleton():
    phi = quadrant_complex()
    sk = skeleton(phi, 1)
    assert sorted(sk.dim(p) for p in sk.ids()) == [0, 1, 1]
    assert skeleton(phi, 5).ids() == phi.ids()


def test_product_complex():
    r = relint_complex(poic_new(1, [((1,), True)]), "r")
    prod, pairs = product_complex(r, r)
    assert len(prod.ids()) == 1
    phi = quadrant_complex()
    two = skeleton(phi, 1)  # 3 cones
    prod, _ = product_complex(two, r)
    assert len(prod.ids()) == 3


# reference: the product over every pair of product cones, with an order
# membership test for each

def _reference_product_complex(phi: PoicComplex, psi: PoicComplex):
    """Product complex; returns (complex, pairs) where pairs maps each
    product id to its factor ids."""
    cones = {}
    pairs = {}
    for p in phi.ids():
        for q in psi.ids():
            pid = product_id(p, q)
            cones[pid] = cone_product(phi.cones[p], psi.cones[q])
            pairs[pid] = (p, q)
    order = set()
    face_maps = {}
    for p1 in phi.ids():
        for q1 in psi.ids():
            for p2 in phi.ids():
                for q2 in psi.ids():
                    le_p = p1 == p2 or (p1, p2) in phi.order
                    le_q = q1 == q2 or (q1, q2) in psi.order
                    if not (le_p and le_q) or (p1 == p2 and q1 == q2):
                        continue
                    a = product_id(p1, q1)
                    b = product_id(p2, q2)
                    order.add((a, b))
                    face_maps[(a, b)] = block_diag(
                        phi.facemap(p1, p2), psi.facemap(q1, q2))
    return PoicComplex(cones=cones, order=frozenset(order),
                       face_maps=face_maps), pairs


def _moduli(*marks):
    return build_moduli(0, list(marks)).complex


def _open_ray():
    return relint_complex(poic_new(1, [((1,), True)]), "r")


@pytest.mark.parametrize("factors", [
    lambda: (_moduli("1", "2", "3", "4", "5"),
             relint_complex(poic_new(0, []), "glue")),
    lambda: (_moduli("1", "2", "3", "4"), _moduli("1", "2", "3", "4")),
    lambda: (quadrant_complex(), _open_ray()),
    lambda: (complex_new(shear_cones(), {("a", "b")}, {("a", "b"): SHEAR}),
             quadrant_complex()),
], ids=["m05-point", "m04-m04", "quadrant-open-ray", "line-quadrant"])
def test_product_complex_matches_the_all_pairs_reference(factors):
    """One product relation per pair of factor arrows gives the cones,
    relations and face maps of the all-pairs product, and a valid
    complex."""
    phi, psi = factors()
    prod, pairs = product_complex(phi, psi)
    ref, ref_pairs = _reference_product_complex(phi, psi)
    assert prod == ref
    assert list(pairs.items()) == list(ref_pairs.items())
    assert prod.order
    complex_new(prod.cones, prod.order, prod.face_maps)


def test_star1():
    phi = quadrant_complex()
    origin = phi.classes(0)[0]
    rays = phi.classes(1)
    assert star1(phi, origin) == rays
    assert star1(phi, rays[0]) == phi.classes(2)


def test_purity():
    phi = quadrant_complex()
    assert phi.is_pure()
    sk1 = skeleton(phi, 1)
    assert sk1.is_pure()


def test_linear_structure_validation():
    phi = quadrant_complex()
    maps = {}
    for p in phi.ids():
        if phi.dim(p) == 2:
            maps[p] = IntMatrix.identity(2)
    for p in phi.ids():
        if phi.dim(p) < 2:
            top = phi.classes(2)[0]
            maps[p] = maps[top] @ phi.facemap(p, top)
    lin = LinearStructure(target_rank=2, maps=maps)
    assert validate_linear(phi, lin)


def test_skeletonize_identity_on_poset():
    phi = quadrant_complex()
    mors = [(p, q, phi.face_maps[(p, q)]) for (p, q) in phi.order]
    out, equiv = skeletonize(dict(phi.cones), mors)
    assert set(out.ids()) == set(phi.ids())
    for o, (rep, m) in equiv.items():
        assert rep == o


def test_skeletonize_merges_isomorphic_rays():
    ray = poic_new(1, [((1,), False)])
    origin = poic_new(0, [])
    objects = {"o": origin, "r1": ray, "r2": ray}
    mors = [
        ("o", "r1", IntMatrix(1, 0, ())),
        ("o", "r2", IntMatrix(1, 0, ())),
        ("r1", "r2", IntMatrix.identity(1)),
        ("r2", "r1", IntMatrix.identity(1)),
    ]
    out, equiv = skeletonize(objects, mors)
    assert len(out.ids()) == 2
    assert equiv["r2"][0] == equiv["r1"][0]


def test_skeletonize_not_thin():
    ray = poic_new(1, [((1,), False)])
    sq = poic_new(2, [((1, 0), False), ((0, 1), False)])
    objects = {"r": ray, "q": sq}
    mors = [
        ("r", "q", IntMatrix.from_cols([(1, 0)])),
        ("r", "q", IntMatrix.from_cols([(0, 1)])),
    ]
    with pytest.raises(NotThin):
        skeletonize(objects, mors)


def test_skeletonize_rejects_isomorphisms_that_disagree():
    """Two isomorphisms a -> b, or a loop a -> b -> a, that differ by the
    swap S give a non-identity automorphism, as does S alone at a."""
    q = poic_new(2, [((1, 0), True), ((0, 1), True)])
    objects = {"a": q, "b": q}
    ident, swap = IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]])
    for mors in ([("a", "b", ident), ("a", "b", swap)],
                 [("a", "b", ident), ("b", "a", swap)],
                 [("b", "a", ident), ("a", "b", swap)],
                 [("a", "a", swap)]):
        with pytest.raises(NotThin):
            skeletonize(objects, mors)
    for mors in ([("a", "b", swap), ("b", "a", swap)],
                 [("b", "a", swap), ("a", "b", swap), ("b", "b", ident)]):
        out, equiv = skeletonize(objects, mors)
        assert out.ids() == ["a"]
        assert equiv["b"] == ("a", swap)


def test_conify_point():
    phi, lin, ids = conify([PolyhedralCell("pt", ((0,),), ())])
    # closed mode: the ray over the point plus the adjoined origin
    assert sorted(phi.dim(p) for p in phi.ids()) == [0, 1]
    ray_id = ids["pt"]
    assert phi.cones[ray_id].is_closed()


def test_conify_segment():
    cells = [
        PolyhedralCell("a", ((0,),), ()),
        PolyhedralCell("b", ((1,),), ()),
        PolyhedralCell("ab", ((0,), (1,)), ()),
    ]
    phi, lin, ids = conify(cells)
    assert sorted(phi.dim(p) for p in phi.ids()) == [0, 1, 1, 2]
    seg = phi.cones[ids["ab"]]
    assert seg.is_closed()
    # slicing at z=1: the embedded cone meets z=1 in the segment
    emb = lin.maps[ids["ab"]]
    gens = [emb.apply(g) for g in seg.closure_rays]
    assert sorted(gens) == [(0, 1), (1, 1)]


def test_conify_tropical_line():
    cells = [
        PolyhedralCell("v", ((0, 0),), ()),
        PolyhedralCell("r1", ((0, 0),), ((-1, 0),)),
        PolyhedralCell("r2", ((0, 0),), ((0, -1),)),
        PolyhedralCell("r3", ((0, 0),), ((1, 1),)),
    ]
    phi, lin, ids = conify(cells)
    # strict mode: 3 two-dimensional cones over the rays, 1 ray over the
    # vertex, no origin
    assert sorted(phi.dim(p) for p in phi.ids()) == [1, 2, 2, 2]
    vray = phi.cones[ids["v"]]
    assert not vray.is_closed()
    for r in ("r1", "r2", "r3"):
        assert phi.below(ids[r]) == [ids["v"]]


def test_conify_missing_face_cell():
    cells = [
        PolyhedralCell("a", ((0,),), ()),
        PolyhedralCell("ab", ((0,), (1,)), ()),
    ]
    with pytest.raises(NotPolyhedralComplex):
        conify(cells)
