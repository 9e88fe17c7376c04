import random

import pytest

from tropocone import cone, fibration, io_json, spaces
from tropocone.cone import (
    NotIntoCodomain,
    Poic,
    cell_key,
    check_morphism,
    faces,
    poic_new,
)
from tropocone.complexes import (
    LinearStructure,
    complex_new,
    single_cone_complex,
)
from tropocone.fibration import (
    Fibration,
    FibrationError,
    NotCompatible,
    NotPureSource,
    _absent_closure_faces,
    _apply_cells,
    _check_lifting,
    compatible_refinement,
    equivariant_basis,
    fibration_from_complex,
    is_equivariant,
    is_pi_compatible,
    validate_fibration,
)
from tropocone.intlinalg import IntMatrix, unimodular_inverse
from tropocone.moduli import build_moduli
from tropocone.spaces import (
    PoicSpace,
    SpaceError,
    iso_class_reps,
    space_from_complex,
    space_isos,
    space_new,
)
from tropocone.stfib import spanning_tree_fibration
from tropocone.subdivision import (
    Report,
    fold_cells,
    identity_subdivision,
    ord_subdivision,
    refine_assemble,
    refine_by_walls,
    stellar,
    validate_subdivision,
)
from tropocone.weights import Weight, is_balanced


ROT = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def working_example():
    """Two copies of the open octant over one copy with Z/3 rotations."""
    octant = poic_new(3, [((1, 0, 0), True), ((0, 1, 0), True),
                          ((0, 0, 1), True)])
    space = space_new({"x": octant},
                      {("x", "x"): (IntMatrix.identity(3), ROT, ROT @ ROT)})
    phi = complex_new({"c1": octant, "c2": octant}, set(), {})
    lin = LinearStructure(3, {"c1": IntMatrix.identity(3),
                              "c2": IntMatrix.identity(3)})
    fib = Fibration(complex=phi, space=space,
                    object_map={"c1": "x", "c2": "x"},
                    transforms={"c1": IntMatrix.identity(3),
                                "c2": IntMatrix.identity(3)},
                    morphism_map={}, linear=lin)
    return fib


def test_validate_working_example():
    fib = working_example()
    rep = validate_fibration(fib)
    assert rep.ok, rep.issues


def test_identity_fibration_of_complex():
    m = build_moduli(0, ["1", "2", "3", "4"])
    fib = fibration_from_complex(m.complex, m.linear)
    rep = validate_fibration(fib)
    assert rep.ok, rep.issues
    flag, _ = is_pi_compatible(fib, identity_subdivision(m.complex))
    assert flag


def test_genus_one_style_fibration():
    """Cones rho, sigma1, sigma2, sigma2* over three space objects."""
    halfopen = poic_new(2, [((1, 0), False), ((0, 1), True)])
    ray = poic_new(1, [((1,), True)])
    quadrant_punct = poic_new(2, [((1, 0), False), ((0, 1), False),
                                  ((1, 1), True)])
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    inc1 = IntMatrix.from_cols([(0, 1)])
    space = space_new(
        {"r": ray, "s1": halfopen, "s2": quadrant_punct},
        {("r", "r"): (IntMatrix.identity(1),),
         ("s1", "s1"): (IntMatrix.identity(2),),
         ("s2", "s2"): (IntMatrix.identity(2), swap),
         ("r", "s1"): (inc1,),
         ("r", "s2"): (IntMatrix.from_cols([(1, 0)]),
                       IntMatrix.from_cols([(0, 1)]))})
    phi = complex_new(
        {"rho": ray, "a": halfopen, "b": halfopen, "b2": halfopen},
        {("rho", "a"), ("rho", "b"), ("rho", "b2")},
        {("rho", "a"): inc1, ("rho", "b"): inc1, ("rho", "b2"): inc1})
    fib = Fibration(
        complex=phi, space=space,
        object_map={"rho": "r", "a": "s1", "b": "s2", "b2": "s2"},
        transforms={"rho": IntMatrix.identity(1),
                    "a": IntMatrix.identity(2),
                    "b": IntMatrix.identity(2),
                    "b2": swap},
        morphism_map={("rho", "a"): inc1,
                      ("rho", "b"): IntMatrix.from_cols([(0, 1)]),
                      ("rho", "b2"): IntMatrix.from_cols([(1, 0)])})
    rep = validate_fibration(fib)
    assert rep.ok, rep.issues


def test_pi_compatibility_of_diagonal_stellar():
    fib = working_example()
    phi = fib.complex
    sub1 = stellar(phi, "c1", (1, 1, 1))
    sub = stellar(sub1.source, sub1.pieces_over("c2")[0], (1, 1, 1))
    from tropocone.subdivision import compose_subdivisions
    both = compose_subdivisions(sub1, sub)
    flag, _ = is_pi_compatible(fib, both)
    assert flag
    # compatible input is returned unchanged
    assert compatible_refinement(fib, both) is both


def test_asymmetric_wall_not_compatible_and_refined():
    fib = working_example()
    phi = fib.complex
    asym = refine_by_walls(phi, {"c1": [(1, -1, 0)]})
    rep = validate_subdivision(asym)
    assert rep.ok, rep.issues
    flag, _ = is_pi_compatible(fib, asym)
    assert not flag
    out = compatible_refinement(fib, asym)
    flag, _ = is_pi_compatible(fib, out)
    assert flag
    # the output is invariant under the order-3 rotation: piece keys of
    # each copy are rotation-stable
    from tropocone.fibration import _piece_keys
    keys = set(_piece_keys(fib, out, "c1").values())
    rot_keys = set(_piece_keys(fib, out, "c1", transport=ROT).values())
    assert keys == rot_keys


def test_equivariant_weights_working_example():
    fib = working_example()
    phi = fib.complex
    sub1 = stellar(phi, "c1", (1, 1, 1))
    from tropocone.subdivision import compose_subdivisions
    sub2 = stellar(sub1.source, sub1.pieces_over("c2")[0], (1, 1, 1))
    both = compose_subdivisions(sub1, sub2)
    two_classes = [t for t in both.source.ids() if both.source.dim(t) == 2]
    assert len(two_classes) == 6
    ones = Weight(2, {t: 1 for t in two_classes})
    from tropocone.fibration import composed_linear
    lin2 = composed_linear(fib, both)
    assert is_balanced(both.source, lin2, ones)
    assert is_equivariant(fib, both, ones)
    # copy-asymmetric: balanced but not equivariant
    c1_pieces = [t for t in two_classes if both.cone_map[t] == "c1"]
    asym = Weight(2, {t: 1 for t in c1_pieces})
    assert is_balanced(both.source, lin2, asym)
    assert not is_equivariant(fib, both, asym)
    lat = equivariant_basis(fib, 2, both)
    assert lat.rank == 1
    gen = lat.basis[0]
    assert len(set(gen.values.get(t, 0) for t in two_classes)) == 1


def test_equivariant_basis_needs_compatibility():
    fib = working_example()
    asym = refine_by_walls(fib.complex, {"c1": [(1, -1, 0)]})
    with pytest.raises(NotCompatible):
        equivariant_basis(fib, 2, asym)


def test_morphism_map_of_wrong_shape_is_reported():
    """A 3x0 map has the same (empty) entries as the true 1x0 face map;
    matrix equality must still tell them apart."""
    origin = poic_new(0, [])
    ray = poic_new(1, [((1,), False)])
    phi = complex_new({"o": origin, "r": ray}, {("o", "r")},
                      {("o", "r"): IntMatrix(1, 0, ())})
    fib = fibration_from_complex(phi)
    fib.morphism_map[("o", "r")] = IntMatrix(3, 0, ())
    rep = validate_fibration(fib)
    assert not rep.ok


def test_transform_onto_a_proper_subcone_is_not_an_interior_iso():
    """eta is unimodular and fixes (1, 1), so it sends the interior witness
    of the open quadrant into the quadrant both ways, but it maps (0, 1)
    to (-1, 0)."""
    quadrant = poic_new(2, [((1, 0), True), ((0, 1), True)])
    fib = fibration_from_complex(complex_new({"c": quadrant}, set(), {}))
    fib.transforms["c"] = IntMatrix.from_rows([[2, -1], [1, 0]])
    rep = validate_fibration(fib)
    assert [i["axiom"] for i in rep.issues] == ["interior-iso"]
    fib.transforms["c"] = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert validate_fibration(fib).ok


# ---------------------------------------------------------------------------
# references: the space_new composition check over all pairs of hom-sets
# and validate_fibration over all pairs of relations, each composite
# g @ pi(p<q) formed once per f in hom(pi(p), x)

def _reference_space_new(objects, homs):
    objects = dict(objects)
    cleaned = {}
    for (x, y), mats in homs.items():
        uniq = []
        for m in mats:
            if m not in uniq:
                uniq.append(m)
        if uniq:
            cleaned[(x, y)] = tuple(uniq)
    space = PoicSpace(objects=objects, homs=cleaned)
    for x in space.ids():
        if IntMatrix.identity(space.dim(x)) not in space.hom(x, x):
            raise SpaceError(f"identity missing in hom({x},{x})")
    realizations = {}
    for (x, y), mats in sorted(cleaned.items()):
        for m in mats:
            mor = check_morphism(m, objects[x], objects[y])
            if not mor.face_embedding:
                raise SpaceError(
                    f"a morphism {x} -> {y} is not a face-embedding")
            realizations.setdefault((y, mor.face.gens_key), []).append(
                (x, m))
    for (x, y) in sorted(cleaned):
        for (y2, z) in sorted(cleaned):
            if y2 != y:
                continue
            for f in cleaned[(x, y)]:
                for g in cleaned[(y2, z)]:
                    if g @ f not in space.hom(x, z):
                        raise SpaceError(
                            f"hom-sets are not closed under composition "
                            f"({x} -> {y} -> {z})")
    for y in space.ids():
        for f in faces(objects[y]):
            reals = realizations.get((y, f.gens_key))
            if reals is None:
                raise SpaceError(
                    f"face {sorted(f.gens_key)} of {y} is not realized")
            (x0, m0) = reals[0]
            for (x1, m1) in reals[1:]:
                if not any(
                        m1 @ u == m0
                        for u in space_isos(space, x0, x1)):
                    raise SpaceError(
                        f"face of {y} realized non-uniquely "
                        f"({x0} vs {x1})")
    return space


def _reference_validate_fibration(fib):
    report = Report()
    phi, space = fib.complex, fib.space
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
    reps = iso_class_reps(space)
    hit = {reps[fib.pi(p)] for p in phi.ids()}
    for x in space.ids():
        if reps[x] not in hit:
            report.add("surjective", f"space class of {x} is not hit", x)
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


def _space_error(build, objects, homs):
    """The SpaceError text of ``build`` on the data, or None."""
    try:
        build(objects, homs)
    except SpaceError as exc:
        return str(exc)
    return None


def _mutants(fib, rng):
    """Three seeded mutants of a valid fibration: a hom dropped from the
    space, a morphism-map entry swapped for another hom, a transform
    replaced."""
    space = fib.space
    # a non-identity automorphism, whose loss the lifting axiom sees, or
    # where there is none a hom the morphism map uses
    autos = [((x, x), m) for x in space.ids() for m in space.hom(x, x)
             if m != IntMatrix.identity(m.rows)]
    used = sorted({((fib.pi(p), fib.pi(q)), m)
                   for (p, q), m in fib.morphism_map.items()},
                  key=lambda km: (km[0], km[1].entries))
    key, gone = rng.choice(autos or used)
    homs = dict(space.homs)
    homs[key] = tuple(m for m in homs[key] if m != gone)
    yield "drop", homs, Fibration(
        fib.complex, PoicSpace(objects=space.objects,
                               homs={k: v for k, v in homs.items() if v}),
        fib.object_map, fib.transforms, fib.morphism_map, fib.linear)
    mats = sorted({m for ms in space.homs.values() for m in ms},
                  key=lambda m: (m.rows, m.cols, m.entries))
    swap = [(rel, m) for rel, old in sorted(fib.morphism_map.items())
            for m in mats if (m.rows, m.cols) == (old.rows, old.cols)
            and m != old]
    # where possible a relation p < q with p > 0-dimensional and some
    # cone above q, so that the functoriality check sees the swap too
    composable = [(rel, m) for rel, m in swap
                  if fib.complex.dim(rel[0]) > 0
                  and fib.complex.above(rel[1])]
    rel, new = rng.choice(composable or swap)
    yield "swap", space.homs, Fibration(
        fib.complex, fib.space, fib.object_map, fib.transforms,
        {**fib.morphism_map, rel: new}, fib.linear)
    p = rng.choice([p for p in sorted(fib.complex.ids())
                    if fib.complex.dim(p) > 0])
    eta = fib.transforms[p]
    flipped = IntMatrix.from_cols(
        [tuple(-x for x in eta.col(0))]
        + [eta.col(j) for j in range(1, eta.cols)], eta.rows)
    yield "transform", space.homs, Fibration(
        fib.complex, fib.space, fib.object_map,
        {**fib.transforms, p: flipped}, fib.morphism_map, fib.linear)


@pytest.mark.parametrize("g,labels", [(0, ["1", "2", "3", "4", "5"]),
                                      (0, ["1", "2", "3", "4", "5", "6"]),
                                      (1, ["a", "b"]), (2, [])])
def test_space_and_fibration_checks_match_reference(g, labels):
    """The composable-pair closure of space_new and the per-(p, x) lifting
    table of validate_fibration give the reference's error text and
    issues, in order, on st fibrations and on seeded mutants of them.
    Only the six-mark source has relations p < q < r with p of positive
    dimension, which the functoriality check needs to see a swap."""
    fib = spanning_tree_fibration(g, labels).fibration
    space = fib.space
    assert _space_error(space_new, space.objects, space.homs) is None
    assert _space_error(_reference_space_new, space.objects,
                        space.homs) is None
    assert validate_fibration(fib).ok
    assert _reference_validate_fibration(fib).ok
    rng = random.Random(f"mutants {g} {labels}")
    for kind, homs, mutant in _mutants(fib, rng):
        assert _space_error(space_new, space.objects, homs) \
            == _space_error(_reference_space_new, space.objects, homs)
        issues = validate_fibration(mutant).issues
        assert issues == _reference_validate_fibration(mutant).issues
        assert issues, kind
        if kind == "drop" and g > 0:
            # a lost automorphism breaks lifting, past the shape checks
            assert issues[0]["axiom"] == "lifting"


# ---------------------------------------------------------------------------
# references: the isomorphism classes from space_isos on every pair of
# objects, and the lifting axiom with its composites formed once per (p, x)
# for every object x of the space

def _reference_iso_class_reps(space: PoicSpace):
    """Representative (smallest id) of each isomorphism class."""
    reps = {x: x for x in space.ids()}

    def find(x):
        while reps[x] != x:
            reps[x] = reps[reps[x]]
            x = reps[x]
        return x

    for x in space.ids():
        for y in space.ids():
            if x < y and space_isos(space, x, y):
                rx, ry = find(x), find(y)
                if rx != ry:
                    a, b = sorted((rx, ry))
                    reps[b] = a
    return {x: find(x) for x in space.ids()}


def _reference_lifting(fib, reps, report):
    phi, space = fib.complex, fib.space
    above = phi._neighbours[1]
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


def _blocks_space(blocks):
    """Open rays, one per id, with the identity between any two ids of a
    block: the blocks are the isomorphism classes."""
    ray = poic_new(1, [((1,), True)])
    one = (IntMatrix.identity(1),)
    return space_new({x: ray for block in blocks for x in block},
                     {(x, y): one for block in blocks
                      for x in block for y in block})


def _clutch_product_space():
    from tropocone.stfib import product_fibration
    return product_fibration(spanning_tree_fibration(1, ["1", "c"]),
                             spanning_tree_fibration(0, ["3", "4", "c"])
                             ).fibration.space


@pytest.mark.parametrize("space", [
    lambda: build_moduli(2, []).space,
    lambda: space_from_complex(
        build_moduli(0, ["1", "2", "3", "4", "5"]).complex),
    _clutch_product_space,
    lambda: _blocks_space([["e", "b", "f"], ["d"], ["c", "a"], ["g", "h"]]),
], ids=["m2", "m05", "clutch-product", "blocks"])
def test_iso_classes_match_the_all_pairs_reference(space):
    """Joining along the hom-sets that hold an isomorphism gives the
    classes of space_isos on every pair of objects."""
    space = space()
    assert iso_class_reps(space) == _reference_iso_class_reps(space)


def test_iso_classes_are_the_blocks_with_their_least_ids():
    space = _blocks_space([["e", "b", "f"], ["d"], ["c", "a"], ["g", "h"]])
    assert iso_class_reps(space) == {"a": "a", "b": "b", "c": "a", "d": "d",
                                     "e": "b", "f": "b", "g": "g", "h": "g"}


def _broken(fib, rng):
    """Seeded broken copies of a fibration: three with one morphism-map
    entry swapped for another hom of its shape, two with one transform
    swapped for that of another cone of its dimension."""
    mats = sorted({m for ms in fib.space.homs.values() for m in ms},
                  key=lambda m: (m.rows, m.cols, m.entries))
    swaps = [(rel, m) for rel, old in sorted(fib.morphism_map.items())
             for m in mats if (m.rows, m.cols) == (old.rows, old.cols)
             and m != old]
    for rel, new in rng.sample(swaps, min(3, len(swaps))):
        yield Fibration(fib.complex, fib.space, fib.object_map,
                        fib.transforms, {**fib.morphism_map, rel: new},
                        fib.linear)
    phi = fib.complex
    pairs = [(p, q) for p in phi.ids() for q in phi.ids()
             if phi.dim(p) == phi.dim(q) > 0
             and fib.transforms[p] != fib.transforms[q]]
    for p, q in rng.sample(pairs, min(2, len(pairs))):
        yield Fibration(phi, fib.space, fib.object_map,
                        {**fib.transforms, p: fib.transforms[q]},
                        fib.morphism_map, fib.linear)


@pytest.mark.parametrize("g,labels", [(0, ["1", "2", "3", "4", "5"]),
                                      (1, ["a", "b"]), (2, [])])
def test_lifting_table_matches_the_per_object_reference(g, labels):
    """The lifting check tables each cone's composites once and walks the
    homs out of pi(p); its issues equal, in order, those of the loop over
    every object x, on valid fibrations and on broken ones (which the
    lifting check is handed directly, past the shape checks that would
    stop validate_fibration first)."""
    fib = spanning_tree_fibration(g, labels).fibration
    reps = iso_class_reps(fib.space)
    assert validate_fibration(fib).ok
    assert _check_lifting(fib, reps, Report()).ok
    assert _reference_lifting(fib, reps, Report()).ok
    seen = 0
    for broken in _broken(fib, random.Random(f"broken {g} {labels}")):
        issues = _check_lifting(broken, reps, Report()).issues
        assert issues == _reference_lifting(broken, reps, Report()).issues
        seen += bool(issues)
        assert not validate_fibration(broken).ok
        assert validate_fibration(broken).issues \
            == _reference_validate_fibration(broken).issues
    # a swapped morphism-map entry leaves some hom without its lift
    assert seen


def test_validate_fibration_calls_space_isos_per_hom(monkeypatch):
    """The lifting table reads the isomorphisms out of each object once,
    and the classes come from the hom-sets: at most 4 space_isos calls per
    hom-set on st(0, a,1..5), where the loop over every pair (p, x) made
    97,911."""
    fib = spanning_tree_fibration(0, ["a", "1", "2", "3", "4", "5"]).fibration
    real, calls = spaces.space_isos, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (spaces, fibration):
        monkeypatch.setattr(module, "space_isos", counted)
    assert validate_fibration(fib).ok
    assert 0 < len(calls) <= 4 * len(fib.space.homs)


# ---------------------------------------------------------------------------
# reference: compatible_refinement with a breadth-first closure of the
# automorphism group, stabilisation passes, and covers cut by the pieces
# over every face as well

def _reference_compatible_refinement(fib, sub):
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


def swap_example():
    """Two copies of the open quadrant over one copy with the coordinate
    swap (the two-dimensional form of the working example)."""
    quadrant = poic_new(2, [((1, 0), True), ((0, 1), True)])
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    ident = IntMatrix.identity(2)
    space = space_new({"x": quadrant}, {("x", "x"): (ident, swap)})
    phi = complex_new({"c1": quadrant, "c2": quadrant}, set(), {})
    return Fibration(complex=phi, space=space,
                     object_map={"c1": "x", "c2": "x"},
                     transforms={"c1": ident, "c2": ident},
                     morphism_map={},
                     linear=LinearStructure(2, {"c1": ident, "c2": ident}))


def closed_swap_example():
    """The closed quadrant with its rays a, b and apex 0 over one copy
    of each, with the coordinate swap on the quadrant: the refinement
    passes through cones with faces, down to rank 0."""
    o, r = poic_new(0, []), poic_new(1, [((1,), False)])
    q = poic_new(2, [((1, 0), False), ((0, 1), False)])
    e1, e2 = IntMatrix.from_cols([(1, 0)]), IntMatrix.from_cols([(0, 1)])
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    space = space_new({"o": o, "r": r, "q": q}, {
        ("o", "o"): (IntMatrix.identity(0),),
        ("r", "r"): (IntMatrix.identity(1),),
        ("q", "q"): (IntMatrix.identity(2), swap),
        ("o", "r"): (IntMatrix(1, 0, ()),), ("o", "q"): (IntMatrix(2, 0, ()),),
        ("r", "q"): (e1, e2)})
    fmaps = {("0", "a"): IntMatrix(1, 0, ()), ("0", "b"): IntMatrix(1, 0, ()),
             ("0", "Q"): IntMatrix(2, 0, ()), ("a", "Q"): e1, ("b", "Q"): e2}
    phi = complex_new({"0": o, "a": r, "b": r, "Q": q}, set(fmaps), fmaps)
    return Fibration(complex=phi, space=space,
                     object_map={"0": "o", "a": "r", "b": "r", "Q": "q"},
                     transforms={p: IntMatrix.identity(phi.dim(p))
                                 for p in phi.ids()},
                     morphism_map=dict(fmaps))


def _sheared(fib, shear):
    """The fibration with copy c2 replaced by the preimage of its image
    under ``shear``, which becomes its transform: the transports to c1
    are then not automorphisms of the image."""
    image = fib.space.objects[fib.pi("c2")]
    cone = poic_new(image.rank, [(shear.transpose().apply(n), strict)
                                 for n, strict in image.facets])
    phi = complex_new({"c1": fib.complex.cones["c1"], "c2": cone},
                      set(), {})
    return Fibration(
        phi, fib.space, fib.object_map, {**fib.transforms, "c2": shear},
        fib.morphism_map, LinearStructure(image.rank, {**fib.linear.maps,
                                                       "c2": shear}))


def _cutting_wall(rng, rank, bound):
    """A wall with entries in [-bound, bound] of both signs, so that it
    cuts the open positive orthant of Z^rank."""
    while True:
        w = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if max(w) > 0 > min(w):
            return w


def _refinement_inputs():
    """(name, fibration, subdivision) for 35 seeded inputs: swap quadrants
    with 0-2 walls per copy, Z/3 octants with 0-1 walls per copy (every
    second one with a sheared copy c2), the closed swap quadrant with
    asymmetric walls, st fibrations with one wall on one top cone, and
    identity fibrations of M_0,5 with one wall on one top cone (already
    compatible)."""
    rng = random.Random("compatible refinement")
    shears = {2: IntMatrix.from_rows([[1, 0], [1, 1]]),
              3: IntMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1]])}
    families = [(swap_example, 2, 2, 12), (working_example, 1, 1, 8)]
    for build, walls, bound, count in families:
        for i in range(count):
            fib = build()
            rank = fib.complex.max_dim()
            if i % 2:
                fib = _sheared(fib, shears[rank])
            per_copy = {c: [_cutting_wall(rng, rank, bound)
                            for _ in range(rng.randint(0, walls))]
                        for c in ("c1", "c2")}
            yield (f"{build.__name__} {i} {per_copy}", fib,
                   refine_by_walls(fib.complex, per_copy))
    fib = closed_swap_example()
    for walls in ([(1, -2)], [(1, -1), (3, -1)], [(2, -1), (1, -3)]):
        yield f"closed_swap_example {walls}", fib, \
            refine_by_walls(fib.complex, {"Q": walls})
    sts = [spanning_tree_fibration(g, labels).fibration
           for g, labels in [(1, ["a"]), (1, ["a", "b"]), (2, [])]]
    m05 = build_moduli(0, ["1", "2", "3", "4", "5"])
    ids = [fibration_from_complex(m05.complex, m05.linear)] * 3
    for fib in [f for f in sts for _ in range(3)] + ids:
        phi = fib.complex
        p = rng.choice([p for p in sorted(phi.ids())
                        if phi.dim(p) == phi.max_dim()])
        wall = _cutting_wall(rng, phi.dim(p), 1) if phi.dim(p) > 1 \
            else (1,)
        yield f"{sorted(fib.space.ids())} {p} {wall}", fib, \
            refine_by_walls(phi, {p: [wall]})


def test_compatible_refinement_matches_reference():
    """One common refinement per isomorphism class, over each member's
    cover moved by its transport and every automorphism, gives the bytes
    of the reference's group closure and stabilisation passes."""
    inputs = list(_refinement_inputs())
    assert len(inputs) == 35
    refined = 0
    for name, fib, sub in inputs:
        assert validate_fibration(fib).ok, name
        out = compatible_refinement(fib, sub)
        expected = _reference_compatible_refinement(fib, sub)
        assert io_json.dumps(io_json.subdivision_to_json(out)) \
            == io_json.dumps(io_json.subdivision_to_json(expected)), name
        refined += out is not sub
    assert refined >= 22


def test_absent_closure_faces_use_the_cone_s_own_closure_rays():
    """A lined cone, whose closure poic has the same canonical closure
    rays: the cone and its two facets are realized, so only the line, on
    which the strict normal vanishes, is absent."""
    sigma = poic_new(3, [((-1, -1, 1), False), ((-1, 0, 0), True),
                         ((0, 1, -1), False)])
    assert sigma.closure().closure_rays == sigma.closure_rays
    phi = single_cone_complex(sigma, "c")
    assert _absent_closure_faces(phi, "c") == [((0, -1, -1), (0, 1, 1))]


def _clear_memos():
    for memo in (cone._dual_generators, cone._facets_from_rays,
                 cone._poic_new, cone._faces, cone._check_morphism):
        memo.cache_clear()


def test_faces_are_listed_without_closure_poics(monkeypatch):
    """stellar, ord and compatible_refinement give the same results with
    Poic.closure raising (memos cleared, so nothing computed before is
    reused): they read the closure faces off the cone's own rays."""
    def run():
        rng = random.Random("closure faces")
        out = []
        for phi in [build_moduli(0, list("12345")).complex,
                    closed_swap_example().complex,
                    spanning_tree_fibration(1, ["a", "b"]).complex]:
            top = rng.choice(phi.classes(phi.max_dim()))
            ray = tuple(map(sum, zip(*(
                [rng.randint(1, 3) * x for x in g]
                for g in phi.cones[top].closure_rays))))
            for sub in (stellar(phi, top, ray), ord_subdivision(phi)):
                out.append(io_json.dumps(io_json.subdivision_to_json(sub)))
        for _, fib, sub in list(_refinement_inputs())[::4]:
            out.append(io_json.dumps(io_json.subdivision_to_json(
                compatible_refinement(fib, sub))))
        return out

    def refuse(self):
        raise AssertionError("a closure poic built on a library path")

    expected = run()
    monkeypatch.setattr(Poic, "closure", refuse)
    try:
        _clear_memos()
        assert run() == expected
    finally:
        monkeypatch.undo()
        _clear_memos()
