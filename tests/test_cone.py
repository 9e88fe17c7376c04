import random

import pytest

from tropocone import cone, intlinalg
from tropocone.cone import (
    ConeError,
    EmptyCone,
    NotFullDimensional,
    NotIntoCodomain,
    Poic,
    cell_key,
    chart_cone,
    check_morphism,
    dual_generators,
    faces,
    facets_from_rays,
    image_face,
    poic_equal_sets,
    poic_new,
    poic_subset,
    product,
    rational_preimage,
    strict_feasible,
)
from tropocone.intlinalg import (
    IntMatrix,
    Lattice,
    dot,
    frac_rank,
    frac_solve,
    integer_kernel,
    is_zero_vec,
    lattice_index,
    primitive,
    quotient,
    smith_normal_form,
    vadd,
)


def quadrant():
    return poic_new(2, [((1, 0), False), ((0, 1), False)])


def half_open_quadrant():
    return poic_new(2, [((1, 0), False), ((0, 1), True)])


def metrics_2cycle():
    # quadrant minus the origin: x>=0, y>=0, x+y>0
    return poic_new(2, [((1, 0), False), ((0, 1), False), ((1, 1), True)])


def test_dual_generators_quadrant():
    gens = dual_generators([(1, 0), (0, 1)], 2)
    assert set(gens) == {(1, 0), (0, 1)}


def test_dual_generators_halfspace():
    gens = dual_generators([(0, 1)], 2)
    # ± the lineality direction plus one ray with positive y
    assert (1, 0) in gens and (-1, 0) in gens
    assert any(dot((0, 1), g) > 0 for g in gens)


def test_dual_generators_point():
    gens = dual_generators([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert gens == ()


def test_facets_from_rays_roundtrip():
    facets, ann = facets_from_rays([(1, 0), (1, 2)], 2)
    assert ann == ()
    assert set(facets) == {(0, 1), (2, -1)}
    facets, ann = facets_from_rays([(1, 1)], 2)
    assert len(ann) == 1
    assert len(facets) == 1


def test_poic_new_quadrant():
    q = quadrant()
    assert q.dim == 2
    assert set(q.closure_rays) == {(1, 0), (0, 1)}
    assert q.contains((0, 0))
    assert q.is_closed()


def test_poic_new_half_open():
    q = half_open_quadrant()
    assert set(q.closure_rays) == {(1, 0), (0, 1)}
    assert q.contains((1, 1)) and q.contains((0, 1))
    assert not q.contains((1, 0))
    assert not q.contains((0, 0))


def test_poic_new_empty():
    with pytest.raises(EmptyCone):
        poic_new(2, [((1, 0), True), ((-1, 0), True)])


def test_poic_new_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        poic_new(2, [((1, 0), False), ((-1, 0), False)])


def test_redundant_closed_strict_is_kept():
    c = metrics_2cycle()
    # x+y>0 is closed-redundant but strict-essential: origin excluded
    assert not c.contains((0, 0))
    assert c.contains((1, 0)) and c.contains((0, 1))
    assert len(c.facets) == 3


def test_implied_strict_is_removed():
    c = poic_new(2, [((1, 0), True), ((0, 1), False), ((1, 1), True)])
    # x+y>0 follows from x>0, y>=0
    assert len(c.facets) == 2


def test_faces_closed_quadrant():
    fs = faces(quadrant())
    assert [f.dim for f in fs] == [0, 1, 1, 2]


def test_faces_half_open_quadrant():
    fs = faces(half_open_quadrant())
    # only the cone itself and the ray x=0, y>0 survive
    assert [f.dim for f in fs] == [1, 2]
    ray = fs[0]
    assert ray.gens_key == ((0, 1),)
    assert not ray.sub.is_closed()  # the re-coordinated ray is open: t > 0
    assert ray.sub.facets == (((1,), True),)


def test_faces_metrics_2cycle():
    fs = faces(metrics_2cycle())
    # two half-open rays and the cone; the origin is excluded
    assert [f.dim for f in fs] == [1, 1, 2]
    for f in fs:
        if f.dim == 1:
            assert f.sub.facets == (((1,), True),)


def test_face_lattices_are_saturated():
    # Lin_N(face) saturated in N^sigma: quotient by the face lattice is free
    for sigma in (quadrant(), metrics_2cycle(),
                  poic_new(3, [((1, 0, 0), False), ((0, 1, 0), False),
                               ((0, 0, 1), True)])):
        for f in faces(sigma):
            if f.dim in (0, sigma.rank):
                continue
            gens = IntMatrix.from_rows(
                [f.matrix.col(j) for j in range(f.matrix.cols)], sigma.rank)
            q = quotient(sigma.rank, gens)
            assert q.torsion_factors == ()


def test_product():
    p = product(quadrant(), poic_new(1, [((1,), True)]))
    assert p.rank == 3
    assert p.contains((0, 0, 1))
    assert not p.contains((0, 0, 0))
    point = poic_new(0, [])
    assert product(point, quadrant()).facets == quadrant().facets
    open_q = product(poic_new(1, [((1,), True)]), poic_new(1, [((1,), True)]))
    assert not open_q.contains((1, 0))
    assert open_q.contains((1, 1))


def test_product_faces_count():
    # faces of a product are pairwise products of faces
    a = quadrant()
    b = poic_new(1, [((1,), False)])
    p = product(a, b)
    assert len(faces(p)) == len(faces(a)) * len(faces(b))


def test_check_morphism_identity_face_embedding():
    q = quadrant()
    m = check_morphism(IntMatrix.identity(2), q, q)
    assert m.injective and m.face_embedding


def test_check_morphism_paper_forgetful_map():
    # (x,y,l) -> (x, y+l) from R^2_{>=0} x R_{>0} to R_{>=0} x R_{>0}
    dom = poic_new(3, [((1, 0, 0), False), ((0, 1, 0), False),
                       ((0, 0, 1), True)])
    cod = poic_new(2, [((1, 0), False), ((0, 1), True)])
    mat = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1]])
    m = check_morphism(mat, dom, cod)
    assert not m.injective
    assert not m.face_embedding


def test_check_morphism_not_into_codomain():
    ray = poic_new(1, [((1,), False)])
    with pytest.raises(NotIntoCodomain):
        check_morphism(IntMatrix.from_rows([[-1]]), ray, ray)


def test_check_morphism_strictness_violation():
    # identity maps the closed ray into the closure but not into the open ray
    closed = poic_new(1, [((1,), False)])
    open_ray = poic_new(1, [((1,), True)])
    with pytest.raises(NotIntoCodomain):
        check_morphism(IntMatrix.identity(1), closed, open_ray)
    # the other direction is fine
    m = check_morphism(IntMatrix.identity(1), open_ray, closed)
    assert m.injective


def test_check_morphism_repeats_on_equal_content_agree():
    """The morphism memo is keyed on content: equal but distinct inputs
    give equal fields, around the caller's own objects."""
    def octant():
        return poic_new(3, [((1, 0, 0), False), ((0, 1, 0), False),
                            ((0, 0, 1), False)])

    def inclusion():
        return IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])

    def twist():
        return IntMatrix.from_rows([[1, 1], [0, 1], [0, 0]])

    for mat in (inclusion, twist):
        first = check_morphism(mat(), quadrant(), octant())
        hits = cone._check_morphism.cache_info().hits
        dom, cod, m = quadrant(), octant(), mat()
        again = check_morphism(m, dom, cod)
        assert cone._check_morphism.cache_info().hits == hits + 1
        assert dom is not first.domain and m is not first.matrix
        assert again.domain is dom and again.codomain is cod \
            and again.matrix is m
        assert again == first
    assert first.injective and not first.face_embedding
    embedded = check_morphism(inclusion(), quadrant(), octant())
    assert embedded.face_embedding and embedded.face.dim == 2


def test_check_morphism_errors_are_raised_on_every_repeat():
    ray = poic_new(1, [((1,), False)])
    for _ in range(3):
        misses = cone._check_morphism.cache_info().misses
        with pytest.raises(NotIntoCodomain):
            check_morphism(IntMatrix.from_rows([[-1]]),
                           poic_new(1, [((1,), False)]), ray)
        assert cone._check_morphism.cache_info().misses == misses + 1
    for _ in range(3):
        info = cone._check_morphism.cache_info()
        with pytest.raises(ConeError, match="shape"):
            check_morphism(IntMatrix.identity(2), ray, ray)
        assert cone._check_morphism.cache_info() == info


def test_poic_new_repeats_on_equal_content_agree():
    """The poic memo is keyed on the sorted primitive constraints with
    their strictness: permuted, scaled or duplicated lists give equal
    poics, each a new object, and strictness flags are part of the key."""
    rng = random.Random(11)
    built = 0
    for rank, normals in _normal_sets(seed=23, count=60):
        facets = [(n, rng.random() < 0.4) for n in normals]
        try:
            first = poic_new(rank, facets)
        except ConeError:
            continue
        variant = [(tuple(k * x for x in n), s)
                   for (n, s), k in zip(facets, rng.choices((1, 2, 3),
                                                          k=len(facets)))]
        variant += [c for c in facets if rng.random() < 0.5]
        rng.shuffle(variant)
        hits = cone._poic_new.cache_info().hits
        again = poic_new(rank, variant)
        assert cone._poic_new.cache_info().hits == hits + 1
        assert again == first and again is not first
        built += 1
    assert built >= 30
    closed = poic_new(2, [((1, 0), False), ((0, 1), False)])
    half_open = poic_new(2, [((0, 2), True), ((1, 0), False)])
    assert closed.facets != half_open.facets
    assert half_open == poic_new(2, [((1, 0), False), ((0, 1), True),
                                     ((0, 1), False)])


def test_poic_new_errors_are_raised_on_every_repeat():
    for exc, facets in ((EmptyCone, [((1, 0), True), ((-1, 0), False)]),
                        (NotFullDimensional, [((1, 0), False),
                                              ((-1, 0), False)])):
        for _ in range(3):
            misses = cone._poic_new.cache_info().misses
            with pytest.raises(exc):
                poic_new(2, facets)
            assert cone._poic_new.cache_info().misses == misses + 1
    for _ in range(3):
        info = cone._poic_new.cache_info()
        with pytest.raises(ConeError, match="wrong length"):
            poic_new(2, [((1, 0), False), ((1, 0, 0), False)])
        assert cone._poic_new.cache_info() == info


def test_face_of_face_is_face():
    sigma = poic_new(3, [((1, 0, 0), False), ((0, 1, 0), False),
                         ((0, 0, 1), False)])
    keys = {frozenset(f.gens_key) for f in faces(sigma)}
    for f in faces(sigma):
        for ff in faces(f.sub):
            lifted = frozenset(
                tuple(f.matrix.apply(ff.matrix.apply(g)))
                for g in ff.sub.closure_rays)
            # the lifted generators must be the key of some face of sigma
            assert lifted in keys


def test_membership_oracle_random():
    rng = random.Random(11)
    sigma = metrics_2cycle()
    for _ in range(200):
        p = (rng.randint(-3, 3), rng.randint(-3, 3))
        expected = p[0] >= 0 and p[1] >= 0 and p[0] + p[1] > 0
        assert sigma.contains(p) == expected


def test_poic_subset():
    assert poic_subset(half_open_quadrant(), quadrant())
    assert not poic_subset(quadrant(), half_open_quadrant())
    assert poic_equal_sets(quadrant(), quadrant())
    # with lineality: the closure of the line is not in the ray
    line, ray = poic_new(1, []), poic_new(1, [((1,), False)])
    assert not poic_subset(line, ray)
    assert poic_subset(ray, line)
    half_plane = poic_new(2, [((0, 1), False)])
    assert poic_subset(quadrant(), half_plane)
    assert not poic_subset(half_plane, quadrant())


def test_ray_is_not_a_face_of_the_line():
    line, ray = poic_new(1, []), poic_new(1, [((1,), False)])
    m = check_morphism(IntMatrix.identity(1), ray, line)
    assert m.injective and not m.face_embedding and m.face is None
    assert check_morphism(IntMatrix.identity(1), line, line).face_embedding
    with pytest.raises(NotIntoCodomain):
        check_morphism(IntMatrix.identity(1), line, ray)


def test_strict_feasible_witness():
    w = strict_feasible([((1, 0), False), ((0, 1), True)], 2)
    assert w is not None and w[1] > 0 and w[0] >= 0
    assert strict_feasible([((1, 0), True), ((-1, 0), False)], 2) is None


def test_chart_cone_keeps_a_strict_normal_vanishing_on_the_chart():
    """Both generators lie on the hyperplane of the strict ambient normal,
    whose pullback to the chart is zero: 0 > 0 leaves no point, while the
    closed 0 >= 0 cuts nothing."""
    gens = [(-2, -6, -6), (1, -2, 0)]
    with pytest.raises(EmptyCone):
        chart_cone(gens, 3, [((-6, -3, 5), True)])
    sigma, embed = chart_cone(gens, 3, [((-6, -3, 5), False)])
    assert sigma.rank == 2 and len(sigma.facets) == 2
    assert check_morphism(embed, sigma, poic_new(3, [((-6, -3, 5), False)]))


def test_rank_zero_poic():
    pt = poic_new(0, [])
    assert pt.dim == 0
    assert pt.contains(())
    assert len(faces(pt)) == 1


# ---------------------------------------------------------------------------
# the memoized, incidence-driven kernel against the plain double description
# it replaced: restart-scan minimality, a kernel SNF and a lineality solve at
# every insertion, and closed facets found by dropping implied constraints

def _reference_prune_generators(gens, normals, rank):
    if rank == 0:
        return []
    lin = integer_kernel(IntMatrix.from_rows(list(normals), rank)) \
        if normals else IntMatrix.identity(rank)
    ldim = lin.rows
    lin_rows = [lin.row(i) for i in range(ldim)]
    out = []
    for row in lin_rows:
        out.append(primitive(row))
        out.append(primitive(tuple(-x for x in row)))
    seen_tight = set()
    candidates = []
    for g in gens:
        if is_zero_vec(g):
            continue
        g = primitive(g)
        if lin_rows and frac_solve(
                [tuple(r[j] for r in lin_rows) for j in range(rank)], g) is not None:
            continue
        tight = tuple(i for i, n in enumerate(normals) if dot(n, g) == 0)
        if frac_rank([normals[i] for i in tight] or [(0,) * rank]) \
                == rank - ldim - 1:
            candidates.append((tight, g))
    candidates.sort(key=lambda t: (t[0], t[1]))
    for tight, g in candidates:
        if tight not in seen_tight:
            seen_tight.add(tight)
            out.append(g)
    return sorted(set(out))


def _reference_dual_generators(normals, rank):
    normals = [primitive(n) for n in normals if not is_zero_vec(n)]
    if rank == 0:
        return ()
    gens = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        gens.append(e)
        gens.append(tuple(-x for x in e))
    inserted = []
    for a in sorted(set(normals)):
        pos = [g for g in gens if dot(a, g) > 0]
        zero = [g for g in gens if dot(a, g) == 0]
        neg = [g for g in gens if dot(a, g) < 0]
        combos = []
        for p in pos:
            ap = dot(a, p)
            for m in neg:
                am = dot(a, m)
                combo = tuple(ap * x - am * y for x, y in zip(m, p))
                if not is_zero_vec(combo):
                    combos.append(primitive(combo))
        inserted.append(a)
        gens = _reference_prune_generators(pos + zero + combos, inserted, rank)
    return tuple(_reference_prune_generators(gens, inserted, rank))


def _reference_strict_feasible(constraints, rank):
    normals = [c[0] for c in constraints if not is_zero_vec(c[0])]
    for n, s in constraints:
        if is_zero_vec(n) and s:
            return None
    gens = _reference_dual_generators(normals, rank)
    witness = (0,) * rank
    for g in gens:
        witness = vadd(witness, g)
    for n, s in constraints:
        if not s or is_zero_vec(n):
            continue
        if not any(dot(n, g) > 0 for g in gens):
            return None
    return witness


def _reference_minimal(constraints, rank):
    minimal = list(constraints)
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(minimal):
            rest = minimal[:i] + minimal[i + 1:]
            normal, strict = c
            negation = (tuple(-x for x in normal), not strict)
            if _reference_strict_feasible(rest + [negation], rank) is None:
                minimal = rest
                changed = True
                break
    return minimal


def _reference_closed_facet_normals(sigma):
    closed = [(n, False) for n, _ in sigma.facets]
    return [n for n, _ in _reference_minimal(closed, sigma.rank)]


def _reference_poic_new(rank, facets):
    """(facets, closure_rays) of the parent poic_new, or the exception
    class it raises."""
    cleaned = {}
    for normal, strict in facets:
        if is_zero_vec(normal):
            if strict:
                return EmptyCone
            continue
        normal = primitive(normal)
        cleaned[normal] = bool(strict) or cleaned.get(normal, False)
    constraints = sorted(cleaned.items())
    if _reference_strict_feasible(constraints, rank) is None:
        return EmptyCone
    gens = _reference_dual_generators([n for n, _ in constraints], rank)
    if frac_rank(list(gens) or [(0,) * rank]) != rank and rank > 0:
        return NotFullDimensional
    minimal = _reference_minimal(constraints, rank)
    return (tuple(minimal),
            _reference_dual_generators([n for n, _ in minimal], rank))


def _random_normal(rng, rank, bound=3):
    return tuple(rng.randint(-bound, bound) for _ in range(rank))


def _lineality_until_last(rng, rank):
    """Normals whose cone keeps a line through every insertion but the
    last: all but the largest normal annihilate a direction v, and the
    largest (inserted last) does not."""
    while True:
        v = _random_normal(rng, rank)
        if not is_zero_vec(v):
            break
    vv = dot(v, v)
    normals = []
    for _ in range(rng.randint(1, rank + 2)):
        n = _random_normal(rng, rank)
        n = tuple(vv * x - dot(n, v) * y for x, y in zip(n, v))
        if not is_zero_vec(n):
            normals.append(primitive(n))
    top = max((abs(x) for n in normals for x in n), default=0) + 1
    while True:
        last = (top,) + _random_normal(rng, rank - 1)
        if dot(last, v) != 0:
            return normals + [last]


def _normal_sets(seed=2024, count=200):
    """Seeded normal sets in ranks 1-4: arbitrary ones, pointed ones with
    an interior point, and ones whose lineality vanishes only at the last
    insertion."""
    rng = random.Random(seed)
    for i in range(count):
        rank = 1 + i % 4
        kind = i % 3
        if kind == 0:
            normals = [_random_normal(rng, rank)
                       for _ in range(rng.randint(0, rank + 3))]
        elif kind == 1:
            point = tuple(rng.randint(1, 4) for _ in range(rank))
            normals = [n for n in (_random_normal(rng, rank)
                                   for _ in range(rng.randint(1, rank + 4)))
                       if dot(n, point) > 0]
        else:
            normals = _lineality_until_last(rng, rank)
        yield rank, normals


def _canonical(gens):
    """A reference double description in the canonical form: sorted, and
    unchanged when pointed; a lined one through its cell key, as the
    reference keeps the least representatives of its rays."""
    return tuple(sorted(cell_key(gens)))


def test_dual_generators_matches_reference():
    lineality_cases = 0
    for rank, normals in _normal_sets():
        assert dual_generators(normals, rank) == \
            _canonical(_reference_dual_generators(normals, rank)), \
            (rank, normals)
        distinct = sorted({primitive(n) for n in normals
                           if not is_zero_vec(n)})
        if (len(distinct) >= 2 and integer_kernel(IntMatrix.from_rows(
                distinct[:-1], rank)).rows > 0 and integer_kernel(
                IntMatrix.from_rows(distinct, rank)).rows == 0):
            lineality_cases += 1
    assert lineality_cases >= 50


def test_dual_generators_ignores_duplicates_scaling_and_order():
    rng = random.Random(7)
    for rank, normals in _normal_sets(seed=99, count=120):
        base = dual_generators(normals, rank)
        variant = []
        for n in normals:
            k = rng.randint(1, 3)
            variant.append(tuple(k * x for x in n))
        variant += [n for n in normals if rng.random() < 0.5]
        variant += [(0,) * rank]
        rng.shuffle(variant)
        assert dual_generators(variant, rank) == base
        assert _canonical(_reference_dual_generators(variant, rank)) == base


def _scaled(rng, v):
    k = rng.randint(1, 3)
    return tuple(k * x for x in v)


def _combination(coeffs, vectors, rank):
    return tuple(sum(c * v[j] for c, v in zip(coeffs, vectors))
                 for j in range(rank))


def test_cell_key_is_canonical():
    """A double description is its own cell key, for every order, scaling
    and repetition of the normals.  The key of a cell with a line ignores
    the order and scaling of the generators, integer lineality added to
    the rays and a unimodular change of the lineality basis.  A pointed
    cell is keyed by its primitive generators."""
    rng = random.Random(4242)
    seen = {"lined": 0, "pointed": 0}
    for rank, normals in _normal_sets(seed=11, count=240):
        gens = dual_generators(normals, rank)
        assert cell_key(gens) == set(gens)
        variant = [_scaled(rng, n) for n in normals]
        variant += rng.sample(normals, len(normals) // 2)
        rng.shuffle(variant)
        assert dual_generators(variant, rank) == gens
        scaled = [_scaled(rng, g) for g in gens]
        rng.shuffle(scaled)
        line = [g for g in gens if tuple(-x for x in g) in gens]
        if not line:
            seen["pointed"] += 1
            assert cell_key(scaled) == frozenset(map(primitive, scaled))
            continue
        seen["lined"] += 1
        basis = [g for g in line if g > tuple(-x for x in g)]
        rays = [g for g in gens if g not in line]
        pm = [*basis, *(tuple(-x for x in b) for b in basis)]
        shifted = [vadd(g, _combination([rng.randint(-2, 2) for _ in basis],
                                        basis, rank)) for g in rays]
        u = _unimodular(rng, len(basis))
        rebased = [_combination(u.row(i), basis, rank) for i in range(u.rows)]
        rebased += [tuple(-x for x in b) for b in rebased]
        for cell in (scaled, pm + shifted, rebased + rays,
                     [_scaled(rng, g) for g in rebased + shifted][::-1]):
            assert cell_key(cell) == set(gens), (rank, gens, cell)
    assert min(seen.values()) >= 60, seen


def _check_poic_new_against_reference(strict_share):
    rng = random.Random(31)
    built = 0
    for rank, normals in _normal_sets(seed=5):
        facets = [(n, rng.random() < strict_share) for n in normals]
        expected = _reference_poic_new(rank, facets)
        try:
            sigma = poic_new(rank, facets)
        except ConeError as exc:
            assert type(exc) is expected, (rank, facets)
            continue
        assert (sigma.facets, sigma.closure_rays) == \
            (expected[0], _canonical(expected[1])), (rank, facets)
        assert cone._minimal(list(sigma.facets), sigma.closure_rays) == \
            _reference_minimal(list(sigma.facets), rank)
        assert cone._closed_facet_normals(sigma) == \
            _reference_closed_facet_normals(sigma)
        built += 1
    assert built >= 100


def test_poic_new_and_closed_facets_match_reference():
    _check_poic_new_against_reference(0.4)


def test_poic_new_with_every_constraint_strict_matches_reference():
    _check_poic_new_against_reference(1.0)


def test_minimality_scan_order_keeps_the_later_strict_normal():
    """Each of x+y > 0 and x+2y > 0 is implied by the other on the closed
    quadrant (both vanish only at the origin); the scan drops the first
    and keeps the second, as the restart scan did."""
    facets = [((1, 0), False), ((0, 1), False), ((1, 1), True),
              ((1, 2), True)]
    sigma = poic_new(2, facets)
    assert ((1, 2), True) in sigma.facets
    assert ((1, 1), True) not in sigma.facets
    assert (sigma.facets, sigma.closure_rays) == _reference_poic_new(2, facets)


def _reference_facets_from_rays(gens, rank):
    """The H-description with a rational solve per dual generator against
    the annihilator columns, as before the memo."""
    gens = [primitive(g) for g in gens if not is_zero_vec(g)]
    if rank == 0:
        return (), ()
    if not gens:
        ann = IntMatrix.identity(rank)
        return (), tuple(ann.row(i) for i in range(rank))
    ann_mat = integer_kernel(IntMatrix.from_rows(gens, rank))
    ann = tuple(ann_mat.row(i) for i in range(ann_mat.rows))
    facets = []
    for a in _reference_dual_generators(gens, rank):
        if ann:
            cols = [tuple(r[j] for r in ann) for j in range(rank)]
            if frac_solve(cols, a) is not None:
                continue
        facets.append(a)
    return tuple(sorted(set(facets))), ann


def _ray_sets(seed=17, count=160):
    """Seeded generator sets in ranks 1-4: arbitrary ones (mostly full
    dimensional) and ones inside a random proper subspace, so that the
    annihilator is nonempty (all zero when the subspace is 0)."""
    rng = random.Random(seed)
    for i in range(count):
        rank = 1 + i % 4
        if i % 2 == 0:
            gens = [_random_normal(rng, rank)
                    for _ in range(rng.randint(0, rank + 3))]
        else:
            basis = [_random_normal(rng, rank)
                     for _ in range(rng.randint(0, rank - 1))]
            gens = [tuple(sum(rng.randint(-2, 2) * b[j] for b in basis)
                          for j in range(rank))
                    for _ in range(rng.randint(1, rank + 2))]
        yield rank, gens


def test_facets_from_rays_matches_reference():
    rng = random.Random(3)
    with_ann = 0
    cases = [(0, []), (0, [()])] + list(_ray_sets())
    for rank, gens in cases:
        variant = [tuple(rng.randint(1, 3) * x for x in g) for g in gens]
        variant += [g for g in gens if rng.random() < 0.5]
        variant += [(0,) * rank]
        rng.shuffle(variant)
        for rays in (gens, variant):
            expected = _reference_facets_from_rays(rays, rank)
            assert facets_from_rays(rays, rank) == expected, (rank, rays)
            assert facets_from_rays(list(rays), rank) == expected
        with_ann += bool(expected[1])
    assert with_ann >= 60


def test_cone_memos_are_bounded():
    for memo in (cone._dual_generators, cone._faces, cone._facets_from_rays,
                 cone._poic_new, intlinalg._smith_normal_form):
        assert memo.cache_info().maxsize is not None
    memo = intlinalg._smith_normal_form
    side = int(intlinalg._SNF_MEMO_CELLS ** 0.5) // 2
    at_cap = IntMatrix.from_rows([[i * side + j + 1 for j in range(side)]
                                  for i in range(side)])
    before = memo.cache_info()
    smith_normal_form(at_cap)
    after = memo.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1
    # one column more is over the cap: plain elimination, memo untouched
    over = IntMatrix.from_rows([[i * side + j + 1 for j in range(side + 1)]
                                for i in range(side)])
    assert smith_normal_form(over) == memo.__wrapped__(over)
    assert memo.cache_info() == after


# ---------------------------------------------------------------------------
# image_face against the faces x faces preimage search it replaced, and, on
# targets with lineality, against closure equality plus face counts

def _reference_face_target(matrix, sigma, xi):
    facet_normals = cone._closed_facet_normals(xi)
    for f in faces(xi):
        if f.dim != sigma.rank:
            continue
        tight_normals = [n for n in facet_normals
                         if all(dot(n, g) == 0 for g in f.gens_key)]

        def in_face(point):
            if any(dot(a, point) != 0 for a in tight_normals):
                return False
            return xi.contains(point)

        ok = all(in_face(matrix.apply(sf.ambient_interior_point()))
                 for sf in faces(sigma))
        if not ok:
            continue
        rows = [tuple(matrix.row(i)) for i in range(matrix.rows)]
        for ff in faces(f.sub):
            pre = frac_solve(rows, f.matrix.apply(ff.ambient_interior_point()))
            if pre is None or not sigma.contains(pre):
                ok = False
                break
        if ok:
            return f
    return None


def _in_closed_cone(points, gens, rank):
    facets, ann = facets_from_rays(list(gens), rank)
    return all(all(dot(n, x) >= 0 for n in facets)
               and all(dot(a, x) == 0 for a in ann) for x in points)


def _oracle_image_face(matrix, sigma, xi):
    """The faces of xi whose closure is the closure of matrix(sigma) and
    which have as many present faces as sigma."""
    image = [matrix.apply(g) for g in sigma.closure_rays]
    return [f for f in faces(xi)
            if _in_closed_cone(image, f.gens_key, xi.rank)
            and _in_closed_cone(f.gens_key, image, xi.rank)
            and len(faces(f.sub)) == len(faces(sigma))]


def _unimodular(rng, n, steps=6):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows, n)


def _face_morphisms(seed, count):
    """Injective morphisms into seeded poics, tagged by whether the closure
    of the domain maps onto the closure of a face: each face re-coordinated
    by a random unimodular matrix and given random extra strictness (True),
    and cones spanned by random nonnegative combinations of the face's
    rays (False)."""
    rng = random.Random(seed)
    for rank, normals in _normal_sets(seed=seed, count=count):
        try:
            xi = poic_new(rank, [(n, rng.random() < 0.3) for n in normals])
        except ConeError:
            continue
        for f in faces(xi):
            u = _unimodular(rng, f.dim)
            try:
                sigma = poic_new(f.dim, [
                    (tuple(dot(n, u.col(j)) for j in range(f.dim)),
                     s or rng.random() < 0.3) for n, s in f.sub.facets])
            except ConeError:
                sigma = None
            if sigma is not None:
                yield True, f.matrix @ u, sigma, xi
            rays = f.sub.closure_rays
            gens = [vadd(g, rng.choice(rays)) if rng.random() < 0.5 else g
                    for g in rays if rng.random() < 0.8]
            try:
                sigma, embed = chart_cone(gens, f.dim, [
                    (n, s or rng.random() < 0.3) for n, s in f.sub.facets])
            except ConeError:
                continue
            yield False, f.matrix @ embed, sigma, xi


def test_image_face_matches_reference_and_oracle():
    seen = {}
    for onto, matrix, sigma, xi in _face_morphisms(seed=7, count=120):
        mor = check_morphism(matrix, sigma, xi)
        assert mor.injective
        face = image_face(matrix, sigma, xi)
        assert mor.face == face
        assert [face] == (_oracle_image_face(matrix, sigma, xi) or [None]), \
            (matrix, sigma, xi)
        if onto and xi.pointed():
            assert face == _reference_face_target(matrix, sigma, xi), \
                (matrix, sigma, xi)
        kind = (onto, xi.pointed(), face is not None)
        seen[kind] = seen.get(kind, 0) + 1
    assert len(seen) == 8 and min(seen.values()) >= 15, seen


def test_narrower_cone_with_a_boundary_witness_is_not_a_face():
    """The closure of sigma is a proper subcone of the face of xi it maps
    into; the preimage of the face's one interior witness still lies on
    the boundary of sigma, which the old per-face witness test accepted."""
    xi = poic_new(3, [((-3, 1, -2), False), ((0, 2, 1), True),
                      ((0, 3, -1), False)])
    sigma = poic_new(2, [((0, -1), False), ((5, 4), False),
                         ((15, 11), True)])
    matrix = IntMatrix.from_rows([[-5, -4], [3, 2], [9, 7]])
    assert _reference_face_target(matrix, sigma, xi) is not None
    mor = check_morphism(matrix, sigma, xi)
    assert mor.injective and mor.face is None and not mor.face_embedding
    assert _oracle_image_face(matrix, sigma, xi) == []


def test_rational_preimage_of_a_zero_row_matrix_has_one_zero_per_column():
    assert rational_preimage(IntMatrix.from_rows([], 3), ()) == (0, 0, 0)
    assert rational_preimage(IntMatrix.from_rows([], 0), ()) == ()
    with pytest.raises(ValueError):
        rational_preimage(IntMatrix.from_rows([], 3), (1,))
    # a chart in Z^0 solves through a 0-row embedding
    poic, embed = chart_cone([()], 0, [])
    assert poic.rank == 0 and (embed.rows, embed.cols) == (0, 0)


# ---------------------------------------------------------------------------
# chart_cone, image_face and faces against the versions they replaced: a
# rational solve per generator for the chart coordinates, a rational
# preimage per ray of the candidate face, and faces visited in rank order

def _reference_chart_cone(gens, rank, ambient):
    gens = list(gens)
    basis = intlinalg.saturation(IntMatrix.from_rows(gens, rank)) if gens \
        else IntMatrix.from_rows([], rank)
    d = basis.rows
    embed = basis.transpose()
    local = [tuple(int(x) for x in rational_preimage(embed, g)) for g in gens]
    facets, _ = facets_from_rays(local, d)
    constraints = [(f, False) for f in facets]
    for n, strict in ambient:
        # a zero pullback stays: poic_new drops 0 >= 0 and rejects 0 > 0
        constraints.append((tuple(dot(n, basis.row(j)) for j in range(d)),
                            strict))
    return poic_new(d, constraints), embed


def _reference_image_face(matrix, sigma, xi):
    key = cone._carrier(matrix.apply(sigma.interior_point()), xi)
    f = next((f for f in faces(xi) if f.gens_key == key), None)
    if f is None or f.dim != sigma.rank:
        return None
    for g in key:
        pre = rational_preimage(matrix, g)
        if pre is None or any(dot(n, pre) < 0 for n in sigma.normals()):
            return None
    if len(faces(f.sub)) != len(faces(sigma)):
        return None
    return f


def _reference_faces(sigma):
    facet_normals = cone._closed_facet_normals(sigma)
    rays = sigma.closure_rays
    seen = {}
    n_facets = len(facet_normals)
    for mask in range(1 << n_facets):
        tight_set = [facet_normals[i] for i in range(n_facets) if mask >> i & 1]
        gens = tuple(g for g in rays
                     if all(dot(a, g) == 0 for a in tight_set))
        if gens not in seen:
            seen[gens] = tight_set
    out = []
    for gens in sorted(seen, key=lambda g: (frac_rank(list(g) or [(0,) * max(sigma.rank, 1)]), g)):
        witness = (0,) * sigma.rank
        for g in gens:
            witness = vadd(witness, g)
        if not all(dot(n, witness) > 0 for n, s in sigma.facets if s):
            continue  # dropped by strictness
        if len(gens) == len(rays):
            # the improper face: sigma itself
            out.append(cone.FaceEmbedding(
                sub=sigma, sup=sigma, matrix=IntMatrix.identity(sigma.rank),
                gens_key=gens))
            continue
        basis = intlinalg.saturation(
            IntMatrix.from_rows(list(gens), sigma.rank)) \
            if gens else IntMatrix.from_rows([], sigma.rank)
        d = basis.rows
        pulled = []
        for n, s in sigma.facets:
            pn = tuple(dot(n, basis.row(j)) for j in range(d))
            if not is_zero_vec(pn):
                pulled.append((pn, s))
        sub = poic_new(d, pulled)
        out.append(cone.FaceEmbedding(sub=sub, sup=sigma,
                                      matrix=basis.transpose(),
                                      gens_key=gens))
    return tuple(sorted(out, key=lambda f: (f.dim, f.gens_key)))


def _outcome(call, *args):
    """A call's result, or the type and message of the ConeError it
    raised."""
    try:
        return call(*args)
    except ConeError as exc:
        return type(exc), str(exc)


def _chart_cases(seed=1616, count=240):
    """Seeded generator lists with ambient constraints: saturated and not,
    with zero vectors, ± pairs (lineality), proper spans, no generators,
    and rank 0."""
    rng = random.Random(seed)
    yield [], 0, []
    yield [()], 0, []
    yield [(0, 0)], 2, [((1, 0), True)]
    yield [(2, 0), (0, 2)], 2, []
    yield [(1, 1), (-1, -1), (2, 0)], 2, [((0, 1), True)]
    for i in range(count):
        rank = 1 + i % 4
        gens = [_random_normal(rng, rank, 2)
                for _ in range(rng.randint(0, rank + 1))]
        if gens and rng.random() < 0.3:
            gens.append(tuple(-x for x in rng.choice(gens)))
        if gens and rng.random() < 0.3:
            k = rng.randint(2, 3)
            gens = [tuple(k * x for x in g) for g in gens]
        if rng.random() < 0.2:
            gens.append((0,) * rank)
        ambient = [(_random_normal(rng, rank), rng.random() < 0.4)
                   for _ in range(rng.randint(0, 2))]
        yield gens, rank, ambient


def test_chart_cone_matches_the_rational_solve():
    kinds = set()
    for gens, rank, ambient in _chart_cases():
        got = _outcome(chart_cone, gens, rank, ambient)
        assert got == _outcome(_reference_chart_cone, gens, rank, ambient), \
            (gens, rank, ambient)
        if isinstance(got[0], Poic):
            kinds.add((got[0].rank < rank, got[0].pointed(),
                       any(s for _, s in got[0].facets)))
    assert len(kinds) >= 6, kinds


def test_image_face_matches_the_rational_preimage_test():
    seen = {}
    for _, matrix, sigma, xi in _face_morphisms(seed=16, count=160):
        face = image_face(matrix, sigma, xi)
        assert face == _reference_image_face(matrix, sigma, xi), \
            (matrix, sigma, xi)
        kind = (xi.pointed(), sigma.rank == 0, face is not None)
        seen[kind] = seen.get(kind, 0) + 1
    assert len(seen) >= 5 and min(seen.values()) >= 3, seen


def test_faces_match_the_rank_ordered_walk():
    from tropocone.moduli import build_moduli
    rng = random.Random(1617)
    cones = []
    for rank, normals in _normal_sets(seed=1617, count=200):
        try:
            cones.append(poic_new(
                rank, [(n, rng.random() < 0.4) for n in normals]))
        except ConeError:
            continue
    for n in (5, 6):
        cones += build_moduli(
            0, [str(i) for i in range(1, n + 1)]).complex.cones.values()
    assert len(cones) > 300
    for sigma in cones:
        assert faces(sigma) == _reference_faces(sigma), sigma


def _reference_pointed(sigma):
    """Pointedness as the vanishing integer kernel of the facet normals."""
    if not sigma.facets:
        return sigma.rank == 0
    return integer_kernel(
        IntMatrix.from_rows(sigma.normals(), sigma.rank)).rows == 0


def test_pointed_from_closure_rays_matches_the_kernel_rule():
    """On the rank-0 cone and the seeded poics of ranks 1-4, reading
    pointedness from ± pairs of closure rays agrees with the kernel
    rule; both answers occur often."""
    rng = random.Random(404)
    sigmas = [poic_new(0, [])]
    for seed in (5, 6, 7):
        for rank, normals in _normal_sets(seed=seed):
            try:
                sigmas.append(poic_new(rank, [(n, rng.random() < 0.4)
                                              for n in normals]))
            except ConeError:
                continue
    answers = [sigma.pointed() for sigma in sigmas]
    assert answers == [_reference_pointed(sigma) for sigma in sigmas]
    assert min(answers.count(True), answers.count(False)) >= 50
