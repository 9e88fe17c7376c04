import random

import pytest

from tropocone import cone
from tropocone.cone import (
    ConeError,
    EmptyCone,
    NotFullDimensional,
    NotIntoCodomain,
    Poic,
    check_morphism,
    dual_generators,
    faces,
    facets_from_rays,
    poic_equal_sets,
    poic_new,
    poic_subset,
    product,
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


def test_strict_feasible_witness():
    w = strict_feasible([((1, 0), False), ((0, 1), True)], 2)
    assert w is not None and w[1] > 0 and w[0] >= 0
    assert strict_feasible([((1, 0), True), ((-1, 0), False)], 2) is None


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


def test_dual_generators_matches_reference():
    lineality_cases = 0
    for rank, normals in _normal_sets():
        assert dual_generators(normals, rank) == \
            _reference_dual_generators(normals, rank), (rank, normals)
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
        assert _reference_dual_generators(variant, rank) == base


def test_poic_new_and_closed_facets_match_reference():
    rng = random.Random(31)
    built = 0
    for rank, normals in _normal_sets(seed=5):
        facets = [(n, rng.random() < 0.4) for n in normals]
        expected = _reference_poic_new(rank, facets)
        try:
            sigma = poic_new(rank, facets)
        except ConeError as exc:
            assert type(exc) is expected, (rank, facets)
            continue
        assert (sigma.facets, sigma.closure_rays) == expected, (rank, facets)
        assert cone._minimal(list(sigma.facets), rank) == \
            _reference_minimal(list(sigma.facets), rank)
        assert cone._closed_facet_normals(sigma) == \
            _reference_closed_facet_normals(sigma)
        built += 1
    assert built >= 100


def test_cone_memos_are_bounded():
    for memo in (cone._dual_generators, cone._faces):
        assert memo.cache_info().maxsize is not None
