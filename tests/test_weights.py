import math
import random
import resource
import subprocess
import sys
from math import comb

import pytest

from tropocone import fibration
from tropocone.cone import facets_from_rays, poic_new
from tropocone.complexes import (
    LinearStructure,
    complex_new,
    product_complex,
    product_linear,
    relint_complex,
    single_cone_complex,
    star1,
)
from tropocone.fibration import (
    Fibration,
    compatible_refinement,
    equivariant_basis,
)
from tropocone.intlinalg import (
    IntMatrix,
    hermite_row_basis,
    integer_kernel,
    primitive,
)
from tropocone.moduli import build_moduli
from tropocone.spaces import space_new
from tropocone.stfib import spanning_tree_fibration
from tropocone.subdivision import identity_subdivision, refine_by_walls
from tropocone.weights import (
    BadCodimension,
    Weight,
    WeightLattice,
    _quotient_at,
    cross_product,
    extend_by_zero,
    is_balanced,
    is_balanced_at,
    is_irreducible,
    minkowski_basis,
    normal_vector,
    normal_vector_lift,
)


def quadrant_complex_with_identity():
    phi = single_cone_complex(
        poic_new(2, [((1, 0), False), ((0, 1), False)]), "q")
    top = phi.classes(2)[0]
    maps = {top: IntMatrix.identity(2)}
    for p in phi.ids():
        if p != top:
            maps[p] = maps[top] @ phi.facemap(p, top)
    return phi, LinearStructure(2, maps)


def fan3_complex():
    """Three rays (1,0), (0,1), (-1,-1) from the origin, embedded in Z^2."""
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


def torsion_complex():
    """One shared open ray under two half-open 2-cones; X_s has index 2."""
    wedge = poic_new(2, [((1, 0), True), ((0, 1), False)])
    sray = poic_new(1, [((1,), True)])
    cones = {"s": sray, "t1": wedge, "t2": wedge}
    order = {("s", "t1"), ("s", "t2")}
    fmaps = {k: IntMatrix.from_cols([(1, 0)]) for k in order}
    phi = complex_new(cones, order, fmaps)
    lin = LinearStructure(1, {
        "s": IntMatrix.from_rows([[2]]),
        "t1": IntMatrix.from_rows([[2, 1]]),
        "t2": IntMatrix.from_rows([[2, -1]]),
    })
    return phi, lin


def test_normal_vector_signs_in_quadrant():
    phi, lin = quadrant_complex_with_identity()
    xray = next(p for p in phi.classes(1)
                if phi.cones[p].closure_rays and
                lin.maps[p].col(0) == (1, 0))
    top = phi.classes(2)[0]
    u = normal_vector(phi, lin, xray, top)
    assert u.torsion == ()
    assert u.free in ((1,), (-1,))
    # the lift points to the y>0 side
    assert u.lift[1] > 0


def test_normal_vector_opposite_side():
    # both abstract cones are the standard quadrant; "dn" is embedded in
    # N_X as the lower half-quadrant via its lattice map
    upper = poic_new(2, [((1, 0), False), ((0, 1), False)])
    ray = poic_new(1, [((1,), False)])
    origin = poic_new(0, [])
    cones = {"o": origin, "s": ray, "up": upper, "dn": upper,
             "ry": ray, "rydn": ray}
    inc = IntMatrix.from_cols([(1, 0)])
    yinc = IntMatrix.from_cols([(0, 1)])
    order = {("o", "s"), ("o", "up"), ("o", "dn"), ("s", "up"), ("s", "dn"),
             ("o", "ry"), ("ry", "up"), ("o", "rydn"), ("rydn", "dn")}
    fmaps = {("o", "s"): IntMatrix(1, 0, ()),
             ("o", "up"): IntMatrix(2, 0, ()),
             ("o", "dn"): IntMatrix(2, 0, ()),
             ("o", "ry"): IntMatrix(1, 0, ()),
             ("o", "rydn"): IntMatrix(1, 0, ()),
             ("s", "up"): inc, ("s", "dn"): inc,
             ("ry", "up"): yinc, ("rydn", "dn"): yinc}
    phi = complex_new(cones, order, fmaps)
    lin = LinearStructure(2, {
        "o": IntMatrix(2, 0, ()), "s": IntMatrix.from_cols([(1, 0)]),
        "ry": IntMatrix.from_cols([(0, 1)]),
        "rydn": IntMatrix.from_cols([(0, -1)]),
        "up": IntMatrix.identity(2),
        "dn": IntMatrix.from_cols([(1, 0), (0, -1)]),
    })
    u_up = normal_vector(phi, lin, "s", "up")
    u_dn = normal_vector(phi, lin, "s", "dn")
    assert u_up.free == tuple(-x for x in u_dn.free)
    # constant weight 1 balances at s: (0,1) + (0,-1) = 0
    w = Weight(2, {"up": 1, "dn": 1})
    flag, lam = is_balanced_at(phi, lin, w, "s")
    assert flag and lam is not None


def test_balancing_fan3():
    phi, lin = fan3_complex()
    ones = Weight(1, {"r1": 1, "r2": 1, "r3": 1})
    flag, lam = is_balanced_at(phi, lin, ones, "o")
    assert flag and lam == ()
    bad = Weight(1, {"r1": 1, "r2": 2, "r3": 1})
    flag, lam = is_balanced_at(phi, lin, bad, "o")
    assert not flag and lam is None


def test_balancing_vacuous_empty_star():
    phi, lin = fan3_complex()
    w = Weight(1, {})
    # a complex where the 0-cone has empty star: take only the origin
    from tropocone.complexes import subcomplex
    sub = subcomplex(phi, ["o"])
    from tropocone.complexes import restrict_linear
    flag, _ = is_balanced_at(sub, restrict_linear(lin, ["o"]), w, "o")
    assert flag


def test_minkowski_basis_fan3():
    phi, lin = fan3_complex()
    lat = minkowski_basis(phi, lin, 1)
    assert lat.rank == 1
    gen = lat.basis[0]
    vals = {gen["r1"], gen["r2"], gen["r3"]}
    assert vals in ({1}, {-1})


def test_minkowski_basis_single_open_cone():
    sigma = poic_new(2, [((1, 0), True), ((0, 1), True)])
    phi = relint_complex(sigma, "c")
    lin = LinearStructure(2, {"c": IntMatrix.identity(2)})
    lat = minkowski_basis(phi, lin, 2)
    assert lat.rank == 1


def test_minkowski_basis_quadrant_identity_rank0():
    phi, lin = quadrant_complex_with_identity()
    lat = minkowski_basis(phi, lin, 1)
    assert lat.rank == 0


def test_minkowski_with_torsion():
    phi, lin = torsion_complex()
    ok, _ = is_balanced_at(phi, lin, Weight(2, {"t1": 1, "t2": 1}), "s")
    assert ok
    ok, _ = is_balanced_at(phi, lin, Weight(2, {"t1": 1, "t2": 3}), "s")
    assert ok
    ok, _ = is_balanced_at(phi, lin, Weight(2, {"t1": 1, "t2": 2}), "s")
    assert not ok
    lat = minkowski_basis(phi, lin, 2)
    assert lat.rank == 2
    for b in lat.basis:
        assert (b["t1"] - b["t2"]) % 2 == 0


def test_minkowski_basis_members_balanced_and_combinations():
    phi, lin = fan3_complex()
    lat = minkowski_basis(phi, lin, 1)
    for b in lat.basis:
        assert is_balanced(phi, lin, b)
    combo = lat.basis[0].scaled(7)
    assert is_balanced(phi, lin, combo)


def test_cross_product_bilinear_and_balanced():
    phi, lin = fan3_complex()
    ray = relint_complex(poic_new(1, [((1,), True)]), "r")
    ray_lin = LinearStructure(1, {"r": IntMatrix.identity(1)})
    prod, pairs = product_complex(phi, ray)
    plin = product_linear(phi, lin, ray, ray_lin, pairs)
    omega = minkowski_basis(phi, lin, 1).basis[0]
    eta = Weight(1, {"r": 1})
    w = cross_product(omega, eta, pairs)
    assert w.dim == 2
    assert is_balanced(prod, plin, w)
    # bilinearity
    w2 = cross_product(omega.scaled(2), eta, pairs)
    assert w2.values == w.scaled(2).values
    zero = cross_product(omega, Weight(1, {}), pairs)
    assert zero.nonzero() == {}


def test_extend_by_zero():
    phi, lin = fan3_complex()
    w = Weight(1, {"r1": 5})
    out = extend_by_zero(phi, ["o", "r1"], w)
    assert out["r1"] == 5 and out["r2"] == 0


def test_is_irreducible():
    phi, lin = fan3_complex()
    assert is_irreducible(phi, lin)
    # disjoint union of two open rays: rank 2, not irreducible
    r = poic_new(1, [((1,), True)])
    phi2 = complex_new({"a": r, "b": r}, set(), {})
    lin2 = LinearStructure(1, {"a": IntMatrix.identity(1),
                               "b": IntMatrix.identity(1)})
    assert not is_irreducible(phi2, lin2)


def test_bad_codimension():
    phi, lin = fan3_complex()
    with pytest.raises(BadCodimension):
        normal_vector_lift(phi, lin, "r1", "r2")


def test_product_of_irreducibles_is_irreducible():
    # the cross product of generators spans the top lattice of the product
    phi, lin = fan3_complex()
    ray = relint_complex(poic_new(1, [((1,), True)]), "r")
    ray_lin = LinearStructure(1, {"r": IntMatrix.identity(1)})
    assert is_irreducible(phi, lin)
    assert is_irreducible(ray, ray_lin)
    prod, pairs = product_complex(phi, ray)
    plin = product_linear(phi, lin, ray, ray_lin, pairs)
    lat = minkowski_basis(prod, plin, 2)
    assert lat.rank == 1
    # the generator is the cross product of the factor generators, up to sign
    omega = minkowski_basis(phi, lin, 1).basis[0]
    cross = cross_product(omega, Weight(1, {"r": 1}), pairs)
    gen = lat.basis[0]
    assert gen.values == cross.values \
        or gen.values == cross.scaled(-1).values


def _keel_betti(n):
    """Even Betti numbers b_0, b_2, ... of M̄_0,n from Keel's recursion
    (Trans. AMS 330, 1992) for the Poincaré polynomials, P_3 = 1 and
    P_{m+1} = (1 + q) P_m + q/2 sum_{j=2}^{m-2} C(m, j) P_{j+1} P_{m-j+1}."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    polys = {3: [1]}
    for m in range(3, n):
        total = mul([1, 1], polys[m])
        twice = [0] * len(total)   # the sum is symmetric in j <-> m - j
        for j in range(2, m - 1):
            for i, c in enumerate(mul(polys[j + 1], polys[m - j + 1])):
                twice[i + 1] += comb(m, j) * c
        assert all(c % 2 == 0 for c in twice)
        polys[m + 1] = [a + b // 2 for a, b in zip(total, twice)]
    return polys[n]


@pytest.mark.parametrize("n", [5, 6])
def test_minkowski_ranks_of_m0n_are_keel_betti_numbers(n):
    """MW_k(M_0,n) is the Chow group A^{n-3-k}(M̄_0,n) (Fulton-Sturmfels,
    Gibney-Maclagan), so its rank is the Betti number b_{2(n-3-k)}."""
    m = build_moduli(0, [str(i) for i in range(1, n + 1)])
    betti = _keel_betti(n)
    assert sum(betti) == {5: 7, 6: 34}[n]   # Euler characteristic
    ranks = [minkowski_basis(m.complex, m.linear, k).rank
             for k in range(n - 2)]
    assert ranks == [betti[n - 3 - k] for k in range(n - 2)]


def test_minkowski_ranks_of_m07_are_keel_betti_numbers_within_one_gib():
    """MW_0, MW_1 and MW_2 of M_0,7 (ranks 1, 42, 127; Keel's b_8, b_6,
    b_4) under a 1 GiB address-space limit."""
    assert _keel_betti(7) == [1, 42, 127, 42, 1]
    code = ("from tropocone.moduli import build_moduli\n"
            "from tropocone.weights import minkowski_basis\n"
            "m = build_moduli(0, [str(i) for i in range(1, 8)])\n"
            "print([minkowski_basis(m.complex, m.linear, k).rank"
            " for k in range(3)])\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[1, 42, 127]"


def test_minkowski_ranks_of_m07_in_codimension_three_and_four_within_one_gib():
    """MW_3 and MW_4 of M_0,7 (ranks 42 and 1; Keel's b_2 and b_0) under
    a 1 GiB address-space limit."""
    code = ("from tropocone.moduli import build_moduli\n"
            "from tropocone.weights import minkowski_basis\n"
            "m = build_moduli(0, [str(i) for i in range(1, 8)])\n"
            "print([minkowski_basis(m.complex, m.linear, k).rank"
            " for k in (3, 4)])\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[42, 1]"


def _limit_address_space():
    gib = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (gib, gib))


def _reference_stacked_balancing_system(phi, lin, k, extra_rows=None):
    """Integer matrix whose kernel (projected to the weight block) is the
    Minkowski-weight lattice M_k."""
    classes = phi.classes(k)
    col_of = {t: i for i, t in enumerate(classes)}
    lower = phi.classes(k - 1) if k >= 1 else []
    aux_offset = {}
    ncols = len(classes)
    for s in lower:
        aux_offset[s] = ncols
        ncols += phi.dim(s)
    rows = []
    for s in lower:
        lifts = {t: normal_vector_lift(phi, lin, s, t) for t in star1(phi, s)}
        xs = lin.maps[s]
        for i in range(lin.target_rank):
            row = [0] * ncols
            for t, lift in lifts.items():
                row[col_of[t]] += lift[i]
            for j in range(phi.dim(s)):
                row[aux_offset[s] + j] -= xs.entry(i, j)
            rows.append(row)
    if extra_rows:
        for r in extra_rows:
            rows.append(list(r) + [0] * (ncols - len(classes)))
    return IntMatrix.from_rows(rows, ncols), classes


def _reference_minkowski_basis(phi, lin, k, extra_rows=None):
    """The stacked-kernel minkowski_basis that the quotient-coordinate HNF
    replaced, kept verbatim: auxiliary unknowns for X_s(N^s), one integer
    kernel, and an HNF of its projection to the weight block."""
    classes = phi.classes(k)
    if not classes:
        return WeightLattice(dim=k, basis=())
    system, classes = _reference_stacked_balancing_system(
        phi, lin, k, extra_rows)
    if system.rows == 0:
        gens = IntMatrix.identity(len(classes))
    else:
        kern = integer_kernel(system)
        proj = [kern.row(i)[:len(classes)] for i in range(kern.rows)]
        gens = hermite_row_basis(IntMatrix.from_rows(proj, len(classes)))
    basis = []
    for i in range(gens.rows):
        row = gens.row(i)
        basis.append(Weight(k, {t: row[j] for j, t in enumerate(classes)
                                if row[j] != 0}))
    return WeightLattice(dim=k, basis=tuple(basis))


def _assert_matches_reference(phi, lin, k, extra_rows=None):
    got = minkowski_basis(phi, lin, k, extra_rows)
    ref = _reference_minkowski_basis(phi, lin, k, extra_rows)
    assert got == ref, (k, got, ref)
    assert [list(w.values) for w in got.basis] \
        == [list(w.values) for w in ref.basis]
    return got


def _seeded_fan(rng):
    """A complete fan in Z^2 (closed cones, coordinate rays plus up to two
    more) embedded by a seeded matrix of determinant 1, 2 or 3, so the
    quotients at the rays may carry torsion."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for _ in range(2):
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if v != (0, 0):
            rays.add(primitive(v))
    rays = sorted(rays, key=lambda r: math.atan2(r[1], r[0]))
    a = IntMatrix.from_rows([[rng.randint(1, 3), rng.randint(-2, 2)],
                             [0, 1]])
    ray = poic_new(1, [((1,), False)])
    cones = {"o": poic_new(0, [])}
    fmaps = {}
    maps = {"o": IntMatrix(2, 0, ())}
    for i, r in enumerate(rays):
        cones[f"r{i}"] = ray
        fmaps[("o", f"r{i}")] = IntMatrix(1, 0, ())
        maps[f"r{i}"] = a @ IntMatrix.from_cols([r])
    for j in range(len(rays)):
        pair = (rays[j], rays[(j + 1) % len(rays)])
        facets, _ = facets_from_rays(list(pair), 2)
        cones[f"c{j}"] = poic_new(2, [(f, False) for f in facets])
        fmaps[("o", f"c{j}")] = IntMatrix(2, 0, ())
        maps[f"c{j}"] = a
        for i in (j, (j + 1) % len(rays)):
            fmaps[(f"r{i}", f"c{j}")] = IntMatrix.from_cols([rays[i]])
    return complex_new(cones, set(fmaps), fmaps), LinearStructure(2, maps)


def _swap_quadrant():
    """Two copies of the open quadrant over one, with the coordinate swap."""
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


@pytest.mark.parametrize("n", [5, 6])
def test_minkowski_basis_matches_reference_on_m0n(n):
    m = build_moduli(0, [str(i) for i in range(1, n + 1)])
    ranks = [_assert_matches_reference(m.complex, m.linear, k).rank
             for k in range(n - 1)]
    assert ranks[-1] == 0 and ranks[0] == 1


def test_minkowski_basis_matches_reference_with_torsion_and_fans():
    phi, lin = torsion_complex()
    for k in range(4):
        _assert_matches_reference(phi, lin, k)
    assert _assert_matches_reference(phi, lin, 2).rank == 2
    rng = random.Random(1919)
    torsion = 0
    for _ in range(12):
        phi, lin = _seeded_fan(rng)
        torsion += any(_quotient_at(phi, lin, s).torsion_factors
                       for s in phi.classes(1))
        for k in range(4):
            _assert_matches_reference(phi, lin, k)
    assert torsion >= 3
    fan, fan_lin = fan3_complex()
    ray = relint_complex(poic_new(1, [((1,), True)]), "r")
    ray_lin = LinearStructure(1, {"r": IntMatrix.identity(1)})
    prod, pairs = product_complex(fan, ray)
    plin = product_linear(fan, fan_lin, ray, ray_lin, pairs)
    for k in range(4):
        _assert_matches_reference(prod, plin, k)


def test_equivariant_systems_match_reference(monkeypatch):
    """equivariant_basis passes its stability rows as extra_rows; every
    such system, on st(1,{a,b}), st(2,∅) and a refined swap quadrant,
    gives the reference lattice."""
    calls = []

    def both(phi, lin, k, extra_rows=None):
        calls.append(len(extra_rows or ()))
        return _assert_matches_reference(phi, lin, k, extra_rows)

    monkeypatch.setattr(fibration, "minkowski_basis", both)
    cases = []
    for g, labels in ((1, ["a", "b"]), (2, [])):
        fib = spanning_tree_fibration(g, labels).fibration
        cases.append((fib, identity_subdivision(fib.complex)))
    swap = _swap_quadrant()
    cases.append((swap, compatible_refinement(
        swap, refine_by_walls(swap.complex, {"c1": [(1, -2)]}))))
    for fib, sub in cases:
        for k in range(sub.source.max_dim() + 1):
            equivariant_basis(fib, k, sub)
    assert len(calls) >= 9 and sum(calls) > 0
