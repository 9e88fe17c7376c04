"""Seeded inputs, items and per-item oracles of the three workloads.

Every input is generated here from the run's seed; the library only ever
receives the generated data.  An item returns ``(checks, output)``: its
named oracle verdicts, and a function building the JSON document of its
result, which the worker serialises with ``tropocone.io_json`` outside the
timed and traced region and hashes.
"""

from __future__ import annotations

import math
import random
import string

FAN_PROPERTIES = ("a", "e", "c", "d")
MODULI_MARKS = 5         # moduli-cli builds M_0,5
EXTRA_RAYS = (0, 1)      # the fans have the four axes and this many more rays
WEIGHT_COEFFS = 8        # per-case coefficients drawn for a weight combination
# a wall of the quadrant that swapping the coordinates does not fix
WALL = (1, -2)


# ---------------------------------------------------------------------------
# input generation (pure data, no library calls)

def mark_names(seed):
    """Distinct mark names for the moduli-cli job."""
    rng = random.Random(f"moduli-cli/{seed}")
    names = set()
    while len(names) < MODULI_MARKS:
        size = rng.randint(1, 3)
        names.add("".join(rng.choice(string.ascii_lowercase)
                          for _ in range(size)))
    return sorted(names)


def _primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _fan_rays(rng, extras):
    """Rays of a complete fan in Z^2: the four axes plus ``extras``
    distinct random primitive rays, in angular order."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    while len(rays) < 4 + extras:
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if v != (0, 0):
            rays.add(_primitive(v))
    return sorted(rays, key=lambda r: math.atan2(r[1], r[0]))


def _coeffs(rng):
    return [rng.randint(-3, 3) for _ in range(WEIGHT_COEFFS)]


# the eight signed permutations of the coordinates of Z^2
SQUARE_SYMMETRIES = tuple(
    ((sx, 0), (0, sy)) if keep else ((0, sx), (sy, 0))
    for keep in (True, False) for sx in (1, -1) for sy in (1, -1))


def _apply(g, v):
    return (g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1])


def _master_round(rng):
    """The case shapes of a fans job, stratified over what the cost depends
    on: one case of each property (a), (e), (c), (d) per number of extra
    rays, (a) taking a stellar subdivision on the axes-only fans and the
    ord subdivision on the others."""
    shapes = []
    for extras in EXTRA_RAYS:
        for prop in FAN_PROPERTIES:
            rays = _fan_rays(rng, extras)
            shape = {"property": prop, "rays": rays}
            if prop == "a":
                j = rng.randrange(len(rays))
                shape["kind"] = extras        # 0: stellar, 1: ord
                shape["top"] = (rays[j], rays[(j + 1) % len(rays)])
                shape["ab"] = (rng.randint(1, 3), rng.randint(1, 3))
            elif prop == "c":
                while True:
                    m = [[rng.randint(-2, 2) for _ in range(2)]
                         for _ in range(2)]
                    if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
                        break
                shape["map"] = m
            shapes.append(shape)
    return shapes


def fan_cases(seed, shapes):
    """The criterion-6 cases of the fans job.

    Every seed runs the same fixed master shapes, so that the cost of a
    job hardly depends on the seed.  The seed moves each fan by its own
    symmetry of the square lattice (the map of (c) is composed with the
    inverse, so its image fan is unchanged) and draws the weight
    coefficients and the ray weight of (d).
    """
    rng = random.Random(f"fans/{seed}")
    cases = []
    for shape in shapes:
        g = rng.choice(SQUARE_SYMMETRIES)
        rays = sorted((_apply(g, r) for r in shape["rays"]),
                      key=lambda r: math.atan2(r[1], r[0]))
        case = {"property": shape["property"], "rays": rays,
                "coeffs": _coeffs(rng), "eta": rng.randint(-3, 3)}
        if "top" in shape:
            ends = {_apply(g, r) for r in shape["top"]}
            case["top"] = next(
                j for j in range(len(rays))
                if {rays[j], rays[(j + 1) % len(rays)]} == ends)
            case["kind"], case["ab"] = shape["kind"], shape["ab"]
        if "map" in shape:
            # g is orthogonal, so its inverse is its transpose
            m = shape["map"]
            case["map"] = [[sum(m[i][k] * g[j][k] for k in range(2))
                            for j in range(2)] for i in range(2)]
        cases.append(case)
    return cases


def wall_copy(seed):
    """The copy of the quadrant that the refinement item cuts by WALL,
    chosen by the seed.  The two choices are exchanged by renaming the
    copies, so they cost the same; other walls cost up to a quarter more."""
    return random.Random(f"fibration/{seed}").choice(("c1", "c2"))


def generate(workload, seed):
    """The inputs of the run's job (the benchmark's share of set-up)."""
    if workload == "moduli-cli":
        return mark_names(seed)
    if workload == "fans":
        return fan_cases(seed, _master_round(random.Random("fans/master")))
    if workload == "fibration":
        return wall_copy(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# fans: criterion-6 subdivision-calculus properties on complete fans in Z^2

def _fan_complex(rays):
    """Closed complete fan with consecutive 2-cones, and its embedding."""
    from tropocone.complexes import LinearStructure, complex_new
    from tropocone.cone import facets_from_rays, poic_new
    from tropocone.intlinalg import IntMatrix
    maps = {"o": IntMatrix(2, 0, ())}
    objs = {"o": poic_new(0, [])}
    order, fmaps = set(), {}
    for i, r in enumerate(rays):
        rid = f"r{i}"
        objs[rid] = poic_new(1, [((1,), False)])
        maps[rid] = IntMatrix.from_cols([r])
        order.add(("o", rid))
        fmaps[("o", rid)] = IntMatrix(1, 0, ())
    for j in range(len(rays)):
        a, b = j, (j + 1) % len(rays)
        cid = f"c{j}"
        facets, _ = facets_from_rays([rays[a], rays[b]], 2)
        objs[cid] = poic_new(2, [(f, False) for f in facets])
        maps[cid] = IntMatrix.identity(2)
        order.add(("o", cid))
        fmaps[("o", cid)] = IntMatrix(2, 0, ())
        for k in (a, b):
            order.add((f"r{k}", cid))
            fmaps[(f"r{k}", cid)] = IntMatrix.from_cols([rays[k]])
    return complex_new(objs, order, fmaps), LinearStructure(2, maps)


def _balanced_weight(phi, lin, coeffs):
    """The combination of the 1-weight lattice basis with the case's
    coefficients."""
    from tropocone.weights import Weight, minkowski_basis
    lat = minkowski_basis(phi, lin, 1)
    if lat.rank > len(coeffs):
        raise ValueError(f"weight lattice rank {lat.rank} exceeds the "
                         f"{len(coeffs)} generated coefficients")
    w = Weight(1, {})
    for b, c in zip(lat.basis, coeffs):
        w = w.plus(b.scaled(c))
    return w


def fan_item(case):
    from tropocone import io_json
    from tropocone.complexes import LinearStructure
    from tropocone.subdivision import (identity_subdivision,
                                       ord_subdivision, stellar,
                                       validate_subdivision)
    from tropocone.weights import is_balanced, pullback
    phi, lin = _fan_complex(case["rays"])
    prop = case["property"]
    if prop == "a":
        # engine subdivisions validate; pullback keeps balancing
        if case["kind"] == 0:
            top = f"c{case['top']}"
            g1, g2 = phi.cones[top].closure_rays[:2]
            a, b = case["ab"]
            sub = stellar(phi, top, _primitive(
                tuple(a * x + b * y for x, y in zip(g1, g2))))
        elif case["kind"] == 1:
            sub = ord_subdivision(phi)
        else:
            sub = identity_subdivision(phi)
        rep = validate_subdivision(sub)
        pulled = pullback(sub, _balanced_weight(phi, lin, case["coeffs"]))
        lin_sub = LinearStructure(2, {
            p: lin.maps[sub.cone_map[p]] @ sub.matrices[p]
            for p in sub.source.ids()})
        checks = {"subdivision_valid": rep.ok,
                  "pullback_balanced": is_balanced(sub.source, lin_sub,
                                                   pulled)}
        return checks, lambda: {
            "subdivision": io_json.subdivision_to_json(sub),
            "weight": io_json.weight_to_json(pulled)}
    if prop == "e":
        # ord cone counts equal chain counts
        sub = ord_subdivision(phi)
        nontrivial = [p for p in phi.ids() if phi.dim(p) > 0]
        chains = (len(nontrivial),
                  sum(1 for p in nontrivial for q in phi.above(p)
                      if phi.dim(q) > 0))
        got = tuple(sum(1 for p in sub.source.ids()
                        if sub.source.dim(p) == d) for d in (1, 2))
        return {"ord_counts_match_chains": got == chains}, lambda: {
            "subdivision": io_json.subdivision_to_json(sub)}
    if prop == "c":
        # pushforward through an invertible map to the plane, on the
        # P-fine refinement
        from tropocone.complexes import relint_complex
        from tropocone.cone import poic_new
        from tropocone.intlinalg import IntMatrix
        from tropocone.subdivision import (ComplexMorphism,
                                           is_weakly_proper,
                                           pfine_refinement, pushforward,
                                           validate_complex_morphism)
        plane = relint_complex(poic_new(2, []), "P")
        m = IntMatrix.from_rows(case["map"])
        mor = ComplexMorphism(
            source=phi, target=plane, cone_map={p: "P" for p in phi.ids()},
            matrices={p: m @ lin.maps[p] for p in phi.ids()})
        validate_complex_morphism(mor)
        proper, _ = is_weakly_proper(mor)
        fine = pfine_refinement(mor)
        rep = validate_subdivision(fine)
        out = pushforward(mor, fine,
                          _balanced_weight(phi, lin, case["coeffs"]), 1)
        checks = {"weakly_proper": proper,
                  "refinement_valid": rep.ok,
                  "pushforward_balanced": is_balanced(
                      fine.source, LinearStructure(2, dict(fine.matrices)),
                      out)}
        return checks, lambda: {
            "subdivision": io_json.subdivision_to_json(fine),
            "weight": io_json.weight_to_json(out)}
    # (d) cross products with a ray stay balanced
    from tropocone.complexes import (product_complex, product_linear,
                                     relint_complex)
    from tropocone.cone import poic_new
    from tropocone.intlinalg import IntMatrix
    from tropocone.weights import Weight, cross_product
    ray = relint_complex(poic_new(1, [((1,), True)]), "r")
    ray_lin = LinearStructure(1, {"r": IntMatrix.identity(1)})
    prod, pairs = product_complex(phi, ray)
    plin = product_linear(phi, lin, ray, ray_lin, pairs)
    w = cross_product(_balanced_weight(phi, lin, case["coeffs"]),
                      Weight(1, {"r": case["eta"]}), pairs)
    return {"cross_product_balanced": is_balanced(prod, plin, w)}, \
        lambda: {"product": io_json.complex_to_json(prod, plin),
                 "weight": io_json.weight_to_json(w)}


def fan_items(cases):
    for i, case in enumerate(cases):
        yield f"{case['property']}{i // len(FAN_PROPERTIES)}", \
            (lambda c=case: fan_item(c))


# ---------------------------------------------------------------------------
# fibration: one genus>0 library session

def _st_item(g, labels):
    from tropocone import io_json
    from tropocone.fibration import equivariant_basis, validate_fibration
    from tropocone.stfib import spanning_tree_fibration
    from tropocone.subdivision import identity_subdivision
    st = spanning_tree_fibration(g, labels)
    rep = validate_fibration(st.fibration)
    top = st.complex.max_dim()
    lat = equivariant_basis(st.fibration, top,
                            identity_subdivision(st.complex))
    checks = {"fibration_valid": rep.ok, "equivariant_top_rank_1":
              lat.rank == 1}
    return checks, lambda: {
        "valid": rep.ok, "issues": rep.issues, "pure_dimension": top,
        "basis": [io_json.weight_to_json(w) for w in lat.basis]}


def _forget_item(g, labels, mark):
    from tropocone.stfib import forgetful, space_iso_lifting
    from tropocone.subdivision import is_weakly_proper
    fm = forgetful(g, labels, mark)
    proper, _ = is_weakly_proper(fm.complex_morphism())
    lift, _ = space_iso_lifting(fm)
    return {"weakly_proper": proper}, lambda: {
        "weakly_proper": proper, "space_iso_lifting": lift,
        "cone_map": dict(sorted(fm.cone_map.items()))}


def _clutch_item(g, labels_a, h, labels_b):
    from tropocone.stfib import clutching
    from tropocone.subdivision import is_weakly_proper
    cm = clutching(g, labels_a, h, labels_b)
    mor = cm.complex_morphism()
    proper, _ = is_weakly_proper(mor)
    return {"weakly_proper": proper}, lambda: {
        "weakly_proper": proper,
        "source_cones": len(mor.source.ids()),
        "target_cones": len(mor.target.ids()),
        "cone_map": dict(sorted(cm.cone_map.items()))}


def _swap_example():
    """Two copies of the open quadrant over one quadrant with Z/2 swapping
    the coordinates (the two-dimensional form of the working example)."""
    from tropocone.complexes import LinearStructure, complex_new
    from tropocone.cone import poic_new
    from tropocone.fibration import Fibration
    from tropocone.intlinalg import IntMatrix
    from tropocone.spaces import space_new
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


def _refine_item(copy):
    from tropocone import io_json
    from tropocone.fibration import compatible_refinement, is_pi_compatible
    from tropocone.subdivision import refine_by_walls
    fib = _swap_example()
    split = refine_by_walls(fib.complex, {copy: [WALL]})
    before, _ = is_pi_compatible(fib, split)
    out = compatible_refinement(fib, split)
    after, _ = is_pi_compatible(fib, out)
    return {"asymmetric_wall_not_compatible": not before,
            "pi_compatible_after_refinement": after}, lambda: {
        "subdivision": io_json.subdivision_to_json(out)}


def fibration_items(copy):
    yield "st_2", lambda: _st_item(2, [])
    yield "forget_1_ab_a", lambda: _forget_item(1, ["a", "b"], "a")
    yield "forget_0_a123_a", lambda: _forget_item(0, ["a", "1", "2", "3"], "a")
    yield "clutch_012c_034c", \
        lambda: _clutch_item(0, ["1", "2", "c"], 0, ["3", "4", "c"])
    yield "clutch_0123c_045c", \
        lambda: _clutch_item(0, ["1", "2", "3", "c"], 0, ["4", "5", "c"])
    yield f"refine_{copy}", lambda: _refine_item(copy)


def job_items(workload, inputs):
    """(name, item) pairs of the in-process job."""
    if workload == "fans":
        return list(fan_items(inputs))
    if workload == "fibration":
        return list(fibration_items(inputs))
    raise ValueError(f"{workload!r} has no in-process jobs")


# ---------------------------------------------------------------------------
# moduli-cli: oracles on the two command outputs

def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


MODULI_CONES = 26    # OEIS A000311 at n = MODULI_MARKS


def check_moduli(doc):
    ranks = [int(c["rank"]) for c in doc["cones"]]
    top = MODULI_MARKS - 3
    return {"cones_a000311": len(ranks) == MODULI_CONES,
            "top_cones_double_factorial": max(ranks) == top and
                ranks.count(top) == double_factorial(2 * MODULI_MARKS - 5)}


def check_weights(doc, complex_doc):
    top = max(int(c["rank"]) for c in complex_doc["cones"])
    tops = {c["id"] for c in complex_doc["cones"] if int(c["rank"]) == top}
    ok = int(doc["rank"]) == 1 and len(doc["basis"]) == 1
    if ok:
        values = doc["basis"][0]["values"]
        signs = {int(values.get(t, 0)) for t in tops}
        ok = set(values) == tops and signs in ({1}, {-1})
    return {"rank_1_all_unit_generator": ok}
