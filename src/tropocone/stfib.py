"""The concrete fibrations of tropical moduli: the spanning-tree
fibration, forgetting a marking, and clutching, together with the
pushforward of equivariant weights through fibration morphisms.

The spanning-tree source is the complex of (A ⊔ gluing-set)-marked trees
times a positive orthant of gluing lengths, with the distance linear
structure composed with the projection away from the gluing factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    LinearStructure,
    product_complex,
    relint_complex,
)
from .cone import poic_new
from .fibration import (
    Fibration,
    FibrationError,
    is_equivariant,
    is_pi_compatible,
)
from .graphs import (
    DiscreteGraph,
    UnstableParameters,
    canonical_form,
    gluing_labels,
    graph_new,
)
from .intlinalg import IntMatrix, block_diag, solve_integer
from .moduli import (
    DistanceData,
    build_moduli,
    distance_structure,
)
from .spaces import space_new
from .subdivision import (
    ComplexMorphism,
    Subdivision,
    compose_subdivisions,
    compose_with_subdivision,
    is_weakly_proper,
    pushforward,
    validate_complex_morphism,
)
from .weights import Weight, is_balanced, pullback


class FibrationMorphismError(ValueError):
    pass


class UnstableAfterForgetting(FibrationMorphismError):
    pass


class BadLabelIntersection(FibrationMorphismError):
    pass


# ---------------------------------------------------------------------------
# the spanning-tree fibration

@dataclass(frozen=True)
class STFibration:
    genus: int
    labels: tuple
    fibration: Fibration
    trees: object          # ModuliComplex of (A ⊔ g)-marked trees
    moduli_category: object
    tree_of_cone: dict     # source cone id -> tree class id
    distance: DistanceData

    @property
    def complex(self):
        return self.fibration.complex

    @property
    def space(self):
        return self.fibration.space


def _st_edge_matrix(tree_rep: DiscreteGraph, g: int,
                    target_rep: DiscreteGraph, phi):
    """Matrix sigma_T x R^g -> sigma_{st(T)-rep} through the canonical
    relabeling phi of st(T)."""
    inv_phi = [0] * len(phi)
    for x, y in enumerate(phi):
        inv_phi[y] = x
    tree_edges = {e: i for i, e in enumerate(tree_rep.edges())}
    marking = tree_rep.marking_dict()
    glue_pair = {}
    for i in range(1, g + 1):
        fa, fb = marking[f"g{i}"], marking[f"g{i}*"]
        glue_pair[(min(fa, fb), max(fa, fb))] = i - 1
    ncols = len(tree_edges) + g
    rows = []
    for (a, b) in target_rep.edges():
        ra, rb = inv_phi[a], inv_phi[b]
        raw = (min(ra, rb), max(ra, rb))
        row = [0] * ncols
        if raw in tree_edges:
            row[tree_edges[raw]] = 1
        elif raw in glue_pair:
            row[len(tree_edges) + glue_pair[raw]] = 1
        else:
            raise FibrationError(f"edge {raw} unaccounted in st image")
        rows.append(row)
    return IntMatrix.from_rows(rows, ncols)


def spanning_tree_fibration(g, labels) -> STFibration:
    """The linear poic-fibration st_{g,A} over the moduli of genus-g
    A-marked graphs, with source pure of dimension 3g + #A - 3."""
    from .graphs import st_join
    labels = tuple(sorted(str(x) for x in labels))
    if 2 * g + len(labels) - 2 <= 0:
        raise UnstableParameters("unstable parameters for the fibration")
    full = tuple(sorted(labels + tuple(gluing_labels(g))))
    trees = build_moduli(0, full)
    if g == 0:
        glue = relint_complex(poic_new(0, []), "glue")
    else:
        glue = relint_complex(
            poic_new(g, [(tuple(1 if j == i else 0 for j in range(g)), True)
                         for i in range(g)]), "glue")
    source, pairs = product_complex(trees.complex, glue)
    dist = trees.distance
    maps = {}
    for pid, (t_id, _) in pairs.items():
        base = trees.linear.maps[t_id]
        rows = [tuple(base.row(i)) + (0,) * g for i in range(base.rows)]
        maps[pid] = IntMatrix.from_rows(rows, base.cols + g)
    linear = LinearStructure(target_rank=dist.rank, maps=maps)

    target = build_moduli(g, labels)
    if g == 0:
        from .spaces import space_from_complex
        space = space_from_complex(target.complex)
        target_cat = target.category
    else:
        space = target.space
        target_cat = target.category

    object_map = {}
    transforms = {}
    tree_of_cone = {}
    for pid, (t_id, _) in pairs.items():
        tree_rep = trees.category.classes[t_id]
        image = st_join(tree_rep, g) if g > 0 else tree_rep
        canon, phi, _ = canonical_form(image)
        cls = target_cat.class_of(canon)
        if cls is None:
            raise FibrationError("st image not found in the target")
        object_map[pid] = cls
        transforms[pid] = _st_edge_matrix(
            tree_rep, g, target_cat.classes[cls], phi)
        tree_of_cone[pid] = t_id
    morphism_map = {}
    from .intlinalg import unimodular_inverse
    for (p, q) in source.order:
        m = transforms[q] @ source.facemap(p, q) \
            @ unimodular_inverse(transforms[p])
        homset = space.hom(object_map[p], object_map[q])
        if m not in homset:
            raise FibrationError(
                f"induced morphism of {p}<{q} missing in the space")
        morphism_map[(p, q)] = m
    fib = Fibration(complex=source, space=space, object_map=object_map,
                    transforms=transforms, morphism_map=morphism_map,
                    linear=linear)
    return STFibration(genus=g, labels=labels, fibration=fib, trees=trees,
                       moduli_category=target_cat,
                       tree_of_cone=tree_of_cone, distance=dist)


# ---------------------------------------------------------------------------
# morphisms of fibrations

@dataclass(frozen=True)
class FibrationMorphism:
    source: STFibration
    target: STFibration
    cone_map: dict
    matrices: dict
    int_matrix: IntMatrix
    space_map: dict
    space_matrices: dict
    twists: dict = None   # per-cone automorphism of the target object

    def complex_morphism(self) -> ComplexMorphism:
        return ComplexMorphism(
            source=self.source.complex, target=self.target.complex,
            cone_map=dict(self.cone_map), matrices=dict(self.matrices),
            int_matrix=self.int_matrix)


def validate_fibration_morphism(fm: FibrationMorphism):
    mor = fm.complex_morphism()
    validate_complex_morphism(mor)
    src, tgt = fm.source, fm.target
    for p in src.complex.ids():
        lhs = fm.int_matrix @ src.fibration.linear.maps[p]
        rhs = tgt.fibration.linear.maps[fm.cone_map[p]] @ fm.matrices[p]
        if lhs != rhs:
            raise FibrationMorphismError(f"linear square fails at {p}")
        x = src.fibration.pi(p)
        if tgt.fibration.pi(fm.cone_map[p]) != fm.space_map[x]:
            raise FibrationMorphismError(f"fibration square fails at {p}")
        lhs = tgt.fibration.transforms[fm.cone_map[p]] @ fm.matrices[p]
        rhs = fm.space_matrices[x] @ src.fibration.transforms[p]
        if fm.twists is not None and p in fm.twists:
            rhs = fm.twists[p] @ fm.space_matrices[x] \
                @ src.fibration.transforms[p]
        if lhs != rhs:
            raise FibrationMorphismError(
                f"space transform square fails at {p}")
    # functoriality on space homs
    sp_s, sp_t = src.space, tgt.space
    for (x, y), mats in sorted(sp_s.homs.items()):
        for f in mats:
            cand = None
            for f2 in sp_t.hom(fm.space_map[x], fm.space_map[y]):
                if f2 @ fm.space_matrices[x] == fm.space_matrices[y] @ f:
                    cand = f2
                    break
            if cand is None:
                raise FibrationMorphismError(
                    f"space morphism {x}->{y} has no image hom")
    return True


def space_iso_lifting(fm: FibrationMorphism):
    """The lifting property of isomorphisms demanded of (weakly) proper
    morphisms of fibrations; returns (flag, witness)."""
    from .spaces import space_isos
    sp_s, sp_t = fm.source.space, fm.target.space
    for s in sp_t.ids():
        for t in sp_t.ids():
            for f in space_isos(sp_t, s, t):
                for s2 in sp_s.ids():
                    if fm.space_map[s2] != s:
                        continue
                    found = []
                    for t2 in sp_s.ids():
                        if fm.space_map[t2] != t:
                            continue
                        for f2 in space_isos(sp_s, s2, t2):
                            if fm.space_matrices[t2] @ f2 == \
                                    f @ fm.space_matrices[s2]:
                                found.append((t2, f2))
                    if len(found) != 1:
                        return False, (s2, f, found)
    return True, None


# ---------------------------------------------------------------------------
# distance-lattice functoriality helpers

def free_section(pres):
    cols = []
    for j in range(pres.free_rank):
        e = tuple(1 if i == j else 0 for i in range(pres.free_rank))
        x = solve_integer(pres.projection, e)
        if x is None:
            raise FibrationMorphismError("free projection has no section")
        cols.append(x)
    return IntMatrix.from_cols(cols, pres.source_rank)


def _basis_level(small: DistanceData, p_free: IntMatrix,
                 big: DistanceData) -> IntMatrix:
    cols = []
    for i in range(big.basis.rows):
        u = p_free.apply(big.basis.row(i))
        x = solve_integer(small.basis.transpose(), u)
        if x is None:
            raise FibrationMorphismError(
                "distance lattice does not map into the target lattice")
        cols.append(x)
    return IntMatrix.from_cols(cols, small.rank)


def distance_forget_matrix(big: DistanceData, small: DistanceData,
                           label) -> IntMatrix:
    """N_dist(X) -> N_dist(X \\ label) induced by dropping coordinates."""
    rows = []
    big_index = {p: i for i, p in enumerate(big.pairs)}
    for p in small.pairs:
        row = [0] * len(big.pairs)
        row[big_index[p]] = 1
        rows.append(row)
    raw = IntMatrix.from_rows(rows, len(big.pairs))
    p_free = small.free_projection.projection @ raw \
        @ free_section(big.free_projection)
    return _basis_level(small, p_free, big)


def distance_clutch_matrix(data_a: DistanceData, data_b: DistanceData,
                           data_c: DistanceData, shared) -> IntMatrix:
    """N_dist(X1) ⊕ N_dist(X2) -> N_dist(X1 Δ X2) for X1 ∩ X2 = {shared}."""
    na, nb = len(data_a.pairs), len(data_b.pairs)
    ia = {p: i for i, p in enumerate(data_a.pairs)}
    ib = {p: i for i, p in enumerate(data_b.pairs)}
    set_a = set(data_a.labels) - {shared}
    rows = []
    for (x, y) in data_c.pairs:
        row = [0] * (na + nb)
        if x in set_a and y in set_a:
            row[ia[tuple(sorted((x, y)))]] = 1
        elif x not in set_a and y not in set_a:
            row[na + ib[tuple(sorted((x, y)))]] = 1
        else:
            a_lab = x if x in set_a else y
            b_lab = y if x in set_a else x
            row[ia[tuple(sorted((a_lab, shared)))]] = 1
            row[na + ib[tuple(sorted((b_lab, shared)))]] = 1
        rows.append(row)
    raw = IntMatrix.from_rows(rows, na + nb)
    sec = block_diag(free_section(data_a.free_projection),
                     free_section(data_b.free_projection))
    p_free = data_c.free_projection.projection @ raw @ sec
    cols = []
    for i in range(data_a.basis.rows):
        u = p_free.apply(tuple(data_a.basis.row(i))
                         + (0,) * len(data_b.pairs))
        x = solve_integer(data_c.basis.transpose(), u)
        if x is None:
            raise FibrationMorphismError("clutching lattice map fails")
        cols.append(x)
    for i in range(data_b.basis.rows):
        u = p_free.apply((0,) * len(data_a.pairs)
                         + tuple(data_b.basis.row(i)))
        x = solve_integer(data_c.basis.transpose(), u)
        if x is None:
            raise FibrationMorphismError("clutching lattice map fails")
        cols.append(x)
    return IntMatrix.from_cols(cols, data_c.rank)


# ---------------------------------------------------------------------------
# forgetting a marking

def forget_leg(g: DiscreteGraph, label):
    """Forget a marked leg with the three stabilization cases.

    Returns (graph, eta, glue_edge_hit) where eta maps edge lengths of g
    to edge lengths of the result and glue_edge_hit is (other_leg_label,
    dropped_edge_index) in the leg case, None otherwise.
    """
    marking = g.marking_dict()
    la = marking[label]
    va = g.root[la]
    others = [x for x in range(g.nflags)
              if g.root[x] == va and x not in (va, la)]
    edges = g.edges()
    eidx = {e: i for i, e in enumerate(edges)}
    if len(others) > 2:
        removed = {la}
        surgery = ("keep", None)
    else:
        if len(others) != 2:
            raise UnstableAfterForgetting(
                "vertex would become too low-valent")
        f1, f2 = sorted(others)
        leg1, leg2 = g.inv[f1] == f1, g.inv[f2] == f2
        if leg1 and leg2:
            raise UnstableAfterForgetting(
                "forgetting the mark destabilizes the graph")
        if not leg1 and not leg2:
            removed = {la, f1, f2, va}
            e1 = (min(f1, g.inv[f1]), max(f1, g.inv[f1]))
            e2 = (min(f2, g.inv[f2]), max(f2, g.inv[f2]))
            surgery = ("merge", (e1, e2, (g.inv[f1], g.inv[f2])))
        else:
            leg_flag = f1 if leg1 else f2
            edge_flag = f2 if leg1 else f1
            removed = {la, edge_flag, g.inv[edge_flag], va}
            dropped = (min(edge_flag, g.inv[edge_flag]),
                       max(edge_flag, g.inv[edge_flag]))
            surgery = ("drop", (leg_flag, dropped,
                                g.root[g.inv[edge_flag]]))
    new_index = {}
    k = 0
    for x in range(g.nflags):
        if x not in removed:
            new_index[x] = k
            k += 1
    root = [0] * k
    inv = [0] * k
    for x in range(g.nflags):
        if x in removed:
            continue
        rx, ix = g.root[x], g.inv[x]
        if surgery[0] == "merge":
            _, (_, _, (ha, hb)) = surgery
            if x == ha:
                ix = hb
            elif x == hb:
                ix = ha
        if surgery[0] == "drop":
            _, (leg_flag, _, new_root) = surgery
            if x == leg_flag:
                rx = new_root
        root[new_index[x]] = new_index[rx]
        inv[new_index[x]] = new_index[ix]
    new_marking = {lab: new_index[f] for lab, f in g.marking if lab != label}
    out = graph_new(k, root, inv, new_marking)
    out_edges = out.edges()
    out_idx = {e: i for i, e in enumerate(out_edges)}

    def new_edge(e):
        a, b = new_index[e[0]], new_index[e[1]]
        return (min(a, b), max(a, b))

    rows = []
    glue_hit = None
    if surgery[0] == "keep":
        for e in out_edges:
            row = [0] * len(edges)
            src = next(ee for ee in edges if new_edge(ee) == e)
            row[eidx[src]] = 1
            rows.append(row)
    elif surgery[0] == "merge":
        _, (e1, e2, (ha, hb)) = surgery
        merged = (min(new_index[ha], new_index[hb]),
                  max(new_index[ha], new_index[hb]))
        for e in out_edges:
            row = [0] * len(edges)
            if e == merged:
                row[eidx[e1]] = 1
                row[eidx[e2]] = 1
            else:
                src = next(ee for ee in edges
                           if ee not in (e1, e2) and new_edge(ee) == e)
                row[eidx[src]] = 1
            rows.append(row)
    else:
        _, (leg_flag, dropped, _) = surgery
        for e in out_edges:
            row = [0] * len(edges)
            src = next(ee for ee in edges
                       if ee != dropped and new_edge(ee) == e)
            row[eidx[src]] = 1
            rows.append(row)
        glue_hit = (g.label_of(leg_flag), eidx[dropped])
    eta = IntMatrix.from_rows(rows, len(edges))
    return out, eta, glue_hit


def _class_and_matrix(cat, graph, eta):
    """Canonicalize and compose the edge matrix with the relabeling."""
    canon, phi, _ = canonical_form(graph)
    cls = cat.class_of(canon)
    if cls is None:
        raise FibrationMorphismError("image class missing from category")
    rep = cat.classes[cls]
    inv_phi = [0] * len(phi)
    for x, y in enumerate(phi):
        inv_phi[y] = x
    rows = []
    graph_idx = {e: i for i, e in enumerate(graph.edges())}
    for (a, b) in rep.edges():
        ra, rb = inv_phi[a], inv_phi[b]
        raw = (min(ra, rb), max(ra, rb))
        rows.append(tuple(eta.row(graph_idx[raw])))
    return cls, IntMatrix.from_rows(rows, eta.cols)


def _align_space_matrices(src_fib, tgt_fib, space_map, raw_space_matrices,
                          int_matrix):
    """Derive cone matrices from the space surgery matrices.

    Independently skeletonized fibrations fix their chart isomorphisms
    separately, so the fibration square may only commute after twisting
    by an automorphism of the target object; the twist is searched per
    cone, recorded, and validated.  mat_p is the unique matrix with
    eta_rho(F p) ∘ mat_p = u_p ∘ m_{pi(p)} ∘ eta_pi(p); among the charts
    accepting the cone geometrically, the one compatible with the
    distance structures (the linear square) is selected.

    Returns (space_matrices, cone_map, matrices, twists).
    """
    from .cone import NotIntoCodomain, check_morphism
    from .intlinalg import unimodular_inverse
    from .spaces import space_isos
    cone_map = {}
    matrices = {}
    twists = {}
    tgt_by_object = {}
    for q in tgt_fib.complex.ids():
        tgt_by_object.setdefault(tgt_fib.pi(q), []).append(q)

    def auto_order(m):
        ident = IntMatrix.identity(m.rows)
        return (m != ident, m.entries)

    for x in sorted(src_fib.space.ids()):
        over = [p for p in src_fib.complex.ids() if src_fib.pi(p) == x]
        m_x = raw_space_matrices[x]
        autos = sorted(space_isos(tgt_fib.space, space_map[x], space_map[x]),
                       key=auto_order)
        for pid in over:
            found = None
            for u in autos:
                comp = u @ m_x @ src_fib.transforms[pid]
                for q in sorted(tgt_by_object.get(space_map[x], [])):
                    mat = unimodular_inverse(
                        tgt_fib.transforms[q]) @ comp
                    try:
                        check_morphism(mat, src_fib.complex.cones[pid],
                                       tgt_fib.complex.cones[q])
                    except NotIntoCodomain:
                        continue
                    lhs = int_matrix @ src_fib.linear.maps[pid]
                    rhs = tgt_fib.linear.maps[q] @ mat
                    if lhs != rhs:
                        continue
                    found = (q, mat, u)
                    break
                if found:
                    break
            if found is None:
                raise FibrationMorphismError(
                    f"no chart of the target fibration accepts cone {pid}")
            cone_map[pid], matrices[pid], twists[pid] = found
    return dict(raw_space_matrices), cone_map, matrices, twists


def forgetful(g, labels, mark) -> FibrationMorphism:
    """The weakly proper morphism of fibrations st_{g,A} -> st_{g,A\\a}."""
    labels = tuple(sorted(str(x) for x in labels))
    mark = str(mark)
    if mark not in labels:
        raise FibrationMorphismError(f"{mark} is not a mark")
    rest = tuple(l for l in labels if l != mark)
    if 2 * g + len(rest) - 2 <= 0:
        raise UnstableAfterForgetting(
            "target parameters would be unstable")
    src = spanning_tree_fibration(g, labels)
    tgt = spanning_tree_fibration(g, rest)
    space_map = {}
    raw_space_matrices = {}
    for x in src.space.ids():
        rep = src.moduli_category.classes[x]
        ft_graph, eta, _ = forget_leg(rep, mark)
        cls, eta_canon = _class_and_matrix(tgt.moduli_category, ft_graph, eta)
        space_map[x] = cls
        raw_space_matrices[x] = eta_canon
    int_matrix = distance_forget_matrix(src.distance, tgt.distance, mark)
    space_matrices, cone_map, matrices, twists = _align_space_matrices(
        src.fibration, tgt.fibration, space_map, raw_space_matrices,
        int_matrix)
    fm = FibrationMorphism(source=src, target=tgt, cone_map=cone_map,
                           matrices=matrices, int_matrix=int_matrix,
                           space_map=space_map,
                           space_matrices=space_matrices, twists=twists)
    validate_fibration_morphism(fm)
    return fm


# ---------------------------------------------------------------------------
# clutching

def clutch_graphs(g1: DiscreteGraph, g2: DiscreteGraph,
                  shared) -> DiscreteGraph:
    """Join two marked graphs at the shared leg label."""
    m1, m2 = g1.marking_dict(), g2.marking_dict()
    l1, l2 = m1[shared], m2[shared]
    v2 = g2.root[l2]
    v1 = g1.root[l1]
    new_index = {}
    k = 0
    for x in range(g1.nflags):
        if x != l1:
            new_index[("a", x)] = k
            k += 1
    for x in range(g2.nflags):
        if x not in (l2, v2):
            new_index[("b", x)] = k
            k += 1
    root = [0] * k
    inv = [0] * k
    for x in range(g1.nflags):
        if x == l1:
            continue
        i = new_index[("a", x)]
        root[i] = new_index[("a", g1.root[x])]
        inv[i] = new_index[("a", g1.inv[x])]
    for x in range(g2.nflags):
        if x in (l2, v2):
            continue
        i = new_index[("b", x)]
        r = g2.root[x]
        root[i] = new_index[("a", v1)] if r == v2 else new_index[("b", r)]
        inv[i] = new_index[("b", g2.inv[x])]
    marking = {}
    for lab, f in g1.marking:
        if lab != shared:
            marking[lab] = new_index[("a", f)]
    for lab, f in g2.marking:
        if lab != shared:
            marking[lab] = new_index[("b", f)]
    return graph_new(k, root, inv, marking), new_index


def _relabel_gluing(t: DiscreteGraph, offset):
    marking = {}
    for lab, f in t.marking:
        if lab.startswith("g") and lab[1:].rstrip("*").isdigit():
            i = int(lab.rstrip("*")[1:])
            star = "*" if lab.endswith("*") else ""
            marking[f"g{i + offset}{star}"] = f
        else:
            marking[lab] = f
    return graph_new(t.nflags, t.root, t.inv, marking)


@dataclass(frozen=True)
class ProductFibration:
    fibration: Fibration
    left: STFibration
    right: STFibration
    pairs: dict        # cone id -> (left cone, right cone)
    space_pairs: dict  # space object id -> (left object, right object)


def product_fibration(left: STFibration, right: STFibration):
    from .complexes import product_id, product_linear
    f1, f2 = left.fibration, right.fibration
    source, pairs = product_complex(f1.complex, f2.complex)
    linear = product_linear(f1.complex, f1.linear, f2.complex, f2.linear,
                            pairs)
    from .cone import product as cone_product
    objects = {}
    space_pairs = {}
    homs = {}
    for x1 in f1.space.ids():
        for x2 in f2.space.ids():
            xid = product_id(x1, x2)
            objects[xid] = cone_product(f1.space.objects[x1],
                                        f2.space.objects[x2])
            space_pairs[xid] = (x1, x2)
    for (x1, y1), m1s in f1.space.homs.items():
        for (x2, y2), m2s in f2.space.homs.items():
            key = (product_id(x1, x2), product_id(y1, y2))
            homs[key] = tuple(block_diag(a, b) for a in m1s for b in m2s)
    space = space_new(objects, homs)
    object_map = {}
    transforms = {}
    for pid, (p1, p2) in pairs.items():
        object_map[pid] = product_id(f1.pi(p1), f2.pi(p2))
        transforms[pid] = block_diag(f1.transforms[p1], f2.transforms[p2])
    morphism_map = {}
    for (a, b) in source.order:
        (p1, p2), (q1, q2) = pairs[a], pairs[b]
        morphism_map[(a, b)] = block_diag(f1.pi_mor(p1, q1),
                                          f2.pi_mor(p2, q2))
    fib = Fibration(complex=source, space=space, object_map=object_map,
                    transforms=transforms, morphism_map=morphism_map,
                    linear=linear)
    return ProductFibration(fibration=fib, left=left, right=right,
                            pairs=pairs, space_pairs=space_pairs)


@dataclass(frozen=True)
class ClutchingMorphism:
    source: ProductFibration
    target: STFibration
    cone_map: dict
    matrices: dict
    int_matrix: IntMatrix
    space_map: dict
    space_matrices: dict
    twists: dict = None

    def complex_morphism(self) -> ComplexMorphism:
        return ComplexMorphism(
            source=self.source.fibration.complex,
            target=self.target.complex,
            cone_map=dict(self.cone_map), matrices=dict(self.matrices),
            int_matrix=self.int_matrix)


def _clutch_edge_matrix(gL, gR, joined, index_map, cat, extraL, extraR):
    """Edge matrix sigma_L x R^gL x sigma_R x R^gR -> sigma_{joined-rep}."""
    canon, phi, _ = canonical_form(joined)
    cls = cat.class_of(canon)
    if cls is None:
        raise FibrationMorphismError("clutched class missing from category")
    rep = cat.classes[cls]
    inv_phi = [0] * len(phi)
    for x, y in enumerate(phi):
        inv_phi[y] = x
    eL = {e: i for i, e in enumerate(gL.edges())}
    eR = {e: i for i, e in enumerate(gR.edges())}
    ncols = len(eL) + extraL + len(eR) + extraR
    offR = len(eL) + extraL
    back = {v: k for k, v in index_map.items()}
    rows = []
    for (a, b) in rep.edges():
        ra, rb = inv_phi[a], inv_phi[b]
        row = [0] * ncols
        (sa, xa) = back[ra]
        (sb, xb) = back[rb]
        if sa != sb:
            raise FibrationMorphismError("edge straddles the clutch")
        key = (min(xa, xb), max(xa, xb))
        if sa == "a":
            row[eL[key]] = 1
        else:
            row[offR + eR[key]] = 1
        rows.append(row)
    return cls, IntMatrix.from_rows(rows, ncols)


def clutching(g, labels_a, h, labels_b) -> ClutchingMorphism:
    """The proper morphism st_{g,A} x st_{h,B} -> st_{g+h, A Δ B} joining
    two graphs at the shared leg label."""
    labels_a = tuple(sorted(str(x) for x in labels_a))
    labels_b = tuple(sorted(str(x) for x in labels_b))
    shared = set(labels_a) & set(labels_b)
    if len(shared) != 1:
        raise BadLabelIntersection("label sets must share exactly one mark")
    c = shared.pop()
    delta = tuple(sorted((set(labels_a) | set(labels_b)) - {c}))
    left = spanning_tree_fibration(g, labels_a)
    right = spanning_tree_fibration(h, labels_b)
    target = spanning_tree_fibration(g + h, delta)
    prod = product_fibration(left, right)
    space_map = {}
    space_matrices = {}
    for xid, (x1, x2) in prod.space_pairs.items():
        g1 = left.moduli_category.classes[x1]
        g2 = right.moduli_category.classes[x2]
        joined, index_map = clutch_graphs(g1, g2, c)
        cls, em = _clutch_edge_matrix(g1, g2, joined, index_map,
                                      target.moduli_category, 0, 0)
        space_map[xid] = cls
        space_matrices[xid] = em
    int_matrix = distance_clutch_matrix(
        left.distance,
        distance_structure([lab if not lab.startswith("g")
                            else f"g{int(lab.rstrip('*')[1:]) + g}"
                            + ("*" if lab.endswith("*") else "")
                            for lab in right.distance.labels]),
        target.distance, c)
    space_matrices2, cone_map, matrices, twists = _align_space_matrices(
        prod.fibration, target.fibration, space_map, space_matrices,
        int_matrix)
    cm = ClutchingMorphism(source=prod, target=target, cone_map=cone_map,
                           matrices=matrices, int_matrix=int_matrix,
                           space_map=space_map,
                           space_matrices=space_matrices2, twists=twists)
    return cm


# ---------------------------------------------------------------------------
# pushforward of equivariant weights through a fibration morphism

def fibration_pushforward(fm, sub_s: Subdivision, sub_t: Subdivision,
                          sub_tp: Subdivision, omega: Weight, k: int):
    """Push an equivariant weight through a morphism of fibrations.

    sub_s must be compatible with the source fibration, sub_t a fine
    subdivision of the target complex for the composed morphism, and
    sub_t ∘ sub_tp compatible with the target fibration.  The result is
    the pulled-back pushforward, verified equivariant and balanced.
    """
    src_fib = fm.source.fibration
    tgt_fib = fm.target.fibration
    flag, wit = is_pi_compatible(src_fib, sub_s)
    if not flag:
        raise FibrationMorphismError(
            f"source subdivision is not compatible at {wit}")
    comp = compose_with_subdivision(fm.complex_morphism(), sub_s)
    wp, witness = is_weakly_proper(comp)
    if not wp:
        raise FibrationMorphismError(
            f"composed morphism is not weakly proper at {witness}")
    pushed = pushforward(comp, sub_t, omega, k)
    tower = compose_subdivisions(sub_t, sub_tp)
    flag, wit = is_pi_compatible(tgt_fib, tower)
    if not flag:
        raise FibrationMorphismError(
            f"target tower is not compatible at {wit}")
    result = pullback(sub_tp, pushed)
    from .fibration import composed_linear
    lin = composed_linear(tgt_fib, tower)
    if not is_balanced(tower.source, lin, result):
        raise FibrationMorphismError("pushforward lost balancing")
    if not is_equivariant(tgt_fib, tower, result):
        raise FibrationMorphismError("pushforward lost equivariance")
    return result
