import pytest

from tropocone import stfib
from tropocone.cone import NotIntoCodomain, check_morphism
from tropocone.fibration import (
    FibrationError,
    composed_linear,
    equivariant_basis,
    is_pi_compatible,
    validate_fibration,
)
from tropocone.graphs import (
    canonical_form,
    gluing_labels,
    graph_new,
    st_join,
)
from tropocone.intlinalg import (
    IntMatrix,
    block_diag,
    solve_integer,
    unimodular_inverse,
)
from tropocone.moduli import distance_structure
from tropocone.spaces import is_space_iso, space_isos
from tropocone.stfib import (
    BadLabelIntersection,
    FibrationMorphismError,
    UnstableAfterForgetting,
    _class_and_matrix,
    _clutch_edge_matrix,
    _st_edge_matrix,
    clutch_graphs,
    clutching,
    fibration_pushforward,
    forget_leg,
    forgetful,
    product_fibration,
    space_iso_lifting,
    spanning_tree_fibration,
    validate_fibration_morphism,
)
from tropocone.subdivision import (
    identity_subdivision,
    is_weakly_proper,
    proper_probe,
    pushforward,
    refine_by_walls,
    validate_complex_morphism,
    validate_subdivision,
)
from tropocone.weights import Weight, is_balanced, minkowski_basis


def caterpillar_tree():
    """Five-marked tree: mid(b, x, y), top(x-end, c, g1),
    bottom(y-end, a, g1*)."""
    root = [9, 10, 11, 10, 11, 9, 10, 9, 11, 9, 10, 11]
    inv = [0, 1, 2, 3, 4, 6, 5, 8, 7, 9, 10, 11]
    return graph_new(12, root, inv,
                     {"a": 2, "b": 0, "c": 1, "g1": 3, "g1*": 4})


def test_st_11_shape():
    st = spanning_tree_fibration(1, ["1"])
    assert st.complex.max_dim() == 1
    assert len(st.complex.ids()) == 1
    rep = validate_fibration(st.fibration)
    assert rep.ok, rep.issues


def test_st_12_and_st2_validate_and_purity():
    for (g, labels, dim) in [(1, ["1", "2"], 2), (2, [], 3)]:
        st = spanning_tree_fibration(g, labels)
        rep = validate_fibration(st.fibration)
        assert rep.ok, rep.issues
        assert st.complex.max_dim() == dim
        assert st.complex.is_pure(dim)


def test_st_equivariant_top_rank_one():
    for (g, labels) in [(1, ["1"]), (1, ["1", "2"]), (2, [])]:
        st = spanning_tree_fibration(g, labels)
        n = st.complex.max_dim()
        lat = equivariant_basis(st.fibration, n,
                                identity_subdivision(st.complex))
        assert lat.rank == 1
        gen = lat.basis[0]
        tops = st.complex.classes(n)
        assert len({gen.values.get(t, 0) for t in tops}) == 1


def test_forget_leg_three_cases():
    # valence > 3: drop the leg only
    root = [5, 5, 5, 5, 5, 5, 6, 6]
    # vertex 5 carries legs 0,1,2,3 and edge-half 4; vertex 6 has 6... use
    # a simpler explicit graph: two vertices joined by an edge, with legs
    g = graph_new(8, [6, 6, 6, 7, 7, 6, 6, 7],
                  [0, 1, 2, 3, 5, 4, 6, 7],
                  {"a": 0, "b": 1, "c": 2, "d": 3})
    out, eta, hit = forget_leg(g, "a")
    assert len(out.edges()) == len(g.edges())
    assert hit is None
    # valence 3 with two edges: merge
    t = caterpillar_tree()
    mid_case = forget_leg(t, "b")   # b sits at the mid vertex with x and y
    out, eta, hit = mid_case
    assert len(out.edges()) == 1
    assert hit is None
    row = eta.row(0)
    assert sorted(row) == [1, 1]    # merged edge = x + y
    # valence 3 with a leg: drop the edge, move the leg
    out, eta, hit = forget_leg(t, "a")
    assert len(out.edges()) == 1
    assert hit is not None and hit[0] == "g1*"


def test_forgetful_paper_matrix():
    fm = forgetful(1, ["a", "b", "c"], "a")
    t = caterpillar_tree()
    canon, phi, _ = canonical_form(t)
    cls = fm.source.trees.category.class_of(canon)
    pid = next(q for q in fm.source.complex.ids()
               if fm.source.tree_of_cone[q] == cls)
    mat = fm.matrices[pid]
    # express the matrix in the (x, y, l) frame of the tree above:
    # source columns are (rep edges..., delta); the canonical relabeling
    # phi sends my x = (5,6)-edge and y = (7,8)-edge to rep edges
    rep = fm.source.trees.category.classes[cls]
    rep_edges = {e: i for i, e in enumerate(rep.edges())}
    x_col = rep_edges[tuple(sorted((phi[5], phi[6])))]
    y_col = rep_edges[tuple(sorted((phi[7], phi[8])))]
    perm_src = IntMatrix.from_cols(
        [tuple(1 if i == x_col else 0 for i in range(3)),
         tuple(1 if i == y_col else 0 for i in range(3)),
         (0, 0, 1)])
    # target frame: forget a in my tree by hand: edge x survives
    ft_t, _, _ = forget_leg(t, "a")
    canon2, phi2, _ = canonical_form(ft_t)
    cls2 = fm.target.trees.category.class_of(canon2)
    assert fm.cone_map[pid] == next(
        q for q in fm.target.complex.ids()
        if fm.target.tree_of_cone[q] == cls2)
    framed = mat @ perm_src
    # (x, y, l) -> (x, y + l), bit-exact
    assert framed.to_rows() == [[1, 0, 0], [0, 1, 1]]


def test_forgetful_weakly_proper_with_properness_witness():
    fm = forgetful(1, ["a", "b", "c"], "a")
    mor = fm.complex_morphism()
    flag, _ = is_weakly_proper(mor)
    assert flag
    # the known weak-properness witness subcone {x = l}: refine the cone of
    # the example tree by the wall x - l and probe properness
    t = caterpillar_tree()
    canon, phi, _ = canonical_form(t)
    cls = fm.source.trees.category.class_of(canon)
    pid = next(q for q in fm.source.complex.ids()
               if fm.source.tree_of_cone[q] == cls)
    rep = fm.source.trees.category.classes[cls]
    rep_edges = {e: i for i, e in enumerate(rep.edges())}
    x_col = rep_edges[tuple(sorted((phi[5], phi[6])))]
    wall = [0, 0, 0]
    wall[x_col] = 1
    wall[2] = -1
    split = refine_by_walls(fm.source.complex, {pid: [tuple(wall)]})
    rep_ok = validate_subdivision(split)
    assert rep_ok.ok, rep_ok.issues
    failures = proper_probe(mor, [split])
    assert failures
    # the reported witness is a face of the image of the {x = l} piece
    _, (piece, tau) = failures[0]
    assert split.cone_map[piece] == pid


def test_forgetful_commutation():
    fa = forgetful(0, ["a", "b", "1", "2", "3"], "a")
    fb_after = forgetful(0, ["b", "1", "2", "3"], "b")
    fb = forgetful(0, ["a", "b", "1", "2", "3"], "b")
    fa_after = forgetful(0, ["a", "1", "2", "3"], "a")

    def compose(outer, inner):
        cone_map = {p: outer.cone_map[inner.cone_map[p]]
                    for p in inner.source.complex.ids()}
        matrices = {p: outer.matrices[inner.cone_map[p]] @ inner.matrices[p]
                    for p in inner.source.complex.ids()}
        return cone_map, matrices, outer.int_matrix @ inner.int_matrix

    ab = compose(fb_after, fa)
    ba = compose(fa_after, fb)
    assert ab[0] == ba[0]
    assert all(ab[1][p].entries == ba[1][p].entries for p in ab[1])
    assert ab[2].entries == ba[2].entries


def test_clutch_graphs_edge_union():
    t1 = caterpillar_tree()
    # clutch two copies at the shared label c: relabel the second copy
    relabeled = graph_new(
        t1.nflags, t1.root, t1.inv,
        {{"a": "a2", "b": "b2", "c": "c", "g1": "g2", "g1*": "g2*"}[lab]: f
         for lab, f in t1.marking})
    joined, _ = clutch_graphs(t1, relabeled, "c")
    assert len(joined.edges()) == len(t1.edges()) + len(relabeled.edges())
    assert joined.genus() == 0
    assert joined.connected()


def test_clutching_m03_to_m04():
    cm = clutching(0, ["1", "2", "c"], 0, ["3", "4", "c"])
    mor = cm.complex_morphism()
    validate_complex_morphism(mor)
    flag, _ = is_weakly_proper(mor)
    assert flag
    src_ids = mor.source.ids()
    assert len(src_ids) == 1
    tgt = mor.target
    origin = next(p for p in tgt.ids() if tgt.dim(p) == 0)
    assert mor.cone_map[src_ids[0]] == origin
    out = pushforward(mor, identity_subdivision(tgt),
                      Weight(0, {src_ids[0]: 1}), 0)
    assert out.values == {origin: 1}
    # properness probe over engine-generated subdivisions of the target
    from tropocone.subdivision import ord_subdivision
    subs = [identity_subdivision(mor.source)]
    failures = proper_probe(mor, subs)
    assert not failures


def test_clutching_keeps_marks_starting_with_g():
    # only the right side's gluing labels are renamed, not every label
    # that starts with "g"
    cm = clutching(0, ["1", "2", "c"], 0, ["3", "goat", "c"])
    mor = cm.complex_morphism()
    validate_complex_morphism(mor)
    assert cm.target.labels == ("1", "2", "3", "goat")


def test_clutching_bad_labels():
    with pytest.raises(BadLabelIntersection):
        clutching(0, ["1", "2", "3"], 0, ["4", "5", "6"])


def test_forgetful_unstable():
    with pytest.raises(UnstableAfterForgetting):
        forgetful(1, ["a"], "a")


def test_fibration_pushforward_forgetful_m05_to_m04():
    # push the constant 1-weight on the rays of M_{0,5} through ft_a
    fm = forgetful(0, ["a", "1", "2", "3", "4"], "a")
    src = fm.source
    k = 1
    rays = src.complex.classes(1)
    omega = Weight(1, {r: 1 for r in rays})
    lin = src.fibration.linear
    assert is_balanced(src.complex, lin, omega)
    mor = fm.complex_morphism()
    from tropocone.subdivision import pfine_refinement
    fine = pfine_refinement(mor)
    sub_s = identity_subdivision(src.complex)
    out = fibration_pushforward(fm, sub_s, fine,
                                identity_subdivision(fine.source), omega, 1)
    vals = sorted(out.nonzero().values())
    # each target ray class receives two source rays with index 1: the
    # independent audit recomputes the indices below
    from tropocone.subdivision import pfine_matching
    from tropocone.intlinalg import Lattice, lattice_index
    match = pfine_matching(mor, fine, dims={1})
    audit = {}
    for s, t in match.items():
        if mor.source.dim(s) != 1:
            continue
        y = mor.cone_map[s]
        sup = Lattice(mor.target.dim(y), IntMatrix.from_rows(
            [fine.matrices[t].col(j) for j in range(fine.matrices[t].cols)],
            mor.target.dim(y)))
        sub = Lattice(mor.target.dim(y), IntMatrix.from_rows(
            [mor.matrices[s].col(j) for j in range(mor.matrices[s].cols)],
            mor.target.dim(y)))
        audit[t] = audit.get(t, 0) + lattice_index(sup, sub)
    assert {t: v for t, v in audit.items() if v} == out.nonzero()
    assert len(set(vals)) == 1  # proportional to the fundamental weight


def test_fibration_pushforward_clutching_trivial_subdivisions():
    cm = clutching(0, ["1", "2", "c"], 0, ["3", "4", "c"])
    src = cm.source.fibration
    tgt = cm.target
    sub_s = identity_subdivision(src.complex)
    fine = identity_subdivision(tgt.complex)
    sub_tp = identity_subdivision(fine.source)
    sid = src.complex.ids()[0]
    out = fibration_pushforward(cm, sub_s, fine, sub_tp,
                                Weight(0, {sid: 1}), 0)
    origin = next(p for p in tgt.complex.ids() if tgt.complex.dim(p) == 0)
    assert out.values == {origin: 1}


def test_clutching_validates_and_lifts_isomorphisms():
    cm = clutching(0, ["1", "2", "c"], 0, ["3", "4", "c"])
    assert validate_fibration_morphism(cm)
    assert space_iso_lifting(cm) == (True, None)


def test_space_isos_of_one_object_match_the_per_matrix_test():
    from tropocone.moduli import build_moduli
    prod = product_fibration(spanning_tree_fibration(1, ["1", "c"]),
                             spanning_tree_fibration(0, ["2", "3", "c"]))
    spaces = [build_moduli(1, ["1"]).space, build_moduli(1, ["1", "2"]).space,
              build_moduli(2, []).space, prod.fibration.space]
    for space in spaces:
        for x in space.ids():
            assert space_isos(space, x, x) == [
                m for m in space.hom(x, x) if is_space_iso(space, x, x, m)]


# Reference copies of the relabeling steps as they were written out per
# caller, before they shared _rep_edges and one forget_leg row builder.

def _reference_st_edge_matrix(tree_rep, g, target_rep, phi):
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


def _reference_class_and_matrix(cat, graph, eta):
    cls, phi = cat.locate(graph)
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


def _reference_clutch_edge_matrix(gL, gR, joined, index_map, cat,
                                  extraL, extraR):
    cls, phi = cat.locate(joined)
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


def _reference_forget_leg(g, label):
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


@pytest.mark.parametrize("g, labels", [
    (0, ["1", "2", "3", "4", "5"]), (1, ["a", "b"]), (2, [])])
def test_relabeling_and_forget_match_reference(g, labels):
    st = spanning_tree_fibration(g, labels)
    cat = st.moduli_category
    for t_id in st.trees.category.ids():
        tree_rep = st.trees.category.classes[t_id]
        cls, phi = cat.locate(st_join(tree_rep, g) if g else tree_rep)
        assert _st_edge_matrix(tree_rep, g, cat) == (
            cls, _reference_st_edge_matrix(tree_rep, g, cat.classes[cls],
                                           phi))
    for mark in labels:
        small = spanning_tree_fibration(
            g, [lab for lab in labels if lab != mark])
        for x in cat.ids():
            out, eta, hit = forget_leg(cat.classes[x], mark)
            ref_out, ref_eta, ref_hit = _reference_forget_leg(
                cat.classes[x], mark)
            assert (out, eta, hit) == (ref_out, ref_eta, ref_hit)
            assert _class_and_matrix(small.moduli_category, out, eta) == \
                _reference_class_and_matrix(small.moduli_category, out, eta)


@pytest.mark.parametrize("labels_a, labels_b", [
    (["1", "2", "c"], ["3", "4", "c"]),
    (["1", "2", "3", "c"], ["4", "5", "c"])])
def test_clutch_edge_matrix_matches_reference(labels_a, labels_b):
    left = spanning_tree_fibration(0, labels_a).moduli_category
    right = spanning_tree_fibration(0, labels_b).moduli_category
    delta = sorted((set(labels_a) | set(labels_b)) - {"c"})
    cat = spanning_tree_fibration(0, delta).moduli_category
    for x1 in left.ids():
        for x2 in right.ids():
            g1, g2 = left.classes[x1], right.classes[x2]
            joined, index_map = clutch_graphs(g1, g2, "c")
            assert _clutch_edge_matrix(g1, g2, joined, index_map, cat) == \
                _reference_clutch_edge_matrix(g1, g2, joined, index_map,
                                              cat, 0, 0)


# The per-cone search that chose each source cone's target chart and matrix
# before they came from the tree surgery: (automorphism of the target object)
# x (target chart), each candidate tried with check_morphism.

def _reference_align_space_matrices(src_fib, tgt_fib, space_map,
                                    raw_space_matrices, int_matrix):
    """Derive cone matrices from the space surgery matrices.

    Independently skeletonized fibrations fix their chart isomorphisms
    separately, so the fibration square may only commute after twisting
    by an automorphism of the target object; the twist is searched per
    cone, recorded, and validated.  mat_p is the unique matrix with
    eta_rho(F p) ∘ mat_p = u_p ∘ m_{pi(p)} ∘ eta_pi(p); among the charts
    accepting the cone geometrically, the one compatible with the
    distance structures (the linear square) is selected.

    Returns (cone_map, matrices, twists).
    """
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
    return cone_map, matrices, twists


FORGET_CASES = [
    (0, ["a", "1", "2", "3"], "a"), (0, ["a", "b", "1", "2", "3"], "a"),
    (0, ["a", "b", "1", "2", "3"], "b"), (1, ["a", "b"], "a"),
    (1, ["a", "b", "c"], "a"), (1, ["a", "b", "c"], "b"),
    (1, ["a", "b", "c", "d"], "a")]
CLUTCH_CASES = [
    (0, ["1", "2", "c"], 0, ["3", "4", "c"]),
    (0, ["1", "2", "c"], 0, ["3", "goat", "c"]),
    (1, ["c"], 0, ["1", "2", "c"]), (0, ["1", "2", "c"], 1, ["c"]),
    (1, ["c"], 1, ["c"])]


@pytest.mark.parametrize("build, args", [
    *[(forgetful, case) for case in FORGET_CASES],
    *[(clutching, case) for case in CLUTCH_CASES]])
def test_tree_surgery_matches_the_chart_search(build, args):
    fm = build(*args)
    cone_map, matrices, _ = _reference_align_space_matrices(
        fm.source.fibration, fm.target.fibration, fm.space_map,
        fm.space_matrices, fm.int_matrix)
    assert fm.cone_map == cone_map
    assert fm.matrices == matrices


@pytest.mark.parametrize("labels", [["a"], ["a", "b"]])
def test_forgetful_at_genus_two_validates(labels):
    fm = forgetful(2, labels, "a")
    assert validate_fibration_morphism(fm)
    assert is_weakly_proper(fm.complex_morphism())[0]


def _compose(outer, inner):
    cone_map = {p: outer.cone_map[inner.cone_map[p]]
                for p in inner.source.complex.ids()}
    matrices = {p: outer.matrices[inner.cone_map[p]] @ inner.matrices[p]
                for p in inner.source.complex.ids()}
    return cone_map, matrices, outer.int_matrix @ inner.int_matrix


@pytest.mark.parametrize("g, labels", [(2, ["a", "b"]), (1, ["a", "b", "c"])])
def test_forgetting_two_marks_commutes(g, labels):
    """Forgetting a then b equals forgetting b then a: cone maps, matrices
    and lattice maps."""
    def forget_both(first, second):
        rest = [lab for lab in labels if lab != first]
        return _compose(forgetful(g, rest, second),
                        forgetful(g, labels, first))

    assert forget_both("a", "b") == forget_both("b", "a")


@pytest.mark.parametrize("left, right", [
    ((0, ["1", "2", "3", "c"]), (0, ["4", "5", "c"])),
    ((1, ["1", "c"]), (0, ["3", "4", "c"]))])
def test_unequal_clutching_fails_the_linear_square(left, right):
    with pytest.raises(FibrationMorphismError, match="linear square"):
        clutching(*left, *right)


def test_clutching_sends_a_split_relation_to_a_nonzero_split():
    """Why unequal clutching has no lattice map: the splits {1,2}, {1,3},
    {2,3} of 1,2,3,c sum to 0 in N_dist, but the splits they become after
    joining 4,5 at c sum to the split {4,5}, which is not 0.  So no
    linear map sends every split to its joined split."""
    def total(data, sides):
        vecs = [data.split_in_basis(side) for side in sides]
        return tuple(sum(col) for col in zip(*vecs))

    sides = [("1", "2"), ("1", "3"), ("2", "3")]
    left = distance_structure(["1", "2", "3", "c"])
    joined = distance_structure(["1", "2", "3", "4", "5"])
    assert total(left, sides) == (0,) * left.rank
    split_45 = tuple(joined.split_in_basis(("4", "5")))
    assert total(joined, sides) == split_45 != (0,) * joined.rank


# The lattice maps as they were computed before they came from the splits:
# free sections of the quotient presentations, a raw map on pair
# coordinates, and one solve per basis row.

def _reference_free_section(pres):
    cols = []
    for j in range(pres.free_rank):
        e = tuple(1 if i == j else 0 for i in range(pres.free_rank))
        x = solve_integer(pres.projection, e)
        if x is None:
            raise FibrationMorphismError("free projection has no section")
        cols.append(x)
    return IntMatrix.from_cols(cols, pres.source_rank)


def _reference_basis_level(small, p_free, basis):
    """The lattice map in basis coordinates: each row of the source basis
    (free coordinates) through p_free, solved in the basis of small."""
    small_t = small.basis.transpose()
    cols = []
    for i in range(basis.rows):
        x = solve_integer(small_t, p_free.apply(basis.row(i)))
        if x is None:
            raise FibrationMorphismError(
                "distance lattice does not map into the target lattice")
        cols.append(x)
    return IntMatrix.from_cols(cols, small.rank)


def _reference_distance_forget_matrix(big, small, label):
    """N_dist(X) -> N_dist(X \\ label) induced by dropping coordinates."""
    rows = []
    big_index = {p: i for i, p in enumerate(big.pairs)}
    for p in small.pairs:
        row = [0] * len(big.pairs)
        row[big_index[p]] = 1
        rows.append(row)
    raw = IntMatrix.from_rows(rows, len(big.pairs))
    p_free = small.free_projection.projection @ raw \
        @ _reference_free_section(big.free_projection)
    return _reference_basis_level(small, p_free, big.basis)


def _reference_distance_clutch_matrix(data_a, data_b, data_c, shared):
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
    sec = block_diag(_reference_free_section(data_a.free_projection),
                     _reference_free_section(data_b.free_projection))
    p_free = data_c.free_projection.projection @ raw @ sec
    return _reference_basis_level(data_c, p_free,
                                  block_diag(data_a.basis, data_b.basis))


@pytest.mark.parametrize("g, labels, mark", [
    *FORGET_CASES, *[(0, ["1", "2", "3", "4", "5"], m) for m in "12345"],
    (1, ["a", "b"], "b"), (2, ["a"], "a"), (2, ["a", "b"], "a"),
    (2, ["a", "b"], "b")])
def test_forget_lattice_map_matches_the_free_section_reference(g, labels,
                                                               mark):
    fm = forgetful(g, labels, mark)
    assert fm.int_matrix == _reference_distance_forget_matrix(
        fm.source.distance, fm.target.distance, mark)


@pytest.mark.parametrize("g, labels_a, h, labels_b", CLUTCH_CASES)
def test_clutch_lattice_map_matches_the_free_section_reference(
        g, labels_a, h, labels_b):
    cm = clutching(g, labels_a, h, labels_b)
    shift = dict(zip(gluing_labels(h), gluing_labels(g + h)[2 * g:]))
    renamed = distance_structure(
        [shift.get(lab, lab) for lab in cm.source.right.distance.labels])
    assert cm.int_matrix == _reference_distance_clutch_matrix(
        cm.source.left.distance, renamed, cm.target.distance, "c")


def _clutch_sides(names):
    """The clutch sides (g, A) with g <= 1, c in A and #A <= 4, the other
    marks taken from names in order."""
    return [(g, [*names[:n], "c"]) for g in (0, 1) for n in range(4)
            if 2 * g + n + 1 >= 3]


def test_unequal_clutching_fails_before_any_cone_matrix(monkeypatch):
    """Every pair of sides with g <= 1 and #A <= 4 but the four whose
    distance lattices both have rank 0 has no lattice map sending each
    split to its joined split, and clutching says so after building only
    the two sides: no target, no product and no cone matrix."""
    built = {}
    build_side = stfib.spanning_tree_fibration

    def side_once(g, labels):
        key = (g, tuple(labels))
        if key not in built:
            built[key] = build_side(g, labels)
        return built[key]

    def never(*args):
        raise AssertionError("built past the lattice map")

    monkeypatch.setattr(stfib, "spanning_tree_fibration", side_once)
    monkeypatch.setattr(stfib, "product_fibration", never)
    monkeypatch.setattr(stfib, "_clutch_edge_matrix", never)
    left_sides = _clutch_sides(["1", "2", "3"])
    right_sides = _clutch_sides(["4", "5", "6"])
    unequal = [(a, b) for a in left_sides for b in right_sides
               if 2 * a[0] + len(a[1]) > 3 or 2 * b[0] + len(b[1]) > 3]
    assert len(unequal) == 32
    for (g, labels_a), (h, labels_b) in unequal:
        with pytest.raises(FibrationMorphismError, match=(
                r"linear square fails: no lattice map sends each split of "
                r"\{[^}]*\} and \{[^}]*\}")):
            clutching(g, labels_a, h, labels_b)
    sides = {(g, tuple(sorted(a))) for g, a in left_sides + right_sides}
    assert set(built) <= sides
