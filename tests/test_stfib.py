import pytest

from tropocone.fibration import (
    composed_linear,
    equivariant_basis,
    is_pi_compatible,
    validate_fibration,
)
from tropocone.graphs import canonical_form, graph_new
from tropocone.intlinalg import IntMatrix
from tropocone.stfib import (
    BadLabelIntersection,
    UnstableAfterForgetting,
    clutch_graphs,
    clutching,
    fibration_pushforward,
    forget_leg,
    forgetful,
    space_iso_lifting,
    spanning_tree_fibration,
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
