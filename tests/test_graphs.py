import itertools
import random
import subprocess
import sys

import pytest

from tropocone.graphs import (
    BadInvolution,
    GraphError,
    LoopContraction,
    MarkingNotBijective,
    UnstableParameters,
    _relabel,
    canonical_form,
    circuits,
    contract,
    contract_set,
    enumerate_category,
    graph_new,
    is_forest,
    st_join,
    star_tree,
    trivalent_trees,
)
from tropocone.moduli import (
    TooFewMarks,
    build_moduli,
    cone_of_metrics,
    distance_structure,
    leg_side_of_edge,
    tree_distance_matrix,
)
from tropocone.complexes import validate_linear
from tropocone.intlinalg import IntMatrix, is_zero_vec, vadd, vscale


def theta_graph():
    # flags AB1..3 = 0..2, BA1..3 = 3..5, A = 6, B = 7
    root = [6, 6, 6, 7, 7, 7, 6, 7]
    inv = [3, 4, 5, 0, 1, 2, 6, 7]
    return graph_new(8, root, inv, {})


def two_cycle_graph():
    root = [4, 5, 4, 5, 4, 5]
    inv = [1, 0, 3, 2, 4, 5]
    return graph_new(6, root, inv, {})


def test_theta_graph_shape():
    g = theta_graph()
    assert len(g.vertices()) == 2
    assert len(g.edges()) == 3
    assert g.genus() == 2
    assert g.legs() == []
    assert g.connected()


def test_bad_involution():
    with pytest.raises(BadInvolution):
        graph_new(3, [2, 2, 2], [1, 2, 0], {})


def test_marking_must_cover_legs():
    # single vertex with one leg: valid only when the leg is marked
    g = graph_new(2, [1, 1], [0, 1], {"a": 0})
    assert g.legs() == [0]
    with pytest.raises(MarkingNotBijective):
        graph_new(2, [1, 1], [0, 1], {})


def test_contract_theta_edge_gives_figure_eight():
    g = theta_graph()
    e = g.edges()[0]
    h, _ = contract(g, e)
    assert len(h.vertices()) == 1
    assert len(h.edges()) == 2
    assert h.genus() == 2
    assert all(h.is_loop(e) for e in h.edges())


def test_contract_loop_raises():
    g = theta_graph()
    h, _ = contract(g, g.edges()[0])
    with pytest.raises(LoopContraction):
        contract(h, h.edges()[0])


def test_contract_order_independence():
    g = theta_graph()
    e1, e2 = g.edges()[0], g.edges()[1]
    a, m1 = contract(g, e1)
    b, m2 = contract(g, e2)
    # contracting the second edge of each (it became a loop in both, so use
    # the surviving non-loop edges on a 4-leg tree instead)
    t = trivalent_trees(["1", "2", "3", "4", "5"])[0]
    es = [e for e in t.edges()]
    a, _ = contract_set(t, [es[0], es[1]])
    b, _ = contract_set(t, [es[1], es[0]])
    assert canonical_form(a)[0].encoding() == canonical_form(b)[0].encoding()


def test_aut_theta():
    _, _, autos = canonical_form(theta_graph())
    assert len(autos) == 12


def test_aut_two_cycle():
    _, _, autos = canonical_form(two_cycle_graph())
    assert len(autos) == 4


def test_aut_marked_tree_trivial():
    for t in trivalent_trees(["1", "2", "3", "4"]):
        _, _, autos = canonical_form(t)
        assert len(autos) == 1


def test_canonical_invariance_under_relabeling():
    import random
    rng = random.Random(5)
    g = theta_graph()
    base = canonical_form(g)[0].encoding()
    for _ in range(10):
        perm = list(range(g.nflags))
        rng.shuffle(perm)
        root = [0] * g.nflags
        inv = [0] * g.nflags
        for x in range(g.nflags):
            root[perm[x]] = perm[g.root[x]]
            inv[perm[x]] = perm[g.inv[x]]
        h = graph_new(g.nflags, root, inv, {})
        assert canonical_form(h)[0].encoding() == base


def test_trivalent_tree_counts():
    # (2n-5)!! oracle
    assert len(trivalent_trees(["1", "2", "3"])) == 1
    assert len(trivalent_trees(["1", "2", "3", "4"])) == 3
    assert len(trivalent_trees(["1", "2", "3", "4", "5"])) == 15
    assert len(trivalent_trees(list("123456"))) == 105


# The two grafts as they were written before one graft served legs and
# edges alike.

def _reference_graft_on_leg(t, leg_flag, new_label):
    n = t.nflags
    w, p, q, s = n, n + 1, n + 2, n + 3
    root = list(t.root) + [w, w, w, w]
    inv = list(t.inv) + [w, leg_flag, q, s]
    inv[leg_flag] = p
    marking = dict(t.marking)
    old_label = t.label_of(leg_flag)
    marking[old_label] = q
    marking[str(new_label)] = s
    return graph_new(n + 4, root, inv, marking)


def _reference_graft_on_edge(t, edge, new_label):
    a, b = edge
    n = t.nflags
    w, c, d, s = n, n + 1, n + 2, n + 3
    root = list(t.root) + [w, w, w, w]
    inv = list(t.inv) + [w, a, b, s]
    inv[a] = c
    inv[b] = d
    marking = dict(t.marking)
    marking[str(new_label)] = s
    return graph_new(n + 4, root, inv, marking)


def _reference_trivalent_trees(labels):
    labels = sorted(str(x) for x in labels)
    trees = [star_tree(labels[:3])]
    for lab in labels[3:]:
        nxt = []
        for t in trees:
            for leg in t.legs():
                nxt.append(_reference_graft_on_leg(t, leg, lab))
            for e in t.edges():
                nxt.append(_reference_graft_on_edge(t, e, lab))
        trees = nxt
    return trees


@pytest.mark.parametrize("n", range(3, 9))
def test_trivalent_trees_match_reference_grafts(n):
    """The same trees, flag for flag and in the same order: 10,395 of
    them at n = 8."""
    labels = [str(i) for i in range(1, n + 1)]
    assert [t.encoding() for t in trivalent_trees(labels)] == \
        [t.encoding() for t in _reference_trivalent_trees(labels)]


def test_enumerate_category_04():
    cat = enumerate_category(0, ["1", "2", "3", "4"])
    assert len(cat.classes) == 4
    assert len(cat.maximal) == 3


def test_enumerate_category_12():
    cat = enumerate_category(1, ["1", "2"])
    assert len(cat.classes) == 3


def test_enumerate_category_21():
    cat = enumerate_category(2, ["1"])
    assert len(cat.classes) == 7
    assert len(cat.maximal) == 3


def test_enumerate_category_2_empty():
    cat = enumerate_category(2, [])
    assert len(cat.classes) == 3
    # theta and dumbbell are the trivalent (3-edge) objects; the figure
    # eight (one vertex, two loops) is their common contraction
    assert len(cat.maximal) == 2
    sizes = sorted(len(rep.edges()) for rep in cat.classes.values())
    assert sizes == [2, 3, 3]


def test_enumerate_category_unstable():
    with pytest.raises(UnstableParameters):
        enumerate_category(0, ["1", "2"])
    with pytest.raises(UnstableParameters):
        enumerate_category(1, [])


def test_st_join_genus():
    for t in trivalent_trees(["g1", "g1*", "g2", "g2*"]):
        g = st_join(t, 2)
        assert g.genus() == 2
        assert g.connected()
        assert g.legs() == []


def test_circuits_and_forests():
    g = theta_graph()
    cs = circuits(g)
    # three 2-edge circuits in the theta graph
    assert len(cs) == 3
    assert all(len(c) == 2 for c in cs)
    es = g.edges()
    assert is_forest(g, [es[0]])
    assert not is_forest(g, [es[0], es[1]])


# ---------------------------------------------------------------------------
# contraction, forests and circuits against the edge-by-edge code they
# replaced

def _reference_contract(g, e):
    h1, h2 = e
    if g.inv[h1] != h2:
        raise GraphError(f"{e} is not an edge")
    v1, v2 = g.root[h1], g.root[h2]
    if v1 == v2:
        raise LoopContraction(f"edge {e} is a loop")
    keep_v, drop_v = min(v1, v2), max(v1, v2)
    removed = {h1, h2, drop_v}
    new_index = {}
    k = 0
    for x in range(g.nflags):
        if x not in removed:
            new_index[x] = k
            k += 1

    def image(x):
        if x in (h1, h2, drop_v, keep_v):
            return new_index[keep_v]
        return new_index[x]

    root = [0] * k
    inv = [0] * k
    for x in range(g.nflags):
        if x in removed:
            continue
        root[new_index[x]] = image(g.root[x])
        inv[new_index[x]] = image(g.inv[x])
    marking = {lab: new_index[f] for lab, f in g.marking}
    out = graph_new(k, root, inv, marking)
    return out, new_index


def _reference_contract_set(g, edge_set):
    current = g
    flagmap = {x: x for x in range(g.nflags)}
    todo = set(tuple(e) for e in edge_set)
    while todo:
        img = {}
        for (a, b) in todo:
            img[(a, b)] = (flagmap[a], flagmap[b])
        e = sorted(todo)[0]
        a, b = img[e]
        current, step = _reference_contract(current, (min(a, b), max(a, b)))
        flagmap = {x: step[y] for x, y in flagmap.items() if y in step}
        todo.discard(e)
    edge_map = {}
    for (a, b) in g.edges():
        if a in flagmap and b in flagmap:
            na, nb = flagmap[a], flagmap[b]
            edge_map[(a, b)] = (min(na, nb), max(na, nb))
    return current, edge_map


def _reference_is_forest(g, edge_set):
    edge_set = set(tuple(e) for e in edge_set)
    for e in edge_set:
        if g.is_loop(e):
            return False
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (a, b) in edge_set:
        ra, rb = find(g.root[a]), find(g.root[b])
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def _reference_circuits(g):
    edges = g.edges()
    out = []
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            deg = {}
            for (a, b) in combo:
                deg[g.root[a]] = deg.get(g.root[a], 0) + 1
                deg[g.root[b]] = deg.get(g.root[b], 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            verts = sorted(deg)
            adj = {v: set() for v in verts}
            for (a, b) in combo:
                adj[g.root[a]].add(g.root[b])
                adj[g.root[b]].add(g.root[a])
            seen = {verts[0]}
            stack = [verts[0]]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == len(verts):
                out.append(tuple(combo))
    return out


def _outcome(f, *args):
    """The result of f, or the type of the GraphError it raises."""
    try:
        return f(*args)
    except GraphError as exc:
        return type(exc)


def test_contractions_forests_and_circuits_match_reference():
    """On every edge subset of every class of six categories, and of a
    relabelled copy of each class (vertices no longer last): the same
    graphs, flag and edge maps, forests, circuits and errors."""
    rng = random.Random(18)
    graphs = list(ODD_GRAPHS)
    for genus, marks in [(0, "12345"), (1, "12"), (1, "123"), (2, ""),
                         (2, "1"), (3, "")]:
        for rep in enumerate_category(genus, list(marks)).classes.values():
            graphs += [rep, _relabeled(rep, rng)]
    loops = circuit_sets = 0
    for g in graphs:
        assert circuits(g) == _reference_circuits(g)
        circuit_sets += len(circuits(g))
        edges = g.edges()
        for e in edges:
            assert _outcome(contract, g, e) == \
                _outcome(_reference_contract, g, e)
            loops += g.is_loop(e)
        for r in range(len(edges) + 1):
            for combo in itertools.combinations(edges, r):
                assert is_forest(g, combo) == _reference_is_forest(g, combo)
                assert _outcome(contract_set, g, combo) == \
                    _outcome(_reference_contract_set, g, combo)
    assert loops > 0 and circuit_sets > len(graphs)
    not_an_edge = (theta_graph(), (0, 1))
    assert _outcome(contract, *not_an_edge) is GraphError
    assert _outcome(_reference_contract, *not_an_edge) is GraphError


def test_cone_of_metrics_two_cycle():
    c = cone_of_metrics(two_cycle_graph())
    assert c.rank == 2
    assert not c.contains((0, 0))
    assert c.contains((1, 0)) and c.contains((0, 1))


def test_cone_of_metrics_loop_graph():
    # one vertex with a loop, one edge to a leg-carrying vertex
    # flags: loop 0,1; edge 2,3; legs 4,5; vertices 6,7
    root = [6, 6, 6, 7, 7, 7, 6, 7]
    inv = [1, 0, 3, 2, 4, 5, 6, 7]
    g = graph_new(8, root, inv, {"1": 4, "2": 5})
    c = cone_of_metrics(g)
    assert c.rank == 2
    # the loop coordinate is strict, the edge coordinate is closed
    strict_count = sum(1 for _, s in c.facets if s)
    assert strict_count == 1
    assert len(c.facets) == 2


def test_cone_of_metrics_tree_closed():
    t = trivalent_trees(["1", "2", "3", "4"])[0]
    c = cone_of_metrics(t)
    assert c.is_closed()
    assert c.rank == 1


def test_distance_structure_m03_point():
    data = distance_structure(["1", "2", "3"])
    assert data.rank == 0
    with pytest.raises(TooFewMarks):
        distance_structure(["1", "2"])


def test_distance_structure_m04():
    data = distance_structure(["1", "2", "3", "4"])
    assert data.rank == 2
    v12 = data.split_in_basis(("1", "2"))
    v13 = data.split_in_basis(("1", "3"))
    v14 = data.split_in_basis(("1", "4"))
    assert is_zero_vec(vadd(vadd(v12, v13), v14))
    # raw 6-coordinate check: v12 separates 13,14,23,24
    raw = data.split_vector(("1", "2"))
    expect = {("1", "3"): 1, ("1", "4"): 1, ("2", "3"): 1, ("2", "4"): 1,
              ("1", "2"): 0, ("3", "4"): 0}
    assert raw == tuple(expect[p] for p in data.pairs)


def test_distance_structure_m05():
    data = distance_structure(["1", "2", "3", "4", "5"])
    # (2^5 - 2 - 10)/2 = 10 splits; lattice rank C(5,2) - 5 = 5
    count = 0
    from itertools import combinations
    for r in (2, 3):
        for side in combinations(data.labels, r):
            if data.labels[0] in side:
                continue
            count += 1
    assert count == 10
    assert data.rank == 5


def test_build_moduli_04():
    m = build_moduli(0, ["1", "2", "3", "4"])
    phi = m.complex
    assert sorted(phi.dim(p) for p in phi.ids()) == [0, 1, 1, 1]
    assert validate_linear(phi, m.linear)
    origin = phi.classes(0)[0]
    assert len(phi.above(origin)) == 3


def test_build_moduli_05_shape():
    m = build_moduli(0, ["1", "2", "3", "4", "5"])
    phi = m.complex
    dims = [phi.dim(p) for p in phi.ids()]
    assert dims.count(2) == 15
    assert dims.count(1) == 10
    assert dims.count(0) == 1
    assert phi.is_pure(2)


def test_build_moduli_12_space():
    m = build_moduli(1, ["1", "2"])
    assert len(m.space.objects) == 3


def test_leg_side():
    t = trivalent_trees(["1", "2", "3", "4"])[0]
    e = t.edges()[0]
    side = leg_side_of_edge(t, e)
    assert 0 < len(side) < 4


def _reference_leg_side_of_edge(t, edge):
    """The tree walk that leg_side_of_edge replaced, kept verbatim."""
    a, b = edge
    blocked = {a, b}
    start = t.root[a]
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for x in range(t.nflags):
            if t.root[x] != v or x in blocked or t.inv[x] == x:
                continue
            w = t.root[t.inv[x]]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return tuple(sorted(lab for lab, f in t.marking
                        if t.root[f] in seen))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_leg_side_of_edge_matches_the_tree_walk(n):
    cat = enumerate_category(0, [str(i) for i in range(1, n + 1)])
    pairs = 0
    for t in cat.classes.values():
        for a, b in t.edges():
            for edge in ((a, b), (b, a)):
                assert leg_side_of_edge(t, edge) \
                    == _reference_leg_side_of_edge(t, edge)
                pairs += 1
    assert pairs > 0


def test_moduli_04_skeleton_origin():
    from tropocone.complexes import skeleton
    m = build_moduli(0, ["1", "2", "3", "4"])
    sk = skeleton(m.complex, 0)
    assert len(sk.ids()) == 1
    assert sk.dim(sk.ids()[0]) == 0


# ---------------------------------------------------------------------------
# canonical form against the exhaustive search it replaced, and networkx

def _reference_refine_colors(g):
    verts = set(g.root)
    color = {}
    for x in range(g.nflags):
        if x in verts:
            color[x] = ("v",)
        elif g.inv[x] == x:
            color[x] = ("l", g.label_of(x))
        else:
            color[x] = ("e",)
    for _ in range(g.nflags + 1):
        ranked = {c: i for i, c in enumerate(sorted(set(color.values())))}
        base = {x: ranked[color[x]] for x in range(g.nflags)}
        nxt = {}
        for x in range(g.nflags):
            around = tuple(sorted(base[y] for y in range(g.nflags)
                                  if g.root[y] == x)) if x in verts else ()
            nxt[x] = (base[x], base[g.root[x]], base[g.inv[x]], around)
        if len(set(nxt.values())) == len(set(color.values())):
            color = nxt
            break
        color = nxt
    ranked = {c: i for i, c in enumerate(sorted(set(color.values())))}
    return {x: ranked[color[x]] for x in range(g.nflags)}


def _reference_canonical_form(g):
    """Every color-respecting labeling, kept in a list: the minimum
    encoding, the least labeling reaching it, the automorphisms."""
    color = _reference_refine_colors(g)
    cells = {}
    for x in range(g.nflags):
        cells.setdefault(color[x], []).append(x)
    ordered_cells = [cells[c] for c in sorted(cells)]
    offsets = []
    k = 0
    for cell in ordered_cells:
        offsets.append(k)
        k += len(cell)
    best = None
    labelings = []
    for perms in itertools.product(
            *[itertools.permutations(cell) for cell in ordered_cells]):
        phi = [0] * g.nflags
        for cell_perm, off in zip(perms, offsets):
            for i, x in enumerate(cell_perm):
                phi[x] = off + i
        enc = _relabel(g, phi)
        labelings.append((enc, tuple(phi)))
        if best is None or enc < best:
            best = enc
    phi_min = min(p for enc, p in labelings if enc == best)
    inv_min = [0] * g.nflags
    for x in range(g.nflags):
        inv_min[phi_min[x]] = x
    autos = []
    for enc, phi in labelings:
        if enc == best:
            a = tuple(inv_min[phi[x]] for x in range(g.nflags))
            autos.append(a)
    canon = graph_new(best[0], best[1], best[2], dict(best[3]))
    canon_autos = set()
    for a in autos:
        canon_autos.add(tuple(phi_min[a[inv_min[y]]]
                              for y in range(g.nflags)))
    return canon, phi_min, sorted(canon_autos)


def _relabeled(g, rng):
    perm = list(range(g.nflags))
    rng.shuffle(perm)
    root = [0] * g.nflags
    inv = [0] * g.nflags
    for x in range(g.nflags):
        root[perm[x]] = perm[g.root[x]]
        inv[perm[x]] = perm[g.inv[x]]
    return graph_new(g.nflags, root, inv,
                     {lab: perm[f] for lab, f in g.marking})


def _rewired(g, rng):
    """Swap the partners of two half-flags: often another graph."""
    halves = [x for x in g.half_flags() if g.inv[x] != x]
    a, b = rng.sample(halves, 2)
    inv = list(g.inv)
    ia, ib = inv[a], inv[b]
    if b == ia:
        return g
    inv[a], inv[ib], inv[b], inv[ia] = ib, a, ia, b
    return graph_new(g.nflags, g.root, inv, dict(g.marking))


ORACLE_CATEGORIES = [(0, "123"), (1, "1"), (1, "12"), (1, "123"),
                     (2, ""), (2, "1"), (2, "12"), (2, "123")]
ODD_GRAPHS = [
    graph_new(2, [0, 1], [0, 1], {}),                       # two points
    graph_new(9, [6, 6, 7, 7, 8, 8, 6, 7, 8],               # a triangle
              [5, 2, 1, 4, 3, 0, 6, 7, 8], {}),
    graph_new(6, [4, 4, 5, 5, 4, 5], [1, 0, 3, 2, 4, 5], {}),  # two loops
]


def test_canonical_form_matches_exhaustive_reference():
    rng = random.Random(11)
    graphs = list(ODD_GRAPHS)
    for genus, marks in ORACLE_CATEGORIES:
        graphs += enumerate_category(genus, list(marks)).classes.values()
    assert len(graphs) > 300
    for rep in graphs:
        for g in [rep] + [_relabeled(rep, rng) for _ in range(3)]:
            canon, phi, autos = canonical_form(g)
            ref_canon, ref_phi, ref_autos = _reference_canonical_form(g)
            assert canon.encoding() == ref_canon.encoding()
            assert tuple(phi) == tuple(ref_phi)
            assert autos == ref_autos


def _nx_graph(nx, g):
    out = nx.MultiGraph()
    for v in g.vertices():
        out.add_node(v, label=None)
    for x in g.legs():
        out.add_node(("leg", x), label=g.label_of(x))
        out.add_edge(g.root[x], ("leg", x))
    for a, b in g.edges():
        out.add_edge(g.root[a], g.root[b])
    return out


def test_canonical_form_decides_isomorphism_like_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    pairs = []
    for genus, marks in [(2, "12"), (3, "")]:
        reps = list(enumerate_category(genus, list(marks)).classes.values())
        for rep in reps:
            other = _rewired(rep, rng)
            pairs += [(rep, _relabeled(rep, rng)), (rep, rng.choice(reps)),
                      (rep, other), (_relabeled(other, rng), rep)]
    agree = {True: 0, False: 0}
    for g, h in pairs:
        iso = nx.is_isomorphic(
            _nx_graph(nx, g), _nx_graph(nx, h),
            node_match=lambda p, q: p["label"] == q["label"])
        same = (canonical_form(g)[0].encoding()
                == canonical_form(h)[0].encoding())
        assert same == iso
        agree[iso] += 1
    assert min(agree.values()) > 50


def test_enumerate_category_genus_three():
    cat = enumerate_category(3, [])
    assert len(cat.classes) == 15
    assert len(cat.maximal) == 5
    rose = [cid for cid, rep in cat.classes.items()
            if len(rep.vertices()) == 1]
    assert len(rose) == 1
    assert len(cat.automorphisms[rose[0]]) == 48


def _limit_address_space():
    import resource
    gib = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (gib, gib))


def test_enumerate_genus_three_cli_within_one_gib():
    done = subprocess.run(
        [sys.executable, "-m", "tropocone.cli", "enumerate", "--genus", "3",
         "--marks", ""], capture_output=True, text=True,
        preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    assert '"id": "G14"' in done.stdout


def test_st_fibration_genus_three_cli_validates_within_one_gib():
    """The spanning-tree fibration of genus 3 is built and validated in
    full (236 source cones) under the same address-space limit."""
    done = subprocess.run(
        [sys.executable, "-m", "tropocone.cli", "st-fibration", "--genus",
         "3", "--marks", ""], capture_output=True, text=True,
        preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    assert '"valid": true' in done.stdout
    assert '"source_cones": 236' in done.stdout
