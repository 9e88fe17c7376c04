"""The concrete fibrations of tropical moduli: the spanning-tree
fibration, forgetting a marking, and clutching, together with the
pushforward of equivariant weights through fibration morphisms.

The spanning-tree source is the complex of (A ⊔ gluing-set)-marked trees
times a positive orthant of gluing lengths, with the distance linear
structure composed with the projection away from the gluing factor.
"""

from __future__ import annotations

from functools import reduce

from .complexes import (
    LinearStructure,
    product_complex,
    product_id,
    product_linear,
    relint_complex,
)
from .cone import poic_new
from .cone import product as cone_product
from .fibration import (
    Fibration,
    FibrationError,
    composed_linear,
    is_equivariant,
    is_pi_compatible,
)
from .graphs import (
    BadMarks,
    DiscreteGraph,
    UnstableParameters,
    check_marks,
    gluing_labels,
    graph_new,
    st_join,
)
from .intlinalg import (
    IntMatrix,
    block_diag,
    solve_integer_columns,
    unimodular_inverse,
)
from .moduli import (
    DistanceData,
    build_moduli,
    distance_structure,
)
from .spaces import space_from_complex, space_isos, space_new
from .subdivision import (
    ComplexMorphism,
    Subdivision,
    compose_subdivisions,
    is_weakly_proper,
    pushforward,
    validate_complex_morphism,
)
from .value import Value, set_field
from .weights import Weight, is_balanced, pullback


class FibrationMorphismError(ValueError):
    pass


class UnstableAfterForgetting(FibrationMorphismError):
    pass


class BadLabelIntersection(FibrationMorphismError):
    pass


# ---------------------------------------------------------------------------
# the spanning-tree fibration

class STFibration(Value):
    """The spanning-tree fibration of genus-g A-marked graphs: ``trees``
    is the ModuliComplex of (A ⊔ g)-marked trees, and ``tree_of_cone``
    maps a source cone id to its tree class id."""

    __slots__ = _fields = ("genus", "labels", "fibration", "trees",
                           "moduli_category", "tree_of_cone", "distance")

    def __init__(self, genus: int, labels: tuple, fibration: Fibration,
                 trees: object, moduli_category: object, tree_of_cone: dict,
                 distance: DistanceData):
        set_field(self, "genus", genus)
        set_field(self, "labels", labels)
        set_field(self, "fibration", fibration)
        set_field(self, "trees", trees)
        set_field(self, "moduli_category", moduli_category)
        set_field(self, "tree_of_cone", tree_of_cone)
        set_field(self, "distance", distance)

    @property
    def complex(self):
        return self.fibration.complex

    @property
    def space(self):
        return self.fibration.space


def _unit_rows(keys, col):
    """One unit row per key, at that key's column."""
    n = len(col)
    return IntMatrix(len(keys), n, tuple(
        int(col[k] == j) for k in keys for j in range(n)))


def _st_edge_matrix(tree_rep: DiscreteGraph, g: int, cat):
    """Class of st(T) in cat and the matrix sigma_T x R^g ->
    sigma_{st(T)-rep}."""
    image = st_join(tree_rep, g) if g > 0 else tree_rep
    # st_join keeps the flags, so every edge of the image is a tree edge
    # or a gluing pair
    col = {e: i for i, e in enumerate(tree_rep.edges())}
    marking = tree_rep.marking_dict()
    for i in range(1, g + 1):
        fa, fb = marking[f"g{i}"], marking[f"g{i}*"]
        col[(min(fa, fb), max(fa, fb))] = len(col)
    return _class_and_matrix(cat, image, _unit_rows(image.edges(), col))


def spanning_tree_fibration(g, labels) -> STFibration:
    """The linear poic-fibration st_{g,A} over the moduli of genus-g
    A-marked graphs, with source pure of dimension 3g + #A - 3."""
    labels = check_marks(g, labels)
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

    if g == 0:
        # the gluing set is empty, so the trees are the target
        target = trees
        space = space_from_complex(trees.complex)
    else:
        target = build_moduli(g, labels)
        space = target.space
    target_cat = target.category

    object_map = {}
    transforms = {}
    tree_of_cone = {}
    for pid, (t_id, _) in pairs.items():
        object_map[pid], transforms[pid] = _st_edge_matrix(
            trees.category.classes[t_id], g, target_cat)
        tree_of_cone[pid] = t_id
    morphism_map = {}
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

class FibrationMorphism(Value):
    """A morphism of poic-fibrations.  Source and target are anything with
    a .fibration: an STFibration, or a ProductFibration for clutching."""

    __slots__ = _fields = ("source", "target", "cone_map", "matrices",
                           "int_matrix", "space_map", "space_matrices")

    def __init__(self, source: object, target: object, cone_map: dict,
                 matrices: dict, int_matrix: IntMatrix, space_map: dict,
                 space_matrices: dict):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "cone_map", cone_map)
        set_field(self, "matrices", matrices)
        set_field(self, "int_matrix", int_matrix)
        set_field(self, "space_map", space_map)
        set_field(self, "space_matrices", space_matrices)

    def complex_morphism(self) -> ComplexMorphism:
        return ComplexMorphism(
            source=self.source.fibration.complex,
            target=self.target.fibration.complex,
            cone_map=dict(self.cone_map), matrices=dict(self.matrices))


def validate_fibration_morphism(fm: FibrationMorphism):
    mor = fm.complex_morphism()
    validate_complex_morphism(mor)
    src, tgt = fm.source.fibration, fm.target.fibration
    for p in src.complex.ids():
        lhs = fm.int_matrix @ src.linear.maps[p]
        rhs = tgt.linear.maps[fm.cone_map[p]] @ fm.matrices[p]
        if lhs != rhs:
            raise FibrationMorphismError(f"linear square fails at {p}")
        x = src.pi(p)
        if tgt.pi(fm.cone_map[p]) != fm.space_map[x]:
            raise FibrationMorphismError(f"fibration square fails at {p}")
        # source and target fix their charts independently, so the square
        # commutes up to an automorphism of the target object
        lhs = tgt.transforms[fm.cone_map[p]] @ fm.matrices[p]
        rhs = fm.space_matrices[x] @ src.transforms[p]
        if not any(u @ rhs == lhs for u in space_isos(
                tgt.space, fm.space_map[x], fm.space_map[x])):
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
    sp_s, sp_t = fm.source.fibration.space, fm.target.fibration.space
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
# the lattice map of a morphism: each split goes to the split it becomes

def _split_map(sources, image, target: DistanceData):
    """The lattice map from the sum of the N_dist of ``sources`` to
    N_dist(target) that sends the split of each side of source i to the
    target split of image(i, side).  The splits generate the source
    lattice, so the map is unique when it exists."""
    splits = reduce(block_diag, [IntMatrix.from_rows(
        list(data.split_coords.values()), data.rank) for data in sources])
    images = IntMatrix.from_rows(
        [target.split_in_basis(image(i, side))
         for i, data in enumerate(sources) for side in data.split_coords],
        target.rank)
    x = solve_integer_columns(splits, images)
    if x is None:
        raise FibrationMorphismError(
            "linear square fails: no lattice map sends each split of "
            + " and ".join("{%s}" % ",".join(d.labels) for d in sources)
            + " to the split it becomes in {%s}" % ",".join(target.labels))
    return x.transpose()


# ---------------------------------------------------------------------------
# forgetting a marking

def forget_leg(g: DiscreteGraph, label):
    """Forget a marked leg with the three stabilization cases.

    Returns (graph, eta, glue_edge_hit) where eta maps edge lengths of g
    to edge lengths of the result and glue_edge_hit is (other_leg_label,
    dropped_edge_index) in the leg case, None otherwise.
    """
    la = g.marking_dict()[label]
    va = g.root[la]
    others = [x for x in range(g.nflags)
              if g.root[x] == va and x not in (va, la)]
    edges = g.edges()
    root, inv = list(g.root), list(g.inv)

    def edge(f):
        return (min(f, g.inv[f]), max(f, g.inv[f]))

    removed = {la}
    # old edge -> the pair of old flags that carries its image, or None
    # when the edge is dropped; every other edge keeps its flags
    image = {}
    glue_hit = None
    if len(others) <= 2:
        if len(others) != 2:
            raise UnstableAfterForgetting(
                "vertex would become too low-valent")
        f1, f2 = sorted(others)
        leg1, leg2 = g.inv[f1] == f1, g.inv[f2] == f2
        if leg1 and leg2:
            raise UnstableAfterForgetting(
                "forgetting the mark destabilizes the graph")
        if not leg1 and not leg2:
            # merge the two edges at va into one
            ha, hb = g.inv[f1], g.inv[f2]
            removed = {la, f1, f2, va}
            inv[ha], inv[hb] = hb, ha
            image = {edge(f1): (ha, hb), edge(f2): (ha, hb)}
        else:
            # drop the edge at va and move the other leg across it
            leg_flag, edge_flag = (f1, f2) if leg1 else (f2, f1)
            removed = {la, edge_flag, g.inv[edge_flag], va}
            root[leg_flag] = g.root[g.inv[edge_flag]]
            image = {edge(edge_flag): None}
            glue_hit = (g.label_of(leg_flag), edges.index(edge(edge_flag)))
    kept = [x for x in range(g.nflags) if x not in removed]
    new_index = {x: i for i, x in enumerate(kept)}
    out = graph_new(len(kept), [new_index[root[x]] for x in kept],
                    [new_index[inv[x]] for x in kept],
                    {lab: new_index[f] for lab, f in g.marking
                     if lab != label})
    new_edge = {}
    for e in edges:
        flags = image.get(e, e)
        if flags is not None:
            a, b = new_index[flags[0]], new_index[flags[1]]
            new_edge[e] = (min(a, b), max(a, b))
    eta = IntMatrix.from_rows(
        [[1 if new_edge.get(e) == f else 0 for e in edges]
         for f in out.edges()], len(edges))
    return out, eta, glue_hit


def _class_and_matrix(cat, graph, eta):
    """Locate graph in cat.  Returns its class id and eta (one row per
    edge of graph) with its rows moved to the edges of the class
    representative by the canonical relabeling."""
    cls, phi = cat.locate(graph)
    if cls is None:
        raise FibrationMorphismError("graph class missing from category")
    inv_phi = [0] * len(phi)
    for x, y in enumerate(phi):
        inv_phi[y] = x
    graph_idx = {e: i for i, e in enumerate(graph.edges())}
    rep_edges = cat.classes[cls].edges()
    entries = ()
    for (a, b) in rep_edges:
        ra, rb = inv_phi[a], inv_phi[b]
        entries += eta.row(graph_idx[(min(ra, rb), max(ra, rb))])
    return cls, IntMatrix(len(rep_edges), eta.cols, entries)


def forgetful(g, labels, mark) -> FibrationMorphism:
    """The weakly proper morphism of fibrations st_{g,A} -> st_{g,A\\a}."""
    labels = check_marks(g, labels)
    mark = str(mark)
    if mark not in labels:
        raise BadMarks(f"{mark} is not a mark")
    rest = tuple(l for l in labels if l != mark)
    if 2 * g + len(rest) - 2 <= 0:
        raise UnstableAfterForgetting(
            "target parameters would be unstable")
    src = spanning_tree_fibration(g, labels)
    tgt = spanning_tree_fibration(g, rest)
    space_map = {}
    space_matrices = {}
    for x in src.space.ids():
        ft_graph, eta, _ = forget_leg(src.moduli_category.classes[x], mark)
        space_map[x], space_matrices[x] = _class_and_matrix(
            tgt.moduli_category, ft_graph, eta)
    int_matrix = _split_map([src.distance], lambda _, side: side - {mark},
                            tgt.distance)
    # forget the mark on each source tree; an edge dropped together with a
    # gluing leg adds its length to that leg's gluing coordinate
    glue_row = {lab: i // 2 for i, lab in enumerate(gluing_labels(g))}
    cone_map = {}
    matrices = {}
    for pid, t_id in src.tree_of_cone.items():
        tree, eta, hit = forget_leg(src.trees.category.classes[t_id], mark)
        cls, eta = _class_and_matrix(tgt.trees.category, tree, eta)
        cone_map[pid] = product_id(cls, "glue")
        rows = block_diag(eta, IntMatrix.identity(g)).to_rows()
        if hit is not None and hit[0] in glue_row:
            rows[eta.rows + glue_row[hit[0]]][hit[1]] = 1
        matrices[pid] = IntMatrix.from_rows(rows, eta.cols + g)
    fm = FibrationMorphism(source=src, target=tgt, cone_map=cone_map,
                           matrices=matrices, int_matrix=int_matrix,
                           space_map=space_map,
                           space_matrices=space_matrices)
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


class ProductFibration(Value):
    """The product of two spanning-tree fibrations: ``pairs`` maps a cone
    id to its (left cone, right cone), and ``space_pairs`` a space object
    id to its (left object, right object)."""

    __slots__ = _fields = ("fibration", "left", "right", "pairs",
                           "space_pairs")

    def __init__(self, fibration: Fibration, left: STFibration,
                 right: STFibration, pairs: dict, space_pairs: dict):
        set_field(self, "fibration", fibration)
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "pairs", pairs)
        set_field(self, "space_pairs", space_pairs)


def product_fibration(left: STFibration, right: STFibration):
    f1, f2 = left.fibration, right.fibration
    source, pairs = product_complex(f1.complex, f2.complex)
    linear = product_linear(f1.complex, f1.linear, f2.complex, f2.linear,
                            pairs)
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


def _clutch_edge_matrix(gL, gR, joined, index_map, cat, glue=(0, 0)):
    """Class of the joined graph in cat and the matrix
    sigma_L x R^glue[0] x sigma_R x R^glue[1] -> sigma_{joined-rep} x
    R^(glue[0] + glue[1]): edges go to edges, and the gluing lengths of
    the left then the right side to the gluing rows."""
    # clutch_graphs keeps each flag's side, so every edge of the joined
    # graph is a left edge or a right edge
    col, lengths = {}, []
    for side, graph, n in (("a", gL, glue[0]), ("b", gR, glue[1])):
        for (x, y) in graph.edges():
            a, b = index_map[(side, x)], index_map[(side, y)]
            col[(min(a, b), max(a, b))] = len(col)
        for i in range(n):
            col[(side, i)] = len(col)
            lengths.append((side, i))
    cls, eta = _class_and_matrix(cat, joined, _unit_rows(joined.edges(), col))
    return cls, IntMatrix.from_rows(
        eta.to_rows() + _unit_rows(lengths, col).to_rows(), len(col))


def clutching(g, labels_a, h, labels_b) -> FibrationMorphism:
    """The proper morphism st_{g,A} x st_{h,B} -> st_{g+h, A Δ B} joining
    two graphs at the shared leg label."""
    labels_a = tuple(sorted(str(x) for x in labels_a))
    labels_b = tuple(sorted(str(x) for x in labels_b))
    shared = set(labels_a) & set(labels_b)
    if len(shared) != 1:
        raise BadLabelIntersection("label sets must share exactly one mark")
    c = shared.pop()
    left = spanning_tree_fibration(g, labels_a)
    right = spanning_tree_fibration(h, labels_b)
    delta = check_marks(g + h, (set(labels_a) | set(labels_b)) - {c})
    # the right side's gluing labels g1.. become g(g+1).. in the target,
    # and each split of a side the split of its part without c; unequal
    # sides fail here, before the target is built
    shift = dict(zip(gluing_labels(h), gluing_labels(g + h)[2 * g:]))

    def part(i, side):
        data, rename = ((left.distance, {}), (right.distance, shift))[i]
        side = side if c not in side else set(data.labels) - side
        return {rename.get(lab, lab) for lab in side}

    int_matrix = _split_map(
        [left.distance, right.distance], part,
        distance_structure(delta + tuple(gluing_labels(g + h))))
    target = spanning_tree_fibration(g + h, delta)
    prod = product_fibration(left, right)
    space_map = {}
    space_matrices = {}
    for xid, (x1, x2) in prod.space_pairs.items():
        g1 = left.moduli_category.classes[x1]
        g2 = right.moduli_category.classes[x2]
        joined, index_map = clutch_graphs(g1, g2, c)
        space_map[xid], space_matrices[xid] = _clutch_edge_matrix(
            g1, g2, joined, index_map, target.moduli_category)
    # join each pair of source trees at c, the right one renamed by shift
    cone_map = {}
    matrices = {}
    for pid, (p1, p2) in prod.pairs.items():
        t1 = left.trees.category.classes[left.tree_of_cone[p1]]
        t2 = right.trees.category.classes[right.tree_of_cone[p2]]
        t2 = graph_new(t2.nflags, t2.root, t2.inv,
                       {shift.get(lab, lab): f for lab, f in t2.marking})
        joined, index_map = clutch_graphs(t1, t2, c)
        cls, matrices[pid] = _clutch_edge_matrix(
            t1, t2, joined, index_map, target.trees.category, (g, h))
        cone_map[pid] = product_id(cls, "glue")
    cm = FibrationMorphism(source=prod, target=target, cone_map=cone_map,
                           matrices=matrices, int_matrix=int_matrix,
                           space_map=space_map,
                           space_matrices=space_matrices)
    validate_fibration_morphism(cm)
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
    comp = compose_subdivisions(fm.complex_morphism(), sub_s)
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
    lin = composed_linear(tgt_fib, tower)
    if not is_balanced(tower.source, lin, result):
        raise FibrationMorphismError("pushforward lost balancing")
    if not is_equivariant(tgt_fib, tower, result):
        raise FibrationMorphismError("pushforward lost equivariance")
    return result
