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
    product_homs,
    product_id,
    product_linear,
    product_objects,
    relint_complex,
)
from .cone import poic_new
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
    carry,
    check_marks,
    gluing_labels,
    graph_new,
    rebuild,
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
    edge_matrix,
)
from .spaces import isos_from, space_from_complex, space_isos, space_new
from .subdivision import (
    ComplexMorphism,
    Subdivision,
    compose_subdivisions,
    is_weakly_proper,
    pushforward,
    validate_complex_morphism,
)
from .value import TropoconeError, Value
from .weights import Weight, is_balanced, pullback


class FibrationMorphismError(TropoconeError):
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

    @property
    def complex(self):
        return self.fibration.complex

    @property
    def space(self):
        return self.fibration.space


def _key_rows(keys, cols):
    """One unit row per key, at its column (KeyError if it has none)."""
    return edge_matrix(cols, keys, dict(zip(keys, keys))).transpose()


def _st_edge_matrix(tree_rep: DiscreteGraph, g: int, cat):
    """Class of st(T) in cat and the matrix sigma_T x R^g ->
    sigma_{st(T)-rep}."""
    image = st_join(tree_rep, g) if g > 0 else tree_rep
    # st_join keeps the flags, so every edge of the image is a tree edge
    # or a gluing pair
    marking = tree_rep.marking_dict()
    cols = tree_rep.edges() + [carry((f"g{i}", f"g{i}*"), marking)
                               for i in range(1, g + 1)]
    return _class_and_matrix(cat, image, _key_rows(image.edges(), cols))


def spanning_tree_fibration(g, labels) -> STFibration:
    """The linear poic-fibration st_{g,A} over the moduli of genus-g
    A-marked graphs, with source pure of dimension 3g + #A - 3."""
    labels = check_marks(g, labels)
    if 2 * g + len(labels) - 2 <= 0:
        raise UnstableParameters("unstable parameters for the fibration")
    full = tuple(sorted(labels + tuple(gluing_labels(g))))
    trees = build_moduli(0, full)
    # the gluing factor: a positive orthant with the zero linear structure
    glue = relint_complex(
        poic_new(g, [(tuple(int(j == i) for j in range(g)), True)
                     for i in range(g)]), "glue")
    source, pairs = product_complex(trees.complex, glue)
    dist = trees.distance
    linear = product_linear(trees.complex, trees.linear, glue,
                            LinearStructure(0, {"glue": IntMatrix(0, g, ())}),
                            pairs)

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
    inverses = {p: unimodular_inverse(t) for p, t in transforms.items()}
    morphism_map = {}
    for (p, q) in source.order:
        m = transforms[q] @ source.facemap(p, q) @ inverses[p]
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
            if not any(f2 @ fm.space_matrices[x] == fm.space_matrices[y] @ f
                       for f2 in sp_t.hom(fm.space_map[x], fm.space_map[y])):
                raise FibrationMorphismError(
                    f"space morphism {x}->{y} has no image hom")
    return True


def space_iso_lifting(fm: FibrationMorphism):
    """The lifting property of isomorphisms demanded of (weakly) proper
    morphisms of fibrations; returns (flag, witness)."""
    sp_s, sp_t = fm.source.fibration.space, fm.target.fibration.space
    fibres = {}
    for x in sp_s.ids():
        fibres.setdefault(fm.space_map[x], []).append(x)
    lifts = {x: isos_from(sp_s, x) for x in sp_s.ids()}
    for s in sp_t.ids():
        for t, f in isos_from(sp_t, s):
            for s2 in fibres.get(s, ()):
                found = [(t2, f2) for t2, f2 in lifts[s2]
                         if fm.space_map[t2] == t
                         and fm.space_matrices[t2] @ f2
                         == f @ fm.space_matrices[s2]]
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
    edge = {f: e for e in edges for f in e}
    root, inv = list(g.root), list(g.inv)
    removed = {la}
    # old edge -> the pair of old flags that carries its image, or None
    # for a dropped edge
    image = {e: e for e in edges}
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
            image[edge[f1]] = image[edge[f2]] = (ha, hb)
        else:
            # drop the edge at va and move the other leg across it
            leg_flag, edge_flag = (f1, f2) if leg1 else (f2, f1)
            removed = {la, edge_flag, g.inv[edge_flag], va}
            root[leg_flag] = g.root[g.inv[edge_flag]]
            image[edge[edge_flag]] = None
            glue_hit = (g.label_of(leg_flag), edges.index(edge[edge_flag]))
    out, flags = rebuild(g.nflags, root, inv, [
        (lab, f) for lab, f in g.marking if lab != label], removed)
    return out, edge_matrix(out.edges(), edges, {
        e: pair and carry(pair, flags) for e, pair in image.items()}), glue_hit


def _class_and_matrix(cat, graph, eta):
    """Locate graph in cat.  Returns its class id and eta (one row per
    edge of graph) with its rows moved to the edges of the class
    representative by the canonical relabeling."""
    cls, phi = cat.locate(graph)
    if cls is None:
        raise FibrationMorphismError("graph class missing from category")
    inv_phi = {y: x for x, y in enumerate(phi)}
    graph_idx = {e: i for i, e in enumerate(graph.edges())}
    rep_edges = cat.classes[cls].edges()
    return cls, IntMatrix(len(rep_edges), eta.cols, sum(
        (eta.row(graph_idx[carry(e, inv_phi)]) for e in rep_edges), ()))


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

def clutch_graphs(g1: DiscreteGraph, g2: DiscreteGraph, shared):
    """Join two marked graphs at the shared leg label.  Returns (graph,
    flag map): the map is on the disjoint union, whose flags are those of
    g1 followed by those of g2 shifted by g1.nflags."""
    n = g1.nflags
    l1, l2 = g1.marking_dict()[shared], g2.marking_dict()[shared]
    v1, v2 = g1.root[l1], n + g2.root[l2]
    root = list(g1.root) + [v1 if n + r == v2 else n + r for r in g2.root]
    inv = list(g1.inv) + [n + x for x in g2.inv]
    marking = [(lab, f) for lab, f in g1.marking if lab != shared] + [
        (lab, n + f) for lab, f in g2.marking if lab != shared]
    return rebuild(n + g2.nflags, root, inv, marking, {l1, n + l2, v2})


class ProductFibration(Value):
    """The product of two spanning-tree fibrations: ``pairs`` maps a cone
    id to its (left cone, right cone), and ``space_pairs`` a space object
    id to its (left object, right object)."""

    __slots__ = _fields = ("fibration", "left", "right", "pairs",
                           "space_pairs")


def product_fibration(left: STFibration, right: STFibration):
    f1, f2 = left.fibration, right.fibration
    source, pairs = product_complex(f1.complex, f2.complex)
    linear = product_linear(f1.complex, f1.linear, f2.complex, f2.linear,
                            pairs)
    objects, space_pairs = product_objects(f1.space.objects,
                                           f2.space.objects)
    space = space_new(objects, product_homs(f1.space.homs, f2.space.homs))
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


def _clutch_edge_matrix(gL, gR, joined, flags, cat, glue=(0, 0)):
    """Class of the joined graph in cat and the matrix
    sigma_L x R^glue[0] x sigma_R x R^glue[1] -> sigma_{joined-rep} x
    R^(glue[0] + glue[1]): edges go to edges, and the gluing lengths of
    the left then the right side to the gluing rows."""
    # clutch_graphs keeps each flag's side, so every edge of the joined
    # graph is a left edge or a right edge; gluing length i is the key i
    cols, lengths = [], []
    for shift, graph, n in ((0, gL, glue[0]), (gL.nflags, gR, glue[1])):
        glue_keys = range(len(lengths), len(lengths) + n)
        cols += [carry((a + shift, b + shift), flags)
                 for a, b in graph.edges()] + list(glue_keys)
        lengths += glue_keys
    cls, eta = _class_and_matrix(cat, joined, _key_rows(joined.edges(), cols))
    return cls, IntMatrix.from_rows(
        eta.to_rows() + _key_rows(lengths, cols).to_rows(), len(cols))


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
        joined, flags = clutch_graphs(g1, g2, c)
        space_map[xid], space_matrices[xid] = _clutch_edge_matrix(
            g1, g2, joined, flags, target.moduli_category)
    # join each pair of source trees at c, the right one renamed by shift
    cone_map = {}
    matrices = {}
    for pid, (p1, p2) in prod.pairs.items():
        t1 = left.trees.category.classes[left.tree_of_cone[p1]]
        t2 = right.trees.category.classes[right.tree_of_cone[p2]]
        t2 = graph_new(t2.nflags, t2.root, t2.inv,
                       {shift.get(lab, lab): f for lab, f in t2.marking})
        joined, flags = clutch_graphs(t1, t2, c)
        cls, matrices[pid] = _clutch_edge_matrix(
            t1, t2, joined, flags, target.trees.category, (g, h))
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
