"""Discrete graphs with legs, contractions, canonical forms, and the
categories of stable marked graphs.

A discrete graph is a flag set with a root map and an involution; legs are
the 1-orbits of the involution on non-vertex flags, edges the 2-orbits.
Canonical labeling refines colors, then finds the least encoding over all
color-respecting bijections by branch and bound: vertex labelings first,
then half-flags position by position, pruned by the best encoding so far.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property

from .value import InputError, TropoconeError, Value


class GraphError(TropoconeError):
    pass


class BadInvolution(GraphError):
    pass


class BadRootCompatibility(GraphError):
    pass


class MarkingNotBijective(GraphError):
    pass


class LoopContraction(GraphError):
    pass


class UnstableParameters(GraphError, InputError):
    """A genus and marks with 2g + #A - 2 <= 0, which no stable graph has."""


class BadMarks(GraphError, InputError):
    """A negative genus, a repeated mark, or a mark named like a gluing
    label; an input error rather than a failed construction."""


class DiscreteGraph(Value):
    """A graph on flags 0..nflags-1: ``root`` sends a flag to its vertex
    flag, ``inv`` is the edge involution, and ``marking`` the sorted
    ((label, flag), ...) pairs."""

    _fields = ("nflags", "root", "inv", "marking")

    # -- basic sets ------------------------------------------------------
    def vertices(self):
        return sorted(set(self.root))

    def half_flags(self):
        verts = set(self.root)
        return [x for x in range(self.nflags) if x not in verts]

    def legs(self):
        return [x for x in self.half_flags() if self.inv[x] == x]

    def edges(self):
        return list(self._edges)

    @cached_property
    def _edges(self):
        out = set()
        for x in self.half_flags():
            y = self.inv[x]
            if y != x:
                out.add((min(x, y), max(x, y)))
        return tuple(sorted(out))

    def genus(self):
        return len(self.edges()) - len(self.vertices()) + 1

    def valence(self, v):
        return sum(1 for x in range(self.nflags) if self.root[x] == v) - 1

    def is_loop(self, e):
        return self.root[e[0]] == self.root[e[1]]

    def label_of(self, flag):
        for lab, f in self.marking:
            if f == flag:
                return lab
        return None

    def marking_dict(self):
        return dict(self.marking)

    def connected(self):
        verts = self.vertices()
        if len(verts) <= 1:
            return True
        adj = {v: set() for v in verts}
        for (a, b) in self.edges():
            adj[self.root[a]].add(self.root[b])
            adj[self.root[b]].add(self.root[a])
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    def encoding(self):
        return (self.nflags, self.root, self.inv, self.marking)


def graph_new(nflags, root, involution, marking) -> DiscreteGraph:
    """Validated discrete graph with an A-marking of its legs."""
    root = tuple(int(x) for x in root)
    inv = tuple(int(x) for x in involution)
    if len(root) != nflags or len(inv) != nflags:
        raise GraphError("root or involution is not total on the flags")
    for x in range(nflags):
        if inv[inv[x]] != x:
            raise BadInvolution("involution is not an involution")
    for x in range(nflags):
        if inv[root[x]] != root[x] or root[root[x]] != root[x]:
            raise BadRootCompatibility("roots are not fixed compatibly")
    marking = tuple(sorted((str(k), int(v)) for k, v in dict(marking).items()))
    g = DiscreteGraph(nflags=nflags, root=root, inv=inv, marking=marking)
    marked = [f for _, f in marking]
    legs = g.legs()
    if len(set(marked)) != len(marked) or sorted(marked) != legs:
        raise MarkingNotBijective(
            f"marking {marking} is not a bijection onto the legs {legs}")
    return g


def _merge(g: DiscreteGraph, forest):
    """Each vertex of g -> the least vertex of its component under the
    edges ``forest``; raises LoopContraction when an edge closes a circuit
    (loops included)."""
    comp = {v: v for v in set(g.root)}
    for e in {tuple(e) for e in forest}:
        a, b = comp[g.root[e[0]]], comp[g.root[e[1]]]
        if a == b:
            raise LoopContraction(f"edge {e} closes a circuit")
        lo, hi = min(a, b), max(a, b)
        for v, c in comp.items():
            if c == hi:
                comp[v] = lo
    return comp


def rebuild(nflags, root, inv, marking, removed):
    """The graph on the flags 0..nflags-1 not in ``removed``, kept in
    their order: ``root`` and ``inv`` are lists on the old flags and
    ``marking`` (label, old flag) pairs.  Returns (graph, flag map old ->
    new)."""
    new = {x: i for i, x in enumerate(
        x for x in range(nflags) if x not in removed)}
    return graph_new(len(new), [new[root[x]] for x in new],
                     [new[inv[x]] for x in new],
                     {lab: new[f] for lab, f in marking}), new


def carry(e, flags):
    """The edge e = (a, b) carried through the flag map ``flags``, as a
    sorted pair."""
    a, b = flags[e[0]], flags[e[1]]
    return (a, b) if a < b else (b, a)


def _contract_forest(g: DiscreteGraph, forest):
    """Contract a forest of edges in one pass; returns (graph, flag map
    old -> new).  Each component keeps its least vertex and the other
    flags keep their order, as when contracting edge by edge."""
    forest = {tuple(e) for e in forest}
    if not forest:
        return g, {x: x for x in range(g.nflags)}
    for a, b in forest:
        if g.inv[a] != b:
            raise GraphError(f"{(a, b)} is not an edge")
    comp = _merge(g, forest)
    removed = {x for e in forest for x in e}
    removed |= {v for v, c in comp.items() if c != v}
    return rebuild(g.nflags, [comp[v] for v in g.root], g.inv, g.marking,
                   removed)


def contract(g: DiscreteGraph, e) -> DiscreteGraph:
    """Contract a non-loop edge; returns (graph, flag map old -> new)."""
    return _contract_forest(g, [e])


def contract_set(g: DiscreteGraph, edge_set):
    """Contract a forest of edges; returns (graph, edge map).

    The edge map sends each surviving edge of g to the corresponding edge
    of the contraction.
    """
    current, flagmap = _contract_forest(g, edge_set)
    return current, {e: carry(e, flagmap) for e in g.edges()
                     if e[0] in flagmap and e[1] in flagmap}


def is_forest(g: DiscreteGraph, edge_set):
    """True iff the edge subset spans no circuit (loops are circuits)."""
    try:
        _merge(g, edge_set)
    except LoopContraction:
        return False
    return True


def circuits(g: DiscreteGraph):
    """All simple circuits as sorted edge tuples (loops are circuits): the
    edge sets that are not a forest while every one edge smaller is."""
    edges = g.edges()
    out = []
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            if not is_forest(g, combo) and all(
                    is_forest(g, sub)
                    for sub in itertools.combinations(combo, r - 1)):
                out.append(combo)
    return out


# ---------------------------------------------------------------------------
# canonical form

def _refine_colors(g: DiscreteGraph):
    n = g.nflags
    verts = set(g.root)
    label = {f: lab for lab, f in g.marking}
    around = {v: [] for v in verts}
    for x in range(n):
        around[g.root[x]].append(x)
    color = [("v",) if x in verts else ("l", label[x]) if g.inv[x] == x
             else ("e",) for x in range(n)]
    for _ in range(n + 1):
        ranked = {c: i for i, c in enumerate(sorted(set(color)))}
        base = [ranked[c] for c in color]
        nxt = [(base[x], base[g.root[x]], base[g.inv[x]],
                tuple(sorted(base[y] for y in around[x])) if x in verts
                else ()) for x in range(n)]
        stable = len(set(nxt)) == len(ranked)
        color = nxt
        if stable:
            break
    ranked = {c: i for i, c in enumerate(sorted(set(color)))}
    return [ranked[c] for c in color]


def _relabel(g: DiscreteGraph, phi):
    root = [0] * g.nflags
    inv = [0] * g.nflags
    for x in range(g.nflags):
        root[phi[x]] = phi[g.root[x]]
        inv[phi[x]] = phi[g.inv[x]]
    marking = {lab: phi[f] for lab, f in g.marking}
    return (g.nflags, tuple(root), tuple(inv),
            tuple(sorted(marking.items())))


def canonical_form(g: DiscreteGraph):
    """Deterministic canonical relabeling and the automorphism group.

    Returns (canonical graph, relabeling flag map, automorphisms); two
    marked graphs are isomorphic iff their canonical encodings coincide,
    and the automorphisms are flag permutations of the canonical graph.
    The encoding is the least over all color-respecting labelings, the
    relabeling the least labeling reaching it.
    """
    n = g.nflags
    color = _refine_colors(g)
    cells = {}
    for x in range(n):
        cells.setdefault(color[x], []).append(x)
    phi = [0] * n
    vcells, others, k = [], [], 0
    for c in sorted(cells):   # half-flag cells, then legs, then vertices
        cell = cells[c]
        phi[cell[0]] = k
        (vcells if g.root[cell[0]] == cell[0] else others).append((k, cell))
        k += len(cell)
    if len(cells) == n:
        return DiscreteGraph(*_relabel(g, phi)), tuple(phi), [tuple(range(n))]
    # A vertex labeling fixes the least root tuple: each half-flag cell
    # sorted by vertex label.  Keep the vertex labelings that tie for it.
    best, ties = None, []
    for perms in itertools.product(
            *[itertools.permutations(cell) for _, cell in vcells]):
        for (off, _), perm in zip(vcells, perms):
            for i, v in enumerate(perm):
                phi[v] = off + i
        key = [sorted(phi[g.root[x]] for x in cell) for _, cell in others]
        if best is None or key < best:
            best, ties = key, []
        if key == best:
            ties.append(list(phi))
    bound, leaves = None, []

    def search(p, tight):
        """Fill the half-flag positions from p on, each partner in the
        first free slot of its (cell, vertex) group: any later slot makes
        val[p] larger.  ``tight``: val[:p] equals the bound's.  True iff
        a leaf lowered the bound."""
        nonlocal bound, leaves
        if p == len(val):
            if bound is None or val < bound:
                bound, leaves = list(val), [tuple(phi)]
                return True
            if val == bound:
                leaves.append(tuple(phi))
            return False
        lowered = False
        for x in fits[p] if val[p] is None else [None]:
            if x is not None:
                if phi[x] >= 0:
                    continue
                y = g.inv[x]
                phi[x], val[p] = p, -1
                q = val.index(None, group[y])
                phi[y], val[p], val[q] = q, q, p
            if not (tight and val[p] > bound[p]) and search(
                    p + 1, tight and val[p] == bound[p]):
                lowered = tight = True
            if x is not None:
                phi[x] = phi[y] = -1
                val[p] = val[q] = None
        return lowered

    for phi in ties:
        group, fits = {}, []   # half-flag -> first slot; slot -> flags
        for off, cell in others:
            if g.inv[cell[0]] != cell[0]:
                labs = sorted(phi[g.root[x]] for x in cell)
                for x in cell:
                    group[x] = off + labs.index(phi[g.root[x]])
                fits += [[x for x in cell if phi[g.root[x]] == lab]
                         for lab in labs]
        for x in group:
            phi[x] = -1
        val = [None] * len(fits)
        search(0, bound is not None)
    phi_min = min(leaves)
    inv_min = [0] * n
    for x in range(n):
        inv_min[phi_min[x]] = x
    autos = sorted(tuple(a[inv_min[y]] for y in range(n)) for a in leaves)
    return DiscreteGraph(*_relabel(g, phi_min)), phi_min, autos


# ---------------------------------------------------------------------------
# trees and the categories of stable graphs

def star_tree(labels) -> DiscreteGraph:
    labels = sorted(str(x) for x in labels)
    n = len(labels)
    root = [n] * n + [n]
    inv = list(range(n + 1))
    marking = {lab: i for i, lab in enumerate(labels)}
    return graph_new(n + 1, root, inv, marking)


def _graft(t: DiscreteGraph, flag, label):
    """Graft a trivalent vertex n carrying a new leg n+3 = ``label`` onto
    the leg or edge at ``flag``: flag is joined to n+1, and n+2 takes the
    flag's old partner, or for a leg its old label."""
    n = t.nflags
    other = t.inv[flag]
    root = list(t.root) + [n] * 4
    inv = list(t.inv) + [n, flag, n + 2, n + 3]
    inv[flag] = n + 1
    marking = dict(t.marking)
    if other == flag:
        marking[t.label_of(flag)] = n + 2
    else:
        inv[other], inv[n + 2] = n + 2, other
    marking[str(label)] = n + 3
    return graph_new(n + 4, root, inv, marking)


def trivalent_trees(labels):
    """All trivalent trees with the given marked legs, one per
    isomorphism class (marked trees are rigid)."""
    labels = sorted(str(x) for x in labels)
    if len(labels) < 3:
        raise UnstableParameters("need at least three legs for a tree")
    trees = [star_tree(labels[:3])]
    for lab in labels[3:]:
        nxt = []
        for t in trees:
            nxt += [_graft(t, leg, lab) for leg in t.legs()]
            nxt += [_graft(t, a, lab) for a, _ in t.edges()]
        trees = nxt
    return trees


def gluing_labels(g):
    out = []
    for i in range(1, g + 1):
        out.append(f"g{i}")
        out.append(f"g{i}*")
    return out


def check_marks(g, labels):
    """The marks as a sorted tuple of strings, after checking that the
    genus is nonnegative, that no mark repeats and, for g > 0, that no
    mark is named like a gluing label gi or gi*."""
    if g < 0:
        raise BadMarks(f"genus {g} is negative")
    labels = tuple(sorted(str(x) for x in labels))
    for lab, nxt in zip(labels, labels[1:]):
        if lab == nxt:
            raise BadMarks(f"mark {lab!r} is repeated")
    if g > 0:
        for lab in labels:
            if re.fullmatch(r"g[0-9]+\*?", lab):
                raise BadMarks(f"mark {lab!r} is named like a gluing label "
                               f"(reserved at genus {g})")
    return labels


def st_join(t: DiscreteGraph, g: int) -> DiscreteGraph:
    """Join the gi- and gi*-legs of an (A ⊔ g-set)-marked tree into new
    edges, producing a genus-g graph marked by the remaining labels."""
    marking = t.marking_dict()
    inv = list(t.inv)
    keep = dict(marking)
    for i in range(1, g + 1):
        a, b = f"g{i}", f"g{i}*"
        fa, fb = marking[a], marking[b]
        inv[fa] = fb
        inv[fb] = fa
        del keep[a]
        del keep[b]
    return graph_new(t.nflags, t.root, inv, keep)


class GraphCategory(Value):
    """A skeleton of the category of stable genus-g A-marked graphs.

    ``classes`` maps an id to its canonical representative graph,
    ``automorphisms`` an id to its tuple of flag permutations, and
    ``maximal`` holds the ids of the trivalent classes.
    """

    _fields = ("genus", "labels", "classes", "automorphisms", "maximal")

    def ids(self):
        return sorted(self.classes)

    @cached_property
    def _ids_by_encoding(self):
        return {rep.encoding(): cid for cid, rep in self.classes.items()}

    def locate(self, g: DiscreteGraph):
        """(class id, canonical relabeling of g onto its representative),
        or (None, relabeling) when g lies in another category.

        A representative is its own canonical form, with the identity
        relabeling, so it is looked up without canonicalising again.
        """
        cid = self._ids_by_encoding.get(g.encoding())
        if cid is not None:
            return cid, tuple(range(g.nflags))
        canon, phi, _ = canonical_form(g)
        return self._ids_by_encoding.get(canon.encoding()), phi

    def class_of(self, g: DiscreteGraph):
        return self.locate(g)[0]


def enumerate_category(g, labels) -> GraphCategory:
    """All isomorphism classes of stable (>= 3-valent) genus-g A-marked
    graphs: trivalent ones first, then saturation by edge contraction."""
    labels = check_marks(g, labels)
    if 2 * g + len(labels) - 2 <= 0:
        raise UnstableParameters(f"2g + #A - 2 must be positive")
    full = sorted(labels + tuple(gluing_labels(g)))
    seen = {}
    frontier = []
    for t in trivalent_trees(full):
        graph = st_join(t, g) if g > 0 else t
        canon, _, autos = canonical_form(graph)
        enc = canon.encoding()
        if enc not in seen:
            seen[enc] = (canon, autos)
            frontier.append(canon)
    maximal_encs = set(seen)
    while frontier:
        nxt = []
        for graph in frontier:
            for e in graph.edges():
                if graph.is_loop(e):
                    continue
                smaller, _ = contract(graph, e)
                canon, _, autos = canonical_form(smaller)
                enc = canon.encoding()
                if enc not in seen:
                    seen[enc] = (canon, autos)
                    nxt.append(canon)
        frontier = nxt
    order = sorted(seen,
                   key=lambda enc: (-len(seen[enc][0].edges()), enc))
    classes = {}
    autos = {}
    maximal = []
    for i, enc in enumerate(order):
        cid = f"G{i}"
        classes[cid] = seen[enc][0]
        autos[cid] = tuple(seen[enc][1])
        if enc in maximal_encs:
            maximal.append(cid)
    return GraphCategory(genus=g, labels=labels, classes=classes,
                         automorphisms=autos, maximal=tuple(maximal))


def contractions_from(cat: GraphCategory, big_id):
    """All contraction morphisms out of one class, bucketed by target.

    Returns {small id: [edge map, ...]}; each edge map is a dict from the
    edges of the small representative to the surviving edges of the big
    one.  Every forest of the big representative is contracted and
    canonicalised once; its morphisms are the compositions with the
    target's automorphisms.  Within a bucket the maps come in forest
    order (itertools.combinations), then automorphism order, without
    repeats.
    """
    big = cat.classes[big_id]
    edges = big.edges()
    out = {}
    seen = set()
    for size in range(len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            if not is_forest(big, combo):
                continue
            quotient, edge_map = contract_set(big, combo)
            small_id, phi = cat.locate(quotient)
            # edge bijection: small edge -> quotient edge -> big edge
            inv_edge = {carry(qe, phi): ge for ge, qe in edge_map.items()}
            maps = out.setdefault(small_id, [])
            small_edges = cat.classes[small_id].edges()
            for auto in cat.automorphisms[small_id]:
                mapping = {e: inv_edge[carry(e, auto)] for e in small_edges}
                key = (small_id, tuple(sorted(mapping.items())))
                if key not in seen:
                    seen.add(key)
                    maps.append(mapping)
    return out
