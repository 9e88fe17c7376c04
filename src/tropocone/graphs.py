"""Discrete graphs with legs, contractions, canonical forms, and the
categories of stable marked graphs.

A discrete graph is a flag set with a root map and an involution; legs are
the 1-orbits of the involution on non-vertex flags, edges the 2-orbits.
Canonical labeling works by color refinement followed by exhaustive
enumeration of color-respecting bijections, which is plenty at the graph
sizes arising here (at most a few dozen flags).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class GraphError(ValueError):
    pass


class BadInvolution(GraphError):
    pass


class BadRootCompatibility(GraphError):
    pass


class MarkingNotBijective(GraphError):
    pass


class LoopContraction(GraphError):
    pass


class UnstableParameters(GraphError):
    pass


@dataclass(frozen=True)
class DiscreteGraph:
    nflags: int
    root: tuple
    inv: tuple
    marking: tuple  # sorted ((label, flag), ...)

    # -- basic sets ------------------------------------------------------
    def vertices(self):
        return sorted(set(self.root))

    def half_flags(self):
        verts = set(self.root)
        return [x for x in range(self.nflags) if x not in verts]

    def legs(self):
        return [x for x in self.half_flags() if self.inv[x] == x]

    def edges(self):
        out = set()
        for x in self.half_flags():
            y = self.inv[x]
            if y != x:
                out.add((min(x, y), max(x, y)))
        return sorted(out)

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


def contract(g: DiscreteGraph, e) -> DiscreteGraph:
    """Contract a non-loop edge; returns (graph, flag map old -> new)."""
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


def contract_set(g: DiscreteGraph, edge_set):
    """Contract a forest of edges; returns (graph, edge map).

    The edge map sends each surviving edge of g to the corresponding edge
    of the contraction.
    """
    current = g
    flagmap = {x: x for x in range(g.nflags)}
    todo = set(tuple(e) for e in edge_set)
    while todo:
        img = {}
        for (a, b) in todo:
            img[(a, b)] = (flagmap[a], flagmap[b])
        e = sorted(todo)[0]
        a, b = img[e]
        current, step = contract(current, (min(a, b), max(a, b)))
        flagmap = {x: step[y] for x, y in flagmap.items() if y in step}
        todo.discard(e)
    edge_map = {}
    for (a, b) in g.edges():
        if a in flagmap and b in flagmap:
            na, nb = flagmap[a], flagmap[b]
            edge_map[(a, b)] = (min(na, nb), max(na, nb))
    return current, edge_map


def is_forest(g: DiscreteGraph, edge_set):
    """True iff the edge subset spans no circuit (loops are circuits)."""
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


def circuits(g: DiscreteGraph):
    """All simple circuits as sorted edge tuples (loops are circuits)."""
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


# ---------------------------------------------------------------------------
# canonical form

def _refine_colors(g: DiscreteGraph):
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
    """
    color = _refine_colors(g)
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


# ---------------------------------------------------------------------------
# trees and the categories of stable graphs

def star_tree(labels) -> DiscreteGraph:
    labels = sorted(str(x) for x in labels)
    n = len(labels)
    root = [n] * n + [n]
    inv = list(range(n + 1))
    marking = {lab: i for i, lab in enumerate(labels)}
    return graph_new(n + 1, root, inv, marking)


def _graft_on_leg(t: DiscreteGraph, leg_flag, new_label):
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


def _graft_on_edge(t: DiscreteGraph, edge, new_label):
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
            for leg in t.legs():
                nxt.append(_graft_on_leg(t, leg, lab))
            for e in t.edges():
                nxt.append(_graft_on_edge(t, e, lab))
        trees = nxt
    return trees


def gluing_labels(g):
    out = []
    for i in range(1, g + 1):
        out.append(f"g{i}")
        out.append(f"g{i}*")
    return out


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


@dataclass(frozen=True)
class GraphCategory:
    """A skeleton of the category of stable genus-g A-marked graphs."""

    genus: int
    labels: tuple
    classes: dict          # id -> canonical representative graph
    automorphisms: dict    # id -> tuple of flag permutations
    maximal: tuple         # ids of the trivalent classes

    def ids(self):
        return sorted(self.classes)

    def class_of(self, g: DiscreteGraph):
        canon, _, _ = canonical_form(g)
        enc = canon.encoding()
        for cid, rep in self.classes.items():
            if rep.encoding() == enc:
                return cid
        return None


def enumerate_category(g, labels) -> GraphCategory:
    """All isomorphism classes of stable (>= 3-valent) genus-g A-marked
    graphs: trivalent ones first, then saturation by edge contraction."""
    labels = tuple(sorted(str(x) for x in labels))
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


def contractions_between(cat: GraphCategory, small_id, big_id):
    """All contraction morphisms big -> small, as edge maps.

    Each morphism is returned as a dict: edge of the small representative
    -> surviving edge of the big representative.
    """
    big = cat.classes[big_id]
    small = cat.classes[small_id]
    small_enc = small.encoding()
    out = []
    seen = set()
    n_drop = len(big.edges()) - len(small.edges())
    if n_drop < 0:
        return []
    for combo in itertools.combinations(big.edges(), n_drop):
        if not is_forest(big, combo):
            continue
        quotient, edge_map = contract_set(big, combo)
        canon, phi, _ = canonical_form(quotient)
        if canon.encoding() != small_enc:
            continue
        # edge bijection: small edge -> quotient edge -> big edge
        inv_edge = {}
        for ge, qe in edge_map.items():
            a, b = phi[qe[0]], phi[qe[1]]
            inv_edge[(min(a, b), max(a, b))] = ge
        for auto in cat.automorphisms[small_id]:
            mapping = {}
            for (a, b) in small.edges():
                ia, ib = auto[a], auto[b]
                mapping[(a, b)] = inv_edge[(min(ia, ib), max(ia, ib))]
            key = tuple(sorted(mapping.items()))
            if key not in seen:
                seen.add(key)
                out.append(mapping)
    return out
