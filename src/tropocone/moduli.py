"""Cones of metrics, the distance linear structure, and construction of
the moduli objects of tropical curves.

The cone of metrics of a stable graph is the orthant on its edges with one
strict inequality per circuit; faces correspond to forests, matching the
genus-preserving contractions.  For genus zero the moduli object is a
linear poic-complex (via the distance map); for positive genus it is a
poic-space whose hom-sets are the contraction and automorphism matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cone import Poic, poic_new
from .complexes import LinearStructure, PoicComplex, complex_new
from .graphs import (
    DiscreteGraph,
    GraphCategory,
    circuits,
    contractions_between,
    enumerate_category,
)
from .intlinalg import (
    IntMatrix,
    hermite_row_basis,
    quotient,
    solve_integer,
)
from .spaces import PoicSpace, space_new


class ModuliError(ValueError):
    pass


class TooFewMarks(ModuliError):
    pass


def cone_of_metrics(g: DiscreteGraph) -> Poic:
    """The orthant on E(G) with each circuit's coordinate sum strict."""
    edges = g.edges()
    n = len(edges)
    idx = {e: i for i, e in enumerate(edges)}
    facets = []
    for i in range(n):
        facets.append((tuple(1 if j == i else 0 for j in range(n)), False))
    for circ in circuits(g):
        normal = [0] * n
        for e in circ:
            normal[idx[e]] = 1
        facets.append((tuple(normal), True))
    return poic_new(n, facets)


# ---------------------------------------------------------------------------
# the distance structure on rational moduli

@dataclass(frozen=True)
class DistanceData:
    labels: tuple
    pairs: tuple
    m_matrix: IntMatrix        # rows = pairs, cols = labels
    free_projection: object    # QuotientPresentation of Z^pairs mod im(M_A)
    basis: IntMatrix           # rows: basis of N_dist in free coordinates
    rank: int

    def split_vector(self, side):
        """Raw distance vector of the split with the given label side."""
        side = set(side)
        return tuple(1 if (a in side) != (b in side) else 0
                     for (a, b) in self.pairs)

    def split_in_basis(self, side):
        u = self.free_projection.free_part(self.split_vector(side))
        x = solve_integer(self.basis.transpose(), u)
        if x is None:
            raise ModuliError("split vector escapes the distance lattice")
        return x


def distance_structure(labels) -> DistanceData:
    """Coordinates for the lattice generated by the split vectors inside
    the cokernel of the pair-sum map."""
    labels = tuple(sorted(str(x) for x in labels))
    n = len(labels)
    if n < 3:
        raise TooFewMarks("the distance structure needs at least 3 marks")
    pairs = tuple((a, b) for a, b in combinations(labels, 2))
    rows = []
    for (a, b) in pairs:
        rows.append([1 if lab in (a, b) else 0 for lab in labels])
    m_matrix = IntMatrix.from_rows(rows, n)
    pres = quotient(len(pairs), m_matrix.transpose())
    data0 = DistanceData(labels=labels, pairs=pairs, m_matrix=m_matrix,
                         free_projection=pres,
                         basis=IntMatrix.from_rows([], pres.free_rank),
                         rank=0)
    gens = []
    for r in range(2, n - 1):
        for side in combinations(labels, r):
            if labels[0] in side:
                continue  # one representative per split
            gens.append(data0.free_projection.free_part(
                data0.split_vector(side)))
    if not gens:
        basis = IntMatrix.from_rows([], pres.free_rank)
    else:
        basis = hermite_row_basis(
            IntMatrix.from_rows(gens, pres.free_rank))
    return DistanceData(labels=labels, pairs=pairs, m_matrix=m_matrix,
                        free_projection=pres, basis=basis, rank=basis.rows)


def leg_side_of_edge(t: DiscreteGraph, edge):
    """Labels of the legs on the side of edge[0], with the edge removed."""
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


def tree_distance_matrix(t: DiscreteGraph, data: DistanceData) -> IntMatrix:
    """Columns: the split vector of each edge, in N_dist coordinates."""
    cols = []
    for e in t.edges():
        side = leg_side_of_edge(t, e)
        cols.append(data.split_in_basis(side))
    return IntMatrix.from_cols(cols, data.rank)


# ---------------------------------------------------------------------------
# moduli objects

@dataclass(frozen=True)
class ModuliComplex:
    """The genus-zero moduli object: a linear poic-complex of trees."""

    category: GraphCategory
    complex: PoicComplex
    linear: LinearStructure
    distance: DistanceData


@dataclass(frozen=True)
class ModuliSpace:
    """The positive-genus moduli object: a poic-space of stable graphs."""

    category: GraphCategory
    space: PoicSpace


def _contraction_matrix(small: DiscreteGraph, big: DiscreteGraph, mapping):
    """Face-embedding matrix sigma_small -> sigma_big from an edge map."""
    big_idx = {e: i for i, e in enumerate(big.edges())}
    cols = []
    for e in small.edges():
        target = mapping[e]
        col = [0] * len(big.edges())
        col[big_idx[target]] = 1
        cols.append(tuple(col))
    return IntMatrix.from_cols(cols, len(big.edges()))


def build_moduli(g, labels):
    """The moduli object of genus-g A-marked tropical curves.

    Returns a ModuliComplex (with the distance linear structure) for
    g = 0 and a ModuliSpace for g > 0.
    """
    cat = enumerate_category(g, labels)
    cones = {cid: cone_of_metrics(rep) for cid, rep in cat.classes.items()}
    if g == 0:
        data = distance_structure(cat.labels)
        order = set()
        fmaps = {}
        for big_id in cat.ids():
            for small_id in cat.ids():
                if small_id == big_id:
                    continue
                mors = contractions_between(cat, small_id, big_id)
                if not mors:
                    continue
                if len(mors) != 1:
                    raise ModuliError(
                        "genus-zero skeleton is not a poset")
                order.add((small_id, big_id))
                fmaps[(small_id, big_id)] = _contraction_matrix(
                    cat.classes[small_id], cat.classes[big_id], mors[0])
        phi = complex_new(cones, order, fmaps)
        maps = {cid: tree_distance_matrix(rep, data)
                for cid, rep in cat.classes.items()}
        lin = LinearStructure(target_rank=data.rank, maps=maps)
        from .complexes import validate_linear
        validate_linear(phi, lin)
        return ModuliComplex(category=cat, complex=phi, linear=lin,
                             distance=data)
    homs = {}
    for y in cat.ids():
        for x in cat.ids():
            mats = []
            for mapping in contractions_between(cat, x, y):
                mats.append(_contraction_matrix(
                    cat.classes[x], cat.classes[y], mapping))
            if x == y:
                ident = IntMatrix.identity(len(cat.classes[x].edges()))
                if ident not in mats:
                    mats.append(ident)
            if mats:
                homs[(x, y)] = tuple(mats)
    space = space_new(cones, homs)
    return ModuliSpace(category=cat, space=space)
