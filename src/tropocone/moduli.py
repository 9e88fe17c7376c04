"""Cones of metrics, the distance linear structure, and construction of
the moduli objects of tropical curves.

The cone of metrics of a stable graph is the orthant on its edges with one
strict inequality per circuit; faces correspond to forests, matching the
genus-preserving contractions.  For genus zero the moduli object is a
linear poic-complex (via the distance map); for positive genus it is a
poic-space whose hom-sets are the contraction and automorphism matrices.
"""

from __future__ import annotations

from itertools import combinations

from .cone import Poic, poic_new
from .complexes import (
    LinearStructure,
    complex_new,
    validate_linear,
)
from .graphs import (
    DiscreteGraph,
    _merge,
    circuits,
    contractions_from,
    enumerate_category,
)
from .intlinalg import (
    IntMatrix,
    hermite_row_basis,
    quotient,
    solve_integer,
    solve_integer_columns,
)
from .spaces import space_new
from .value import TropoconeError, Value, set_field


class ModuliError(TropoconeError):
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

class DistanceData(Value):
    """The distance lattice N_dist of genus-zero curves on ``labels``.

    ``m_matrix`` has a row per pair and a column per label,
    ``free_projection`` is the QuotientPresentation of Z^pairs mod
    im(M_A), and the rows of ``basis`` are a basis of N_dist in its free
    coordinates.  ``split_coords`` maps a split side without labels[0] to
    its coordinates in the basis, a table that ``split_in_basis`` reads
    first; it is a keyword-only argument, not a field, and is left out
    of ``==``, ``hash`` and the repr.
    """

    _fields = ("labels", "pairs", "m_matrix", "free_projection", "basis",
               "rank")
    __slots__ = _fields + ("split_coords",)

    def __init__(self, *args, split_coords=None, **kwargs):
        super().__init__(*args, **kwargs)
        set_field(self, "split_coords",
                  {} if split_coords is None else split_coords)

    def split_vector(self, side):
        """Raw distance vector of the split with the given label side."""
        return _split_vector(self.pairs, side)

    def split_in_basis(self, side):
        key = frozenset(side)
        if self.labels[0] in key:
            key = frozenset(self.labels) - key
        x = self.split_coords.get(key)
        if x is not None:
            return x
        u = self.free_projection.free_part(self.split_vector(side))
        x = solve_integer(self.basis.transpose(), u)
        if x is None:
            raise ModuliError("split vector escapes the distance lattice")
        return x


def _split_vector(pairs, side):
    side = set(side)
    return tuple(1 if (a in side) != (b in side) else 0 for (a, b) in pairs)


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
    # one representative side per split
    sides = [side for r in range(2, n - 1)
             for side in combinations(labels, r) if labels[0] not in side]
    gens = [pres.free_part(_split_vector(pairs, side)) for side in sides]
    if not gens:
        basis = IntMatrix.from_rows([], pres.free_rank)
        coords = {}
    else:
        gen_mat = IntMatrix.from_rows(gens, pres.free_rank)
        basis = hermite_row_basis(gen_mat)
        # every split in the basis it spans, from one Smith normal form
        x = solve_integer_columns(basis.transpose(), gen_mat.transpose())
        coords = {frozenset(side): x.col(j) for j, side in enumerate(sides)}
    return DistanceData(labels=labels, pairs=pairs, m_matrix=m_matrix,
                        free_projection=pres, basis=basis, rank=basis.rows,
                        split_coords=coords)


def leg_side_of_edge(t: DiscreteGraph, edge):
    """Labels of the legs on the side of edge[0], with the edge removed."""
    comp = _merge(t, [e for e in t.edges() if set(e) != set(edge)])
    side = comp[t.root[edge[0]]]
    return tuple(sorted(lab for lab, f in t.marking
                        if comp[t.root[f]] == side))


def tree_distance_matrix(t: DiscreteGraph, data: DistanceData) -> IntMatrix:
    """Columns: the split vector of each edge, in N_dist coordinates."""
    cols = []
    for e in t.edges():
        side = leg_side_of_edge(t, e)
        cols.append(data.split_in_basis(side))
    return IntMatrix.from_cols(cols, data.rank)


# ---------------------------------------------------------------------------
# moduli objects

class ModuliComplex(Value):
    """The genus-zero moduli object: a linear poic-complex of trees."""

    __slots__ = _fields = ("category", "complex", "linear", "distance")


class ModuliSpace(Value):
    """The positive-genus moduli object: a poic-space of stable graphs."""

    __slots__ = _fields = ("category", "space")


def edge_matrix(rows, cols, image):
    """The 0/1 matrix with a row per key of ``rows`` and a column per key
    of ``cols``: column j has its 1 at the row of image[cols[j]], and none
    when that image is None.  A key missing from ``image``, or an image
    that is no row, raises KeyError.  A contraction's face map is the one
    from the small graph's edges to the big graph's."""
    at = {key: i for i, key in enumerate(rows)}
    entries = [0] * (len(rows) * len(cols))
    for j, key in enumerate(cols):
        if image[key] is not None:
            entries[at[image[key]] * len(cols) + j] = 1
    return IntMatrix(len(rows), len(cols), tuple(entries))


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
            for small_id, mors in sorted(
                    contractions_from(cat, big_id).items()):
                if small_id == big_id or not mors:
                    continue
                if len(mors) != 1:
                    raise ModuliError(
                        "genus-zero skeleton is not a poset")
                order.add((small_id, big_id))
                fmaps[(small_id, big_id)] = edge_matrix(
                    cat.classes[big_id].edges(),
                    cat.classes[small_id].edges(), mors[0])
        phi = complex_new(cones, order, fmaps)
        maps = {cid: tree_distance_matrix(rep, data)
                for cid, rep in cat.classes.items()}
        lin = LinearStructure(target_rank=data.rank, maps=maps)
        validate_linear(phi, lin)
        return ModuliComplex(category=cat, complex=phi, linear=lin,
                             distance=data)
    homs = {}
    for y in cat.ids():
        out_of_y = contractions_from(cat, y)
        for x in cat.ids():
            mats = [edge_matrix(cat.classes[y].edges(),
                                cat.classes[x].edges(), mapping)
                    for mapping in out_of_y.get(x, ())]
            if mats:
                homs[(x, y)] = tuple(mats)
    space = space_new(cones, homs)
    return ModuliSpace(category=cat, space=space)
