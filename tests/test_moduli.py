"""The moduli face posets and hom-sets built by construction, checked
against the all-pairs search they replace."""

import itertools
import random

import pytest

from tropocone.graphs import (
    BadMarks,
    canonical_form,
    check_marks,
    contract_set,
    contractions_from,
    enumerate_category,
    graph_new,
    is_forest,
)
from tropocone.intlinalg import IntMatrix, solve_integer, unimodular_inverse
from tropocone.moduli import (
    DistanceData,
    ModuliError,
    _contraction_matrix,
    build_moduli,
    distance_structure,
)
from tropocone.spaces import is_space_iso


# ---------------------------------------------------------------------------
# reference: the all-pairs search, one contraction enumeration per ordered
# pair of classes

def _reference_contractions_between(cat, small_id, big_id):
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


def _reference_face_maps(cat):
    """The genus-zero order and face maps, in the all-pairs loop order."""
    fmaps = {}
    for big_id in cat.ids():
        for small_id in cat.ids():
            if small_id == big_id:
                continue
            mors = _reference_contractions_between(cat, small_id, big_id)
            if not mors:
                continue
            assert len(mors) == 1
            fmaps[(small_id, big_id)] = _contraction_matrix(
                cat.classes[small_id], cat.classes[big_id], mors[0])
    return fmaps


def _reference_homs(cat):
    """The positive-genus hom-sets, deduplicated in order as space_new
    stores them."""
    homs = {}
    for y in cat.ids():
        for x in cat.ids():
            mats = []
            for mapping in _reference_contractions_between(cat, x, y):
                m = _contraction_matrix(cat.classes[x], cat.classes[y],
                                        mapping)
                if m not in mats:
                    mats.append(m)
            if x == y:
                ident = IntMatrix.identity(len(cat.classes[x].edges()))
                if ident not in mats:
                    mats.append(ident)
            if mats:
                homs[(x, y)] = tuple(mats)
    return homs


def _reference_is_space_iso(space, x, y, mat):
    if space.dim(x) != space.dim(y):
        return False
    try:
        inv = unimodular_inverse(mat)
    except ValueError:
        return False
    return inv in space.hom(y, x)


CASES = [
    (0, ["1", "2", "3", "4"]),
    (0, ["1", "2", "3", "4", "5"]),
    (1, ["a"]),
    (1, ["a", "b"]),
    (1, ["a", "b", "c"]),
    (2, []),
]


@pytest.mark.parametrize("g, labels", CASES,
                         ids=[f"{g}-{''.join(a) or 'empty'}"
                              for g, a in CASES])
def test_build_moduli_matches_all_pairs_search(g, labels):
    m = build_moduli(g, labels)
    cat = m.category
    ref_cat = enumerate_category(g, labels)
    assert cat.ids() == ref_cat.ids()
    assert all(cat.classes[c] == ref_cat.classes[c] for c in cat.ids())
    for big_id in cat.ids():
        out = contractions_from(cat, big_id)
        for small_id in cat.ids():
            assert out.get(small_id, []) == _reference_contractions_between(
                ref_cat, small_id, big_id)
    if g == 0:
        fmaps = _reference_face_maps(ref_cat)
        assert m.complex.order == frozenset(fmaps)
        assert list(m.complex.face_maps.items()) == list(fmaps.items())
    else:
        homs = _reference_homs(ref_cat)
        assert list(m.space.homs.items()) == list(homs.items())


def test_representatives_are_their_own_canonical_form():
    # GraphCategory.locate skips canonical_form on a representative
    for g, labels in CASES:
        cat = enumerate_category(g, labels)
        for rep in cat.classes.values():
            canon, phi, _ = canonical_form(rep)
            assert canon == rep
            assert phi == tuple(range(rep.nflags))


def test_m06_face_poset():
    m = build_moduli(0, [str(i) for i in range(1, 7)])
    phi = m.complex
    assert len(phi.ids()) == 236                 # A000311(6)
    assert len(phi.classes(3)) == 105            # 7!!
    assert phi.max_dim() == 3
    assert phi.is_pure(3)


def test_m07_is_built_and_validated():
    """complex_new checks only composable pairs of relations, so the 24,521
    relations of M_0,7 validate in seconds."""
    m = build_moduli(0, [str(i) for i in range(1, 8)])
    phi = m.complex
    assert len(phi.ids()) == 2752                # A000311(7)
    assert len(phi.order) == 24521
    assert len(phi.classes(4)) == 945            # 9!!
    assert phi.max_dim() == 4
    assert phi.is_pure(4)


def _relabel_flags(g, perm):
    root = [0] * g.nflags
    inv = [0] * g.nflags
    for x in range(g.nflags):
        root[perm[x]] = perm[g.root[x]]
        inv[perm[x]] = perm[g.inv[x]]
    marking = {lab: perm[f] for lab, f in g.marking}
    return graph_new(g.nflags, root, inv, marking)


def test_class_of_finds_relabeled_representatives():
    rng = random.Random(11)
    cats = [enumerate_category(0, ["1", "2", "3", "4", "5"]),
            enumerate_category(1, ["a", "b"]),
            enumerate_category(2, [])]
    for cat in cats:
        for cid, rep in cat.classes.items():
            assert cat.class_of(rep) == cid
            for _ in range(3):
                perm = list(range(rep.nflags))
                rng.shuffle(perm)
                assert cat.class_of(_relabel_flags(rep, perm)) == cid
    for cat, other in zip(cats, cats[1:] + cats[:1]):
        for rep in other.classes.values():
            assert cat.class_of(rep) is None


@pytest.mark.parametrize("g, labels", [(1, ["a", "b"]), (2, [])])
def test_is_space_iso_matches_unimodular_inverse(g, labels):
    space = build_moduli(g, labels).space
    isos = 0
    for (x, y), mats in space.homs.items():
        for mat in mats:
            got = is_space_iso(space, x, y, mat)
            assert got == _reference_is_space_iso(space, x, y, mat)
            isos += got
    assert isos > len(space.ids())


def test_is_space_iso_rejects_non_unimodular_and_misshaped():
    space = build_moduli(2, []).space
    top = next(x for x in space.ids() if space.dim(x) == 3)
    det2 = IntMatrix.from_rows([(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not is_space_iso(space, top, top, det2)
    for misshaped in (IntMatrix.from_rows([(1, 0), (0, 1), (0, 0)]),
                      IntMatrix.from_rows([(1, 0, 0), (0, 1, 0)])):
        assert not is_space_iso(space, top, top, misshaped)
    assert is_space_iso(space, top, top, IntMatrix.identity(3))


@pytest.mark.parametrize("g, labels, named", [
    (0, ["a", "b", "c", "a"], "'a'"),
    (1, ["g1", "b"], "'g1'"),
    (2, ["a", "g3*"], "'g3\\*'"),
    (-1, ["a", "b", "c"], "genus -1"),
])
def test_bad_marks_are_named(g, labels, named):
    with pytest.raises(BadMarks, match=named):
        check_marks(g, labels)
    with pytest.raises(BadMarks, match=named):
        build_moduli(g, labels)


def test_gluing_names_are_ordinary_marks_at_genus_zero():
    assert check_marks(0, ["g1", "b", "a"]) == ("a", "b", "g1")


def _solved_split(data, side):
    """A split's coordinates by one solve, as before the split table."""
    return solve_integer(data.basis.transpose(), data.free_projection
                         .free_part(data.split_vector(side)))


@pytest.mark.parametrize("n", range(3, 8))
def test_split_table_matches_one_solve_per_split(n):
    labels = [str(i) for i in range(1, n + 1)]
    data = distance_structure(labels)
    splits = [set(side) for r in range(2, n - 1)
              for side in itertools.combinations(labels, r)]
    assert len(data.split_coords) == len(splits) // 2
    for side in splits:
        other = set(labels) - side
        for s in (side, other):
            x = data.split_in_basis(tuple(sorted(s)))
            assert x == _solved_split(data, s) is not None
    # sides that are not splits go through the solve: the empty side, the
    # singletons and their complements lie in the pair-sum image, and an
    # unknown label does not move a split vector
    for side in [(), (labels[0],), tuple(labels[1:]), tuple(labels)]:
        assert data.split_in_basis(side) == _solved_split(data, side) \
            == (0,) * data.rank
    if n >= 5:
        assert data.split_in_basis(("2", "3", "x")) \
            == data.split_in_basis(("2", "3"))


def test_a_side_outside_the_table_keeps_the_solve_and_its_error():
    """Every side of the labels has coordinates, so only a lattice that
    misses a split vector makes the solve fail: here the basis doubled,
    with the table emptied so that the side is not found in it."""
    data = distance_structure(["1", "2", "3", "4", "5"])
    doubled = IntMatrix(data.basis.rows, data.basis.cols,
                        tuple(2 * x for x in data.basis.entries))
    broken = DistanceData(data.labels, data.pairs, data.m_matrix,
                          data.free_projection, doubled, data.rank, {})
    assert broken.split_in_basis(("1",)) == (0,) * data.rank
    with pytest.raises(ModuliError, match="escapes"):
        broken.split_in_basis(("2", "3"))
