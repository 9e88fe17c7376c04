import pytest

from tropocone.cone import poic_new
from tropocone.complexes import LinearStructure, complex_new
from tropocone.fibration import (
    Fibration,
    NotCompatible,
    compatible_refinement,
    equivariant_basis,
    fibration_from_complex,
    is_equivariant,
    is_pi_compatible,
    validate_fibration,
)
from tropocone.intlinalg import IntMatrix
from tropocone.moduli import build_moduli
from tropocone.spaces import PoicSpace, space_from_complex, space_new
from tropocone.subdivision import (
    identity_subdivision,
    refine_by_walls,
    stellar,
    validate_subdivision,
)
from tropocone.weights import Weight, is_balanced


ROT = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def working_example():
    """Two copies of the open octant over one copy with Z/3 rotations."""
    octant = poic_new(3, [((1, 0, 0), True), ((0, 1, 0), True),
                          ((0, 0, 1), True)])
    space = space_new({"x": octant},
                      {("x", "x"): (IntMatrix.identity(3), ROT, ROT @ ROT)})
    phi = complex_new({"c1": octant, "c2": octant}, set(), {})
    lin = LinearStructure(3, {"c1": IntMatrix.identity(3),
                              "c2": IntMatrix.identity(3)})
    fib = Fibration(complex=phi, space=space,
                    object_map={"c1": "x", "c2": "x"},
                    transforms={"c1": IntMatrix.identity(3),
                                "c2": IntMatrix.identity(3)},
                    morphism_map={}, linear=lin)
    return fib


def test_validate_working_example():
    fib = working_example()
    rep = validate_fibration(fib)
    assert rep.ok, rep.issues


def test_identity_fibration_of_complex():
    m = build_moduli(0, ["1", "2", "3", "4"])
    fib = fibration_from_complex(m.complex, m.linear)
    rep = validate_fibration(fib)
    assert rep.ok, rep.issues
    flag, _ = is_pi_compatible(fib, identity_subdivision(m.complex))
    assert flag


def test_genus_one_style_fibration():
    """Cones rho, sigma1, sigma2, sigma2* over three space objects."""
    halfopen = poic_new(2, [((1, 0), False), ((0, 1), True)])
    ray = poic_new(1, [((1,), True)])
    quadrant_punct = poic_new(2, [((1, 0), False), ((0, 1), False),
                                  ((1, 1), True)])
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    inc1 = IntMatrix.from_cols([(0, 1)])
    space = space_new(
        {"r": ray, "s1": halfopen, "s2": quadrant_punct},
        {("r", "r"): (IntMatrix.identity(1),),
         ("s1", "s1"): (IntMatrix.identity(2),),
         ("s2", "s2"): (IntMatrix.identity(2), swap),
         ("r", "s1"): (inc1,),
         ("r", "s2"): (IntMatrix.from_cols([(1, 0)]),
                       IntMatrix.from_cols([(0, 1)]))})
    phi = complex_new(
        {"rho": ray, "a": halfopen, "b": halfopen, "b2": halfopen},
        {("rho", "a"), ("rho", "b"), ("rho", "b2")},
        {("rho", "a"): inc1, ("rho", "b"): inc1, ("rho", "b2"): inc1})
    fib = Fibration(
        complex=phi, space=space,
        object_map={"rho": "r", "a": "s1", "b": "s2", "b2": "s2"},
        transforms={"rho": IntMatrix.identity(1),
                    "a": IntMatrix.identity(2),
                    "b": IntMatrix.identity(2),
                    "b2": swap},
        morphism_map={("rho", "a"): inc1,
                      ("rho", "b"): IntMatrix.from_cols([(0, 1)]),
                      ("rho", "b2"): IntMatrix.from_cols([(1, 0)])})
    rep = validate_fibration(fib)
    assert rep.ok, rep.issues


def test_pi_compatibility_of_diagonal_stellar():
    fib = working_example()
    phi = fib.complex
    sub1 = stellar(phi, "c1", (1, 1, 1))
    sub = stellar(sub1.source, sub1.pieces_over("c2")[0], (1, 1, 1))
    from tropocone.subdivision import compose_subdivisions
    both = compose_subdivisions(sub1, sub)
    flag, _ = is_pi_compatible(fib, both)
    assert flag
    # compatible input is returned unchanged
    assert compatible_refinement(fib, both) is both


def test_asymmetric_wall_not_compatible_and_refined():
    fib = working_example()
    phi = fib.complex
    asym = refine_by_walls(phi, {"c1": [(1, -1, 0)]})
    rep = validate_subdivision(asym)
    assert rep.ok, rep.issues
    flag, _ = is_pi_compatible(fib, asym)
    assert not flag
    out = compatible_refinement(fib, asym)
    flag, _ = is_pi_compatible(fib, out)
    assert flag
    # the output is invariant under the order-3 rotation: piece keys of
    # each copy are rotation-stable
    from tropocone.fibration import _piece_keys
    keys = set(_piece_keys(fib, out, "c1").values())
    rot_keys = set(_piece_keys(fib, out, "c1", transport=ROT).values())
    assert keys == rot_keys


def test_equivariant_weights_working_example():
    fib = working_example()
    phi = fib.complex
    sub1 = stellar(phi, "c1", (1, 1, 1))
    from tropocone.subdivision import compose_subdivisions
    sub2 = stellar(sub1.source, sub1.pieces_over("c2")[0], (1, 1, 1))
    both = compose_subdivisions(sub1, sub2)
    two_classes = [t for t in both.source.ids() if both.source.dim(t) == 2]
    assert len(two_classes) == 6
    ones = Weight(2, {t: 1 for t in two_classes})
    from tropocone.fibration import composed_linear
    lin2 = composed_linear(fib, both)
    assert is_balanced(both.source, lin2, ones)
    assert is_equivariant(fib, both, ones)
    # copy-asymmetric: balanced but not equivariant
    c1_pieces = [t for t in two_classes if both.cone_map[t] == "c1"]
    asym = Weight(2, {t: 1 for t in c1_pieces})
    assert is_balanced(both.source, lin2, asym)
    assert not is_equivariant(fib, both, asym)
    lat = equivariant_basis(fib, 2, both)
    assert lat.rank == 1
    gen = lat.basis[0]
    assert len(set(gen.values.get(t, 0) for t in two_classes)) == 1


def test_equivariant_basis_needs_compatibility():
    fib = working_example()
    asym = refine_by_walls(fib.complex, {"c1": [(1, -1, 0)]})
    with pytest.raises(NotCompatible):
        equivariant_basis(fib, 2, asym)


def test_morphism_map_of_wrong_shape_is_reported():
    """A 3x0 map has the same (empty) entries as the true 1x0 face map;
    matrix equality must still tell them apart."""
    origin = poic_new(0, [])
    ray = poic_new(1, [((1,), False)])
    phi = complex_new({"o": origin, "r": ray}, {("o", "r")},
                      {("o", "r"): IntMatrix(1, 0, ())})
    fib = fibration_from_complex(phi)
    fib.morphism_map[("o", "r")] = IntMatrix(3, 0, ())
    rep = validate_fibration(fib)
    assert not rep.ok
