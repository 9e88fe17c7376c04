"""The package's value classes compare, hash and print field by field,
refuse assignment, and construct alike from positions and keywords."""

import importlib

import pytest

from tropocone.complexes import PoicComplex
from tropocone.cone import poic_new
from tropocone.graphs import enumerate_category, graph_new
from tropocone.intlinalg import IntMatrix, Lattice
from tropocone.moduli import DistanceData
from tropocone.subdivision import Report, identity_subdivision
from tropocone.value import Value
from tropocone.weights import Weight, WeightLattice

# module -> class -> its fields in positional order
FIELDS = {
    "intlinalg": {
        "IntMatrix": ("rows", "cols", "entries"),
        "Lattice": ("ambient_rank", "basis"),
        "QuotientPresentation": ("source_rank", "free_rank",
                                 "torsion_factors", "projection",
                                 "torsion_projection"),
    },
    "cone": {
        "Poic": ("rank", "facets", "closure_rays"),
        "FaceEmbedding": ("sub", "sup", "matrix", "gens_key"),
        "PoicMorphism": ("matrix", "domain", "codomain", "injective",
                         "face_embedding", "face"),
    },
    "complexes": {
        "PoicComplex": ("cones", "order", "face_maps"),
        "LinearStructure": ("target_rank", "maps"),
        "PolyhedralCell": ("name", "vertices", "rays"),
    },
    "graphs": {
        "DiscreteGraph": ("nflags", "root", "inv", "marking"),
        "GraphCategory": ("genus", "labels", "classes", "automorphisms",
                          "maximal"),
    },
    "moduli": {
        "DistanceData": ("labels", "pairs", "m_matrix", "free_projection",
                         "basis", "rank"),
        "ModuliComplex": ("category", "complex", "linear", "distance"),
        "ModuliSpace": ("category", "space"),
    },
    "spaces": {
        "PoicSpace": ("objects", "homs"),
    },
    "weights": {
        "Weight": ("dim", "values"),
        "NormalVector": ("at", "toward", "lift", "free", "torsion"),
        "WeightLattice": ("dim", "basis"),
    },
    "subdivision": {
        "ComplexMorphism": ("source", "target", "cone_map", "matrices"),
        "Cycle": ("base", "subdivision", "weight"),
    },
    "fibration": {
        "Fibration": ("complex", "space", "object_map", "transforms",
                      "morphism_map", "linear"),
    },
    "stfib": {
        "STFibration": ("genus", "labels", "fibration", "trees",
                        "moduli_category", "tree_of_cone", "distance"),
        "FibrationMorphism": ("source", "target", "cone_map", "matrices",
                              "int_matrix", "space_map", "space_matrices"),
        "ProductFibration": ("fibration", "left", "right", "pairs",
                             "space_pairs"),
    },
}
CLASSES = [(m, c) for m in FIELDS for c in FIELDS[m]]

# field values that pass a class's own checks; other classes take any
VALUES = {
    "IntMatrix": ((2, 1, (3, 4)), (2, 1, (3, 5))),
    "Lattice": ((2, IntMatrix(1, 2, (1, 0))), (2, IntMatrix(1, 2, (0, 1)))),
}


def _values(name, fields):
    """Two field tuples of ``name``."""
    if name in VALUES:
        return VALUES[name]
    return (tuple(f"{f}-a" for f in fields), tuple(f"{f}-b" for f in fields))


def test_every_value_class_is_listed():
    listed = set(CLASSES) | {("subdivision", "Report")}
    found = set()
    for module in FIELDS:
        for name, obj in vars(importlib.import_module(
                f"tropocone.{module}")).items():
            if isinstance(obj, type) and issubclass(obj, Value) \
                    and obj.__module__ == f"tropocone.{module}":
                found.add((module, obj.__name__))
    assert found == listed and len(listed) == 25


@pytest.mark.parametrize("module,name", CLASSES)
def test_value_semantics(module, name):
    cls = getattr(importlib.import_module(f"tropocone.{module}"), name)
    fields = FIELDS[module][name]
    values, others = _values(name, fields)
    obj = cls(*values)
    assert obj == cls(**dict(zip(fields, values)))
    assert tuple(getattr(obj, f) for f in fields) == values
    twin = cls(*values)
    assert twin is not obj and twin == obj and not twin != obj
    assert hash(twin) == hash(obj) == hash(values)
    assert repr(obj) == f"{name}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for i, f in enumerate(fields):
        if others[i] != values[i]:
            assert cls(*values[:i], others[i], *values[i + 1:]) != obj
        with pytest.raises(AttributeError):
            setattr(obj, f, others[i])
        with pytest.raises(AttributeError):
            delattr(obj, f)
        assert getattr(obj, f) is values[i]
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_equality_is_within_one_class():
    assert Weight(1, ()) != WeightLattice(1, ())
    assert Weight(1, ()) != (1, ())
    with pytest.raises(TypeError):
        hash(Weight(1, {}))


def test_distance_data_leaves_the_split_table_out():
    values = ("labels", "pairs", "m", "free", "basis", 2)
    data = DistanceData(*values)
    assert data.split_coords == {}
    assert DistanceData(*values).split_coords is not data.split_coords
    other = DistanceData(*values, split_coords={frozenset("1"): (1, 0)})
    assert other == data and hash(other) == hash(data) == hash(values)
    assert "split_coords" not in repr(other)


def test_report_is_mutable_and_unhashable():
    first, second = Report(), Report()
    first.add(1, "message")
    assert second.issues == [] and not first.ok and second.ok
    assert first != second and Report(list(first.issues)) == first
    assert repr(second) == "Report(issues=[])"
    second.issues = first.issues
    assert second == first
    with pytest.raises(TypeError):
        hash(first)


def test_matrix_and_lattice_checks_still_raise():
    with pytest.raises(ValueError, match="entry count"):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="entry count"):
        IntMatrix(rows=1, cols=2, entries=(1,))
    with pytest.raises(ValueError, match="basis width"):
        Lattice(3, IntMatrix(1, 2, (1, 0)))
    with pytest.raises(ValueError, match="dependent"):
        Lattice(2, IntMatrix(2, 2, (1, 1, 2, 2)))


def test_cached_properties_are_computed_once():
    sigma = poic_new(2, [((1, 0), False), ((0, 1), False)])
    phi = PoicComplex({"s": sigma}, frozenset(), {})
    mor = identity_subdivision(phi)
    graph = graph_new(3, [0, 0, 0], [0, 1, 2], {"a": 1, "b": 2})
    category = enumerate_category(0, ["1", "2", "3", "4"])
    for obj, name in ((phi, "_neighbours"), (mor, "_pieces_by_target"),
                      (graph, "_edges"), (category, "_ids_by_encoding")):
        assert getattr(obj, name) is getattr(obj, name)
