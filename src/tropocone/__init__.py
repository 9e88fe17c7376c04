"""tropocone: exact tropical intersection theory on partially open
integral cone complexes and poic-fibrations.

The package computes with partially open integral cones, poic-complexes
and poic-spaces, Minkowski-weight lattices and balancing, subdivisions and
pushforwards, the moduli of tropical curves, and the spanning-tree,
forgetful, and clutching fibration constructions.  All arithmetic is
exact.

Importing the package loads none of its modules: each exported name is
imported from its module on first use (PEP 562), so a command or script
pays only for the modules it touches.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "cone": ("EmptyCone", "FaceEmbedding", "NotFullDimensional",
             "NotIntoCodomain", "Poic", "PoicMorphism", "check_morphism",
             "faces", "poic_new", "product"),
    "complexes": ("LinearStructure", "MissingFace", "NonFunctorial",
                  "NotFaceEmbedding", "NotThin", "PoicComplex",
                  "PolyhedralCell", "complex_new", "conify", "product_complex",
                  "skeleton", "skeletonize", "star1"),
    "fibration": ("Fibration", "compatible_refinement", "equivariant_basis",
                  "is_pi_compatible", "validate_fibration"),
    "graphs": ("DiscreteGraph", "GraphCategory", "canonical_form", "contract",
               "enumerate_category", "graph_new"),
    "intlinalg": ("IntMatrix", "Lattice", "NotSublattice",
                  "QuotientPresentation", "ZeroVector", "lattice_index",
                  "primitive", "quotient", "smith_normal_form",
                  "solve_integer"),
    "moduli": ("build_moduli", "cone_of_metrics", "distance_structure"),
    "spaces": ("PoicSpace", "space_from_complex", "space_new"),
    "stfib": ("clutching", "fibration_pushforward", "forgetful",
              "spanning_tree_fibration"),
    "subdivision": ("ComplexMorphism", "Cycle", "Subdivision", "cycle_equal",
                    "honest_subdivision_refine", "identity_subdivision",
                    "is_weakly_proper", "ord_subdivision", "pfine_refinement",
                    "pushforward", "stellar", "validate_subdivision"),
    "weights": ("Weight", "WeightLattice", "cross_product", "extend_by_zero",
                "is_balanced_at", "is_irreducible", "minkowski_basis",
                "normal_vector", "pullback"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
