"""The package surface is lazy, and each command imports only the modules
it runs.  Import footprints are checked in fresh interpreters, since the
test process has long since imported everything."""

import ast
import functools
import importlib
import pkgutil
import re
import subprocess
import sys

import pytest

import tropocone
from tropocone import io_json
from tropocone.moduli import build_moduli

# the names the package exported when it imported every module eagerly
EXPORTS = {
    "cone": ["EmptyCone", "FaceEmbedding", "NotFullDimensional",
             "NotIntoCodomain", "Poic", "PoicMorphism", "check_morphism",
             "faces", "poic_new", "product"],
    "complexes": ["LinearStructure", "MissingFace", "NonFunctorial",
                  "NotFaceEmbedding", "NotThin", "PoicComplex",
                  "PolyhedralCell", "complex_new", "conify",
                  "product_complex", "skeleton", "skeletonize", "star1"],
    "fibration": ["Fibration", "compatible_refinement", "equivariant_basis",
                  "is_pi_compatible", "validate_fibration"],
    "graphs": ["DiscreteGraph", "GraphCategory", "canonical_form",
               "contract", "enumerate_category", "graph_new"],
    "intlinalg": ["IntMatrix", "Lattice", "NotSublattice",
                  "QuotientPresentation", "ZeroVector", "lattice_index",
                  "primitive", "quotient", "smith_normal_form",
                  "solve_integer"],
    "moduli": ["build_moduli", "cone_of_metrics", "distance_structure"],
    "spaces": ["PoicSpace", "space_from_complex", "space_new"],
    "stfib": ["clutching", "fibration_pushforward", "forgetful",
              "spanning_tree_fibration"],
    "subdivision": ["ComplexMorphism", "Cycle", "Subdivision", "cycle_equal",
                    "honest_subdivision_refine", "identity_subdivision",
                    "is_weakly_proper", "ord_subdivision",
                    "pfine_refinement", "pushforward", "stellar",
                    "validate_subdivision"],
    "weights": ["Weight", "WeightLattice", "cross_product", "extend_by_zero",
                "is_balanced_at", "is_irreducible", "minkowski_basis",
                "normal_vector", "pullback"],
}
NAMES = sorted(n for names in EXPORTS.values() for n in names)


# standard modules whose import costs a command more than its own work:
# ``dataclasses`` brings ``inspect`` (and with it ``ast``, ``dis`` and
# ``tokenize``), and ``fractions`` brings ``decimal``
HEAVY = {"dataclasses", "inspect", "fractions"}


def _modules_after(code):
    """The ``tropocone`` submodules a fresh interpreter holds after
    running ``code``, and which of the ``HEAVY`` modules it holds."""
    report = ("import sys\nprint(*sorted(m.partition('.')[2] for m in "
              "sys.modules if m.startswith('tropocone.')))\n"
              f"print(*sorted(sys.modules.keys() & {HEAVY!r}))")
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    package, heavy = out.stdout.split("\n")[-3:-1]
    return set(package.split()), set(heavy.split())


def test_exported_names():
    assert len(NAMES) == 75
    assert tropocone.__all__ == NAMES
    assert set(NAMES) <= set(dir(tropocone))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_lazy_names_are_the_module_objects(module):
    mod = importlib.import_module(f"tropocone.{module}")
    for name in EXPORTS[module]:
        assert getattr(tropocone, name) is getattr(mod, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tropocone.no_such_name
    with pytest.raises(ImportError):
        from tropocone import no_such_name  # noqa: F401


def test_from_imports_of_names_and_modules():
    from tropocone import cone, poic_new
    assert poic_new is cone.poic_new


def test_import_tropocone_loads_no_module():
    assert _modules_after("import tropocone")[0] == set()


def test_build_moduli_and_weights_load_only_their_modules(tmp_path):
    path = tmp_path / "m05.json"
    m = build_moduli(0, ["1", "2", "3", "4", "5"])
    path.write_text(io_json.dumps(io_json.complex_to_json(m.complex,
                                                          m.linear)))
    run = ("from tropocone import cli\n"
           "assert cli.main({!r}) == 0")
    built, heavy = _modules_after(run.format(
        ["build-moduli", "--genus", "0", "--marks", "1,2,3,4,5",
         "--out", str(tmp_path / "built.json")]))
    assert "moduli" in built
    assert not built & {"subdivision", "weights", "fibration", "stfib"}
    assert not heavy
    assert (tmp_path / "built.json").read_text() == path.read_text()

    weighed, heavy = _modules_after(run.format(
        ["weights", "--complex", str(path), "--k", "2",
         "--out", str(tmp_path / "w.json")]))
    assert "weights" in weighed
    assert not weighed & {"graphs", "moduli", "spaces", "subdivision",
                          "fibration", "stfib"}
    assert not heavy


def test_every_memo_is_bounded():
    """No unbounded global state: each functools memo of the package has
    a finite maxsize, and every memo decorator in the source is one of
    the module-level memos checked here."""
    memos = {}
    decorators = 0
    for info in pkgutil.iter_modules(tropocone.__path__):
        module = importlib.import_module(f"tropocone.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, functools._lru_cache_wrapper):
                memos[f"{info.name}.{name}"] = obj.cache_parameters()
        with open(module.__file__, encoding="utf-8") as src:
            decorators += len(re.findall(
                r"^\s*@(?:functools\.)?(?:lru_cache|cache)\b", src.read(),
                flags=re.M))
    assert decorators == len(memos) >= 5
    for name, params in memos.items():
        assert params["maxsize"] is not None, name


def test_every_imported_name_is_used():
    """Each name a module of the package imports is read somewhere in
    that module; ``from __future__`` imports bind no name."""
    for info in pkgutil.iter_modules(tropocone.__path__):
        module = importlib.import_module(f"tropocone.{info.name}")
        with open(module.__file__, encoding="utf-8") as src:
            tree = ast.parse(src.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused = sorted((line, name) for name, line in imported.items()
                        if name not in used)
        assert not unused, f"{info.name}: unused imports {unused}"


def test_function_level_imports_defer_a_module():
    """A function-level ``from .m import ...`` is there to defer loading
    ``.m``, so it is allowed only in a module with no top-level import
    from ``.m``; anywhere else it re-imports a module already loaded."""
    for info in pkgutil.iter_modules(tropocone.__path__):
        module = importlib.import_module(f"tropocone.{info.name}")
        with open(module.__file__, encoding="utf-8") as src:
            tree = ast.parse(src.read())
        top = {node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level}
        redundant = sorted({
            (node.lineno, node.module)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.level
            and node.module in top})
        assert not redundant, f"{info.name}: redundant imports {redundant}"
