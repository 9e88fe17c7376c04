"""JSON interchange for cones, complexes, weights, subdivisions (and
morphisms of complexes, which share their document) and graphs.

Integers are serialized as decimal strings so arbitrary-precision values
survive round trips; parsing accepts both numbers and strings.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .complexes import (LinearStructure, PoicComplex, complex_new,
                        validate_linear)
from .cone import Poic, poic_new
from .intlinalg import IntMatrix

if TYPE_CHECKING:  # the readers import these when they run
    from .graphs import DiscreteGraph
    from .subdivision import ComplexMorphism
    from .weights import Weight


class SchemaError(ValueError):
    pass


def _int_in(x):
    """An integer from a JSON number or decimal string (not a bool or a
    float)."""
    try:
        if isinstance(x, (int, str)) and not isinstance(x, bool):
            return int(x)
    except ValueError:
        pass
    raise SchemaError(f"not an integer: {x!r}")


def _size_in(x):
    if (n := _int_in(x)) < 0:
        raise SchemaError(f"negative rank or size: {n}")
    return n


def _typed(x, kind, what):
    if not isinstance(x, kind):
        raise SchemaError(f"not {what}: {x!r}")
    return x


def _relation_in(pair):
    if len(_typed(pair, list, "a list")) != 2:
        raise SchemaError(f"a relation is two cone ids, not {pair!r}")
    return tuple(_typed(p, str, "a cone id") for p in pair)


def _int_out(x):
    return str(int(x))


def matrix_to_json(m: IntMatrix):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [_int_out(x) for x in m.entries]}


def matrix_from_json(doc):
    try:
        return IntMatrix(_size_in(doc["rows"]), _size_in(doc["cols"]),
                         tuple(_int_in(x) for x in
                               _typed(doc["entries"], list, "a list")))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad matrix document: {exc}") from exc


def poic_to_json(p: Poic):
    return {"rank": p.rank,
            "facets": [{"normal": [_int_out(x) for x in n], "strict": s}
                       for n, s in p.facets]}


def poic_from_json(doc):
    try:
        facets = [(tuple(_int_in(x) for x in _typed(f["normal"], list,
                                                    "a list")),
                   _typed(f["strict"], bool, "a bool"))
                  for f in _typed(doc["facets"], list, "a list")]
        return poic_new(_size_in(doc["rank"]), facets)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad cone document: {exc}") from exc


def linear_to_json(lin: LinearStructure):
    return {"target_rank": lin.target_rank,
            "maps": {p: matrix_to_json(m) for p, m in sorted(lin.maps.items())}}


def linear_from_json(doc):
    try:
        return LinearStructure(
            target_rank=_size_in(doc["target_rank"]),
            maps={p: matrix_from_json(m) for p, m in doc["maps"].items()})
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"bad linear structure document: {exc}") from exc


def complex_to_json(phi: PoicComplex, lin: LinearStructure = None):
    doc = {
        "cones": [dict(id=p, **poic_to_json(phi.cones[p]))
                  for p in phi.ids()],
        "order": sorted([p, q] for (p, q) in phi.order),
        "face_maps": {f"{p}<{q}": matrix_to_json(m)
                      for (p, q), m in sorted(phi.face_maps.items())},
    }
    if lin is not None:
        doc["linear"] = linear_to_json(lin)
    return doc


def complex_from_json(doc):
    """A validated complex and its linear structure, if the document has
    one (validated against the complex)."""
    try:
        cones = {_typed(c["id"], str, "a cone id"): poic_from_json(c)
                 for c in _typed(doc["cones"], list, "a list")}
        order = {_relation_in(r) for r in _typed(doc["order"], list,
                                                 "a list")}
        fmaps = {_relation_in(key.split("<", 1)): matrix_from_json(m)
                 for key, m in doc["face_maps"].items()}
        lin = linear_from_json(doc["linear"]) if doc.get("linear") else None
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"bad complex document: {exc}") from exc
    phi = complex_new(cones, order, fmaps)
    if lin is not None:
        validate_linear(phi, lin)
    return phi, lin


def weight_to_json(w: Weight):
    return {"dim": w.dim,
            "values": {k: _int_out(v) for k, v in sorted(w.values.items())}}


def weight_from_json(doc):
    from .weights import Weight
    try:
        return Weight(_int_in(doc["dim"]),
                      {k: _int_in(v) for k, v in doc["values"].items()})
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"bad weight document: {exc}") from exc


def subdivision_to_json(sub: ComplexMorphism):
    return {
        "source": complex_to_json(sub.source),
        "target": complex_to_json(sub.target),
        "cone_map": dict(sorted(sub.cone_map.items())),
        "matrices": {p: matrix_to_json(m)
                     for p, m in sorted(sub.matrices.items())},
    }


def subdivision_from_json(doc):
    """A subdivision, or any other morphism of complexes (``pushforward``
    reads its morphism here), with map data that fits its cones."""
    from .subdivision import ComplexMorphism
    try:
        source, _ = complex_from_json(doc["source"])
        target, _ = complex_from_json(doc["target"])
        mor = ComplexMorphism(
            source=source, target=target,
            cone_map={p: _typed(t, str, "a cone id")
                      for p, t in doc["cone_map"].items()},
            matrices={p: matrix_from_json(m)
                      for p, m in doc["matrices"].items()})
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"bad subdivision document: {exc}") from exc
    for issue in mor.shape_issues():
        raise SchemaError(f"bad subdivision document: {issue}")
    return mor


def graph_to_json(g: DiscreteGraph):
    return {"flags": g.nflags,
            "root": list(g.root),
            "involution": list(g.inv),
            "marking": {lab: f for lab, f in g.marking}}


def graph_from_json(doc):
    from .graphs import graph_new
    try:
        return graph_new(int(doc["flags"]), doc["root"], doc["involution"],
                         doc.get("marking", {}))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad graph document: {exc}") from exc


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def dump(doc, fh):
    """Write ``dumps(doc)`` to the text file ``fh`` chunk by chunk, without
    holding the whole text."""
    fh.writelines(json.JSONEncoder(sort_keys=True, indent=1).iterencode(doc))
    fh.write("\n")


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}") from exc
