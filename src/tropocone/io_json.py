"""JSON interchange for cones, complexes, weights, subdivisions, graphs,
and morphisms.

Integers are serialized as decimal strings so arbitrary-precision values
survive round trips; parsing accepts both numbers and strings.
"""

from __future__ import annotations

import json

from .complexes import LinearStructure, PoicComplex, complex_new
from .cone import Poic, poic_new
from .graphs import DiscreteGraph, graph_new
from .intlinalg import IntMatrix
from .subdivision import ComplexMorphism, Subdivision
from .weights import Weight


class SchemaError(ValueError):
    pass


def _int_in(x):
    try:
        return int(x)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"not an integer: {x!r}") from exc


def _int_out(x):
    return str(int(x))


def matrix_to_json(m: IntMatrix):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [_int_out(x) for x in m.entries]}


def matrix_from_json(doc):
    try:
        return IntMatrix(int(doc["rows"]), int(doc["cols"]),
                         tuple(_int_in(x) for x in doc["entries"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad matrix document: {exc}") from exc


def poic_to_json(p: Poic):
    return {"rank": p.rank,
            "facets": [{"normal": [_int_out(x) for x in n], "strict": s}
                       for n, s in p.facets]}


def poic_from_json(doc):
    try:
        facets = [(tuple(_int_in(x) for x in f["normal"]), bool(f["strict"]))
                  for f in doc["facets"]]
        return poic_new(int(doc["rank"]), facets)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad cone document: {exc}") from exc


def linear_to_json(lin: LinearStructure):
    return {"target_rank": lin.target_rank,
            "maps": {p: matrix_to_json(m) for p, m in sorted(lin.maps.items())}}


def linear_from_json(doc):
    try:
        return LinearStructure(
            target_rank=int(doc["target_rank"]),
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


def complex_from_json(doc, validate=True):
    try:
        cones = {c["id"]: poic_from_json(c) for c in doc["cones"]}
        order = {tuple(r) for r in doc["order"]}
        fmaps = {}
        for key, m in doc["face_maps"].items():
            p, q = key.split("<", 1)
            fmaps[(p, q)] = matrix_from_json(m)
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"bad complex document: {exc}") from exc
    if validate:
        phi = complex_new(cones, order, fmaps)
    else:
        phi = PoicComplex(cones=cones, order=frozenset(order),
                          face_maps=fmaps)
    lin = linear_from_json(doc["linear"]) if doc.get("linear") else None
    return phi, lin


def weight_to_json(w: Weight):
    return {"dim": w.dim,
            "values": {k: _int_out(v) for k, v in sorted(w.values.items())}}


def weight_from_json(doc):
    try:
        return Weight(int(doc["dim"]),
                      {k: _int_in(v) for k, v in doc["values"].items()})
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad weight document: {exc}") from exc


def subdivision_to_json(sub: Subdivision):
    return {
        "source": complex_to_json(sub.source),
        "target": complex_to_json(sub.target),
        "cone_map": dict(sorted(sub.cone_map.items())),
        "matrices": {p: matrix_to_json(m)
                     for p, m in sorted(sub.matrices.items())},
    }


def subdivision_from_json(doc):
    try:
        source, _ = complex_from_json(doc["source"])
        target, _ = complex_from_json(doc["target"])
        return Subdivision(
            source=source, target=target,
            cone_map=dict(doc["cone_map"]),
            matrices={p: matrix_from_json(m)
                      for p, m in doc["matrices"].items()})
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad subdivision document: {exc}") from exc


def morphism_to_json(mor: ComplexMorphism):
    doc = {
        "source": complex_to_json(mor.source),
        "target": complex_to_json(mor.target),
        "cone_map": dict(sorted(mor.cone_map.items())),
        "matrices": {p: matrix_to_json(m)
                     for p, m in sorted(mor.matrices.items())},
    }
    if mor.int_matrix is not None:
        doc["int_matrix"] = matrix_to_json(mor.int_matrix)
    return doc


def morphism_from_json(doc):
    try:
        source, _ = complex_from_json(doc["source"])
        target, _ = complex_from_json(doc["target"])
        return ComplexMorphism(
            source=source, target=target,
            cone_map=dict(doc["cone_map"]),
            matrices={p: matrix_from_json(m)
                      for p, m in doc["matrices"].items()},
            int_matrix=matrix_from_json(doc["int_matrix"])
            if doc.get("int_matrix") else None)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad morphism document: {exc}") from exc


def graph_to_json(g: DiscreteGraph):
    return {"flags": g.nflags,
            "root": list(g.root),
            "involution": list(g.inv),
            "marking": {lab: f for lab, f in g.marking}}


def graph_from_json(doc):
    try:
        return graph_new(int(doc["flags"]), doc["root"], doc["involution"],
                         doc.get("marking", {}))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad graph document: {exc}") from exc


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}") from exc
