"""Command-line surface: enumeration, moduli construction, weight
lattices, subdivision verification, pushforwards, fibrations, and a
manifest runner producing deterministic, auditable reports.

Exit codes: 0 verified/computed, 1 validation failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from . import io_json
from .complexes import ComplexError
from .cone import ConeError
from .fibration import FibrationError, equivariant_basis, validate_fibration
from .graphs import GraphError, enumerate_category
from .io_json import SchemaError
from .moduli import ModuliError, build_moduli
from .spaces import SpaceError
from .stfib import (
    FibrationMorphismError,
    clutching,
    forgetful,
    space_iso_lifting,
    spanning_tree_fibration,
)
from .subdivision import (
    Cycle,
    SubdivisionError,
    cycle_equal,
    identity_subdivision,
    is_weakly_proper,
    ord_subdivision,
    pushforward,
    stellar,
    validate_subdivision,
)
from .weights import WeightError, is_balanced_at, minkowski_basis

VALIDATION_ERRORS = (ComplexError, ConeError, GraphError, ModuliError,
                     SubdivisionError, WeightError, FibrationError,
                     FibrationMorphismError, SpaceError)


def _read_json(path):
    try:
        with open(path) as fh:
            return io_json.loads(fh.read())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _write_out(doc, path):
    text = io_json.dumps(doc)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _marks(text):
    if not text:
        return []
    return [t.strip() for t in text.split(",") if t.strip()]


def _genus_marks(text):
    g, sep, labels = text.partition(":")
    if not sep or not g.isdigit():
        raise SchemaError(f"expected g:A with a genus g >= 0, not {text!r}")
    return int(g), _marks(labels)


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# commands (each returns a JSON-able result document)

def cmd_enumerate(args):
    cat = enumerate_category(args.genus, _marks(args.marks))
    classes = []
    for cid in cat.ids():
        rep = cat.classes[cid]
        classes.append({
            "id": cid,
            "edges": len(rep.edges()),
            "vertices": len(rep.vertices()),
            "automorphisms": len(cat.automorphisms[cid]),
            "maximal": cid in cat.maximal,
            "graph": io_json.graph_to_json(rep),
        })
    return {"classes": classes, "count": len(classes),
            "trivalent": len(cat.maximal)}


def cmd_build_moduli(args):
    m = build_moduli(args.genus, _marks(args.marks))
    if args.genus == 0:
        return io_json.complex_to_json(m.complex, m.linear)
    doc = {"objects": {x: io_json.poic_to_json(p)
                       for x, p in sorted(m.space.objects.items())},
           "homs": [{"src": x, "dst": y,
                     "matrices": [io_json.matrix_to_json(h) for h in mats]}
                    for (x, y), mats in sorted(m.space.homs.items())]}
    return doc


def cmd_weights(args):
    phi, lin = io_json.complex_from_json(_read_json(args.complex))
    if lin is None:
        raise SchemaError("complex document carries no linear structure")
    lat = minkowski_basis(phi, lin, args.k)
    certificates = {}
    for i, w in enumerate(lat.basis):
        per_class = {}
        for s in phi.classes(args.k - 1):
            flag, lam = is_balanced_at(phi, lin, w, s)
            per_class[s] = {"balanced": flag,
                            "lambda": [str(x) for x in lam]
                            if lam is not None else None}
        certificates[f"basis{i}"] = per_class
    return {"k": args.k, "rank": lat.rank,
            "basis": [io_json.weight_to_json(w) for w in lat.basis],
            "certificates": certificates}


def cmd_verify(args):
    sub = io_json.subdivision_from_json(_read_json(args.subdivision))
    report = validate_subdivision(sub)
    axioms = {"functorial": [], "partition": [], "face-lifting": [],
              "surjective": [], "injective": [], "lattice-iso": [],
              "shape": []}
    for issue in report.issues:
        axioms.setdefault(issue["axiom"], []).append(issue["message"])
    return {"ok": report.ok, "issues": report.issues,
            "axioms": {k: ("pass" if not v else "fail")
                       for k, v in axioms.items()}}


def cmd_subdivide(args):
    phi, _ = io_json.complex_from_json(_read_json(args.complex))
    if args.ord:
        sub = ord_subdivision(phi)
    elif args.stellar:
        if args.stellar not in phi.cones:
            raise SchemaError(f"unknown cone {args.stellar!r}")
        try:
            ray = tuple(int(x) for x in (args.ray or "").split(","))
        except ValueError:
            ray = ()
        if len(ray) != phi.dim(args.stellar) or not any(ray):
            raise SchemaError(f"--stellar {args.stellar} needs --ray with "
                              f"{phi.dim(args.stellar)} integers, not all 0")
        sub = stellar(phi, args.stellar, ray)
    else:
        sub = identity_subdivision(phi)
    report = validate_subdivision(sub)
    if not report.ok:
        raise SubdivisionError(f"constructed subdivision invalid: "
                               f"{report.issues}")
    return io_json.subdivision_to_json(sub)


def cmd_pushforward(args):
    mor = io_json.morphism_from_json(_read_json(args.morphism))
    omega = io_json.weight_from_json(_read_json(args.weight))
    flag, witness = is_weakly_proper(mor)
    if not flag:
        raise SubdivisionError(f"morphism is not weakly proper: {witness}")
    if args.subdivision:
        sub = io_json.subdivision_from_json(_read_json(args.subdivision))
    else:
        from .subdivision import pfine_refinement
        sub = pfine_refinement(mor)
    out = pushforward(mor, sub, omega, omega.dim)
    return {"weight": io_json.weight_to_json(out),
            "subdivision": io_json.subdivision_to_json(sub)}


def cmd_cycle_eq(args):
    s1 = io_json.subdivision_from_json(_read_json(args.sub1))
    s2 = io_json.subdivision_from_json(_read_json(args.sub2))
    w1 = io_json.weight_from_json(_read_json(args.w1))
    w2 = io_json.weight_from_json(_read_json(args.w2))
    c1 = Cycle(base=s1.target, subdivision=s1, weight=w1)
    c2 = Cycle(base=s2.target, subdivision=s2, weight=w2)
    return {"equal": cycle_equal(c1, c2)}


def cmd_st_fibration(args):
    st = spanning_tree_fibration(args.genus, _marks(args.marks))
    report = validate_fibration(st.fibration)
    n = st.complex.max_dim()
    return {"valid": report.ok, "issues": report.issues,
            "pure_dimension": n,
            "source_cones": len(st.complex.ids()),
            "target_classes": len(st.space.objects)}


def cmd_equivariant(args):
    st = spanning_tree_fibration(args.genus, _marks(args.marks))
    k = args.k if args.k is not None else st.complex.max_dim()
    if args.subdivision:
        sub = io_json.subdivision_from_json(_read_json(args.subdivision))
        if sub.target.cones != st.complex.cones:
            raise SchemaError("the subdivision is not one of the fibration "
                              "source")
    else:
        sub = identity_subdivision(st.complex)
    lat = equivariant_basis(st.fibration, k, sub)
    from .fibration import compatibility_generators, piece_bijection
    perms = []
    for (p, q, f) in compatibility_generators(st.fibration):
        mapping = piece_bijection(st.fibration, sub, p, q, f)
        perms.append({"from": p, "to": q,
                      "iso": io_json.matrix_to_json(f),
                      "pieces": dict(sorted(mapping.items()))})
    return {"k": k, "rank": lat.rank,
            "basis": [io_json.weight_to_json(w) for w in lat.basis],
            "permutation_generators": perms}


def cmd_clutch(args):
    cm = clutching(*_genus_marks(args.left), *_genus_marks(args.right))
    mor = cm.complex_morphism()
    flag, witness = is_weakly_proper(mor)
    return {"weakly_proper": flag,
            "source_cones": len(mor.source.ids()),
            "target_cones": len(mor.target.ids()),
            "cone_map": dict(sorted(cm.cone_map.items()))}


def cmd_forget(args):
    fm = forgetful(args.genus, _marks(args.marks), args.mark)
    mor = fm.complex_morphism()
    flag, witness = is_weakly_proper(mor)
    lift, _ = space_iso_lifting(fm)
    return {"weakly_proper": flag,
            "space_iso_lifting": lift,
            "cone_map": dict(sorted(fm.cone_map.items()))}


COMMANDS = {
    "enumerate": cmd_enumerate,
    "build-moduli": cmd_build_moduli,
    "weights": cmd_weights,
    "verify": cmd_verify,
    "subdivide": cmd_subdivide,
    "pushforward": cmd_pushforward,
    "cycle-eq": cmd_cycle_eq,
    "st-fibration": cmd_st_fibration,
    "equivariant": cmd_equivariant,
    "clutch": cmd_clutch,
    "forget": cmd_forget,
}


def cmd_run(args):
    """Execute a manifest: a fully reproducible description of one run."""
    manifest = _read_json(args.manifest)
    if not isinstance(manifest, dict):
        raise SchemaError("a manifest is a JSON object")
    command = manifest.get("command")
    params = manifest.get("params", {})
    inputs = manifest.get("inputs", {})
    if not isinstance(command, str) or command not in COMMANDS:
        raise SchemaError(f"unknown manifest command {command!r}")
    if not (isinstance(params, dict) and isinstance(inputs, dict)):
        raise SchemaError("manifest params and inputs are JSON objects")
    # params and inputs are the command's options, checked by its parser
    argv = [command]
    for key, value in {**params, **inputs}.items():
        if value is True:
            argv.append(f"--{key}")
        elif value is not False and value is not None:
            argv.append(f"--{key}={value}")
    result = COMMANDS[command](build_parser().parse_args(argv))
    report = {
        "command": command,
        "params": params,
        "seed": manifest.get("seed", 0),
        "digests": {name: _digest(path) for name, path in sorted(
            inputs.items())},
        "result": result,
    }
    out = manifest.get("output")
    _write_out(report, out)
    return None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tropocone",
        description="Exact tropical intersection theory on partially open "
                    "integral cone complexes and fibrations.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="isomorphism classes of stable "
                                         "marked graphs")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--marks", default="")
    p.add_argument("--out")

    p = sub.add_parser("build-moduli", help="moduli complex or space")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--marks", default="")
    p.add_argument("--out")

    p = sub.add_parser("weights", help="Minkowski-weight lattice")
    p.add_argument("--complex", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="check the subdivision axioms")
    p.add_argument("--subdivision", required=True)
    p.add_argument("--out")

    p = sub.add_parser("subdivide", help="stellar or ord subdivision")
    p.add_argument("--complex", required=True)
    p.add_argument("--stellar", metavar="CONE")
    p.add_argument("--ray", help="comma-separated ray for --stellar")
    p.add_argument("--ord", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("pushforward", help="index-weighted pushforward")
    p.add_argument("--morphism", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--subdivision")
    p.add_argument("--out")

    p = sub.add_parser("cycle-eq", help="cycle equality via common "
                                        "refinement")
    p.add_argument("--sub1", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--sub2", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--out")

    p = sub.add_parser("st-fibration", help="spanning-tree fibration")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--marks", default="")
    p.add_argument("--out")

    p = sub.add_parser("equivariant", help="equivariant weight lattice")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--marks", default="")
    p.add_argument("--k", type=int)
    p.add_argument("--subdivision")
    p.add_argument("--out")

    p = sub.add_parser("clutch", help="clutching morphism")
    p.add_argument("--left", required=True, metavar="g:A")
    p.add_argument("--right", required=True, metavar="h:B")
    p.add_argument("--out")

    p = sub.add_parser("forget", help="forgetful morphism")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--marks", required=True)
    p.add_argument("--mark", required=True)
    p.add_argument("--out")

    p = sub.add_parser("run", help="execute a manifest")
    p.add_argument("--manifest", required=True)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "run":
            cmd_run(args)
            return 0
        result = COMMANDS[args.command](args)
        _write_out(result, getattr(args, "out", None))
        return 0
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except VALIDATION_ERRORS as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
