import io
import json
import random
import re
import subprocess
import sys

import pytest

from tropocone import cli, io_json
from tropocone.cone import poic_new
from tropocone.complexes import complex_new, single_cone_complex
from tropocone.graphs import graph_new
from tropocone.intlinalg import IntMatrix
from tropocone.moduli import build_moduli
from tropocone.stfib import spanning_tree_fibration
from tropocone.subdivision import identity_subdivision, stellar
from tropocone.weights import Weight


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "tropocone.cli", *argv],
        capture_output=True, text=True)


def test_poic_roundtrip():
    p = poic_new(2, [((1, 0), False), ((0, 1), True)])
    doc = io_json.poic_to_json(p)
    again = io_json.poic_from_json(doc)
    assert again == p
    assert io_json.poic_to_json(again) == doc


def test_complex_roundtrip():
    m = build_moduli(0, ["1", "2", "3", "4"])
    doc = io_json.complex_to_json(m.complex, m.linear)
    phi, lin = io_json.complex_from_json(doc)
    assert io_json.complex_to_json(phi, lin) == doc


def test_weight_roundtrip_huge_entries():
    w = Weight(1, {"a": 10 ** 30, "b": -(7 ** 40)})
    doc = io_json.weight_to_json(w)
    assert doc["values"]["a"] == str(10 ** 30)
    again = io_json.weight_from_json(json.loads(json.dumps(doc)))
    assert again.values == w.values


def test_subdivision_roundtrip():
    phi = single_cone_complex(
        poic_new(2, [((1, 0), False), ((0, 1), False)]), "q")
    top = phi.classes(2)[0]
    sub = stellar(phi, top, (1, 1))
    doc = io_json.subdivision_to_json(sub)
    again = io_json.subdivision_from_json(doc)
    assert io_json.subdivision_to_json(again) == doc


def test_dump_streams_the_text_of_dumps():
    m = build_moduli(0, ["1", "2", "3", "4", "5"])
    phi = single_cone_complex(
        poic_new(2, [((1, 0), False), ((0, 1), False)]), "q")
    for doc in (io_json.complex_to_json(m.complex, m.linear),
                io_json.subdivision_to_json(stellar(phi, phi.classes(2)[0],
                                                    (1, 1))),
                {}, [], "text", 7):
        buf = io.StringIO()
        io_json.dump(doc, buf)
        assert buf.getvalue() == io_json.dumps(doc)


def test_graph_roundtrip():
    g = graph_new(8, [6, 6, 6, 7, 7, 6, 6, 7], [0, 1, 2, 3, 5, 4, 6, 7],
                  {"a": 0, "b": 1, "c": 2, "d": 3})
    doc = io_json.graph_to_json(g)
    again = io_json.graph_from_json(doc)
    assert again.encoding() == g.encoding()


def test_schema_error():
    with pytest.raises(io_json.SchemaError):
        io_json.poic_from_json({"rank": 2})


def test_cli_enumerate():
    out = run_cli("enumerate", "--genus", "0", "--marks", "1,2,3,4")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["count"] == 4
    assert doc["trivalent"] == 3


def test_cli_weights_m04(tmp_path):
    m = build_moduli(0, ["1", "2", "3", "4"])
    cpath = tmp_path / "m04.json"
    cpath.write_text(io_json.dumps(io_json.complex_to_json(
        m.complex, m.linear)))
    out = run_cli("weights", "--complex", str(cpath), "--k", "1")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["rank"] == 1
    basis = doc["basis"][0]["values"]
    assert sorted(basis.values()) == ["1", "1", "1"]
    # balancing certificates embedded
    cert = doc["certificates"]["basis0"]
    assert all(v["balanced"] for v in cert.values())


def test_cli_verify(tmp_path):
    phi = single_cone_complex(
        poic_new(2, [((1, 0), False), ((0, 1), False)]), "q")
    sub = identity_subdivision(phi)
    spath = tmp_path / "sub.json"
    spath.write_text(io_json.dumps(io_json.subdivision_to_json(sub)))
    out = run_cli("verify", "--subdivision", str(spath))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["ok"]


def test_cli_input_error():
    out = run_cli("weights", "--complex", "/nonexistent.json", "--k", "1")
    assert out.returncode == 2


def test_cli_manifest_determinism(tmp_path):
    m = build_moduli(0, ["1", "2", "3", "4"])
    cpath = tmp_path / "m04.json"
    cpath.write_text(io_json.dumps(io_json.complex_to_json(
        m.complex, m.linear)))
    manifest = {
        "command": "weights",
        "inputs": {"complex": str(cpath)},
        "params": {"k": 1},
        "output": str(tmp_path / "report.json"),
        "seed": 7,
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(io_json.dumps(manifest))
    out1 = run_cli("run", "--manifest", str(mpath))
    assert out1.returncode == 0
    first = (tmp_path / "report.json").read_bytes()
    out2 = run_cli("run", "--manifest", str(mpath))
    assert out2.returncode == 0
    second = (tmp_path / "report.json").read_bytes()
    assert first == second
    doc = json.loads(first)
    assert doc["digests"]
    assert doc["result"]["rank"] == 1


def test_cli_equivariant():
    out = run_cli("equivariant", "--genus", "1", "--marks", "1,2")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["rank"] == 1


def test_cli_forget():
    out = run_cli("forget", "--genus", "0", "--marks", "a,1,2,3",
                  "--mark", "a")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["weakly_proper"]


def test_cli_forget_at_genus_two():
    out = run_cli("forget", "--genus", "2", "--marks", "a", "--mark", "a")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["weakly_proper"] is True


@pytest.mark.parametrize("marks", ["a,b,c", ""])
def test_cli_forget_of_an_absent_mark_is_an_input_error(marks):
    out = run_cli("forget", "--genus", "1", "--marks", marks, "--mark", "z")
    assert out.returncode == 2
    assert out.stderr.startswith("input error: z is not a mark")
    assert "Traceback" not in out.stderr


def test_cli_clutch():
    out = run_cli("clutch", "--left", "0:1,2,c", "--right", "0:3,4,c")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["weakly_proper"]


def _write(path, doc):
    path.write_text(io_json.dumps(doc))
    return str(path)


QUADRANT = single_cone_complex(
    poic_new(2, [((1, 0), False), ((0, 1), False)]), "q")


def _quadrant(tmp_path):
    return _write(tmp_path / "q.json", io_json.complex_to_json(QUADRANT))


def _quadrant_subdivision(tmp_path):
    return _write(tmp_path / "sub.json", io_json.subdivision_to_json(
        identity_subdivision(QUADRANT)))


def test_cli_stellar_of_a_cone_with_a_line_verifies(tmp_path):
    """subdivide --stellar on a closed half-space of R^3, whose closure has
    a plane of lineality, writes a subdivision that verify passes on every
    axiom."""
    half = single_cone_complex(poic_new(3, [((1, -1, 2), False)]), "c")
    path = _write(tmp_path / "half.json", io_json.complex_to_json(half))
    spath = str(tmp_path / "sub.json")
    out = run_cli("subdivide", "--complex", path, "--stellar", "c",
                  "--ray=-3,-3,1", "--out", spath)
    assert out.returncode == 0, out.stderr
    out = run_cli("verify", "--subdivision", spath)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["ok"] and set(doc["axioms"].values()) == {"pass"}


def _no_target_rank(tmp_path):
    m = build_moduli(0, ["1", "2", "3", "4"])
    doc = io_json.complex_to_json(m.complex, m.linear)
    del doc["linear"]["target_rank"]
    return ["weights", "--complex", _write(tmp_path / "c.json", doc),
            "--k", "1"]


def _manifest(tmp_path, doc):
    return ["run", "--manifest", _write(tmp_path / "manifest.json", doc)]


def _zeroed_face_map(tmp_path):
    m = build_moduli(0, ["1", "2", "3", "4", "5"])
    doc = io_json.complex_to_json(m.complex, m.linear)
    fmap = next(v for _, v in sorted(doc["face_maps"].items())
                if v["entries"])
    fmap["entries"] = ["0"] * len(fmap["entries"])
    return ["weights", "--complex", _write(tmp_path / "c.json", doc),
            "--k", "2"]


def _enumerate_manifest(tmp_path, **fields):
    return _manifest(tmp_path, {
        "command": "enumerate", "params": {"genus": 0, "marks": "1,2,3"},
        **fields})


def _unreadable_input(tmp_path):
    return _manifest(tmp_path, {"command": "build-moduli",
                                "params": {"genus": 0},
                                "inputs": {"marks": "a,b,c"}})


def _unwritable_out(tmp_path):
    return ["enumerate", "--genus", "0", "--marks", "1,2,3",
            "--out", str(tmp_path / "missing" / "x.json")]


def _unwritable_output(tmp_path):
    return _enumerate_manifest(
        tmp_path, output=str(tmp_path / "missing" / "report.json"))


def _input_not_a_path(tmp_path):
    return _manifest(tmp_path, {"command": "weights",
                                "inputs": {"complex": _quadrant(tmp_path),
                                           "k": 2}})


def _out_param(tmp_path):
    return _enumerate_manifest(
        tmp_path, params={"genus": 0, "marks": "1,2,3",
                          "out": str(tmp_path / "report.json")})


def _non_utf8_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    return ["weights", "--complex", str(path), "--k", "1"]


def _shear_ord(tmp_path):
    """subdivide --ord on a complex whose face map R^2 -> R^2 x R>=0 is a
    shear onto the face z = 0: a valid complex with lineality."""
    phi = complex_new(
        {"a": poic_new(2, []), "b": poic_new(3, [((0, 0, 1), False)])},
        {("a", "b")},
        {("a", "b"): IntMatrix.from_rows([[1, 1], [0, 1], [0, 0]])})
    path = _write(tmp_path / "shear.json", io_json.complex_to_json(phi))
    return ["subdivide", "--complex", path, "--ord"]


def _incompatible_subdivision(tmp_path):
    st = spanning_tree_fibration(1, ["1", "2"])
    sub = stellar(st.complex, "G1 x glue", (1, 2))
    path = _write(tmp_path / "sub.json", io_json.subdivision_to_json(sub))
    return ["equivariant", "--genus", "1", "--marks", "1,2",
            "--subdivision", path]


@pytest.mark.parametrize("argv, code", [
    (lambda t: _manifest(t, {"command": "weights", "params": {"k": 1}}), 2),
    (lambda t: _manifest(t, [{"command": "weights"}]), 2),
    (_no_target_rank, 2),
    (lambda t: ["subdivide", "--complex", _quadrant(t),
                "--stellar", "NOPE", "--ray", "1,1"], 2),
    (lambda t: ["subdivide", "--complex", _quadrant(t), "--stellar", "q"],
     2),
    (lambda t: ["subdivide", "--complex", _quadrant(t),
                "--stellar", "q", "--ray", "1,x"], 2),
    (lambda t: ["equivariant", "--genus", "1", "--marks", "1,2",
                "--subdivision", _quadrant_subdivision(t)], 2),
    (_incompatible_subdivision, 1),
    (lambda t: ["clutch", "--left", "0", "--right", "0:3,4,c"], 2),
    (lambda t: ["build-moduli", "--genus", "0", "--marks", "a,b,c,a"], 2),
    (lambda t: ["build-moduli", "--genus", "-1", "--marks", "a,b,c"], 2),
    (lambda t: ["st-fibration", "--genus", "1", "--marks", "g1,b"], 2),
    (lambda t: ["clutch", "--left", "1:g1*,c", "--right", "0:3,4,c"], 2),
    (lambda t: ["clutch", "--left", "0:1,2,3,c", "--right", "0:4,5,c"], 1),
    (lambda t: ["clutch", "--left", "1:1,c", "--right", "0:3,4,c"], 1),
    (lambda t: ["weights", "--complex", _quadrant(t), "--k", "-1"], 2),
    (lambda t: ["equivariant", "--genus", "1", "--marks", "1,2",
                "--k", "-1"], 2),
    (_unreadable_input, 2),
    (_unwritable_out, 2),
    (_unwritable_output, 2),
    (_out_param, 2),
    (_input_not_a_path, 2),
    (_zeroed_face_map, 1),
    (_non_utf8_input, 2),
    (_shear_ord, 1),
    (lambda t: _enumerate_manifest(t, output=["x"]), 2),
    (lambda t: _enumerate_manifest(t, output=True), 2),
    (lambda t: _enumerate_manifest(t, output=1), 2),
    (lambda t: ["clutch", "--left", "\u00b2:1,c", "--right", "0:3,4,c"], 2),
], ids=["manifest-no-inputs", "manifest-list", "linear-no-target-rank",
        "stellar-unknown-cone", "stellar-no-ray", "stellar-bad-ray",
        "equivariant-foreign-subdivision", "equivariant-incompatible",
        "clutch-no-genus", "duplicate-mark", "negative-genus",
        "gluing-label-mark", "clutch-gluing-label-mark",
        "clutch-unequal-sides", "clutch-genus-one-side",
        "weights-negative-k", "equivariant-negative-k",
        "manifest-unreadable-input", "out-unwritable",
        "manifest-output-unwritable", "manifest-out-param",
        "manifest-input-not-a-path", "weights-not-face-embedding",
        "non-utf8-input", "shear-ord", "manifest-output-list",
        "manifest-output-true", "manifest-output-one",
        "clutch-superscript-genus"])
def test_cli_bad_input_exit_codes(tmp_path, argv, code):
    out = run_cli(*argv(tmp_path))
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["weights", "--complex", "c.json", "--k", "-1"],
    ["equivariant", "--genus", "1", "--marks", "1,2", "--k", "-1"],
])
def test_negative_k_error_names_the_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "argument --k: -1 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (_unreadable_input, 2, "input error: cannot read a,b,c"),
    (_unwritable_out, 2, "input error: cannot write {t}/missing/x.json"),
    (_unwritable_output, 2,
     "input error: cannot write {t}/missing/report.json"),
    (_out_param, 2, "'output'"),
    (_input_not_a_path, 2, "input error: manifest inputs are file paths"),
    (lambda t: _enumerate_manifest(
        t, inputs={"out": str(t / "report.json")}), 2, "'output'"),
    (_zeroed_face_map, 1,
     r"validation failure: map for \S+<\S+ is not a face-embedding"),
    (_non_utf8_input, 2, "input error: cannot decode {t}/bad.json as UTF-8"),
    (_shear_ord, 1,
     "validation failure: ord subdivision needs pointed closures"),
    (lambda t: _enumerate_manifest(t, output=["x"]), 2,
     "input error: a manifest's 'output' is a file path"),
    (lambda t: _enumerate_manifest(t, output=True), 2,
     "input error: a manifest's 'output' is a file path"),
    (lambda t: ["clutch", "--left", "\u00b2:1,c", "--right", "0:3,4,c"], 2,
     "input error: expected g:A with a genus g >= 0, not '\u00b2:1,c'"),
], ids=["manifest-unreadable-input", "out-unwritable",
        "manifest-output-unwritable", "manifest-out-param",
        "manifest-input-not-a-path", "manifest-out-input",
        "weights-not-face-embedding", "non-utf8-input", "shear-ord",
        "manifest-output-list", "manifest-output-true",
        "clutch-superscript-genus"])
def test_cli_errors_name_their_cause(tmp_path, argv, code, message, capsys):
    """``message`` is a pattern; {t} stands for the temporary directory."""
    assert cli.main(argv(tmp_path)) == code
    pattern = message.format(t=re.escape(str(tmp_path)))
    assert re.search(pattern, capsys.readouterr().err)
    assert not (tmp_path / "report.json").exists()


def _m04_documents():
    """The M_0,4 complex (with its linear structure), its identity
    subdivision and a balanced 1-weight on it."""
    m = build_moduli(0, ["1", "2", "3", "4"])
    ident = identity_subdivision(m.complex)
    weight = Weight(1, {p: 1 for p in m.complex.classes(1)})
    return (io_json.complex_to_json(m.complex, m.linear),
            io_json.subdivision_to_json(ident), io_json.weight_to_json(weight))


def test_morphism_document_round_trips_and_pushes_forward(tmp_path):
    """A morphism of complexes is written and read as a subdivision
    document, which is what ``pushforward --morphism`` reads."""
    from tropocone.subdivision import (ComplexMorphism, pfine_refinement,
                                       pushforward)
    m = build_moduli(0, ["1", "2", "3", "4"])
    plane = single_cone_complex(poic_new(2, []), "P")
    mor = ComplexMorphism(source=m.complex, target=plane,
                          cone_map={p: "P" for p in m.complex.ids()},
                          matrices=dict(m.linear.maps))
    doc = io_json.subdivision_to_json(mor)
    again = io_json.subdivision_from_json(json.loads(io_json.dumps(doc)))
    assert isinstance(again, ComplexMorphism)
    assert io_json.subdivision_to_json(again) == doc
    weight = Weight(1, {p: 1 for p in m.complex.classes(1)})
    argv = ["pushforward", "--morphism", _write(tmp_path / "mor.json", doc),
            "--weight", _write(tmp_path / "w.json",
                               io_json.weight_to_json(weight)),
            "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    out = json.loads((tmp_path / "out.json").read_text())
    expected = pushforward(mor, pfine_refinement(mor), weight, 1)
    assert out["weight"] == io_json.weight_to_json(expected)


def _m04_commands(tmp_path, kind, path):
    """Every command that reads a document of ``kind`` (complex or
    subdivision), reading ``path`` in that place and valid M_0,4 documents
    elsewhere."""
    _, sdoc, wdoc = _m04_documents()
    good = _write(tmp_path / "good_sub.json", sdoc)
    weight = _write(tmp_path / "w.json", wdoc)
    if kind == "complex":
        return [["weights", "--complex", path, "--k", "1"],
                ["subdivide", "--complex", path]]
    return [["verify", "--subdivision", path],
            ["pushforward", "--morphism", path, "--weight", weight],
            ["pushforward", "--morphism", good, "--weight", weight,
             "--subdivision", path],
            ["cycle-eq", "--sub1", path, "--w1", weight,
             "--sub2", good, "--w2", weight],
            ["equivariant", "--genus", "0", "--marks", "1,2,3,4",
             "--subdivision", path]]


def _order_triple(doc):
    doc["order"][0].append(doc["order"][0][0])


def _face_map_key_without_bracket(doc):
    key = sorted(doc["face_maps"])[0]
    doc["face_maps"][key.replace("<", "")] = doc["face_maps"].pop(key)


def _rank_x(doc):
    doc["cones"][0]["rank"] = "x"


def _target_rank_off(doc):
    doc["linear"]["target_rank"] += 1


def _unknown_target_cone(doc):
    doc["cone_map"][sorted(doc["cone_map"])[-1]] = "nowhere"


def _misshaped_matrix(doc):
    doc["matrices"][sorted(doc["matrices"])[-1]] = {
        "rows": 1, "cols": 1, "entries": ["1"]}


@pytest.mark.parametrize("kind, mutate, code", [
    ("complex", _order_triple, 2),
    ("complex", _face_map_key_without_bracket, 2),
    ("complex", _rank_x, 2),
    ("complex", _target_rank_off, 1),
    ("subdivision", _unknown_target_cone, 2),
    ("subdivision", _misshaped_matrix, 2),
], ids=["order-triple", "face-map-key", "rank-x", "target-rank",
        "unknown-target", "misshaped-matrix"])
def test_malformed_m04_documents_are_rejected(tmp_path, capsys, kind,
                                              mutate, code):
    cdoc, sdoc, _ = _m04_documents()
    doc = cdoc if kind == "complex" else sdoc
    mutate(doc)
    path = _write(tmp_path / "bad.json", doc)
    for argv in _m04_commands(tmp_path, kind, path):
        assert cli.main(argv) == code, argv
    assert "Traceback" not in capsys.readouterr().err


def test_pushforward_and_cycle_eq_need_a_subdivision(tmp_path, capsys):
    """A well-formed document whose ray piece is scaled by 4 is a morphism
    but not a subdivision: verify reports it, the commands that compute on
    a subdivision refuse it."""
    _, sdoc, _ = _m04_documents()
    ray = next(p for p, m in sorted(sdoc["matrices"].items())
               if m["rows"] == 1)
    sdoc["matrices"][ray]["entries"] = ["4"]
    bad = _write(tmp_path / "scaled.json", sdoc)
    verify, _, pushforward, cycle_eq, _ = _m04_commands(
        tmp_path, "subdivision", bad)
    assert cli.main(verify + ["--out", str(tmp_path / "v.json")]) == 0
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["axioms"]["lattice-iso"] == "fail"
    assert cli.main(pushforward) == 1
    assert cli.main(cycle_eq) == 1
    assert "is not a subdivision" in capsys.readouterr().err


def test_equivariant_needs_a_subdivision(tmp_path, capsys):
    """The identity subdivision of st(1, {1, 2}) with the matrix of one
    piece doubled fails two axioms; equivariant refuses it rather than
    computing a lattice on it."""
    st = spanning_tree_fibration(1, ["1", "2"])
    sdoc = io_json.subdivision_to_json(identity_subdivision(st.complex))
    m = sdoc["matrices"]["G0 x glue"]
    m["entries"] = [str(2 * int(x)) for x in m["entries"]]
    bad = _write(tmp_path / "doubled.json", sdoc)
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--subdivision", bad, "--out", str(out)]) == 0
    axioms = json.loads(out.read_text())["axioms"]
    assert axioms["lattice-iso"] == axioms["functorial"] == "fail"
    assert cli.main(["equivariant", "--genus", "1", "--marks", "1,2",
                     "--subdivision", bad]) == 1
    assert "is not a subdivision" in capsys.readouterr().err


_WRONG_TYPES = (None, "x", 1.5, True, [], {})


def _paths(doc, path=()):
    """Every (path, value) of a JSON document, containers included."""
    yield path, doc
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


def _revalue_sites(doc):
    """The values a "revalue" mutant may change, by class: integer entries
    of matrices and facet normals, strictness flags, and ``cone_map``
    targets (each with the other cone ids it may be swapped for)."""
    sites = {"integer": [], "strict": [], "target": []}
    for path, value in _paths(doc):
        if len(path) >= 2 and path[-2] in ("entries", "normal"):
            sites["integer"].append((path, [str(int(value) + d)
                                            for d in (-1, 1)]))
        elif path[-1:] == ("strict",):
            sites["strict"].append((path, [not value]))
        elif len(path) == 2 and path[0] == "cone_map":
            sites["target"].append((path, sorted(
                {*doc["cone_map"].values()} - {value})))
    return [v for v in sites.values() if v]


def _mutants(doc, rng, count, kinds=("truncate", "retype", "drop")):
    """Mutated texts of ``doc``: cut short, one scalar replaced by a value
    of another JSON type, one required entry dropped (``linear`` is
    optional and is never dropped), or, of kind "revalue", one value
    changed with its JSON type kept (``_revalue_sites``)."""
    text = io_json.dumps(doc)
    scalars = [(p, v) for p, v in _paths(doc)
               if p and not isinstance(v, (dict, list))]
    entries = [p for p, _ in _paths(doc) if p and p[-1] != "linear"]
    revalue = _revalue_sites(doc)
    for _ in range(count):
        kind = rng.choice(kinds)
        if kind == "truncate":
            yield text[:rng.randrange(1, len(text) - 2)]
            continue
        mutant = json.loads(text)
        if kind == "revalue":
            path, values = rng.choice(rng.choice(revalue))
        else:
            path = rng.choice([p for p, _ in scalars] if kind == "retype"
                              else entries)
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "revalue":
            parent[path[-1]] = rng.choice(values)
        else:
            old = parent[path[-1]]
            parent[path[-1]] = rng.choice(
                [v for v in _WRONG_TYPES if type(v) is not type(old)])
        yield io_json.dumps(mutant)


@pytest.mark.parametrize("kind", ["complex", "subdivision"])
def test_fuzzed_m04_documents_never_escape_the_exit_codes(tmp_path, capsys,
                                                          kind):
    """Seeded mutants of the M_0,4 documents: every command that reads one
    exits 1 (validation) or 2 (input), and none raises."""
    cdoc, sdoc, _ = _m04_documents()
    rng = random.Random(20261019 if kind == "complex" else 1019)
    path = tmp_path / "mutant.json"
    argvs = _m04_commands(tmp_path, kind, str(path))
    for text in _mutants(cdoc if kind == "complex" else sdoc, rng, 60):
        path.write_text(text)
        for argv in argvs:
            code = cli.main(argv)
            assert code in (1, 2), (argv[0], text)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["complex", "subdivision"])
def test_revalued_m04_documents_never_escape_the_exit_codes(
        tmp_path, capsys, monkeypatch, kind):
    """Seeded mutants of the M_0,4 documents that keep every JSON type and
    change one value: every command that reads one exits 0, 1 or 2, and
    none raises.  Subdivision mutants reach the partition axiom."""
    from tropocone import subdivision
    tests = []
    real = subdivision._relint_members

    def counted(hdescs, x):
        tests.append(x)
        return real(hdescs, x)

    monkeypatch.setattr(subdivision, "_relint_members", counted)
    cdoc, sdoc, _ = _m04_documents()
    rng = random.Random(1620 if kind == "complex" else 16)
    path = tmp_path / "mutant.json"
    argvs = _m04_commands(tmp_path, kind, str(path))
    codes = set()
    for text in _mutants(cdoc if kind == "complex" else sdoc, rng, 60,
                         kinds=("revalue",)):
        path.write_text(text)
        for argv in argvs:
            code = cli.main(argv)
            assert code in (0, 1, 2), (argv[0], text)
            codes.add(code)
    assert "Traceback" not in capsys.readouterr().err
    assert len(codes) >= 2
    if kind == "subdivision":
        assert tests


# clutch sides g:A and forget (genus, marks, mark) that seed the command-line
# fuzz: the first two clutch seeds fail validation today (exit 1)
CLUTCH_SEEDS = [("0:1,2,3,c", "0:4,5,c"), ("1:1,c", "0:3,4,c"),
                ("0:1,2,c", "0:3,4,c"), ("1:c", "0:1,2,c")]
FORGET_SEEDS = [("2", "a", "a"), ("2", "a,b", "a"), ("1", "a,b,c", "a"),
                ("0", "a,1,2,3", "a"), ("1", "a,b", "a")]


def _side_mutants(side):
    """One-side mutants of a clutch side g:A, by name."""
    g, _, marks = side.partition(":")
    return {"superscript-genus": f"²:{marks}",
            "negative-genus": f"-1:{marks}",
            "no-colon": g + marks,
            "empty-marks": f"{g}:",
            "repeated-mark": f"{g}:{marks},{marks.split(',')[0]}",
            "gluing-mark": f"{g}:{marks},g1",
            "starred-gluing-mark": f"{g}:{marks},g2*",
            "no-shared-label": f"{g}:{marks.replace('c', 'd')}"}


def _genus(text):
    """The genus, with a text that is not an ASCII numeral read as 0."""
    return int(text) if re.fullmatch("[0-9]+", text) else 0


def _size(genus, marks):
    """2g + #marks."""
    return 2 * _genus(genus) + len(set(marks))


def _clutch_argvs(rng):
    for left, right in CLUTCH_SEEDS:
        sides = [(left, right)]
        for mutate in _side_mutants(left):
            i = rng.randrange(2)
            pair = [left, right]
            pair[i] = _side_mutants(pair[i])[mutate]
            sides.append(tuple(pair))
        sides.append((f"{left},x", f"{right},x"))    # two shared labels
        for pair in sides:
            parsed = [(s.partition(":")[0], cli._marks(s.partition(":")[2]))
                      for s in pair]
            target = (str(sum(_genus(g) for g, _ in parsed)),
                      set(parsed[0][1]) ^ set(parsed[1][1]))
            if all(_size(g, m) <= 6 for g, m in parsed + [target]):
                yield ["clutch", "--left", pair[0], "--right", pair[1]]


def _forget_argvs(rng):
    for genus, marks, mark in FORGET_SEEDS:
        mutants = [(genus, marks, mark), ("²", marks, mark),
                   ("-1", marks, mark), (genus, "", mark),
                   (genus, f"{marks},{mark}", mark),
                   (genus, f"{marks},g1", mark),
                   (genus, f"{marks},g2*", mark), (genus, marks, "z")]
        for g, m, k in [mutants[0]] + rng.sample(mutants[1:], 4):
            if _size(g, cli._marks(m)) <= 6:
                yield ["forget", "--genus", g, "--marks", m, "--mark", k]


def test_clutch_and_forget_specs_never_escape_the_exit_codes(tmp_path,
                                                            capsys):
    """Seeded clutch and forget specs and their mutants (superscript or
    negative genus, no colon, empty, repeated or gluing-named marks, zero
    or two shared labels, a forgotten mark not among the marks), with
    2g + #marks <= 6 on every side and target, run in-process: each
    exits 0, 1 or 2 and none raises."""
    rng = random.Random("clutch and forget")
    argvs = [*_clutch_argvs(rng), *_forget_argvs(rng)]
    assert len(argvs) >= 55
    codes = set()
    for argv in argvs:
        try:
            code = cli.main(argv + ["--out", str(tmp_path / "out.json")])
        except SystemExit as exc:
            code = exc.code    # argparse: --genus ², or a side like -1:c
        assert code in (0, 1, 2), argv
        codes.add(code)
    assert "Traceback" not in capsys.readouterr().err
    assert codes == {0, 1, 2}
