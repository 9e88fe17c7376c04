import json
import subprocess
import sys

import pytest

from tropocone import io_json
from tropocone.cone import poic_new
from tropocone.complexes import single_cone_complex
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


def _no_target_rank(tmp_path):
    m = build_moduli(0, ["1", "2", "3", "4"])
    doc = io_json.complex_to_json(m.complex, m.linear)
    del doc["linear"]["target_rank"]
    return ["weights", "--complex", _write(tmp_path / "c.json", doc),
            "--k", "1"]


def _manifest(tmp_path, doc):
    return ["run", "--manifest", _write(tmp_path / "manifest.json", doc)]


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
], ids=["manifest-no-inputs", "manifest-list", "linear-no-target-rank",
        "stellar-unknown-cone", "stellar-no-ray", "stellar-bad-ray",
        "equivariant-foreign-subdivision", "equivariant-incompatible",
        "clutch-no-genus"])
def test_cli_bad_input_exit_codes(tmp_path, argv, code):
    out = run_cli(*argv(tmp_path))
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
