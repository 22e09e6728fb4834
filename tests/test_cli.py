import json
import os
import re
import subprocess
import sys

import pytest

from hotring import corpus, tower_homs
from hotring.cli import main
from hotring.serialize import (certificate_from_json, certificate_to_json,
                               dump_json, hom_to_json, poly_from_json,
                               poly_to_json, ring_from_json, ring_to_json)

RINGS = corpus()


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("HOTRING_HOME", str(tmp_path / "store"))
    for label in ("sq0_z2", "z3_unital", "z2_unital", "tower3", "tower2"):
        dump_json(tmp_path / f"{label}.json", ring_to_json(RINGS[label]))
    h, k = tower_homs(RINGS)
    dump_json(tmp_path / "h.json", hom_to_json(h))
    dump_json(tmp_path / "k.json", hom_to_json(k))
    return tmp_path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_check_ring_and_cache_hit(workdir, capsys):
    code, out1 = run(capsys, ["check-ring", workdir / "sq0_z2.json"])
    assert code == 0
    assert json.loads(out1)["payload"]["valid"]
    code, out2 = run(capsys, ["check-ring", workdir / "sq0_z2.json"])
    assert code == 0
    assert out1 == out2           # byte-identical on the cache hit


def test_check_ring_malformed_json(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{'orders': [2]")
    code = main(["check-ring", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line" in err and "column" in err


def test_homs_command(workdir, capsys):
    code, out = run(capsys, ["homs", "--source", workdir / "sq0_z2.json",
                             "--target", workdir / "sq0_z2.json"])
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 2


def test_homotopy_command_finds_certificate(workdir, capsys):
    r = RINGS["sq0_z2"]
    dump_json(workdir / "idhom.json",
              {"source": "sq0_z2", "target": "sq0_z2", "images": [[1]]})
    dump_json(workdir / "zerohom.json",
              {"source": "sq0_z2", "target": "sq0_z2", "images": [[0]]})
    code, out = run(capsys, [
        "homotopy", "--source", workdir / "sq0_z2.json",
        "--target", workdir / "sq0_z2.json",
        "--f0", workdir / "idhom.json", "--f1", workdir / "zerohom.json",
        "--degree", 1])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["found"] and payload["verified"]
    del r


def test_homotopy_not_found_is_a_verdict(workdir, capsys):
    dump_json(workdir / "id1.json",
              {"source": "z2_unital", "target": "z2_unital", "images": [[1]]})
    dump_json(workdir / "zero1.json",
              {"source": "z2_unital", "target": "z2_unital", "images": [[0]]})
    code, out = run(capsys, [
        "homotopy", "--source", workdir / "z2_unital.json",
        "--target", workdir / "z2_unital.json",
        "--f0", workdir / "id1.json", "--f1", workdir / "zero1.json",
        "--degree", 3])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload == {"found": False, "degree": 3,
                       "searched": payload["searched"]}


def test_classes_command(workdir, capsys):
    code, out = run(capsys, ["classes", "--source", workdir / "z2_unital.json",
                             "--target", workdir / "z2_unital.json",
                             "--degree", 2])
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 2


def test_kv1_command_records_order_two(workdir, capsys):
    code, out = run(capsys, ["kv1", "--ring", workdir / "z3_unital.json",
                             "--size", 2, "--degree", 1])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["classes"] == 2
    assert payload["invariant_factors"] == [2]
    assert payload["monotone_history"] == [2]
    assert payload["determinant_certificate"]["subgroup_in_kernel"]
    # cache hit second time
    code, out2 = run(capsys, ["kv1", "--ring", workdir / "z3_unital.json",
                              "--size", 2, "--degree", 1])
    assert out == out2


def test_kv1_budget_exhaustion_exit_code(workdir, capsys):
    code = main(["kv1", "--ring", str(workdir / "z3_unital.json"),
                 "--size", "2", "--degree", "1", "--budget", "10"])
    err = capsys.readouterr().err
    assert code == 3
    assert "budget" in err


def test_factorize_command(workdir, capsys):
    code, out = run(capsys, ["factorize", "--hom", workdir / "h.json",
                             "--source", workdir / "tower3.json",
                             "--target", workdir / "tower2.json"])
    assert code == 0
    assert json.loads(out)["payload"]["ok"]


def test_puppe_command(workdir, capsys):
    code, out = run(capsys, ["puppe", "--hom", workdir / "k.json",
                             "--length", 2, "--probes", 10])
    assert code == 0
    assert json.loads(out)["payload"]["ok"]


def test_triangle_command(workdir, capsys):
    code, out = run(capsys, ["triangle", "--hom", workdir / "k.json",
                             "--probes", 20])
    assert code == 0
    assert json.loads(out)["payload"]["rotation_witness_valid"]


def test_octahedron_command(workdir, capsys):
    code, out = run(capsys, ["octahedron", "--h", workdir / "h.json",
                             "--k", workdir / "k.json", "--probes", 15])
    assert code == 0
    assert json.loads(out)["payload"]["ok"]


def test_k0_command(workdir, capsys):
    dump_json(workdir / "loops.json",
              {"objects": ["A", "OA", "0"],
               "weq": [],
               "fib_seq": [["OA", "0", "A"], ["0", "0", "0"]]})
    code, out = run(capsys, ["k0", "--diagram", workdir / "loops.json"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["rank"] == 1 and payload["invariant_factors"] == []


def test_simplicial_check_command(workdir, capsys):
    code, out = run(capsys, ["simplicial-check", "--ring",
                             workdir / "sq0_z2.json", "--levels", 3,
                             "--probes", 20])
    assert code == 0
    assert json.loads(out)["payload"]["failures"] == 0


def test_corpus_command(workdir, capsys):
    code, out = run(capsys, ["corpus", "--dir", workdir / "corpus_out"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert "sq0_z2" in payload["labels"]
    assert os.path.exists(os.path.join(str(workdir / "corpus_out"),
                                       "tower_h.json"))
    # every written ring file round-trips
    for path in payload["written"]:
        if "tower_h" in path or "tower_k" in path:
            continue
        with open(path) as fh:
            data = json.load(fh)
        ring = ring_from_json(data)
        assert ring_to_json(ring) == data


def test_axioms_command(workdir, capsys):
    code, out = run(capsys, ["axioms", "--hom", workdir / "h.json",
                             "--hom", workdir / "k.json", "--probes", 5])
    assert code == 0
    assert json.loads(out)["payload"]["ok"]


def test_unknown_ring_label_exit_one(workdir, capsys):
    dump_json(workdir / "orphan.json",
              {"source": "nowhere", "target": "sq0_z2", "images": [[0]]})
    code = main(["factorize", "--hom", str(workdir / "orphan.json")])
    assert code == 1


def _run_optimized(workdir, argv):
    """The CLI in a `python -O` subprocess, where asserts are stripped."""
    import hotring
    src = os.path.dirname(os.path.dirname(hotring.__file__))
    env = dict(os.environ, PYTHONPATH=src, HOTRING_HOME=str(workdir / "store"))
    return subprocess.run([sys.executable, "-O", "-m", "hotring.cli"]
                          + [str(a) for a in argv] + ["--no-store"],
                          env=env, capture_output=True, text=True,
                          timeout=120)


BAD_HOM = {"source": "sq0_z2", "target": "z2_unital", "images": [[1]]}
BAD_DIAGRAM = {"objects": ["A"], "weq": [["A", "B"]]}


def test_non_multiplicative_hom_exit_one(workdir, capsys):
    dump_json(workdir / "bad.json", BAD_HOM)
    code = main(["factorize", "--hom", str(workdir / "bad.json")])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"].startswith("invalid homomorphism in ")
    assert "multiplicativity fails on generators 0,0" in err["error"]


def test_non_multiplicative_hom_exit_one_under_optimize(workdir):
    dump_json(workdir / "bad.json", BAD_HOM)
    done = _run_optimized(workdir, ["factorize", "--hom", workdir / "bad.json"])
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == ""
    assert json.loads(done.stderr)["error"].startswith("invalid homomorphism in ")


def test_k0_unknown_object_exit_one(workdir, capsys):
    dump_json(workdir / "bad_diagram.json", BAD_DIAGRAM)
    code = main(["k0", "--diagram", str(workdir / "bad_diagram.json")])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert "unknown object 'B'" in err["error"]


def test_k0_unknown_object_exit_one_under_optimize(workdir):
    dump_json(workdir / "bad_diagram.json", BAD_DIAGRAM)
    done = _run_optimized(workdir, ["k0", "--diagram",
                                    workdir / "bad_diagram.json"])
    assert done.returncode == 1, done.stdout + done.stderr
    assert "unknown object 'B'" in json.loads(done.stderr)["error"]


@pytest.mark.parametrize("command, flag, data, needle", [
    ("factorize", "--hom", {"source": "sq0_z2", "target": "z2_unital"},
     "hom is missing 'images'"),
    ("factorize", "--hom", ["sq0_z2", "z2_unital"],
     "hom must be a JSON object"),
    ("k0", "--diagram", {"objects": ["A", "B"], "fib_seq": [["A", "B"]]},
     "fibre sequence ['A', 'B'] has 2 objects, not 3"),
    ("k0", "--diagram", {"weq": [["A", "A"]]},
     "K0 diagram is missing 'objects'"),
    ("check-ring", None, {"orders": [0], "mul": [[[0]]]},
     "generator orders must be positive"),
    ("check-ring", None, {"orders": [2], "mul": [[]]},
     "structure constant table must be k x k"),
    ("check-ring", None, {"orders": [2], "mul": [[[0, 0]]]},
     "structure constant entries must have length k"),
    ("check-ring", None, {"orders": ["a"], "mul": [[[0]]]},
     "generator orders must be integers"),
    ("check-ring", None, {"orders": [2], "mul": [[["x"]]]},
     "structure constant entries must be integers"),
    ("check-ring", None, {"orders": [2.7], "mul": [[[1.9]]]},
     "generator orders must be integers"),
    ("check-ring", None, {"orders": [2], "mul": [[[1.9]]]},
     "structure constant entries must be integers"),
    ("factorize", "--hom",
     {"source": "sq0_z2", "target": "sq0_z2", "images": [[True]]},
     "hom image must be a list of integers"),
])
def test_malformed_json_is_an_error_record(workdir, capsys, command, flag,
                                           data, needle):
    dump_json(workdir / "malformed.json", data)
    code = main([command] + ([flag] if flag else [])
                + [str(workdir / "malformed.json"), "--no-store"])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert needle in err["error"]


def test_corrupt_store_record_is_recomputed(workdir, capsys):
    argv = ["check-ring", workdir / "sq0_z2.json"]
    code, first = run(capsys, argv)
    assert code == 0
    (record,) = (workdir / "store").glob("*.json")
    text = record.read_text()
    record.write_text(text[:len(text) // 2])
    code, again = run(capsys, argv)
    assert code == 0
    assert json.loads(again)["payload"] == json.loads(first)["payload"]
    assert json.loads(record.read_text())["payload"] == \
        json.loads(first)["payload"]


def test_round_trips():
    ring = RINGS["graded_dual"]
    assert ring_to_json(ring_from_json(ring_to_json(ring))) == ring_to_json(ring)
    from hotring import identity_hom, search_elementary, zero_hom
    r = RINGS["sq0_z2"]
    cert = search_elementary(identity_hom(r), zero_hom(r, r), 1)
    data = certificate_to_json(cert)
    back = certificate_from_json(data, {"sq0_z2": r})
    assert certificate_to_json(back) == data
    p = cert.hom.images[0]
    assert poly_from_json(poly_to_json(p)) == p


def _sq0_certificate_json():
    from hotring import identity_hom, search_elementary, zero_hom
    r = RINGS["sq0_z2"]
    return certificate_to_json(search_elementary(identity_hom(r),
                                                 zero_hom(r, r), 1))


@pytest.mark.parametrize("edit, needle", [
    (lambda d: d.pop("var"), "certificate is missing 'var'"),
    (lambda d: d.pop("f1"), "certificate is missing 'f1'"),
    (lambda d: d.update(source="nowhere"), "unknown ring label: nowhere"),
    (lambda d: d["images"][0][1].pop("coeff"),
     "polynomial term is missing 'coeff'"),
    (lambda d: d["images"][0][1].update(coeff=[True]),
     "polynomial 'coeff' must be a list of integers"),
    (lambda d: d["images"][0][1].update(mono={"x": 0}),
     "polynomial 'mono' must map variables to positive integers"),
    (lambda d: d.update(f0=[[1.0]]), "hom image must be a list of integers"),
    (lambda d: d.update(var=1), "certificate 'var' must be a string"),
], ids=["var", "f1", "label", "coeff", "bool-coeff", "exponent", "float-f0",
        "var-type"])
def test_malformed_certificate_is_rejected_on_load(edit, needle):
    from hotring import MalformedInput
    data = _sq0_certificate_json()
    edit(data)
    with pytest.raises(MalformedInput, match=re.escape(needle)):
        certificate_from_json(data, RINGS)


@pytest.mark.parametrize("edit, witness", [
    (lambda d: d.update(f1=[[1]]), ("endpoint1", 0)),
    (lambda d: d["images"][0].pop(0), ("endpoint0", 0)),
    (lambda d: d["images"][0].append({"mono": {"y": 1}, "coeff": [1]}),
     ("membership", 0)),
], ids=["endpoint1", "endpoint0", "membership"])
def test_invalid_certificate_fails_verification_on_load(edit, witness):
    from hotring import VerificationFailure
    data = _sq0_certificate_json()
    edit(data)
    with pytest.raises(VerificationFailure) as exc:
        certificate_from_json(data, RINGS)
    assert exc.value.witness == witness


def test_certificate_polynomials_load_canonical():
    from hotring import MalformedInput
    data = _sq0_certificate_json()
    data["images"][0].append({"mono": {"x": 5}, "coeff": [0]})
    back = certificate_from_json(data, RINGS)
    assert certificate_to_json(back) == _sq0_certificate_json()
    data = _sq0_certificate_json()
    data["images"][0].append(data["images"][0][-1])
    with pytest.raises(MalformedInput, match="monomial twice"):
        certificate_from_json(data, RINGS)


def test_certificate_endpoints_load_as_homs():
    from hotring import VerificationFailure
    data = _sq0_certificate_json()
    data["target"] = "z2_unital"    # g -> 1 sends g^2 = 0 to 1^2 = 1
    with pytest.raises(VerificationFailure, match="multiplicativity"):
        certificate_from_json(data, RINGS)
    data = _sq0_certificate_json()
    data["images"].append(data["images"][0])
    with pytest.raises(VerificationFailure,
                       match="2 generator images for 1 generators"):
        certificate_from_json(data, RINGS)


def test_certificate_with_an_infinite_source_does_not_serialize():
    from hotring import HotringError, PathRing, path_contraction_certificate
    cert = path_contraction_certificate(PathRing(RINGS["sq0_z2"], "x"), "y")
    with pytest.raises(HotringError, match="only finite-source"):
        certificate_to_json(cert)
