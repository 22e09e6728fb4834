import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from hotring import cli, corpus, tower_homs
from hotring.cli import main
from hotring.serialize import (certificate_from_json, certificate_to_json,
                               dump_json, hom_to_json, poly_from_json,
                               poly_to_json, ring_from_json, ring_to_json)
from hotring.store import ResultStore

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


def test_kv1_path_budget_refusal_record(workdir, capsys):
    # GL_2(F_3) fits in 1000 and degree 1 runs; degree 2 has 3^8 paths
    code = main(["kv1", "--ring", str(workdir / "z3_unital.json"),
                 "--size", "2", "--degree", "2", "--budget", "1000",
                 "--json"])
    record = json.loads(capsys.readouterr().err)
    assert code == 3
    assert (record["required"], record["budget"]) == (6561, 1000)


def test_kv1_on_a_noncommutative_ring_with_unit(workdir, capsys):
    # M_2(F_2) on e11, e12, e21, e22: e_ij e_kl = [j = k] e_il
    cells = [(i, j) for i in range(2) for j in range(2)]
    dump_json(workdir / "m2_f2.json", {
        "label": "m2_f2", "orders": [2] * 4, "unit": [1, 0, 0, 1],
        "mul": [[[int(j == k and (i, l) == c) for c in cells]
                 for k, l in cells] for i, j in cells]})
    code, _ = run(capsys, ["check-ring", workdir / "m2_f2.json"])
    assert code == 0
    code, out = run(capsys, ["kv1", "--ring", workdir / "m2_f2.json",
                             "--size", 1, "--degree", 1])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["classes"] == 1 and payload["gl_order"] == 6
    assert "determinant_certificate" not in payload


@pytest.mark.parametrize("size,degree", [(0, 1), (1, 0)])
def test_kv1_refuses_an_empty_level(workdir, capsys, size, degree):
    code = main(["kv1", "--ring", str(workdir / "z3_unital.json"),
                 "--size", str(size), "--degree", str(degree)])
    err = capsys.readouterr().err
    assert code == 1
    assert "kv1 needs --size >= 1 and --degree >= 1" in err


def test_classes_refuses_a_chain_that_fails_verification(workdir, capsys,
                                                         monkeypatch):
    class Invalid:
        valid = False

    monkeypatch.setattr("hotring.cli.verify_certificate",
                        lambda *args, **kwargs: Invalid())
    code = main(["classes", "--source", str(workdir / "sq0_z2.json"),
                 "--target", str(workdir / "sq0_z2.json"), "--degree", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(r"stored chain \d+-\d+ fails", err)


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
    ("check-ring", None, {"label": [1], "orders": [2], "mul": [[[0]]]},
     "ring 'label' must be a string"),
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


KV1_ARGV = ["kv1", "--ring", "sq0_z2.json", "--size", "1", "--degree", "1"]


# rewrites of a stored kv1 record, from its object and its text
TAMPERINGS = {
    "exit code not an int": lambda rec, text: json.dumps({"exit_code": "x"}),
    "no payload": lambda rec, text: json.dumps({"exit_code": 0}),
    "exit 7, list payload": lambda rec, text: json.dumps(
        {"exit_code": 7, "payload": []}),
    "truncated": lambda rec, text: text[:len(text) // 2],
    "a JSON list": lambda rec, text: json.dumps([rec]),
    "wrong version": lambda rec, text: json.dumps({**rec,
                                                   "version": "0.0.9"}),
    "other params": lambda rec, text: json.dumps(
        {**rec, "params": {**rec["params"], "degree": 2}}),
    "bool exit code": lambda rec, text: json.dumps({**rec,
                                                    "exit_code": False}),
}


@pytest.mark.parametrize("how", list(TAMPERINGS))
def test_tampered_record_is_recomputed(relative, capsys, how):
    # a record not computed for the request is a miss: the command
    # recomputes, exits with the computed code and rewrites the record,
    # which the next run serves byte for byte
    code, first = run(capsys, KV1_ARGV)
    assert code == 0
    (path,) = (relative / "store").glob("*.json")
    stored = path.read_text()
    path.write_text(TAMPERINGS[how](json.loads(stored), stored))
    code, again = run(capsys, KV1_ARGV)
    assert code == 0
    recomputed = json.loads(again)
    assert recomputed == {**json.loads(first),
                          "timestamp": recomputed["timestamp"]}
    assert type(recomputed["exit_code"]) is int
    assert json.loads(path.read_text()) == recomputed
    assert run(capsys, KV1_ARGV) == (0, again)


def test_edited_payload_of_a_well_formed_record_is_served(relative, capsys):
    # a record is checked against its request, not against its content:
    # an edited payload in a well-formed record is served as stored
    run(capsys, KV1_ARGV)
    (path,) = (relative / "store").glob("*.json")
    record = json.loads(path.read_text())
    record["payload"]["classes"] = 5
    path.write_text(json.dumps(record))
    code, out = run(capsys, KV1_ARGV)
    assert code == 0 and json.loads(out)["payload"]["classes"] == 5


def test_tampered_record_is_recomputed_under_optimized_python(relative,
                                                              capsys):
    code, first = run(capsys, KV1_ARGV)
    (path,) = (relative / "store").glob("*.json")
    path.write_text(json.dumps({"exit_code": 0}))
    import hotring
    src = os.path.dirname(os.path.dirname(hotring.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-m", "hotring.cli"]
                          + KV1_ARGV + ["--json"], env=env, cwd=relative,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["payload"] == json.loads(first)["payload"]
    assert json.loads(path.read_text())["payload"] == \
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
    cert = path_contraction_certificate(PathRing(RINGS["sq0_z2"], "x"))
    with pytest.raises(HotringError, match="only finite-source"):
        certificate_to_json(cert)


# ---------------------------------------------------------------------------
# input files: read once, hashed into the store key, loaded only on a miss


def _bad_input(workdir, case):
    """A path to a file argument that cannot be read as JSON, by case."""
    path = workdir / f"{case}.json"
    if case == "directory":
        path.mkdir()
    elif case == "non-utf8":
        path.write_bytes(b'{"orders": [2], "label": "\xff"}')
    elif case == "malformed":
        path.write_bytes(b'{"orders": [2]')
    return path


BAD_INPUT_CASES = [("missing", "no such file: "),
                   ("directory", "cannot read "),
                   ("non-utf8", "not UTF-8 text: "),
                   ("malformed", "malformed JSON in ")]

BAD_INPUT_COMMANDS = {
    "ring": lambda w, bad: ["check-ring", bad],
    "source": lambda w, bad: ["homs", "--source", bad,
                              "--target", w / "sq0_z2.json"],
    "hom": lambda w, bad: ["factorize", "--hom", bad],
    "diagram": lambda w, bad: ["k0", "--diagram", bad],
}


@pytest.mark.parametrize("case, needle", BAD_INPUT_CASES,
                         ids=[c for c, _ in BAD_INPUT_CASES])
@pytest.mark.parametrize("arg", sorted(BAD_INPUT_COMMANDS))
def test_unreadable_input_is_an_error_record(workdir, capsys, arg, case,
                                             needle):
    bad = _bad_input(workdir, case)
    code = main([str(a) for a in BAD_INPUT_COMMANDS[arg](workdir, bad)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"].startswith(needle + str(bad))


def test_unreadable_input_is_an_error_record_under_optimize(workdir):
    bad = _bad_input(workdir, "directory")
    done = _run_optimized(workdir, ["homs", "--source", bad,
                                    "--target", workdir / "sq0_z2.json"])
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert json.loads(done.stderr)["error"].startswith(f"cannot read {bad}")


def test_missing_optional_ring_file_exit_one(workdir, capsys):
    missing = workdir / "missing.json"
    code = main(["factorize", "--hom", str(workdir / "h.json"),
                 "--source", str(missing)])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == \
        {"error": f"no such file: {missing}"}


LOOPS = {"objects": ["A", "OA", "0"], "weq": [],
         "fib_seq": [["OA", "0", "A"], ["0", "0", "0"]]}

# SHA-256 of the bytes dump_json writes for each file of `relative`
DIGEST = {
    "sq0_z2.json":
        "ba4822fb0282e577a90dbfd2417a9a223dd6978d878fd41c628a15d8c9304ea5",
    "z2_unital.json":
        "8c386035e82c58ba429b4e5e7b5b667e687531c7519da544494d5fef6a22861a",
    "z3_unital.json":
        "5702e5ff74c0485eefecab3083dd864de6965153d82bf88cbfac88379ce3b131",
    "tower3.json":
        "b36930a39f041f40b49953b8e93ca6d837dab385cf6f37e6888ad6286db9cc2f",
    "tower2.json":
        "f7de36f5ec2925f1073f3cc768e20ba3ecfaaa422ca40970df9e957f88588c3e",
    "h.json":
        "e7d47928ce2ed434b93317bb8e93241abe8644a281640a774739eeb8d6c026bc",
    "k.json":
        "f9b0a8f0fb1366d622a92388ff54008e5144b9dade614dcf4d25e26e43ab0e57",
    "loops.json":
        "b8cb891ef8e1782681e6667964bb8ee7507c03ed05c1a8194a0a0a502331bd65",
}

DEFAULTS = {"budget": 200000, "probes": 60, "seed": 0}

# argv, store key and record less its timestamp, as the CLI of version
# 0.1.1 stored them; any change here changes what a store holds
PINNED = [
    (["check-ring", "sq0_z2.json"],
     "36a8241e6ca40da7a0fedc54f6ad9ba57d3924a900af82470f42501d7a8f087c",
     {"command": "check-ring", "exit_code": 0,
      "inputs": {"path": DIGEST["sq0_z2.json"]},
      "params": {**DEFAULTS, "path": "sq0_z2.json"},
      "payload": {"label": "sq0_z2", "order": 2, "orders": [2],
                  "unit": None, "valid": True},
      "version": "0.1.1"}),
    (["homs", "--source", "sq0_z2.json", "--target", "z2_unital.json"],
     "c7fd16e3df3947e206eedf6c2f8e1940c39eef0bdcff19748519ad4397ce7db4",
     {"command": "homs", "exit_code": 0,
      "inputs": {"source": DIGEST["sq0_z2.json"],
                 "target": DIGEST["z2_unital.json"]},
      "params": {**DEFAULTS, "source": "sq0_z2.json",
                 "target": "z2_unital.json"},
      "payload": {"count": 1, "homs": [[[0]]]},
      "version": "0.1.1"}),
    (["kv1", "--ring", "z3_unital.json", "--size", "2", "--degree", "1"],
     "bdc12dc7ac86bcba5068c406bf81741467878755d009ffb7b1fc67f1110eaa51",
     {"command": "kv1", "exit_code": 0,
      "inputs": {"ring": DIGEST["z3_unital.json"]},
      "params": {**DEFAULTS, "degree": 1, "ring": "z3_unital.json",
                 "size": 2},
      "payload": {"classes": 2,
                  "determinant_certificate": {"determinant_image_order": 2,
                                              "lower_bound_matches": True,
                                              "subgroup_in_kernel": True},
                  "gl_order": 48, "identified_subgroup_order": 24,
                  "invariant_factors": [2], "level": [2, 1],
                  "monotone_history": [2]},
      "version": "0.1.1"}),
    (["factorize", "--hom", "h.json", "--source", "tower3.json",
      "--target", "tower2.json"],
     "5217835c63ff148d553b7ed2846a9dd7716f66dae39be6377715e50b2ccaeb82",
     {"command": "factorize", "exit_code": 0,
      "inputs": {"hom": DIGEST["h.json"], "source": DIGEST["tower3.json"],
                 "target": DIGEST["tower2.json"]},
      "params": {**DEFAULTS, "hom": "h.json", "source": "tower3.json",
                 "target": "tower2.json"},
      "payload": {"certificate_mode": "probes", "failures": [], "ok": True},
      "version": "0.1.1"}),
    (["octahedron", "--h", "h.json", "--k", "k.json", "--ring", "tower3.json",
      "--probes", "5"],
     "0d8af3512e8bcc29da9bc9cee5089d7203ca5e8b3f9b6dbb6422581d702afd83",
     {"command": "octahedron", "exit_code": 0,
      "inputs": {"h": DIGEST["h.json"], "k": DIGEST["k.json"],
                 "ring_extra0": DIGEST["tower3.json"]},
      "params": {**DEFAULTS, "h": "h.json", "k": "k.json", "probes": 5,
                 "ring_extra": ["tower3.json"]},
      "payload": {"failures": [], "ok": True,
                  "orders": {"A": 2, "B": 8, "C": 4, "D": 2, "E": 2,
                             "F": 4}},
      "version": "0.1.1"}),
    (["k0", "--diagram", "loops.json"],
     "edfc6c594f43ddeccfa89bdb80c13dc508c93f2a793dd3b292a969ee3407e94c",
     {"command": "k0", "exit_code": 0,
      "inputs": {"diagram": DIGEST["loops.json"]},
      "params": {**DEFAULTS, "diagram": "loops.json"},
      "payload": {"classes": {"0": [0], "A": [-1], "OA": [1]},
                  "invariant_factors": [], "rank": 1},
      "version": "0.1.1"}),
    (["axioms", "--hom", "h.json", "--hom", "k.json", "--probes", "5"],
     "b530d732ecfbafcc3e31d3915de1d7b6d54890430a4c0672eca47f919ed12924",
     {"command": "axioms", "exit_code": 0,
      "inputs": {"hom_extra0": DIGEST["h.json"],
                 "hom_extra1": DIGEST["k.json"]},
      "params": {**DEFAULTS, "hom_extra": ["h.json", "k.json"], "probes": 5,
                 "ring_extra": None},
      "payload": {"axioms": {"Ax1": True, "Ax2": True, "Ax3": True,
                             "Ax4": True},
                  "ok": True},
      "version": "0.1.1"}),
]


@pytest.fixture()
def relative(workdir, monkeypatch):
    """workdir as the current directory, so that argv holds relative paths
    and params no absolute one, as in the cli-replay benchmark."""
    dump_json(workdir / "loops.json", LOOPS)
    monkeypatch.chdir(workdir)
    return workdir


@pytest.mark.parametrize("argv, key, record", PINNED,
                         ids=[argv[0] for argv, _, _ in PINNED])
def test_store_key_and_record_are_pinned(relative, capsys, argv, key,
                                         record):
    code, out = run(capsys, argv)
    assert code == 0
    printed = json.loads(out)
    del printed["timestamp"]
    assert printed == record
    (stored,) = (relative / "store").glob("*.json")
    assert stored.stem == key


def _refuse(*_args, **_kwargs):
    raise RuntimeError("input loaded on a cache hit")


@pytest.mark.parametrize("argv", [argv for argv, _, _ in PINNED],
                         ids=[argv[0] for argv, _, _ in PINNED])
def test_cache_hit_loads_no_input(relative, capsys, monkeypatch, argv):
    first = run(capsys, argv)
    for name in ("ring_from_json", "hom_from_json", "k0_diagram_from_json",
                 "corpus"):
        monkeypatch.setattr(f"hotring.cli.{name}", _refuse)
    assert run(capsys, argv) == first


@pytest.mark.parametrize("argv, rings", [
    (["check-ring", "sq0_z2.json"], 1),
    (["homs", "--source", "sq0_z2.json", "--target", "z2_unital.json"], 2),
    (["classes", "--source", "z2_unital.json", "--target", "z2_unital.json",
      "--degree", "1"], 2),
    (["homotopy", "--source", "z2_unital.json", "--target", "z2_unital.json",
      "--f0", "id1.json", "--f1", "id1.json", "--degree", "1"], 2),
    (["kv1", "--ring", "z3_unital.json", "--size", "1", "--degree", "1"], 1),
    (["simplicial-check", "--ring", "sq0_z2.json", "--levels", "2",
      "--probes", "5"], 1),
    (["factorize", "--hom", "h.json", "--source", "tower3.json",
      "--target", "tower2.json"], 2),
    (["octahedron", "--h", "h.json", "--k", "k.json", "--ring", "tower3.json",
      "--probes", "5"], 1),
    (["axioms", "--ring", "tower3.json", "--ring", "tower2.json",
      "--hom", "h.json", "--probes", "5"], 2),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_each_ring_file_loads_once_on_a_miss(relative, capsys, monkeypatch,
                                             argv, rings):
    dump_json(relative / "id1.json",
              {"source": "z2_unital", "target": "z2_unital", "images": [[1]]})
    calls = []

    def counting(data):
        calls.append(data["label"])
        return ring_from_json(data)
    monkeypatch.setattr("hotring.cli.ring_from_json", counting)
    code, _ = run(capsys, argv)
    assert code == 0
    assert len(calls) == rings


@pytest.mark.parametrize("argv, builds", [
    (["check-ring", "sq0_z2.json"], 0),
    (["kv1", "--ring", "z3_unital.json", "--size", "1", "--degree", "1"], 0),
    (["homs", "--source", "sq0_z2.json", "--target", "z2_unital.json"], 0),
    (["factorize", "--hom", "h.json"], 1),
    (["homotopy", "--source", "z2_unital.json", "--target", "z2_unital.json",
      "--f0", "id1.json", "--f1", "id1.json", "--degree", "1"], 1),
    (["corpus", "--dir", "corpus_out"], 1),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_corpus_is_built_only_for_a_hom_file(relative, capsys, monkeypatch,
                                            argv, builds):
    dump_json(relative / "id1.json",
              {"source": "z2_unital", "target": "z2_unital", "images": [[1]]})
    calls = []

    def counting():
        calls.append(1)
        return corpus()
    monkeypatch.setattr("hotring.cli.corpus", counting)
    code, _ = run(capsys, argv)
    assert code == 0
    assert len(calls) == builds


def test_ring_file_overrides_corpus_label(workdir, capsys):
    """A ring file labelled z2_unital but with g^2 = 0 replaces the corpus
    ring for the hom: g -> 1 into sq0_z2 is a homomorphism out of it, and
    not out of the corpus Z/2."""
    fake = dict(ring_to_json(RINGS["sq0_z2"]), label="z2_unital")
    dump_json(workdir / "fake.json", fake)
    dump_json(workdir / "g1.json",
              {"source": "z2_unital", "target": "sq0_z2", "images": [[1]]})
    code = main(["factorize", "--hom", str(workdir / "g1.json"),
                 "--no-store"])
    assert code == 1
    assert "invalid homomorphism" in capsys.readouterr().err
    code, out = run(capsys, ["factorize", "--hom", workdir / "g1.json",
                             "--source", workdir / "fake.json", "--no-store"])
    assert code == 0
    assert json.loads(out)["payload"]["ok"]


# ---------------------------------------------------------------------------
# the command table: names and the params each command puts in the store key


COMMAND_NAMES = ["axioms", "check-ring", "classes", "corpus", "factorize",
                 "homotopy", "homs", "k0", "kv1", "octahedron", "puppe",
                 "simplicial-check", "triangle"]

# a minimal valid invocation of each command, and the params that
# cli._params makes of it, every default included; they feed the store
# key, so a renamed dest or a changed default orphans every stored record
PINNED_PARAMS = [
    (["check-ring", "r.json"], {**DEFAULTS, "path": "r.json"}),
    (["homs", "--source", "s.json", "--target", "t.json"],
     {**DEFAULTS, "source": "s.json", "target": "t.json"}),
    (["homotopy", "--source", "s.json", "--target", "t.json",
      "--f0", "f0.json", "--f1", "f1.json", "--degree", "1"],
     {**DEFAULTS, "degree": 1, "f0": "f0.json", "f1": "f1.json",
      "source": "s.json", "target": "t.json"}),
    (["classes", "--source", "s.json", "--target", "t.json", "--degree", "1"],
     {**DEFAULTS, "degree": 1, "source": "s.json", "target": "t.json"}),
    (["kv1", "--ring", "r.json", "--size", "1", "--degree", "1"],
     {**DEFAULTS, "degree": 1, "ring": "r.json", "size": 1}),
    (["factorize", "--hom", "h.json"],
     {**DEFAULTS, "hom": "h.json", "source": None, "target": None}),
    (["puppe", "--hom", "h.json"],
     {**DEFAULTS, "depth_cap": 8, "hom": "h.json", "length": 3,
      "source": None, "target": None}),
    (["triangle", "--hom", "h.json"],
     {**DEFAULTS, "hom": "h.json", "source": None, "target": None}),
    (["octahedron", "--h", "h.json", "--k", "k.json"],
     {**DEFAULTS, "h": "h.json", "k": "k.json", "ring_extra": None}),
    (["k0", "--diagram", "d.json"], {**DEFAULTS, "diagram": "d.json"}),
    (["simplicial-check", "--ring", "r.json"],
     {**DEFAULTS, "levels": 4, "ring": "r.json"}),
    (["corpus"], {**DEFAULTS, "dir": None}),
    (["axioms"], {**DEFAULTS, "hom_extra": None, "ring_extra": None}),
]


def test_command_names_are_pinned():
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == COMMAND_NAMES
    assert sorted(argv[0] for argv, _ in PINNED_PARAMS) == COMMAND_NAMES


@pytest.mark.parametrize("argv, params", PINNED_PARAMS,
                         ids=[argv[0] for argv, _ in PINNED_PARAMS])
def test_params_of_a_minimal_invocation_are_pinned(argv, params):
    parse = cli.build_parser().parse_args
    assert cli._params(parse(argv)) == params
    # the options that steer output and storage stay out of the key
    assert cli._params(parse(argv + ["--out", "o", "--json",
                                     "--no-store"])) == params


def test_main_builds_the_parser_once(workdir, capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    cli.build_parser.cache_clear()
    for _ in range(20):
        assert main(["check-ring", str(workdir / "sq0_z2.json"),
                     "--no-store", "--json"]) == 0
    capsys.readouterr()
    assert sorted(built) == COMMAND_NAMES


def test_import_builds_no_parser():
    import hotring
    src = os.path.dirname(os.path.dirname(hotring.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import hotring.cli as cli; "
         "print(cli.build_parser.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert done.stdout == "0\n", done.stderr


def test_corpus_without_dir_writes_under_out(workdir, capsys):
    out = workdir / "elsewhere"
    code, printed = run(capsys, ["corpus", "--out", out])
    assert code == 0
    written = json.loads(printed)["payload"]["written"]
    names = sorted(RINGS) + ["tower_h", "tower_k"]
    assert written == [str(out / "corpus" / f"{n}.json") for n in names]
    assert all(os.path.isfile(path) for path in written)


def test_store_path_that_is_a_directory_is_a_miss(tmp_path):
    store = ResultStore(str(tmp_path))
    os.mkdir(store.path_for("k"))
    assert store.load("k") is None
    record = {"payload": {}}
    assert store.save("k", record) is record       # not stored
    assert os.path.isdir(store.path_for("k"))
    assert os.listdir(tmp_path) == ["k.json"]       # no temp file left
    assert store.load("k") is None


def test_record_replaced_by_a_directory_is_recomputed(relative, capsys):
    # the record cannot be read, and the recomputed one cannot be written
    # over the directory; the command prints it and exits with its code
    code, first = run(capsys, KV1_ARGV)
    (path,) = (relative / "store").glob("*.json")
    path.unlink()
    path.mkdir()
    for _ in range(2):
        code, again = run(capsys, KV1_ARGV)
        assert code == 0
        recomputed = json.loads(again)
        assert recomputed == {**json.loads(first),
                              "timestamp": recomputed["timestamp"]}
        assert path.is_dir()
        assert [p.name for p in (relative / "store").iterdir()] == [path.name]


def test_store_root_that_is_a_file_stores_nothing(workdir, capsys):
    root = workdir / "a_file"
    root.write_text("")
    argv = ["check-ring", workdir / "sq0_z2.json", "--out", root]
    code, out = run(capsys, argv)
    assert code == 0 and json.loads(out)["payload"]["valid"]
    assert run(capsys, argv)[0] == 0
    assert root.read_text() == ""


@pytest.mark.parametrize("argv,named", [
    (["corpus", "--dir", "{file}"], "{file}"),
    (["corpus", "--out", "{file}"], "{file}/corpus")], ids=["dir", "out"])
def test_corpus_onto_a_file_is_refused(workdir, capsys, argv, named):
    target = str(workdir / "a_file")
    with open(target, "w") as fh:
        fh.write("taken\n")
    code = main([a.format(file=target) for a in argv] + ["--json",
                                                         "--no-store"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"].startswith(f"cannot write {named.format(file=target)}:")
