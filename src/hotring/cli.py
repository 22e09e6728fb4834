"""Command line front door.

Every command reads JSON inputs, runs a library operation, prints one
JSON record to stdout and persists it in a content-addressed store;
rerunning with identical inputs is a cache hit with byte-identical
output.  Each file argument (FILE_ARGS) is read once: its SHA-256 goes
into the store key, and its JSON is loaded into a ring, hom or K0
diagram only on a miss, so a hit is served before any input loads.
Exit codes: 0 success, 1 malformed input or unknown label,
2 verification failure, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import time

from .corpus import corpus, tower_homs
from .errors import (BadUnit, BudgetExceeded, HotringError,
                     VerificationFailure)
from .glk import determinant_certificate, kv1_approx
from .homotopy import (HomotopyCertificate, homotopy_classes, search_up_to,
                       verify_certificate)
from .rings import enumerate_homs
from .serialize import (certificate_to_json, dump_json, hom_from_json,
                        hom_to_json, k0_diagram_from_json, ring_from_json,
                        ring_to_json)
from .simplicial import check_simplicial_identities
from .store import ResultStore, content_hash, default_store_root, TOOL_VERSION
from .triangle import (check_axioms, factorize, k0_presentation, octahedron,
                       puppe, rotation_witness, standard_triangle,
                       FibrationFamily)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# every option that names a file, by what the file holds; every other
# option is a parameter.  Ring options come first, so that the rings are
# loaded before any hom that names them.
FILE_ARGS = {"path": "ring", "source": "ring", "target": "ring",
             "ring": "ring", "ring_extra": "ring",
             "f0": "hom", "f1": "hom", "hom": "hom", "h": "hom", "k": "hom",
             "hom_extra": "hom", "diagram": "diagram"}


def _read(path):
    """(SHA-256 of the file's bytes, its JSON), or CliError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise CliError(f"no such file: {path}", 1)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", 1)
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise CliError(f"not UTF-8 text: {path}", 1)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path} at line {exc.lineno} "
                       f"column {exc.colno}", 1)
    return hashlib.sha256(raw).hexdigest(), data


def _read_inputs(args):
    """Every file argument read once: the files as (dest, number, path,
    JSON), number None unless the option repeats, and the store key's
    inputs, name -> SHA-256, a repeated option's files named dest0,
    dest1, ..."""
    files, inputs = [], {}
    for dest in FILE_ARGS:
        val = getattr(args, dest, None)
        if val is None:
            continue
        paths = enumerate(val) if isinstance(val, list) else [(None, val)]
        for i, path in paths:
            name = dest if i is None else f"{dest}{i}"
            inputs[name], data = _read(path)
            files.append((dest, i, path, data))
    return files, inputs


def _load(files):
    """dest -> loaded ring, hom or K0 diagram (a list for a repeated
    option).  A hom may name by label a ring of corpus(), built only when
    a hom is loaded, or any ring loaded from a file, which wins over a
    corpus ring of the same label."""
    rings, registry = {}, None
    loaded = {}
    for dest, i, path, data in files:
        kind = FILE_ARGS[dest]
        if kind == "ring":
            obj = ring_from_json(data)
            rings[obj.label] = obj
        elif kind == "hom":
            if registry is None:
                registry = {**corpus(), **rings}
            try:
                obj = hom_from_json(data, registry)
            except VerificationFailure as exc:
                raise CliError(f"invalid homomorphism in {path}: {exc}", 1)
        else:
            obj = k0_diagram_from_json(data)
        if i is None:
            loaded[dest] = obj
        else:
            loaded.setdefault(dest, []).append(obj)
    return loaded


# ---------------------------------------------------------------------------
# command payloads; each receives the parsed arguments and the loaded files


def cmd_check_ring(args, inp):
    ring = inp["path"]
    return 0, {"valid": True, "label": ring.label, "orders": list(ring.orders),
               "order": ring.size(),
               "unit": list(ring.unit) if ring.unit is not None else None}


def cmd_homs(args, inp):
    homs = enumerate_homs(inp["source"], inp["target"], budget=args.budget)
    return 0, {"count": len(homs),
               "homs": [[list(i) for i in h.images] for h in homs]}


def cmd_homotopy(args, inp):
    outcome = search_up_to(inp["f0"], inp["f1"], args.degree,
                           budget=args.budget)
    if isinstance(outcome, HomotopyCertificate):
        report = verify_certificate(outcome)
        return 0, {"found": True, "verified": report.valid,
                   "certificate": certificate_to_json(outcome)}
    return 0, {"found": False, "degree": outcome.degree,
               "searched": outcome.searched}


def cmd_classes(args, inp):
    homs = enumerate_homs(inp["source"], inp["target"], budget=args.budget)
    result = homotopy_classes(homs, args.degree, budget=args.budget)
    classes = [[[list(i) for i in result.homs[ix].images] for ix in cls]
               for cls in result.classes()]
    for (i, j), cert in sorted(result.edges.items()):
        rep = verify_certificate(cert)
        if not rep.valid:
            raise VerificationFailure(f"stored chain {i}-{j} fails")
    return 0, {"degree": args.degree, "count": len(classes),
               "classes": classes,
               "merges": sorted(list(e) for e in result.edges)}


def cmd_kv1(args, inp):
    if args.degree < 1 or args.size < 1:
        raise CliError("kv1 needs --size >= 1 and --degree >= 1", 1)
    history = []
    pres = None
    for d in range(1, args.degree + 1):
        pres = kv1_approx(inp["ring"], args.size, d, budget=args.budget)
        history.append(pres.order)
    payload = pres.summary()
    payload["monotone_history"] = history
    try:
        cert = determinant_certificate(pres)
    except BadUnit:                 # no unit, or not commutative
        return 0, payload
    payload["determinant_certificate"] = {
        k: cert[k] for k in ("determinant_image_order", "subgroup_in_kernel",
                             "lower_bound_matches")}
    return 0, payload


def cmd_factorize(args, inp):
    fac = factorize(inp["hom"])
    rng = random.Random(args.seed)
    result = fac.verify(probes=args.probes, rng=rng)
    code = 0 if result["ok"] else 2
    return code, {"ok": result["ok"],
                  "failures": [str(f) for f in result["failures"]],
                  "certificate_mode": result["certificate"].mode}


def cmd_puppe(args, inp):
    seq = puppe(inp["hom"], args.length, depth_cap=args.depth_cap)
    rng = random.Random(args.seed)
    result = seq.verify(probes=args.probes, rng=rng)
    code = 0 if result["ok"] else 2
    return code, {"ok": result["ok"], "length": args.length,
                  "failures": [str(f) for f in result["failures"]]}


def cmd_triangle(args, inp):
    g = inp["hom"]
    tri, _ = standard_triangle(g)
    cert, _, _ = rotation_witness(g)
    rng = random.Random(args.seed)
    report = verify_certificate(cert, probes=args.probes, rng=rng)
    code = 0 if report.valid else 2
    return code, {"objects": [r.label for r in tri.objects],
                  "rotation_witness_valid": report.valid,
                  "checks": report.checked}


def cmd_octahedron(args, inp):
    rng = random.Random(args.seed)
    report = octahedron(inp["h"], inp["k"], probes=args.probes, rng=rng)
    code = 0 if report.ok else 2
    return code, report.data


def cmd_k0(args, inp):
    result = k0_presentation(inp["diagram"])
    return 0, result.summary()


def cmd_simplicial_check(args, inp):
    rng = random.Random(args.seed)
    checks, failures = check_simplicial_identities(inp["ring"], args.levels,
                                                   args.probes, rng)
    code = 0 if not failures else 2
    return code, {"checks": checks, "failures": len(failures),
                  "levels": args.levels}


def cmd_corpus(args, inp):
    rings = corpus()
    outdir = args.dir or os.path.join(args.out or default_store_root(),
                                      "corpus")
    h, k = tower_homs(rings)
    files = [(label, ring_to_json(rings[label])) for label in sorted(rings)]
    files += [("tower_h", hom_to_json(h)), ("tower_k", hom_to_json(k))]
    written = []
    try:
        os.makedirs(outdir, exist_ok=True)
        for name, data in files:
            written.append(os.path.join(outdir, f"{name}.json"))
            dump_json(written[-1], data)
    except OSError as exc:
        raise CliError(f"cannot write {exc.filename or outdir}: "
                       f"{exc.strerror}", 1)
    return 0, {"labels": sorted(rings), "written": written}


def cmd_axioms(args, inp):
    rings = {ring.label: ring for ring in inp.get("ring_extra", [])}
    homs = {}
    for path, hom in zip(args.hom_extra or [], inp.get("hom_extra", [])):
        homs[os.path.basename(path)] = hom
        rings.setdefault(hom.source.label, hom.source)
        rings.setdefault(hom.target.label, hom.target)
    family = FibrationFamily(rings, homs, all_surjective=True)
    rng = random.Random(args.seed)
    report = check_axioms(family, probes=args.probes, rng=rng)
    code = 0 if report["ok"] else 2
    return code, {"ok": report["ok"],
                  "axioms": {ax: report[ax]["ok"]
                             for ax in ("Ax1", "Ax2", "Ax3", "Ax4")}}


# the options each command adds to the common ones: (flag, keywords of
# add_argument)
_REQ = {"required": True}
_INT = {"type": int, "required": True}
_PAIR = [("--source", _REQ), ("--target", _REQ)]
_HOM = [("--hom", _REQ), ("--source", {}), ("--target", {})]
_RING_EXTRA = ("--ring", {"action": "append", "dest": "ring_extra"})

# every command: its payload and the options it adds
COMMANDS = {
    "check-ring": (cmd_check_ring, [("path", {})]),
    "homs": (cmd_homs, _PAIR),
    "homotopy": (cmd_homotopy, _PAIR + [("--f0", _REQ), ("--f1", _REQ),
                                        ("--degree", _INT)]),
    "classes": (cmd_classes, _PAIR + [("--degree", _INT)]),
    "kv1": (cmd_kv1, [("--ring", _REQ), ("--size", _INT),
                      ("--degree", _INT)]),
    "factorize": (cmd_factorize, _HOM),
    "puppe": (cmd_puppe, _HOM + [("--length", {"type": int, "default": 3}),
                                 ("--depth-cap", {"type": int,
                                                  "default": 8})]),
    "triangle": (cmd_triangle, _HOM),
    "octahedron": (cmd_octahedron, [("--h", _REQ), ("--k", _REQ),
                                    _RING_EXTRA]),
    "k0": (cmd_k0, [("--diagram", _REQ)]),
    "simplicial-check": (cmd_simplicial_check,
                         [("--ring", _REQ),
                          ("--levels", {"type": int, "default": 4})]),
    "corpus": (cmd_corpus, [("--dir", {})]),
    "axioms": (cmd_axioms, [_RING_EXTRA, ("--hom", {"action": "append",
                                                    "dest": "hom_extra"})]),
}


@functools.cache
def build_parser():
    """The parser of every command, built on first use and kept for the
    process: it depends only on COMMANDS."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=200_000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--probes", type=int, default=60)
    common.add_argument("--out", default=None, help="result store directory")
    common.add_argument("--json", action="store_true", help="compact output")
    common.add_argument("--no-store", action="store_true")
    parser = argparse.ArgumentParser(prog="hotring")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _params(args):
    """Every parsed option that feeds the store key: all but the command
    and the options that steer output and storage."""
    return {key: val for key, val in vars(args).items()
            if key not in ("command", "out", "json", "no_store")}


def _answers(record, request):
    """Whether a stored record was computed for this request: its command,
    inputs, params and version are the request's, its exit code one that a
    result is stored with and its payload an object.  Anything else is
    corrupt, and the command recomputes and rewrites it."""
    return (record is not None
            and all(record.get(k) == v for k, v in request.items())
            and type(record.get("exit_code")) is int
            and record["exit_code"] in (0, 2)
            and isinstance(record.get("payload"), dict))


def main(argv=None):
    args = build_parser().parse_args(argv)
    store_root = args.out or default_store_root()
    store = ResultStore(store_root) if not args.no_store else None

    try:
        files, inputs = _read_inputs(args)
        params = _params(args)
        request = {"command": args.command, "inputs": inputs,
                   "params": params, "version": TOOL_VERSION}
        key = content_hash(request)
        if store is not None:
            cached = store.load(key)
            if _answers(cached, request):
                _emit(cached, args.json)
                return cached["exit_code"]
        payload_of, _ = COMMANDS[args.command]
        code, payload = payload_of(args, _load(files))
        record = {
            "command": args.command,
            "inputs": inputs,
            "params": params,
            "payload": payload,
            "exit_code": code,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "version": TOOL_VERSION,
        }
        if store is not None:
            store.save(key, record)
            record = store.load(key) or record
        _emit(record, args.json)
        return code
    except CliError as exc:
        _emit({"error": str(exc)}, args.json, err=True)
        return exc.code
    except BudgetExceeded as exc:
        _emit({"error": str(exc), "required": exc.required,
               "budget": exc.budget}, args.json, err=True)
        return 3
    except VerificationFailure as exc:
        _emit({"error": str(exc)}, args.json, err=True)
        return 2
    except HotringError as exc:
        _emit({"error": str(exc)}, args.json, err=True)
        return 1


def _emit(obj, compact, err=False):
    stream = sys.stderr if err else sys.stdout
    if compact:
        stream.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        stream.write("\n")
    else:
        stream.write(json.dumps(obj, sort_keys=True, indent=2))
        stream.write("\n")


if __name__ == "__main__":
    sys.exit(main())
