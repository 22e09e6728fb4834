"""JSON formats for rings, homs, polynomials and certificates.

Ring:        {"label": str, "orders": [int], "mul": [[[int]]], "unit": [int]|null}
Hom:         {"source": label, "target": label, "images": [[int]]}
Polynomial:  [{"mono": {var: exp}, "coeff": [int]}]
Certificate: {"source": label, "target": label, "var": str,
              "images": [polynomial], "f0": [[int]], "f1": [[int]]}
K0 diagram:  {"objects": [label], "weq": [[a, b]], "fib_seq": [[f, e, b]]}
"""

from __future__ import annotations

import json

from .errors import HotringError, MalformedInput, VerificationFailure
from .homotopy import HomotopyCertificate, verify_certificate
from .poly import Poly, carrier_ring
from .rings import RingHom, validate_ring
from .triangle import K0Diagram


def ring_to_json(ring):
    return {
        "label": ring.label,
        "orders": list(ring.orders),
        "mul": [[list(v) for v in row] for row in ring.table],
        "unit": list(ring.unit) if ring.unit is not None else None,
    }


def _field(data, key, kind):
    """data[key], or MalformedInput naming the key when data lacks it."""
    if not isinstance(data, dict):
        raise MalformedInput(f"{kind} must be a JSON object")
    if key not in data:
        raise MalformedInput(f"{kind} is missing {key!r}")
    return data[key]


def _list_of(value, kind, what):
    """value, or MalformedInput unless it is a list of ``kind`` items."""
    if not (isinstance(value, list)
            and all(isinstance(v, kind) for v in value)):
        raise MalformedInput(f"{what} must be a list of {kind.__name__} "
                             "values")
    return value


def _registered(registry, label):
    if not isinstance(label, str) or label not in registry:
        raise MalformedInput(f"unknown ring label: {label}")
    return registry[label]


def ring_from_json(data):
    orders = _field(data, "orders", "ring")
    mul = _field(data, "mul", "ring")
    label = data.get("label", "R")
    if not isinstance(label, str):      # it keys the CLI's ring registry
        raise MalformedInput("ring 'label' must be a string")
    return validate_ring(orders, mul, unit=data.get("unit") or None,
                         label=label)


def hom_to_json(hom):
    return {
        "source": hom.source.label,
        "target": hom.target.label,
        "images": [list(img) for img in hom.images],
    }


def _integers(value, what):
    """value, or MalformedInput unless it is a list of JSON integers (no
    bool, no float: the integer test of validate_ring)."""
    if not (isinstance(value, list) and all(type(c) is int for c in value)):
        raise MalformedInput(f"{what} must be a list of integers")
    return value


def hom_from_json(data, registry):
    src = _registered(registry, _field(data, "source", "hom"))
    tgt = _registered(registry, _field(data, "target", "hom"))
    images = _list_of(_field(data, "images", "hom"), list, "hom 'images'")
    hom = RingHom(src, tgt,
                  [tuple(_integers(img, "hom image")) for img in images],
                  label=data.get("label", ""))
    hom.validate()
    return hom


def poly_to_json(p):
    return [{"mono": {v: e for v, e in mono}, "coeff": list(c)}
            for mono, c in p.terms]


def poly_from_json(data):
    terms = []
    for t in _list_of(data, dict, "polynomial"):
        mono = _field(t, "mono", "polynomial term")
        if not (isinstance(mono, dict)
                and all(type(e) is int and e > 0 for e in mono.values())):
            raise MalformedInput("polynomial 'mono' must map variables to "
                                 "positive integers")
        coeff = _integers(_field(t, "coeff", "polynomial term"),
                          "polynomial 'coeff'")
        if any(coeff):          # a zero coefficient is no term at all
            terms.append((tuple(sorted(mono.items())), tuple(coeff)))
    terms.sort()
    if any(a[0] == b[0] for a, b in zip(terms, terms[1:])):
        raise MalformedInput("polynomial lists a monomial twice")
    return Poly(terms)


def certificate_to_json(cert):
    if not isinstance(cert.hom, RingHom):
        raise HotringError("only finite-source certificates serialize")
    return {
        "source": cert.source.label,
        "target": cert.target.label,
        "var": cert.var,
        "images": [poly_to_json(img) for img in cert.hom.images],
        "f0": [list(img) for img in cert.f0.images],
        "f1": [list(img) for img in cert.f1.images],
    }


def certificate_from_json(data, registry):
    """Load a certificate and re-verify it exactly.

    Raises MalformedInput when a field is missing, a ring label is unknown
    or a value has the wrong type; f0 and f1 load as homs do (see
    hom_from_json).  Raises VerificationFailure when an endpoint is not a
    homomorphism, the image count is not the number of source generators,
    or verify_certificate rejects the certificate (its failure is the
    witness)."""
    src = _registered(registry, _field(data, "source", "certificate"))
    tgt = _registered(registry, _field(data, "target", "certificate"))
    var = _field(data, "var", "certificate")
    if not isinstance(var, str):
        raise MalformedInput("certificate 'var' must be a string")
    images = [poly_from_json(p) for p in
              _list_of(_field(data, "images", "certificate"), list,
                       "certificate 'images'")]
    f0, f1 = (hom_from_json({"source": data["source"],
                             "target": data["target"], "label": key,
                             "images": _field(data, key, "certificate")},
                            registry)
              for key in ("f0", "f1"))
    if len(images) != src.ngens:
        raise VerificationFailure(f"{len(images)} generator images for "
                                  f"{src.ngens} generators")
    cert = HomotopyCertificate(
        RingHom(src, carrier_ring(tgt, var), images, label="h"), f0, f1, var)
    report = verify_certificate(cert)
    if not report.valid:
        raise VerificationFailure(f"certificate does not verify: {report}",
                                  witness=report.failure)
    return cert


def k0_diagram_from_json(data):
    objects = _list_of(_field(data, "objects", "K0 diagram"), str,
                       "K0 diagram 'objects'")
    edges = {}
    for key in ("weq", "fib_seq"):
        what = f"K0 diagram {key!r}"
        edges[key] = [_list_of(entry, str, f"{what} entry")
                      for entry in _list_of(data.get(key, []), list, what)]
    return K0Diagram(objects, weq=edges["weq"], fib_seq=edges["fib_seq"])


def dump_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
