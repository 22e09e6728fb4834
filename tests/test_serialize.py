"""The JSON loaders on arbitrary input: each returns an object or raises a
HotringError, never another exception."""

from hypothesis import HealthCheck, given, settings, strategies as st

from hotring import HotringError, corpus
from hotring.serialize import (certificate_from_json, hom_from_json,
                               k0_diagram_from_json, ring_from_json)

RINGS = corpus()

KEYS = ["orders", "mul", "unit", "label", "source", "target", "images",
        "var", "f0", "f1", "mono", "coeff", "objects", "weq", "fib_seq"]

_leaf = (st.none() | st.booleans() | st.integers() | st.floats()
         | st.text(max_size=4) | st.sampled_from(sorted(RINGS)))
_json = st.recursive(
    _leaf,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                                    kids, max_size=5)),
    max_leaves=16)


def _mostly(good, bad):
    """good nine draws in ten, bad the tenth."""
    return st.integers(0, 9).flatmap(lambda n: bad if n == 0 else good)


# well-shaped values that may still be wrong: small integers around the
# generator orders and corpus labels, now and then any JSON leaf
_small = _mostly(st.integers(-1, 5), _leaf)
_label = _mostly(st.sampled_from(sorted(RINGS)), _leaf)
_name = _mostly(st.text("ABC", max_size=2), _leaf)


def _vector(k):
    return _mostly(st.lists(_small, min_size=k, max_size=k),
                   st.lists(_small, max_size=k + 1) | _leaf)


@st.composite
def _ring(draw):
    k = draw(st.integers(0, 3))
    data = {"orders": draw(_mostly(st.lists(_small, min_size=k, max_size=k),
                                   _json)),
            "mul": draw(_mostly(st.lists(st.lists(_vector(k), min_size=k,
                                                  max_size=k),
                                         min_size=k, max_size=k), _json))}
    if draw(st.booleans()):
        data["unit"] = draw(_vector(k))
    if draw(st.booleans()):
        data["label"] = draw(_label)
    return data


_images = _mostly(st.integers(1, 3).flatmap(
    lambda k: st.lists(_vector(k), min_size=1, max_size=3)), _json)
_hom = st.fixed_dictionaries({"source": _label, "target": _label,
                              "images": _images})
_term = st.fixed_dictionaries({
    "mono": _mostly(st.dictionaries(_mostly(st.sampled_from(["x", "y"]),
                                            st.text(max_size=2)),
                                    _small, max_size=2), _leaf),
    "coeff": st.integers(1, 3).flatmap(_vector)})
_poly = _mostly(st.lists(_mostly(_term, _json), max_size=3), _leaf)
_certificate = st.fixed_dictionaries({
    "source": _label, "target": _label,
    "var": _mostly(st.just("x"), _leaf),
    "images": _mostly(st.lists(_poly, min_size=1, max_size=3), _leaf),
    "f0": _images, "f1": _images})
_diagram = st.fixed_dictionaries(
    {"objects": _mostly(st.lists(_name, max_size=4), _leaf)},
    optional={key: _mostly(st.lists(_mostly(st.lists(_name, min_size=size,
                                                     max_size=size),
                                            st.lists(_name, max_size=4)
                                            | _leaf),
                                    max_size=3), _leaf)
              for key, size in (("weq", 2), ("fib_seq", 3))})

LOADERS = [ring_from_json,
           lambda data: hom_from_json(data, RINGS),
           lambda data: certificate_from_json(data, RINGS),
           k0_diagram_from_json]


def _loads_or_refuses(load, data):
    try:
        return load(data)
    except HotringError:
        return None


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_json)
def test_loaders_on_arbitrary_json(data):
    for load in LOADERS:
        _loads_or_refuses(load, data)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_ring())
def test_ring_loader_on_well_shaped_json(data):
    ring = _loads_or_refuses(ring_from_json, data)
    assert ring is None or isinstance(ring.label, str)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_hom)
def test_hom_loader_on_well_shaped_json(data):
    _loads_or_refuses(LOADERS[1], data)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_certificate)
def test_certificate_loader_on_well_shaped_json(data):
    _loads_or_refuses(LOADERS[2], data)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_diagram)
def test_k0_diagram_loader_on_well_shaped_json(data):
    _loads_or_refuses(k0_diagram_from_json, data)
