"""Outputs pinned to literal values.

The values in PINNED were computed once by the functions below and
written out literally; these tests check that refactors of the
backtracking, union-find, integer-kernel and Smith-form code leave every
output where it was: hom order, NotFoundAtBound.searched counts and
certificates, homotopy classes and merges, K0 class coordinates, and the
orders, tables and generators of quotients, canonical forms, fibre
products and kernels.  Large families (random K0 diagrams, random
subgroup and quotient presentations) are pinned by a SHA-256 digest of
their printed results.

Regenerate (only when an output is meant to change) with
``PYTHONPATH=src:tests python -c "import test_pinned; test_pinned.regenerate()"``.
"""

import hashlib
import pprint
import random

from hypothesis import given, settings, strategies as st

from hotring import (K0Diagram, NotFoundAtBound, compose, corpus,
                     enumerate_homs, homotopy_classes, identity_hom,
                     k0_presentation, kv1_approx, search_up_to, strict_pi0,
                     tower_homs, zero_hom, zero_ring)
from hotring.rings import (QuotientPresentation, SubgroupPresentation,
                           canonicalize, kernel_subring, product_ring,
                           pullback, quotient)

RINGS = corpus()
H_TOWER, K_TOWER = tower_homs(RINGS)


def _images(h):
    return [list(x) for x in h.images]


def _ring_data(r):
    return [list(r.orders), [[list(v) for v in row] for row in r.table],
            list(r.unit) if r.unit is not None else None]


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# the computations whose outputs are pinned


def compute_enumerate_homs():
    pairs = [("sq0_z2", "upper3_z2"), ("two_z8", "tower2"),
             ("tower2", "z4_unital"), ("upper3_z2", "two_z8"),
             ("graded_dual", "graded_dual"), ("z4_unital", "graded_dual")]
    return {f"{a}->{b}": [_images(h) for h in enumerate_homs(RINGS[a], RINGS[b])]
            for a, b in pairs}


def compute_search_up_to():
    """searched count of each miss, polynomial images of each hit."""
    all_pairs = [("graded_dual", "graded_dual"), ("two_z8", "two_z8"),
                 ("z3_unital", "z3_unital"), ("z4_unital", "graded_dual"),
                 ("graded_dual", "z2_unital"), ("sq0_z2", "two_z8"),
                 ("tower2", "sq0_z2"), ("sq0_z2", "upper3_z2")]
    picked = [("tower2", "upper3_z2", [(1, 27), (2, 20), (27, 1)], (1, 2, 3)),
              ("upper3_z2", "upper3_z2", [(1, 29), (3, 17)], (1, 2)),
              ("tower3", "upper3_z2", [(1, 119), (5, 60)], (1, 2))]
    jobs = []
    for a, b in all_pairs:
        n = len(enumerate_homs(RINGS[a], RINGS[b]))
        jobs.append((a, b, [(i, j) for i in range(n) for j in range(n)
                            if i != j], (1, 2, 3)))
    jobs.extend(picked)
    out = {}
    for a, b, pairs, degrees in jobs:
        homs = enumerate_homs(RINGS[a], RINGS[b])
        for i, j in pairs:
            for d in degrees:
                o = search_up_to(homs[i], homs[j], d)
                key = f"{a}->{b} {i},{j} d{d}"
                if isinstance(o, NotFoundAtBound):
                    out[key] = o.searched
                else:
                    out[key] = repr([img.terms for img in o.hom.images])
    return out


def compute_classes():
    cases = [("sq0_z2", "tower3", 1), ("two_z8", "two_z8", 2),
             ("tower2", "two_z8", 1), ("upper3_z2", "sq0_z2", 1),
             ("graded_dual", "graded_dual", 2), ("z4_unital", "z4_unital", 2),
             ("tower2", "graded_dual", 1), ("sq0_z2", "upper3_z2", 1),
             ("two_z8", "upper3_z2", 2), ("z3_unital", "z3_unital", 1)]
    out = {}
    for a, b, d in cases:
        res = homotopy_classes(enumerate_homs(RINGS[a], RINGS[b]), d)
        out[f"{a}->{b} d{d}"] = [res.classes(), sorted(res.edges)]
    return out


K0_DIAGRAMS = {
    "free": (["A", "B", "C"], [], []),
    "loop": (["A", "OA", "0"], [], [("OA", "0", "A"), ("0", "0", "0")]),
    "shuffle": (["A", "B", "C", "D", "F"], [("A", "B")],
                [("F", "A", "C"), ("F", "B", "D")]),
    "milnor": (["A", "B", "C", "D", "F"], [],
               [("F", "A", "C"), ("F", "B", "D")]),
    "collapse": (["A", "B", "Z"], [("Z", "Z")],
                 [("A", "B", "A"), ("B", "Z", "B"), ("Z", "A", "A"),
                  ("A", "A", "A")]),
    "z2": (["A", "Z"], [], [("A", "Z", "A"), ("Z", "Z", "Z")]),
    "absorbing": (["A", "B", "C", "Z"], [],
                   [("Z", "Z", "Z"), ("A", "Z", "A"), ("B", "A", "B"),
                    ("B", "Z", "B"), ("B", "B", "B"), ("B", "B", "B")]),
    "mixed": (["A", "B", "C", "Z"], [("C", "C")],
              [("Z", "Z", "Z"), ("A", "B", "A"), ("B", "Z", "B"),
               ("B", "Z", "B")]),
    "empty": ([], [], []),
}


def _k0_data(diagram):
    r = k0_presentation(diagram)
    return [r.rank, r.torsion, r.moduli,
            {label: list(v) for label, v in sorted(r.classes.items())}]


def compute_k0():
    return {name: _k0_data(K0Diagram(objs, weq=weq, fib_seq=fib))
            for name, (objs, weq, fib) in K0_DIAGRAMS.items()}


def _random_diagram(rng):
    objs = [f"o{i}" for i in range(rng.randint(1, 6))]
    weq = [(rng.choice(objs), rng.choice(objs))
           for _ in range(rng.randint(0, 3))]
    fib = [tuple(rng.choice(objs) for _ in range(3))
           for _ in range(rng.randint(0, 5))]
    return K0Diagram(objs, weq=weq, fib_seq=fib)


def compute_k0_random_digest():
    rng = random.Random(20061)
    return _digest([_k0_data(_random_diagram(rng)) for _ in range(400)])


def compute_presentations_digest():
    """Random subgroups and quotients of small finite abelian groups."""
    rng = random.Random(20062)
    out = []
    for _ in range(150):
        orders = [rng.choice((2, 3, 4, 6, 8, 9)) for _ in range(rng.randint(1, 3))]
        vecs = [tuple(rng.randrange(d) for d in orders)
                for _ in range(rng.randint(0, 3))]
        sub = SubgroupPresentation(orders, vecs)
        quo = QuotientPresentation(orders, vecs)
        probes = [tuple(rng.randrange(d) for d in orders) for _ in range(6)]
        probes += vecs
        out.append([sub.orders, sub.gens, [sub.coords(v) for v in probes],
                    quo.orders, quo.lifts, [quo.project(v) for v in probes]])
    return _digest(out)


def compute_quotient():
    cases = [("upper3_z2", [(0, 0, 1)]), ("upper3_z2", [(1, 0, 0)]),
             ("two_z8", [(2,)]), ("tower3", [(1, 1, 0)]),
             ("graded_dual", [(0, 1)]), ("z4_unital", [(2,)]),
             ("z4_unital", [(1,)]), ("sq0_z3", [])]
    out = {}
    for label, gens in cases:
        q, proj, ideal = quotient(RINGS[label], gens)
        out[f"{label}/{gens}"] = [_ring_data(q), _images(proj), sorted(ideal)]
    return out


def compute_canonicalize():
    rings = sorted(RINGS.items())
    rings.append(("z2xz3", product_ring(RINGS["z2_unital"],
                                        RINGS["z3_unital"])[0]))
    out = {}
    for label, r in rings:
        can, fwd, back = canonicalize(r)
        out[label] = [_ring_data(can), _images(fwd), _images(back)]
    return out


def compute_pullback():
    z = zero_ring()
    ends = enumerate_homs(RINGS["two_z8"], RINGS["two_z8"])
    graded = enumerate_homs(RINGS["graded_dual"], RINGS["z2_unital"])[-1]
    cases = {"h,h": (H_TOWER, H_TOWER), "k,k": (K_TOWER, K_TOWER),
             "kh,k": (compose(K_TOWER, H_TOWER), K_TOWER),
             "z2xz3": (zero_hom(RINGS["z2_unital"], z),
                       zero_hom(RINGS["z3_unital"], z)),
             "two_z8 last,first": (ends[-1], ends[0]),
             "two_z8 1,2": (ends[1], ends[2]),
             "graded proj": (graded, graded)}
    out = {}
    for name, (f, g) in cases.items():
        d, rho, sigma, embed = pullback(f, g)
        out[name] = [_ring_data(d), _images(rho), _images(sigma),
                     [embed(a, b) for a in f.source.elements()
                      for b in g.source.elements()]]
    return out


def compute_kernel_subring():
    ends = enumerate_homs(RINGS["two_z8"], RINGS["two_z8"])
    cases = {"h": H_TOWER, "k": K_TOWER, "kh": compose(K_TOWER, H_TOWER),
             "z4->z2": enumerate_homs(RINGS["z4_unital"], RINGS["z2_unital"])[-1],
             "two_z8 1": ends[1], "two_z8 3": ends[3],
             "graded->z2": enumerate_homs(RINGS["graded_dual"],
                                          RINGS["z2_unital"])[-1],
             "id upper3": identity_hom(RINGS["upper3_z2"]),
             "zero tower2": zero_hom(RINGS["tower2"], RINGS["sq0_z2"])}
    out = {}
    for name, f in cases.items():
        kr, incl, coords = kernel_subring(f)
        out[name] = [_ring_data(kr), _images(incl),
                     [coords(a) for a in f.source.elements()]]
    return out


def compute_kv1():
    levels = [("z2_unital", 1, 1), ("two_z8", 1, 1), ("z4_unital", 1, 2),
              ("sq0_z3", 1, 1), ("z3_unital", 2, 1), ("graded_dual", 1, 2)]
    return {f"{label} {n} {d}": kv1_approx(RINGS[label], n, d).summary()
            for label, n, d in levels}


SECTIONS = {
    "enumerate_homs": compute_enumerate_homs,
    "search_up_to": compute_search_up_to,
    "classes": compute_classes,
    "k0": compute_k0,
    "k0_random_digest": compute_k0_random_digest,
    "presentations_digest": compute_presentations_digest,
    "quotient": compute_quotient,
    "canonicalize": compute_canonicalize,
    "pullback": compute_pullback,
    "kernel_subring": compute_kernel_subring,
    "kv1": compute_kv1,
}


def regenerate():
    """Print a fresh PINNED literal to paste below."""
    data = {name: fn() for name, fn in SECTIONS.items()}
    print("PINNED = ", end="")
    pprint.pprint(data, width=79, compact=True)


PINNED = {'canonicalize': {'graded_dual': [[[2, 2],
                                   [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                                   [1, 0]],
                                  [[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                  'sq0_z2': [[[2], [[[0]]], None], [[1]], [[1]]],
                  'sq0_z3': [[[3], [[[0]]], None], [[2]], [[2]]],
                  'tower2': [[[2, 2], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                              None],
                             [[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                  'tower3': [[[2, 2, 2],
                              [[[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                               [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                               [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
                              None],
                             [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                             [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                  'two_z8': [[[4], [[[2]]], None], [[3]], [[3]]],
                  'upper3_z2': [[[2, 2, 2],
                                 [[[0, 0, 0], [0, 0, 0], [0, 1, 0]],
                                  [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                                  [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
                                 None],
                                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                  'z2_unital': [[[2], [[[1]]], [1]], [[1]], [[1]]],
                  'z2xz3': [[[6], [[[5]]], [5]], [[5]], [[5]]],
                  'z3_unital': [[[3], [[[2]]], [2]], [[2]], [[2]]],
                  'z4_unital': [[[4], [[[3]]], [3]], [[3]], [[3]]]},
 'classes': {'graded_dual->graded_dual d2': [[[0], [1, 2]], [(1, 2)]],
             'sq0_z2->tower3 d1': [[[0, 1, 2, 3, 4, 5, 6, 7]],
                                   [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                                    (0, 6), (0, 7)]],
             'sq0_z2->upper3_z2 d1': [[[0, 1, 2, 3, 4, 5]],
                                      [(0, 1), (0, 2), (0, 3), (0, 4),
                                       (0, 5)]],
             'tower2->graded_dual d1': [[[0, 1, 2, 3]],
                                        [(0, 1), (0, 2), (0, 3)]],
             'tower2->two_z8 d1': [[[0, 1, 2, 3]], [(0, 1), (0, 2), (0, 3)]],
             'two_z8->two_z8 d2': [[[0, 2], [1, 3]], [(0, 2), (1, 3)]],
             'two_z8->upper3_z2 d2': [[[0, 1, 2, 3, 4, 5]],
                                      [(0, 1), (0, 2), (0, 3), (0, 4),
                                       (0, 5)]],
             'upper3_z2->sq0_z2 d1': [[[0, 1, 2, 3]],
                                      [(0, 1), (0, 2), (0, 3)]],
             'z3_unital->z3_unital d1': [[[0], [1]], []],
             'z4_unital->z4_unital d2': [[[0], [1]], []]},
 'enumerate_homs': {'graded_dual->graded_dual': [[[0, 0], [0, 0]],
                                                 [[1, 0], [0, 0]],
                                                 [[1, 0], [0, 1]]],
                    'sq0_z2->upper3_z2': [[[0, 0, 0]], [[0, 0, 1]],
                                          [[0, 1, 0]], [[0, 1, 1]],
                                          [[1, 0, 0]], [[1, 1, 0]]],
                    'tower2->z4_unital': [[[0], [0]], [[0], [2]], [[2], [0]],
                                          [[2], [2]]],
                    'two_z8->tower2': [[[0, 0]], [[0, 1]], [[1, 0]], [[1, 1]]],
                    'upper3_z2->two_z8': [[[0], [0], [0]], [[0], [0], [2]],
                                          [[2], [0], [0]], [[2], [0], [2]]],
                    'z4_unital->graded_dual': [[[0, 0]], [[1, 0]]]},
 'k0': {'collapse': [0, [], [], {'A': [], 'B': [], 'Z': []}],
        'empty': [0, [], [], {}],
        'free': [3, [], [0, 0, 0],
                 {'A': [1, 0, 0], 'B': [0, 1, 0], 'C': [0, 0, 1]}],
        'loop': [1, [], [0], {'0': [0], 'A': [-1], 'OA': [1]}],
        'milnor': [3, [], [0, 0, 0],
                   {'A': [1, 0, 1],
                    'B': [0, 1, 1],
                    'C': [1, 0, 0],
                    'D': [0, 1, 0],
                    'F': [0, 0, 1]}],
        'mixed': [1, [4], [4, 0],
                  {'A': [3, 0], 'B': [2, 0], 'C': [0, 1], 'Z': [0, 0]}],
        'shuffle': [2, [], [0, 0],
                    {'A': [1, 1],
                     'B': [1, 1],
                     'C': [1, 0],
                     'D': [1, 0],
                     'F': [0, 1]}],
        'z2': [0, [2], [2], {'A': [1], 'Z': [0]}],
        'absorbing': [1, [], [0], {'A': [0], 'B': [0], 'C': [1], 'Z': [0]}]},
 'k0_random_digest': '7049ad1e66b1ce4a78f4241f1831c49a54a93d79d0ea566f5e173ce5d1d40f4f',
 'kernel_subring': {'graded->z2': [[[2], [[[0]]], None], [[0, 1]],
                                   [(0,), (1,), None, None]],
                    'h': [[[2], [[[0]]], None], [[0, 0, 1]],
                          [(0,), (1,), None, None, None, None, None, None]],
                    'id upper3': [[[], [], None], [],
                                  [(), None, None, None, None, None, None,
                                   None]],
                    'k': [[[2], [[[0]]], None], [[0, 1]],
                          [(0,), (1,), None, None]],
                    'kh': [[[2, 2], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                            None],
                           [[0, 0, 1], [0, 1, 0]],
                           [(0, 0), (1, 0), (0, 1), (1, 1), None, None, None,
                            None]],
                    'two_z8 1': [[[], [], None], [], [(), None, None, None]],
                    'two_z8 3': [[[], [], None], [], [(), None, None, None]],
                    'z4->z2': [[[2], [[[0]]], None], [[2]],
                               [(0,), None, (1,), None]],
                    'zero tower2': [[[2, 2],
                                     [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                                     None],
                                    [[0, 1], [1, 0]],
                                    [(0, 0), (1, 0), (0, 1), (1, 1)]]},
 'kv1': {'graded_dual 1 2': {'classes': 1,
                             'gl_order': 2,
                             'identified_subgroup_order': 2,
                             'invariant_factors': [],
                             'level': [1, 2]},
         'sq0_z3 1 1': {'classes': 1,
                        'gl_order': 3,
                        'identified_subgroup_order': 3,
                        'invariant_factors': [],
                        'level': [1, 1]},
         'two_z8 1 1': {'classes': 1,
                        'gl_order': 4,
                        'identified_subgroup_order': 4,
                        'invariant_factors': [],
                        'level': [1, 1]},
         'z2_unital 1 1': {'classes': 1,
                           'gl_order': 1,
                           'identified_subgroup_order': 1,
                           'invariant_factors': [],
                           'level': [1, 1]},
         'z3_unital 2 1': {'classes': 2,
                           'gl_order': 48,
                           'identified_subgroup_order': 24,
                           'invariant_factors': [2],
                           'level': [2, 1]},
         'z4_unital 1 2': {'classes': 1,
                           'gl_order': 2,
                           'identified_subgroup_order': 2,
                           'invariant_factors': [],
                           'level': [1, 2]}},
 'presentations_digest': 'f065a271418244a8c9b3cae3f38f4b917583a7ebbe9ccb9793a6b03351dd1686',
 'pullback': {'graded proj': [[[2, 2, 2],
                               [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                                [[0, 0, 1], [0, 0, 0], [0, 0, 0]]],
                               [1, 0, 0]],
                              [[1, 0], [0, 0], [0, 1]],
                              [[1, 0], [0, 1], [0, 0]],
                              [(0, 0, 0), (0, 1, 0), None, None, (0, 0, 1),
                               (0, 1, 1), None, None, None, None, (1, 0, 0),
                               (1, 1, 0), None, None, (1, 0, 1), (1, 1, 1)]],
              'h,h': [[[2, 2, 2, 2],
                       [[[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                         [0, 0, 0, 0]],
                        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                         [0, 0, 0, 0]],
                        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                         [0, 0, 0, 0]],
                        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                         [0, 0, 0, 0]]],
                       None],
                      [[0, 1, 0], [0, 0, 0], [0, 0, 1], [1, 0, 0]],
                      [[0, 1, 0], [0, 0, 1], [0, 0, 0], [1, 0, 0]],
                      [(0, 0, 0, 0), (0, 1, 0, 0), None, None, None, None,
                       None, None, (0, 0, 1, 0), (0, 1, 1, 0), None, None,
                       None, None, None, None, None, None, (1, 0, 0, 0),
                       (1, 1, 0, 0), None, None, None, None, None, None,
                       (1, 0, 1, 0), (1, 1, 1, 0), None, None, None, None,
                       None, None, None, None, (0, 0, 0, 1), (0, 1, 0, 1),
                       None, None, None, None, None, None, (0, 0, 1, 1),
                       (0, 1, 1, 1), None, None, None, None, None, None, None,
                       None, (1, 0, 0, 1), (1, 1, 0, 1), None, None, None,
                       None, None, None, (1, 0, 1, 1), (1, 1, 1, 1)]],
              'k,k': [[[2, 2, 2],
                       [[[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                        [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
                       None],
                      [[1, 0], [0, 0], [0, 1]], [[1, 0], [0, 1], [0, 0]],
                      [(0, 0, 0), (0, 1, 0), None, None, (0, 0, 1), (0, 1, 1),
                       None, None, None, None, (1, 0, 0), (1, 1, 0), None,
                       None, (1, 0, 1), (1, 1, 1)]],
              'kh,k': [[[2, 2, 2, 2],
                        [[[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                          [0, 0, 0, 0]],
                         [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                          [0, 0, 0, 0]],
                         [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                          [0, 0, 0, 0]],
                         [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                          [0, 0, 0, 0]]],
                        None],
                       [[0, 0, 1], [1, 0, 0], [0, 0, 0], [0, 1, 0]],
                       [[0, 0], [1, 0], [0, 1], [0, 0]],
                       [(0, 0, 0, 0), (0, 0, 1, 0), None, None, (1, 0, 0, 0),
                        (1, 0, 1, 0), None, None, (0, 0, 0, 1), (0, 0, 1, 1),
                        None, None, (1, 0, 0, 1), (1, 0, 1, 1), None, None,
                        None, None, (0, 1, 0, 0), (0, 1, 1, 0), None, None,
                        (1, 1, 0, 0), (1, 1, 1, 0), None, None, (0, 1, 0, 1),
                        (0, 1, 1, 1), None, None, (1, 1, 0, 1),
                        (1, 1, 1, 1)]],
              'two_z8 1,2': [[[4], [[[2]]], None], [[2]], [[3]],
                             [(0,), None, (2,), None, None, None, None, None,
                              None, (3,), None, (1,), None, None, None,
                              None]],
              'two_z8 last,first': [[[4], [[[2]]], None], [[0]], [[3]],
                                    [(0,), (3,), (2,), (1,), None, None, None,
                                     None, None, None, None, None, None, None,
                                     None, None]],
              'z2xz3': [[[6], [[[1]]], [1]], [[1]], [[1]],
                        [(0,), (4,), (2,), (3,), (1,), (5,)]]},
 'quotient': {'graded_dual/[(0, 1)]': [[[2], [[[1]]], [1]], [[1], [0]],
                                       [(0, 0), (0, 1)]],
              'sq0_z3/[]': [[[3], [[[0]]], None], [[1]], [(0,)]],
              'tower3/[(1, 1, 0)]': [[[2, 2],
                                      [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                                      None],
                                     [[1, 0], [1, 0], [0, 1]],
                                     [(0, 0, 0), (1, 1, 0)]],
              'two_z8/[(2,)]': [[[2], [[[0]]], None], [[1]], [(0,), (2,)]],
              'upper3_z2/[(0, 0, 1)]': [[[2], [[[0]]], None], [[1], [0], [0]],
                                        [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                                         (0, 1, 1)]],
              'upper3_z2/[(1, 0, 0)]': [[[2], [[[0]]], None], [[0], [0], [1]],
                                        [(0, 0, 0), (0, 1, 0), (1, 0, 0),
                                         (1, 1, 0)]],
              'z4_unital/[(1,)]': [[[], [], []], [[]],
                                   [(0,), (1,), (2,), (3,)]],
              'z4_unital/[(2,)]': [[[2], [[[1]]], [1]], [[1]], [(0,), (2,)]]},
 'search_up_to': {'graded_dual->graded_dual 0,1 d1': 1,
                  'graded_dual->graded_dual 0,1 d2': 5,
                  'graded_dual->graded_dual 0,1 d3': 21,
                  'graded_dual->graded_dual 0,2 d1': 1,
                  'graded_dual->graded_dual 0,2 d2': 5,
                  'graded_dual->graded_dual 0,2 d3': 21,
                  'graded_dual->graded_dual 1,0 d1': 1,
                  'graded_dual->graded_dual 1,0 d2': 5,
                  'graded_dual->graded_dual 1,0 d3': 21,
                  'graded_dual->graded_dual 1,2 d1': '[(((), (1, 0)),), '
                                                     "(((('x', 1),), (0, "
                                                     '1)),)]',
                  'graded_dual->graded_dual 1,2 d2': '[(((), (1, 0)),), '
                                                     "(((('x', 1),), (0, "
                                                     '1)),)]',
                  'graded_dual->graded_dual 1,2 d3': '[(((), (1, 0)),), '
                                                     "(((('x', 1),), (0, "
                                                     '1)),)]',
                  'graded_dual->graded_dual 2,0 d1': 1,
                  'graded_dual->graded_dual 2,0 d2': 5,
                  'graded_dual->graded_dual 2,0 d3': 21,
                  'graded_dual->graded_dual 2,1 d1': '[(((), (1, 0)),), (((), '
                                                     "(0, 1)), ((('x', 1),), "
                                                     '(0, 1)))]',
                  'graded_dual->graded_dual 2,1 d2': '[(((), (1, 0)),), (((), '
                                                     "(0, 1)), ((('x', 1),), "
                                                     '(0, 1)))]',
                  'graded_dual->graded_dual 2,1 d3': '[(((), (1, 0)),), (((), '
                                                     "(0, 1)), ((('x', 1),), "
                                                     '(0, 1)))]',
                  'graded_dual->z2_unital 0,1 d1': 1,
                  'graded_dual->z2_unital 0,1 d2': 3,
                  'graded_dual->z2_unital 0,1 d3': 7,
                  'graded_dual->z2_unital 1,0 d1': 1,
                  'graded_dual->z2_unital 1,0 d2': 3,
                  'graded_dual->z2_unital 1,0 d3': 7,
                  'sq0_z2->two_z8 0,1 d1': "[(((('x', 1),), (2,)),)]",
                  'sq0_z2->two_z8 0,1 d2': "[(((('x', 1),), (2,)),)]",
                  'sq0_z2->two_z8 0,1 d3': "[(((('x', 1),), (2,)),)]",
                  'sq0_z2->two_z8 1,0 d1': "[(((), (2,)), ((('x', 1),), "
                                           '(2,)))]',
                  'sq0_z2->two_z8 1,0 d2': "[(((), (2,)), ((('x', 1),), "
                                           '(2,)))]',
                  'sq0_z2->two_z8 1,0 d3': "[(((), (2,)), ((('x', 1),), "
                                           '(2,)))]',
                  'sq0_z2->upper3_z2 0,1 d1': "[(((('x', 1),), (0, 0, 1)),)]",
                  'sq0_z2->upper3_z2 0,1 d2': "[(((('x', 1),), (0, 0, 1)),)]",
                  'sq0_z2->upper3_z2 0,1 d3': "[(((('x', 1),), (0, 0, 1)),)]",
                  'sq0_z2->upper3_z2 0,2 d1': "[(((('x', 1),), (0, 1, 0)),)]",
                  'sq0_z2->upper3_z2 0,2 d2': "[(((('x', 1),), (0, 1, 0)),)]",
                  'sq0_z2->upper3_z2 0,2 d3': "[(((('x', 1),), (0, 1, 0)),)]",
                  'sq0_z2->upper3_z2 0,3 d1': "[(((('x', 1),), (0, 1, 1)),)]",
                  'sq0_z2->upper3_z2 0,3 d2': "[(((('x', 1),), (0, 1, 1)),)]",
                  'sq0_z2->upper3_z2 0,3 d3': "[(((('x', 1),), (0, 1, 1)),)]",
                  'sq0_z2->upper3_z2 0,4 d1': "[(((('x', 1),), (1, 0, 0)),)]",
                  'sq0_z2->upper3_z2 0,4 d2': "[(((('x', 1),), (1, 0, 0)),)]",
                  'sq0_z2->upper3_z2 0,4 d3': "[(((('x', 1),), (1, 0, 0)),)]",
                  'sq0_z2->upper3_z2 0,5 d1': "[(((('x', 1),), (1, 1, 0)),)]",
                  'sq0_z2->upper3_z2 0,5 d2': "[(((('x', 1),), (1, 1, 0)),)]",
                  'sq0_z2->upper3_z2 0,5 d3': "[(((('x', 1),), (1, 1, 0)),)]",
                  'sq0_z2->upper3_z2 1,0 d1': "[(((), (0, 0, 1)), ((('x', "
                                              '1),), (0, 0, 1)))]',
                  'sq0_z2->upper3_z2 1,0 d2': "[(((), (0, 0, 1)), ((('x', "
                                              '1),), (0, 0, 1)))]',
                  'sq0_z2->upper3_z2 1,0 d3': "[(((), (0, 0, 1)), ((('x', "
                                              '1),), (0, 0, 1)))]',
                  'sq0_z2->upper3_z2 1,2 d1': "[(((), (0, 0, 1)), ((('x', "
                                              '1),), (0, 1, 1)))]',
                  'sq0_z2->upper3_z2 1,2 d2': "[(((), (0, 0, 1)), ((('x', "
                                              '1),), (0, 1, 1)))]',
                  'sq0_z2->upper3_z2 1,2 d3': "[(((), (0, 0, 1)), ((('x', "
                                              '1),), (0, 1, 1)))]',
                  'sq0_z2->upper3_z2 1,3 d1': "[(((), (0, 0, 1)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 1,3 d2': "[(((), (0, 0, 1)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 1,3 d3': "[(((), (0, 0, 1)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 1,4 d1': 1,
                  'sq0_z2->upper3_z2 1,4 d2': 9,
                  'sq0_z2->upper3_z2 1,4 d3': 73,
                  'sq0_z2->upper3_z2 1,5 d1': 1,
                  'sq0_z2->upper3_z2 1,5 d2': 9,
                  'sq0_z2->upper3_z2 1,5 d3': 73,
                  'sq0_z2->upper3_z2 2,0 d1': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 2,0 d2': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 2,0 d3': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 2,1 d1': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (0, 1, 1)))]',
                  'sq0_z2->upper3_z2 2,1 d2': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (0, 1, 1)))]',
                  'sq0_z2->upper3_z2 2,1 d3': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (0, 1, 1)))]',
                  'sq0_z2->upper3_z2 2,3 d1': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (0, 0, 1)))]',
                  'sq0_z2->upper3_z2 2,3 d2': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (0, 0, 1)))]',
                  'sq0_z2->upper3_z2 2,3 d3': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (0, 0, 1)))]',
                  'sq0_z2->upper3_z2 2,4 d1': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (1, 1, 0)))]',
                  'sq0_z2->upper3_z2 2,4 d2': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (1, 1, 0)))]',
                  'sq0_z2->upper3_z2 2,4 d3': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (1, 1, 0)))]',
                  'sq0_z2->upper3_z2 2,5 d1': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (1, 0, 0)))]',
                  'sq0_z2->upper3_z2 2,5 d2': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (1, 0, 0)))]',
                  'sq0_z2->upper3_z2 2,5 d3': "[(((), (0, 1, 0)), ((('x', "
                                              '1),), (1, 0, 0)))]',
                  'sq0_z2->upper3_z2 3,0 d1': "[(((), (0, 1, 1)), ((('x', "
                                              '1),), (0, 1, 1)))]',
                  'sq0_z2->upper3_z2 3,0 d2': "[(((), (0, 1, 1)), ((('x', "
                                              '1),), (0, 1, 1)))]',
                  'sq0_z2->upper3_z2 3,0 d3': "[(((), (0, 1, 1)), ((('x', "
                                              '1),), (0, 1, 1)))]',
                  'sq0_z2->upper3_z2 3,1 d1': "[(((), (0, 1, 1)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 3,1 d2': "[(((), (0, 1, 1)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 3,1 d3': "[(((), (0, 1, 1)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 3,2 d1': "[(((), (0, 1, 1)), ((('x', "
                                              '1),), (0, 0, 1)))]',
                  'sq0_z2->upper3_z2 3,2 d2': "[(((), (0, 1, 1)), ((('x', "
                                              '1),), (0, 0, 1)))]',
                  'sq0_z2->upper3_z2 3,2 d3': "[(((), (0, 1, 1)), ((('x', "
                                              '1),), (0, 0, 1)))]',
                  'sq0_z2->upper3_z2 3,4 d1': 1,
                  'sq0_z2->upper3_z2 3,4 d2': 9,
                  'sq0_z2->upper3_z2 3,4 d3': 73,
                  'sq0_z2->upper3_z2 3,5 d1': 1,
                  'sq0_z2->upper3_z2 3,5 d2': 9,
                  'sq0_z2->upper3_z2 3,5 d3': 73,
                  'sq0_z2->upper3_z2 4,0 d1': "[(((), (1, 0, 0)), ((('x', "
                                              '1),), (1, 0, 0)))]',
                  'sq0_z2->upper3_z2 4,0 d2': "[(((), (1, 0, 0)), ((('x', "
                                              '1),), (1, 0, 0)))]',
                  'sq0_z2->upper3_z2 4,0 d3': "[(((), (1, 0, 0)), ((('x', "
                                              '1),), (1, 0, 0)))]',
                  'sq0_z2->upper3_z2 4,1 d1': 1,
                  'sq0_z2->upper3_z2 4,1 d2': 9,
                  'sq0_z2->upper3_z2 4,1 d3': 73,
                  'sq0_z2->upper3_z2 4,2 d1': "[(((), (1, 0, 0)), ((('x', "
                                              '1),), (1, 1, 0)))]',
                  'sq0_z2->upper3_z2 4,2 d2': "[(((), (1, 0, 0)), ((('x', "
                                              '1),), (1, 1, 0)))]',
                  'sq0_z2->upper3_z2 4,2 d3': "[(((), (1, 0, 0)), ((('x', "
                                              '1),), (1, 1, 0)))]',
                  'sq0_z2->upper3_z2 4,3 d1': 1,
                  'sq0_z2->upper3_z2 4,3 d2': 9,
                  'sq0_z2->upper3_z2 4,3 d3': 73,
                  'sq0_z2->upper3_z2 4,5 d1': "[(((), (1, 0, 0)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 4,5 d2': "[(((), (1, 0, 0)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 4,5 d3': "[(((), (1, 0, 0)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 5,0 d1': "[(((), (1, 1, 0)), ((('x', "
                                              '1),), (1, 1, 0)))]',
                  'sq0_z2->upper3_z2 5,0 d2': "[(((), (1, 1, 0)), ((('x', "
                                              '1),), (1, 1, 0)))]',
                  'sq0_z2->upper3_z2 5,0 d3': "[(((), (1, 1, 0)), ((('x', "
                                              '1),), (1, 1, 0)))]',
                  'sq0_z2->upper3_z2 5,1 d1': 1,
                  'sq0_z2->upper3_z2 5,1 d2': 9,
                  'sq0_z2->upper3_z2 5,1 d3': 73,
                  'sq0_z2->upper3_z2 5,2 d1': "[(((), (1, 1, 0)), ((('x', "
                                              '1),), (1, 0, 0)))]',
                  'sq0_z2->upper3_z2 5,2 d2': "[(((), (1, 1, 0)), ((('x', "
                                              '1),), (1, 0, 0)))]',
                  'sq0_z2->upper3_z2 5,2 d3': "[(((), (1, 1, 0)), ((('x', "
                                              '1),), (1, 0, 0)))]',
                  'sq0_z2->upper3_z2 5,3 d1': 1,
                  'sq0_z2->upper3_z2 5,3 d2': 9,
                  'sq0_z2->upper3_z2 5,3 d3': 73,
                  'sq0_z2->upper3_z2 5,4 d1': "[(((), (1, 1, 0)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 5,4 d2': "[(((), (1, 1, 0)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'sq0_z2->upper3_z2 5,4 d3': "[(((), (1, 1, 0)), ((('x', "
                                              '1),), (0, 1, 0)))]',
                  'tower2->sq0_z2 0,1 d1': "[(), (((('x', 1),), (1,)),)]",
                  'tower2->sq0_z2 0,1 d2': "[(), (((('x', 1),), (1,)),)]",
                  'tower2->sq0_z2 0,1 d3': "[(), (((('x', 1),), (1,)),)]",
                  'tower2->sq0_z2 0,2 d1': "[(((('x', 1),), (1,)),), ()]",
                  'tower2->sq0_z2 0,2 d2': "[(((('x', 1),), (1,)),), ()]",
                  'tower2->sq0_z2 0,2 d3': "[(((('x', 1),), (1,)),), ()]",
                  'tower2->sq0_z2 0,3 d1': "[(((('x', 1),), (1,)),), (((('x', "
                                           '1),), (1,)),)]',
                  'tower2->sq0_z2 0,3 d2': "[(((('x', 1),), (1,)),), (((('x', "
                                           '1),), (1,)),)]',
                  'tower2->sq0_z2 0,3 d3': "[(((('x', 1),), (1,)),), (((('x', "
                                           '1),), (1,)),)]',
                  'tower2->sq0_z2 1,0 d1': "[(), (((), (1,)), ((('x', 1),), "
                                           '(1,)))]',
                  'tower2->sq0_z2 1,0 d2': "[(), (((), (1,)), ((('x', 1),), "
                                           '(1,)))]',
                  'tower2->sq0_z2 1,0 d3': "[(), (((), (1,)), ((('x', 1),), "
                                           '(1,)))]',
                  'tower2->sq0_z2 1,2 d1': "[(((('x', 1),), (1,)),), (((), "
                                           "(1,)), ((('x', 1),), (1,)))]",
                  'tower2->sq0_z2 1,2 d2': "[(((('x', 1),), (1,)),), (((), "
                                           "(1,)), ((('x', 1),), (1,)))]",
                  'tower2->sq0_z2 1,2 d3': "[(((('x', 1),), (1,)),), (((), "
                                           "(1,)), ((('x', 1),), (1,)))]",
                  'tower2->sq0_z2 1,3 d1': "[(((('x', 1),), (1,)),), (((), "
                                           '(1,)),)]',
                  'tower2->sq0_z2 1,3 d2': "[(((('x', 1),), (1,)),), (((), "
                                           '(1,)),)]',
                  'tower2->sq0_z2 1,3 d3': "[(((('x', 1),), (1,)),), (((), "
                                           '(1,)),)]',
                  'tower2->sq0_z2 2,0 d1': "[(((), (1,)), ((('x', 1),), "
                                           '(1,))), ()]',
                  'tower2->sq0_z2 2,0 d2': "[(((), (1,)), ((('x', 1),), "
                                           '(1,))), ()]',
                  'tower2->sq0_z2 2,0 d3': "[(((), (1,)), ((('x', 1),), "
                                           '(1,))), ()]',
                  'tower2->sq0_z2 2,1 d1': "[(((), (1,)), ((('x', 1),), "
                                           "(1,))), (((('x', 1),), (1,)),)]",
                  'tower2->sq0_z2 2,1 d2': "[(((), (1,)), ((('x', 1),), "
                                           "(1,))), (((('x', 1),), (1,)),)]",
                  'tower2->sq0_z2 2,1 d3': "[(((), (1,)), ((('x', 1),), "
                                           "(1,))), (((('x', 1),), (1,)),)]",
                  'tower2->sq0_z2 2,3 d1': "[(((), (1,)),), (((('x', 1),), "
                                           '(1,)),)]',
                  'tower2->sq0_z2 2,3 d2': "[(((), (1,)),), (((('x', 1),), "
                                           '(1,)),)]',
                  'tower2->sq0_z2 2,3 d3': "[(((), (1,)),), (((('x', 1),), "
                                           '(1,)),)]',
                  'tower2->sq0_z2 3,0 d1': "[(((), (1,)), ((('x', 1),), "
                                           "(1,))), (((), (1,)), ((('x', "
                                           '1),), (1,)))]',
                  'tower2->sq0_z2 3,0 d2': "[(((), (1,)), ((('x', 1),), "
                                           "(1,))), (((), (1,)), ((('x', "
                                           '1),), (1,)))]',
                  'tower2->sq0_z2 3,0 d3': "[(((), (1,)), ((('x', 1),), "
                                           "(1,))), (((), (1,)), ((('x', "
                                           '1),), (1,)))]',
                  'tower2->sq0_z2 3,1 d1': "[(((), (1,)), ((('x', 1),), "
                                           '(1,))), (((), (1,)),)]',
                  'tower2->sq0_z2 3,1 d2': "[(((), (1,)), ((('x', 1),), "
                                           '(1,))), (((), (1,)),)]',
                  'tower2->sq0_z2 3,1 d3': "[(((), (1,)), ((('x', 1),), "
                                           '(1,))), (((), (1,)),)]',
                  'tower2->sq0_z2 3,2 d1': '[(((), (1,)),), (((), (1,)), '
                                           "((('x', 1),), (1,)))]",
                  'tower2->sq0_z2 3,2 d2': '[(((), (1,)),), (((), (1,)), '
                                           "((('x', 1),), (1,)))]",
                  'tower2->sq0_z2 3,2 d3': '[(((), (1,)),), (((), (1,)), '
                                           "((('x', 1),), (1,)))]",
                  'tower2->upper3_z2 1,27 d1': 2,
                  'tower2->upper3_z2 1,27 d2': 42,
                  'tower2->upper3_z2 1,27 d3': 1130,
                  'tower2->upper3_z2 2,20 d1': "[(((('x', 1),), (1, 0, 0)),), "
                                               "(((), (0, 1, 0)), ((('x', "
                                               '1),), (0, 1, 0)))]',
                  'tower2->upper3_z2 2,20 d2': "[(((('x', 1),), (1, 0, 0)),), "
                                               "(((), (0, 1, 0)), ((('x', "
                                               '1),), (0, 1, 0)))]',
                  'tower2->upper3_z2 2,20 d3': "[(((('x', 1),), (1, 0, 0)),), "
                                               "(((), (0, 1, 0)), ((('x', "
                                               '1),), (0, 1, 0)))]',
                  'tower2->upper3_z2 27,1 d1': 2,
                  'tower2->upper3_z2 27,1 d2': 42,
                  'tower2->upper3_z2 27,1 d3': 1130,
                  'tower3->upper3_z2 1,119 d1': 3,
                  'tower3->upper3_z2 1,119 d2': 171,
                  'tower3->upper3_z2 5,60 d1': 3,
                  'tower3->upper3_z2 5,60 d2': 187,
                  'two_z8->two_z8 0,1 d1': 1,
                  'two_z8->two_z8 0,1 d2': 5,
                  'two_z8->two_z8 0,1 d3': 21,
                  'two_z8->two_z8 0,2 d1': "[(((('x', 1),), (2,)),)]",
                  'two_z8->two_z8 0,2 d2': "[(((('x', 1),), (2,)),)]",
                  'two_z8->two_z8 0,2 d3': "[(((('x', 1),), (2,)),)]",
                  'two_z8->two_z8 0,3 d1': 1,
                  'two_z8->two_z8 0,3 d2': 5,
                  'two_z8->two_z8 0,3 d3': 21,
                  'two_z8->two_z8 1,0 d1': 1,
                  'two_z8->two_z8 1,0 d2': 5,
                  'two_z8->two_z8 1,0 d3': 21,
                  'two_z8->two_z8 1,2 d1': 1,
                  'two_z8->two_z8 1,2 d2': 5,
                  'two_z8->two_z8 1,2 d3': 21,
                  'two_z8->two_z8 1,3 d1': "[(((), (1,)), ((('x', 1),), "
                                           '(2,)))]',
                  'two_z8->two_z8 1,3 d2': "[(((), (1,)), ((('x', 1),), "
                                           '(2,)))]',
                  'two_z8->two_z8 1,3 d3': "[(((), (1,)), ((('x', 1),), "
                                           '(2,)))]',
                  'two_z8->two_z8 2,0 d1': "[(((), (2,)), ((('x', 1),), "
                                           '(2,)))]',
                  'two_z8->two_z8 2,0 d2': "[(((), (2,)), ((('x', 1),), "
                                           '(2,)))]',
                  'two_z8->two_z8 2,0 d3': "[(((), (2,)), ((('x', 1),), "
                                           '(2,)))]',
                  'two_z8->two_z8 2,1 d1': 1,
                  'two_z8->two_z8 2,1 d2': 5,
                  'two_z8->two_z8 2,1 d3': 21,
                  'two_z8->two_z8 2,3 d1': 1,
                  'two_z8->two_z8 2,3 d2': 5,
                  'two_z8->two_z8 2,3 d3': 21,
                  'two_z8->two_z8 3,0 d1': 1,
                  'two_z8->two_z8 3,0 d2': 5,
                  'two_z8->two_z8 3,0 d3': 21,
                  'two_z8->two_z8 3,1 d1': "[(((), (3,)), ((('x', 1),), "
                                           '(2,)))]',
                  'two_z8->two_z8 3,1 d2': "[(((), (3,)), ((('x', 1),), "
                                           '(2,)))]',
                  'two_z8->two_z8 3,1 d3': "[(((), (3,)), ((('x', 1),), "
                                           '(2,)))]',
                  'two_z8->two_z8 3,2 d1': 1,
                  'two_z8->two_z8 3,2 d2': 5,
                  'two_z8->two_z8 3,2 d3': 21,
                  'upper3_z2->upper3_z2 1,29 d1': 3,
                  'upper3_z2->upper3_z2 1,29 d2': 171,
                  'upper3_z2->upper3_z2 3,17 d1': "[(((('x', 1),), (0, 1, "
                                                  '1)),), (), (((), (0, 1, '
                                                  "1)), ((('x', 1),), (0, 1, "
                                                  '0)))]',
                  'upper3_z2->upper3_z2 3,17 d2': "[(((('x', 1),), (0, 1, "
                                                  '1)),), (), (((), (0, 1, '
                                                  "1)), ((('x', 1),), (0, 1, "
                                                  '0)))]',
                  'z3_unital->z3_unital 0,1 d1': 1,
                  'z3_unital->z3_unital 0,1 d2': 4,
                  'z3_unital->z3_unital 0,1 d3': 13,
                  'z3_unital->z3_unital 1,0 d1': 1,
                  'z3_unital->z3_unital 1,0 d2': 4,
                  'z3_unital->z3_unital 1,0 d3': 13,
                  'z4_unital->graded_dual 0,1 d1': 1,
                  'z4_unital->graded_dual 0,1 d2': 5,
                  'z4_unital->graded_dual 0,1 d3': 21,
                  'z4_unital->graded_dual 1,0 d1': 1,
                  'z4_unital->graded_dual 1,0 d2': 5,
                  'z4_unital->graded_dual 1,0 d3': 21}}


def test_enumerate_homs_order():
    assert compute_enumerate_homs() == PINNED["enumerate_homs"]


def test_search_up_to_searched_and_certificates():
    assert compute_search_up_to() == PINNED["search_up_to"]


def test_homotopy_classes_and_merges():
    assert compute_classes() == PINNED["classes"]


def test_k0_moduli_and_class_coordinates():
    assert compute_k0() == PINNED["k0"]


def test_k0_random_diagrams():
    assert compute_k0_random_digest() == PINNED["k0_random_digest"]


def test_subgroup_and_quotient_presentations():
    assert compute_presentations_digest() == PINNED["presentations_digest"]


def test_quotient_rings():
    assert compute_quotient() == PINNED["quotient"]


def test_canonical_forms():
    assert compute_canonicalize() == PINNED["canonicalize"]


def test_pullbacks():
    assert compute_pullback() == PINNED["pullback"]


def test_kernel_subrings():
    assert compute_kernel_subring() == PINNED["kernel_subring"]


def test_kv1_summaries():
    assert compute_kv1() == PINNED["kv1"]


# ---------------------------------------------------------------------------
# strict_pi0 against breadth-first search


def _bfs_components(n, edges):
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, comps = set(), []
    for start in range(n):
        if start in seen:
            continue
        comp, frontier = [], [start]
        seen.add(start)
        while frontier:
            x = frontier.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        comps.append(sorted(comp))
    return sorted(comps)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=20))))
def test_strict_pi0_matches_bfs(case):
    n, edges = case
    assert strict_pi0(range(n), edges) == _bfs_components(n, edges)
