"""Every operation declared a ring homomorphism, probed on 1000 pairs."""

import random

import pytest

from hotring import (LoopRing, PathRing, PolyRing, SimplexRing, alpha_hom,
                     beta_hom, canonicalize, corpus, double_loop_ring,
                     omega_pair_hom, omega_tilde, sigma_hom, tau_hom,
                     tower_homs)
from hotring.poly import (coefficient_map, iconst, imul, ivar, one_minus,
                          shift_poly, substitution_hom)

RINGS = corpus()
PAIRS = 1000


def _check_hom(source, target, apply_fn, rng, pairs=PAIRS):
    for _ in range(pairs):
        a, b = source.sample(rng), source.sample(rng)
        fa, fb = apply_fn(a), apply_fn(b)
        assert apply_fn(source.add(a, b)) == target.add(fa, fb)
        assert apply_fn(source.mul(a, b)) == target.mul(fa, fb)


def test_endpoint_evaluations_are_homs():
    rng = random.Random(10)
    r = RINGS["two_z8"]
    ring = PolyRing(r, ("x",))
    for bit in (0, 1):
        _check_hom(ring, ring, lambda p, b=bit: ring.evaluate(p, "x", b), rng)


def test_substitution_is_a_hom():
    rng = random.Random(11)
    r = RINGS["graded_dual"]
    ring = PolyRing(r, ("x", "y"))
    assignment = {"x": imul(ivar("x"), ivar("y")), "y": one_minus("x")}
    _check_hom(ring, ring, lambda p: ring.substitute(p, assignment), rng)


def test_sigma_is_a_hom():
    rng = random.Random(12)
    loop = LoopRing(RINGS["two_z8"], "x")
    sig = sigma_hom(loop)
    _check_hom(loop, loop, sig.apply, rng)


def test_tau_is_a_hom():
    rng = random.Random(13)
    loop2 = double_loop_ring(RINGS["sq0_z3"], "x", "y")
    tau = tau_hom(loop2)
    _check_hom(loop2, loop2, tau.apply, rng)


def test_faces_and_degeneracies_are_homs():
    rng = random.Random(14)
    r = RINGS["upper3_z2"]
    per_map = PAIRS // 8
    for n in (1, 2):
        s = SimplexRing(r, n)
        lower = SimplexRing(r, n - 1)
        upper = SimplexRing(r, n + 1)
        for i in range(n + 1):
            _check_hom(s.ring, lower.ring, s.face(i).apply, rng,
                       pairs=per_map)
            _check_hom(s.ring, upper.ring, s.degeneracy(i).apply, rng,
                       pairs=per_map)
        del lower, upper


def test_alpha_beta_omega_are_homs():
    rng = random.Random(15)
    r = RINGS["z3_unital"]
    loop = LoopRing(r, "x")
    tilde = omega_tilde(r, "x")
    _check_hom(loop, tilde, alpha_hom(loop, tilde).apply, rng, pairs=PAIRS)
    _check_hom(loop, tilde, beta_hom(loop, tilde).apply, rng, pairs=PAIRS)
    omega = omega_pair_hom(loop, tilde)
    _check_hom(omega.source, tilde, omega.apply, rng, pairs=PAIRS)


def test_coefficient_maps_are_homs():
    rng = random.Random(16)
    h, _ = tower_homs(RINGS)
    src = PolyRing(h.source, ("x",))
    tgt = PolyRing(h.target, ("x",))
    lifted = coefficient_map(h, src, tgt)
    _check_hom(src, tgt, lifted.apply, rng)


def test_coefficient_map_over_a_polynomial_source():
    # g : E(Z/3; x) -> E(Z/3; x), p(x) -> p(2x), extended to E[y] acts on
    # each y-slice as a whole, so it is the substitution x -> 2x
    rng = random.Random(18)
    paths = PathRing(RINGS["z3_unital"], "x")
    two_x = {"x": imul(iconst(2), ivar("x"))}
    g = substitution_hom(paths, paths, two_x)
    ring = PolyRing(paths, ("y",))
    lifted = coefficient_map(g, ring, ring)

    def sample():       # an element of E[y]: path-ring coefficients of y^k
        return ring.sum(shift_poly(ring.scalar_base, paths.sample(rng), "y", k)
                        for k in range(3))

    for _ in range(200):
        p, q = sample(), sample()
        fp, fq = lifted.apply(p), lifted.apply(q)
        assert fp == ring.substitute(p, two_x)
        assert lifted.apply(ring.add(p, q)) == ring.add(fp, fq)
        assert lifted.apply(ring.mul(p, q)) == ring.mul(fp, fq)


def test_path_ring_inclusion_closure():
    # the path ring is closed under its operations (subring law)
    rng = random.Random(17)
    er = PathRing(RINGS["two_z8"], "x")
    for _ in range(PAIRS):
        p, q = er.sample(rng), er.sample(rng)
        assert er.contains(er.add(p, q))
        assert er.contains(er.mul(p, q))


@pytest.mark.parametrize("label", sorted(RINGS))
def test_canonicalize_roundtrip(label):
    ring = RINGS[label]
    can, fwd, back = canonicalize(ring)
    assert can.size() == ring.size()
    # invariant-factor form: each order divides the next
    for a, b in zip(can.orders, can.orders[1:]):
        assert b % a == 0
    for x in ring.elements():
        assert back.apply(fwd.apply(x)) == x
    if ring.unit is not None:
        assert can.unit is not None
