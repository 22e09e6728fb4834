import random

import pytest

import hotring
from hotring import (LoopRing, PairRing, PathRing, alpha_hom, beta_hom,
                     corpus, mapping_path_ring, omega_pair_hom, omega_tilde,
                     tower_homs, zero_hom)
from hotring.poly import Poly, monomial

RINGS = corpus()


def test_omega_tilde_membership():
    r = RINGS["two_z8"]
    tilde = omega_tilde(r, "x")
    # (x a, a - a x): f(1) = a = g(0), f(0) = 0, g(1) = a - a = 0
    a = (1,)
    f = monomial(r, a, (("x", 1),))
    g = Poly((((), a), ((("x", 1),), r.neg(a))))
    assert tilde.contains((f, g))
    assert not tilde.contains((f, f))       # g(1) = a != 0
    assert tilde.contains((tilde.left.zero(), tilde.right.zero()))


def test_omega_tilde_sampler_and_ops():
    rng = random.Random(0)
    for label in ("sq0_z3", "z2_unital", "graded_dual"):
        tilde = omega_tilde(RINGS[label], "x")
        for _ in range(60):
            u = tilde.sample(rng)
            v = tilde.sample(rng)
            assert tilde.contains(u)
            assert tilde.contains(tilde.add(u, v))
            assert tilde.contains(tilde.mul(u, v))
            assert tilde.contains(tilde.neg(u))
            assert tilde.contains(tilde.scalar(3, u))


@pytest.mark.parametrize("polynomial_base", [False, True],
                         ids=["finite", "path-ring"])
def test_omega_tilde_samples_are_members(polynomial_base):
    # the sampler reads f(1) in the flat form, so a base whose elements
    # are themselves polynomials (here E(z3_unital; a)) samples too
    base = RINGS["z3_unital"]
    if polynomial_base:
        base = PathRing(base, "a")
    tilde = omega_tilde(base, "x")
    rng = random.Random(3)
    for _ in range(50):
        assert tilde.contains(tilde.sample(rng))


@pytest.mark.parametrize("label", ["sq0_z2", "two_z8", "z3_unital"])
def test_alpha_beta_omega_are_homs_into_omega_tilde(label):
    rng = random.Random(1)
    r = RINGS[label]
    loop = LoopRing(r, "x")
    tilde = omega_tilde(r, "x")
    alpha = alpha_hom(loop, tilde)
    beta = beta_hom(loop, tilde)
    omega = omega_pair_hom(loop, tilde)
    pair_src = omega.source
    for _ in range(200):
        p, q = loop.sample(rng), loop.sample(rng)
        for hom, x, y in ((alpha, p, q), (beta, p, q)):
            hx, hy = hom.apply(x), hom.apply(y)
            assert tilde.contains(hx)
            assert hom.apply(loop.add(x, y)) == tilde.add(hx, hy)
            assert hom.apply(loop.mul(x, y)) == tilde.mul(hx, hy)
        u = (p, q)
        v = (q, p)
        wu, wv = omega.apply(u), omega.apply(v)
        assert tilde.contains(wu)
        assert omega.apply(pair_src.add(u, v)) == tilde.add(wu, wv)
        assert omega.apply(pair_src.mul(u, v)) == tilde.mul(wu, wv)


def test_pair_ring_basics():
    a, b = RINGS["sq0_z2"], RINGS["sq0_z3"]
    pr = PairRing(a, b)
    rng = random.Random(2)
    for _ in range(50):
        x, y = pr.sample(rng), pr.sample(rng)
        assert pr.contains(x)
        assert pr.add(x, y) == (a.add(x[0], y[0]), b.add(x[1], y[1]))
        assert pr.first().apply(x) == x[0]
        assert pr.second().apply(x) == x[1]
    assert not pr.contains((a.zero(),))


def test_pair_ring_is_one_class():
    """PairRing lives in rings; virtual and the package re-export it."""
    assert hotring.PairRing is hotring.virtual.PairRing is \
        hotring.rings.PairRing


def test_pair_ring_without_sampler_rejects_sampling():
    a = RINGS["sq0_z2"]
    pr = PairRing(a, a, predicate=lambda t: t[0] == t[1])
    with pytest.raises(NotImplementedError):
        pr.sample(random.Random(0))
    assert pr.contains((a.gen(0), a.gen(0)))
    assert not pr.contains((a.gen(0), a.zero()))


def test_mapping_path_ring_closure_under_ops():
    rng = random.Random(3)
    h, _ = tower_homs(RINGS)
    mp = mapping_path_ring(h, "x1")
    for _ in range(80):
        u, v = mp.sample(rng), mp.sample(rng)
        assert mp.contains(u)
        assert mp.contains(mp.add(u, v))
        assert mp.contains(mp.mul(u, v))
        assert mp.contains(mp.neg(u))


def test_mapping_path_over_zero_hom_contains_pairs():
    b, c = RINGS["sq0_z2"], RINGS["two_z8"]
    mp = mapping_path_ring(zero_hom(b, c), "x1")
    loops = LoopRing(c, "x1")
    rng = random.Random(4)
    for _ in range(40):
        assert mp.contains((b.sample(rng), loops.sample(rng)))
