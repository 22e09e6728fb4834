import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hotring import (HotringError, LoopRing, MembershipViolation, PathRing,
                     Poly, PolyLike, PolyRing, UnknownVariable, constant_of,
                     corpus, double_loop_ring, evaluate, iconst, ivar,
                     monomial, one_minus, sigma_hom, slices, substitute,
                     substitution_hom, swap_homotopy, tau_hom)
from hotring.poly import (iadd, imul, int_action, ipow, isub,
                          loop_unit_ipoly)

RINGS = corpus()


def test_eval_at_one_sums_coefficients():
    # a x^2 + b x evaluated at x = 1 gives a + b
    r = RINGS["two_z8"]
    ring = PolyRing(r, ("x",))
    a, b = (1,), (3,)
    p = ring.add(ring.monomial(a, (("x", 2),)), ring.monomial(b, (("x", 1),)))
    assert constant_of(r, ring.evaluate(p, "x", 1)) == r.add(a, b)


def test_eval_at_zero_kills_path_ring():
    rng = random.Random(0)
    for r in RINGS.values():
        er = PathRing(r, "x")
        for _ in range(50):
            p = er.sample(rng)
            assert er.contains(p)
            assert er.evaluate(p, "x", 0).is_zero_poly()


def test_monomial_substitution():
    r = RINGS["sq0_z3"]
    ring = PolyRing(r, ("x", "y"))
    p = ring.monomial((1,), (("x", 1),))
    q = ring.substitute(p, {"x": imul(ivar("x"), ivar("y"))})
    assert q == ring.monomial((1,), (("x", 1), ("y", 1)))


def test_unknown_variable_raises():
    r = RINGS["sq0_z2"]
    ring = PolyRing(r, ("x",))
    with pytest.raises(UnknownVariable):
        ring.evaluate(ring.zero(), "z", 0)
    # a non-str key is rejected even when there is no term to substitute in
    with pytest.raises(UnknownVariable):
        substitute(r, ring.zero(), {1: ivar("x")})
    with pytest.raises(UnknownVariable):
        substitution_hom(ring, ring, {("x",): ivar("x")})


def test_malformed_constructions_raise_typed_errors():
    r = RINGS["sq0_z2"]
    with pytest.raises(MembershipViolation):
        constant_of(r, monomial(r, (1,), (("x", 1),)))
    with pytest.raises(HotringError):
        PolyLike(PolyRing(r, ("x",)), ("y",), "nested")


@pytest.mark.parametrize("build", [
    lambda r: PolyRing(r, ("x", "x")),
    lambda r: PolyRing(PolyRing(r, ("x",)), ("x",)),
    lambda r: PathRing(PathRing(r, "x"), "x"),
    lambda r: LoopRing(PathRing(r, "x"), "x"),
    lambda r: PolyRing(LoopRing(r, "x"), ("y", "x")),
], ids=["poly", "poly-over-poly", "path-over-path", "loop-over-path",
        "poly-over-loop"])
def test_repeated_variable_raises(build):
    """Flattening R[x] over a ring that already uses x would identify the
    two variables, so the ring is refused instead of computing wrongly."""
    with pytest.raises(HotringError, match="repeated variable"):
        build(RINGS["z3_unital"])


def test_t_to_ty_homotopy_endpoints():
    # the reparametrization t -> t y of R[t]: at y=1 the identity, at y=0
    # the constant-term projection
    rng = random.Random(1)
    r = RINGS["two_z8"]
    ring = PolyRing(r, ("t",))
    big = PolyRing(r, ("t", "y"))
    for _ in range(100):
        p = ring.sample(rng)
        moved = big.substitute(p, {"t": imul(ivar("t"), ivar("y"))})
        assert big.evaluate(moved, "y", 1) == p
        assert big.evaluate(moved, "y", 0) == evaluate(r, p, "t", 0)


def test_substitution_is_ring_homomorphism():
    rng = random.Random(2)
    r = RINGS["upper3_z2"]
    ring = PolyRing(r, ("x", "y"))
    assignment = {"x": isub(imul(ivar("t"), ivar("x")), ivar("y")),
                  "y": one_minus("t")}
    checks = 0
    for _ in range(1000):
        p, q = ring.sample(rng), ring.sample(rng)
        sp = ring.substitute(p, assignment)
        sq = ring.substitute(q, assignment)
        assert ring.substitute(ring.add(p, q), assignment) == ring.add(sp, sq)
        assert ring.substitute(ring.mul(p, q), assignment) == ring.mul(sp, sq)
        checks += 1
    assert checks == 1000


def test_path_and_loop_membership():
    r = RINGS["two_z8"]
    er = PathRing(r, "x")
    om = LoopRing(r, "x")
    xa = monomial(r, (1,), (("x", 1),))
    assert er.contains(xa)
    assert not om.contains(xa)          # endpoint at x=1 is a != 0
    loop = om.from_factor(om.const((1,)))
    assert om.contains(loop)            # (x^2 - x) a
    assert er.contains(loop)
    assert om.contains(om.zero())
    assert er.contains(er.zero())


def test_path_ring_membership_rejections():
    r = RINGS["two_z8"]
    er = PathRing(r, "x")
    assert er.contains(er.sample(random.Random(4)))
    xa = monomial(r, (1,), (("x", 1),))
    assert not er.contains(er.add(xa, er.const((1,))))   # constant term
    assert not er.contains(Poly(((((("x", 1),), (5,)),))))  # 5 not in Z/4
    assert not er.contains((1,))
    # over E(E(R; x); y) each y-slice must lie in E(R; x)
    eer = PathRing(er, "y")
    assert eer.contains(monomial(r, (1,), (("x", 1), ("y", 1))))
    assert not eer.contains(monomial(r, (1,), (("y", 1),)))


def test_loop_ring_membership_rejections():
    r = RINGS["two_z8"]
    om = LoopRing(r, "x")
    loop = om.from_factor(om.const((1,)))              # (x^2 - x) a
    assert om.contains(loop)
    assert not om.contains(om.add(loop, om.const((1,))))   # constant term
    assert not om.contains(monomial(r, (1,), (("x", 1),)))  # a at x = 1
    # over Omega(E(R; x); y) each y-slice must lie in E(R; x)
    er = PathRing(r, "x")
    omer = LoopRing(er, "y")
    assert omer.contains(omer.from_factor(monomial(r, (1,), (("x", 1),))))
    assert not omer.contains(omer.from_factor(omer.const((1,))))


def test_loop_factorization_roundtrip():
    rng = random.Random(3)
    for r in RINGS.values():
        om = LoopRing(r, "x")
        inner = PolyRing(r, ("x",))
        for _ in range(50):
            q = inner.sample(rng)
            p = om.from_factor(q)
            assert om.contains(p)
            assert om.from_factor(om.factor(p)) == p
    with pytest.raises(MembershipViolation):
        LoopRing(RINGS["sq0_z2"], "x").factor(
            monomial(RINGS["sq0_z2"], (1,), (("x", 1),)))


def test_sigma_fixes_loop_units():
    # sigma((x^2-x) a) = ((1-x)^2 - (1-x)) a = (x^2-x) a
    for r in RINGS.values():
        om = LoopRing(r, "x")
        sig = sigma_hom(om)
        for i in range(r.ngens):
            p = om.from_factor(om.const(r.gen(i)))
            assert sig.apply(p) == p


def test_sigma_is_an_involution_and_a_hom():
    rng = random.Random(4)
    for r in RINGS.values():
        om = LoopRing(r, "x")
        sig = sigma_hom(om)
        for _ in range(100):
            p, q = om.sample(rng), om.sample(rng)
            assert om.contains(sig.apply(p))
            assert sig.apply(sig.apply(p)) == p
            assert sig.apply(om.add(p, q)) == om.add(sig.apply(p), sig.apply(q))
            assert sig.apply(om.mul(p, q)) == om.mul(sig.apply(p), sig.apply(q))


def test_tau_swaps_variables_and_is_involution():
    rng = random.Random(5)
    for r in RINGS.values():
        om2 = double_loop_ring(r, "x", "y")
        tau = tau_hom(om2)
        for _ in range(100):
            p = om2.sample(rng)
            assert om2.contains(p)
            t = tau.apply(p)
            assert om2.contains(t)
            assert tau.apply(t) == p
    # explicit: a x^2 y -> a x y^2 on the ambient ring
    r = RINGS["two_z8"]
    om2 = double_loop_ring(r, "x", "y")
    p = monomial(r, (1,), (("x", 2), ("y", 1)))
    assert tau_hom(om2).apply(p) == monomial(r, (1,), (("x", 1), ("y", 2)))


def test_swap_homotopy_endpoints_exactly():
    rng = random.Random(6)
    for r in RINGS.values():
        om2 = double_loop_ring(r, "x", "y")
        h = swap_homotopy(om2)
        tau = tau_hom(om2)
        sb = om2.scalar_base
        for _ in range(60):
            f = om2.sample(rng)
            hf = h.apply(f)
            assert evaluate(sb, hf, "t", 1) == f
            assert evaluate(sb, hf, "t", 0) == tau.apply(f)


def test_swap_homotopy_additive_and_hom_on_square_zero():
    rng = random.Random(7)
    for label in ("sq0_z2", "sq0_z3", "tower3"):
        r = RINGS[label]
        om2 = double_loop_ring(r, "x", "y")
        big = PolyRing(r, ("x", "y", "t"))
        h = swap_homotopy(om2)
        for _ in range(60):
            p, q = om2.sample(rng), om2.sample(rng)
            assert h.apply(om2.add(p, q)) == big.add(h.apply(p), h.apply(q))
            assert h.apply(om2.mul(p, q)) == big.mul(h.apply(p), h.apply(q))


def test_swap_homotopy_not_multiplicative_on_unital_base():
    # the interpolation formula is additive with the right endpoints, but
    # multiplicativity fails once coefficient products survive: over Z/2
    # with unit, H(f)^2 != H(f^2) for f = (x^2-x)(y^2-y)
    r = RINGS["z2_unital"]
    om2 = double_loop_ring(r, "x", "y")
    big = PolyRing(r, ("x", "y", "t"))
    h = swap_homotopy(om2)
    f = om2.from_factor(LoopRing(r, "x").from_factor(om2.const(r.gen(0))))
    lhs = h.apply(om2.mul(f, f))
    rhs = big.mul(h.apply(f), h.apply(f))
    assert lhs != rhs
    # but both agree after either endpoint evaluation
    for bit in (0, 1):
        assert evaluate(r, lhs, "t", bit) == evaluate(r, rhs, "t", bit)


def test_int_action_matches_shift():
    r = RINGS["two_z8"]
    p = monomial(r, (1,), (("x", 1),))
    unit = loop_unit_ipoly("x")
    acted = int_action(r, unit, p)
    expect = Poly((((("x", 2),), (3,)), ((("x", 3),), (1,))))
    assert acted == expect


def test_slices_decomposition():
    r = RINGS["sq0_z2"]
    ring = PolyRing(r, ("x", "y"))
    p = ring.add(ring.monomial((1,), (("x", 2), ("y", 1))),
                 ring.monomial((1,), (("y", 1),)))
    sl = slices(p, "x")
    assert set(sl) == {0, 2}
    assert sl[0] == monomial(r, (1,), (("y", 1),))


def test_ipow_and_one_minus():
    p = ipow(one_minus("x"), 2)
    # (1-x)^2 = 1 - 2x + x^2
    assert p == Poly((((), 1), ((("x", 1),), -2), ((("x", 2),), 1)))
    assert isub(p, one_minus("x")) == Poly(
        (((("x", 1),), -1), ((("x", 2),), 1)))


# compiled substitution against the per-term loop it replaced

VARS = ("x", "y", "z")


def _reference_substitute(base, p, assignment):
    """The per-term loop: ipow of every assigned image, for every term."""
    acc = {}
    for mono, c in p.terms:
        kept = dict((v, e) for v, e in mono if v not in assignment)
        ip = iconst(1)
        for v, e in mono:
            if v in assignment:
                ip = imul(ip, ipow(assignment[v], e))
        for m2, n in ip.terms:
            nc = base.scalar(n, c)
            if base.is_zero(nc):
                continue
            m = dict(kept)
            for v, e in m2:
                m[v] = m.get(v, 0) + e
            m = tuple(sorted(m.items()))
            acc[m] = base.add(acc[m], nc) if m in acc else nc
    return Poly(sorted((m, c) for m, c in acc.items() if not base.is_zero(c)))


_var = st.sampled_from(VARS)
_image = st.one_of(
    st.integers(-3, 3).map(iconst),                              # 0, constants
    _var.map(ivar),                                              # renames
    st.tuples(_var, _var).map(lambda vw: imul(ivar(vw[0]), ivar(vw[1]))),
    _var.map(one_minus),
    _var.map(loop_unit_ipoly),                                   # x^2 - x
    st.tuples(_var, _var, st.integers(-2, 2)).map(
        lambda a: iadd(ivar(a[0]), imul(iconst(a[2]), ivar(a[1])))),
)
_assignment = st.one_of(
    st.dictionaries(_var, _image, max_size=3),
    st.just({"x": ivar("y"), "y": ivar("x")}),                   # swap
)
# a term is (generator, multiple, exponents of x, y, z)
_terms = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3),
                            st.tuples(*(st.integers(0, 3) for _ in VARS))),
                  min_size=1, max_size=4)


def _poly(ring, r, terms):
    return ring.sum(ring.monomial(r.scalar(k, r.gen(g % r.ngens)),
                                  tuple(zip(VARS, exps)))
                    for g, k, exps in terms)


@settings(max_examples=300, deadline=None)
@given(label=st.sampled_from(sorted(RINGS)), assignment=_assignment,
       polys=st.lists(_terms, min_size=1, max_size=5))
@example(label="z3_unital", assignment={"x": iconst(-1), "y": iconst(2)},
         polys=[[(0, 1, (2, 3, 1))]])
def test_compiled_substitution_matches_per_term_loop(label, assignment,
                                                     polys):
    r = RINGS[label]
    ring = PolyRing(r, VARS)
    hom = substitution_hom(ring, ring, assignment)
    # one hom, and its memo, serves many inputs; each must match a fresh
    # call and the per-term reference
    for terms in polys:
        p = _poly(ring, r, terms)
        want = _reference_substitute(r, p, assignment)
        assert substitute(r, p, assignment) == want
        assert hom.apply(p) == want


# SHA-256 of the draws and the next rng.random(), per seed, computed once
# and written out literally: the certificate, factorization and CLI probes
# draw through these samplers, so their verdicts stay put while the
# streams do
SAMPLER_STREAMS = {
    0: ("10238548fb5e0728c3b12ecd5c980705153ae3af7878fac35ffc269512d65a15",
        0.7268644782431728),
    1: ("578d387ac744eb003b7ca7ef9cdddb57fbca95b125ae6b1962c8f92f1d560195",
        0.9760908134662923),
    2: ("25c37cb9087fb07930f20fbdc1967ba2834fe5b2b13801f06311459cc3bc7202",
        0.6415305478030101),
}


@pytest.mark.parametrize("seed", sorted(SAMPLER_STREAMS))
def test_sampler_streams_are_pinned(seed):
    rng = random.Random(seed)
    draws = []
    for label in sorted(RINGS):
        r = RINGS[label]
        draws.append([r.sample(rng) for _ in range(20)])
        for vars in ((), ("x",), ("x", "t1", "t2", "t3", "t4")):
            ring = PolyRing(r, vars)
            draws.append([ring.sample(rng) for _ in range(20)])
    digest = hashlib.sha256(repr(draws).encode()).hexdigest()
    assert (digest, rng.random()) == SAMPLER_STREAMS[seed]
