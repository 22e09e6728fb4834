import random
import sys

import pytest

from hotring import rings as rings_module
from hotring import triangle as triangle_module
from hotring import (DepthExceeded, FibrationFamily, FuncHom,
                     HomotopyCertificate, HotringError, IndexOutOfRange,
                     K0Diagram, LoopRing,
                     NotSurjective, PairRing, PathRing, Poly, PolyRing,
                     RingHom,
                     check_axioms, compose, corpus, enumerate_homs, factorize,
                     gl_fibration_flag, identity_hom, k0_presentation,
                     mapping_path, octahedron, puppe, rotate,
                     rotation_witness, standard_triangle, tower_homs,
                     verify_certificate, zero_hom, zero_ring, TruncatedPuppe,
                     truncated_path_ring)
from hotring.homotopy import (constant_certificate, eval_endpoint,
                              path_contraction_certificate)
from hotring.poly import (double_loop_ring, evaluate, fresh_var,
                          swap_homotopy, tau_hom)
from hotring.triangle import minus_omega_hom, omega_hom

from oracles import idempotent_power_remainder, minors_gcd_invariants

RINGS = corpus()
H_TOWER, K_TOWER = tower_homs(RINGS)


# ---------------------------------------------------------------------------
# factorization


def test_factorize_identity():
    r = RINGS["two_z8"]
    fac = factorize(identity_hom(r))
    result = fac.verify()
    assert result["ok"], result
    # preimage witness (0, a x) maps back to a under p
    for a in r.elements():
        assert fac.p.apply(fac.section.apply(a)) == a


def test_factorize_into_a_pair_ring_is_a_typed_error():
    pair = PairRing(RINGS["z2_unital"], RINGS["z3_unital"])
    with pytest.raises(HotringError, match=r"factorize .*"
                       r"\(z2_unital x z3_unital\) is a pair ring"):
        factorize(identity_hom(pair))


def test_factorize_zero_map():
    # u = 0: the middle object is {(a, p) : p(0) = 0} = A x EB
    a, b = RINGS["sq0_z2"], RINGS["sq0_z3"]
    fac = factorize(zero_hom(a, b))
    rng = random.Random(0)
    eb = PathRing(b, "x")
    for _ in range(50):
        pair = fac.middle.sample(rng)
        assert a.contains(pair[0]) and eb.contains(pair[1])
    assert fac.verify()["ok"]


def test_factorize_surjection_no_shortcut():
    fac = factorize(H_TOWER)
    assert fac.verify()["ok"]
    assert (fac.var, fac.certificate.var) == ("x", "y")


def test_factorize_certificate_is_elementary_homotopy():
    fac = factorize(K_TOWER)
    report = verify_certificate(fac.certificate, probes=60)
    assert report.valid


def test_factorize_all_corpus_endomorphism_homs():
    rng = random.Random(1)
    checked = 0
    for label in ("sq0_z2", "z2_unital", "graded_dual"):
        r = RINGS[label]
        for hom in enumerate_homs(r, r):
            fac = factorize(hom)
            assert fac.verify(probes=20, rng=rng)["ok"], (label, hom.images)
            checked += 1
    assert checked >= 6


def _path_factorization():
    """factorize(id) on the path ring E(Z/3; t): an infinite source and
    target, so verify runs on probes."""
    b = PathRing(RINGS["z3_unital"], "t")
    return b, factorize(identity_hom(b))


def test_factorize_over_a_path_ring_verifies_on_probes():
    _, fac = _path_factorization()
    result = fac.verify(probes=20)
    assert result["ok"], result
    assert result["certificate"].mode == "probes"


def test_factorize_picks_fresh_names_on_a_ring_that_uses_x():
    b = PathRing(RINGS["z3_unital"], "x")
    fac = factorize(identity_hom(b))
    assert (fac.var, fac.certificate.var) == ("x1", "y")
    result = fac.verify(probes=20)
    assert result["ok"], result
    assert result["certificate"].mode == "probes"


def test_factorize_section_is_canonical_over_a_polynomial_target():
    # the target's variable "a" sorts before the adjoined "x", so b -> bx
    # must re-sort the terms of b to stay a canonical polynomial
    r = RINGS["z3_unital"]
    b = PolyRing(r, ("a",))
    fac = factorize(zero_hom(r, b))
    x = fac.right.monomial(r.unit, (("x", 1),))
    for q in (b.add(b.const((1,)), b.monomial((2,), (("a", 1),))),
              b.monomial((1,), (("a", 2),)), b.zero()):
        w = fac.section.apply(q)
        assert w == (r.zero(), fac.right.mul(q, x))
        assert list(w[1].terms) == sorted(w[1].terms)
        assert fac.middle.contains(w) and fac.p.apply(w) == q
    assert fac.verify(probes=10)["ok"]


def _tamper_p(b, fac):
    fac.p = FuncHom(fac.middle, b, lambda pair: b.zero(), label="0")


def _tamper_i(b, fac):
    i = fac.i
    fac.i = FuncHom(b, fac.middle, lambda a: (b.zero(), i.apply(a)[1]),
                    label="a->(0,u(a))")


def _tamper_section_constant(b, fac):
    fac.section = FuncHom(b, fac.middle, lambda x: (b.zero(), x),
                          label="b->(0,b)")


def _tamper_section_doubled(b, fac):
    section = fac.section
    fac.section = FuncHom(b, fac.middle,
                          lambda x: section.apply(b.scalar(2, x)),
                          label="b->(0,2bx)")


def _tamper_certificate(b, fac):
    cert = fac.certificate
    fac.certificate = HomotopyCertificate(cert.hom, cert.f1, cert.f0,
                                          cert.var)


@pytest.mark.parametrize("tamper, failures", [
    (_tamper_p, {"p o i != u", "p(0, bx) != b"}),
    (_tamper_i, {"pr1 o i != id"}),
    (_tamper_section_constant, {"witness not in A'"}),
    (_tamper_section_doubled, {"p(0, bx) != b"}),
    (_tamper_certificate, {"splitting homotopy"}),
], ids=["p", "i", "section-constant", "section-doubled", "certificate"])
def test_factorize_probe_mode_reports_each_failure(tamper, failures):
    b, fac = _path_factorization()
    tamper(b, fac)
    result = fac.verify(probes=5)
    assert not result["ok"]
    assert {f[0] for f in result["failures"]} == failures
    assert result["certificate"].valid == ("splitting homotopy"
                                           not in failures)


# ---------------------------------------------------------------------------
# mapping path rings


def test_mapping_path_membership_probe():
    # (b, g(b) x) always lies in P(g)
    g = H_TOWER
    mp = mapping_path(g)
    for b in g.source.elements():
        gb = g.apply(b)
        p = Poly((((("x1", 1),), gb),)) if gb != g.target.zero() else Poly()
        assert mp.ring.contains((b, p))


def test_mapping_path_identity_collapses_to_paths():
    # g = id: (p(1), p) <-> p identifies P(id) with EC
    c = RINGS["two_z8"]
    mp = mapping_path(identity_hom(c))
    rng = random.Random(2)
    ec = PathRing(c, "x1")
    for _ in range(50):
        b, p = mp.ring.sample(rng)
        assert ec.contains(p)
        assert eval_endpoint(c, p, "x1", 1) == b


def test_mapping_path_zero_map_splits():
    # g = 0: P(g) = B x Omega C
    b, c = RINGS["sq0_z2"], RINGS["sq0_z3"]
    mp = mapping_path(zero_hom(b, c))
    rng = random.Random(3)
    loops = LoopRing(c, "x1")
    for _ in range(50):
        x, p = mp.ring.sample(rng)
        assert b.contains(x) and loops.contains(p)
    assert mp.ring.contains((b.zero(), loops.sample(rng)))


def test_mapping_path_structure_maps():
    rng = random.Random(4)
    mp = mapping_path(K_TOWER)
    for _ in range(50):
        c_loop = mp.loops.sample(rng)
        v = mp.j.apply(c_loop)
        assert mp.ring.contains(v)
        assert mp.g1.apply(v) == K_TOWER.source.zero()


# ---------------------------------------------------------------------------
# Puppe sequences


def test_puppe_verifies_on_tower():
    seq = puppe(H_TOWER, 3)
    result = seq.verify(probes=15)
    assert result["ok"], result["failures"][:3]
    assert [mp.var for mp in seq.stages] == ["x1", "x2", "x3"]


def test_puppe_identity_stages_contract():
    # g = id: the null homotopies and kernel composites still verify
    seq = puppe(identity_hom(RINGS["sq0_z2"]), 2)
    assert seq.verify(probes=15)["ok"]


def test_puppe_verify_reports_each_failure():
    """A stage whose j leaves P(g) and survives g1, and whose null
    homotopy has swapped ends, fails all three checks of verify."""
    seq = puppe(identity_hom(RINGS["sq0_z2"]), 1)
    (mp,) = seq.stages
    b = RINGS["sq0_z2"].gen(0)
    mp.j = FuncHom(mp.loops, mp.ring, lambda c: (b, c), label="bad j")
    cert = mp.null_homotopy()
    mp.null_homotopy = lambda: HomotopyCertificate(
        cert.hom, cert.f1, cert.f0, cert.var)
    result = seq.verify(probes=3)
    assert not result["ok"]
    assert [f[:2] for f in result["failures"]] == \
        [(0, "j image escapes P(g)"), (0, "g1 o j != 0")] * 3 \
        + [(0, "null homotopy")]


def test_puppe_depth_cap():
    with pytest.raises(DepthExceeded):
        puppe(H_TOWER, 9, depth_cap=8)


def test_truncated_path_ring_reduction():
    # E(C)/((x^2-x)^m) is finite with both endpoint evaluations factoring
    c = RINGS["sq0_z2"]
    ring, eval1, include = truncated_path_ring(c, 2)
    assert ring.size() == c.size() ** 3        # exponents 1, 2, 3
    x1 = include(0, 1)
    assert eval1.apply(x1) == c.gen(0)
    # (x^2-x)^2 = x^4 - 2x^3 + x^2 reduces to zero: x^4 = 2x^3 - x^2
    assert include(0, 4) == ring.add(ring.scalar(2, include(0, 3)),
                                     ring.neg(include(0, 2)))


def test_truncated_puppe_kernel_exactness_tower():
    tp = TruncatedPuppe(H_TOWER, 3, m=2)
    result = tp.verify_kernel_exactness()
    assert result["ok"], result


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["sq0_z2", "tower2"])
def test_truncated_reduction_matches_long_division(name, m):
    # every exponent a product of two generators reaches, e <= 4m - 2
    c = RINGS[name]
    ring, _, include = truncated_path_ring(c, m)
    for e in range(1, 4 * m - 1):
        rem = idempotent_power_remainder(e, m)
        assert rem[0] == 0
        for i in range(c.ngens):
            expected = ring.zero()
            for b in range(1, 2 * m):
                expected = ring.add(expected,
                                    ring.scalar(rem[b], include(i, b)))
            assert include(i, e) == expected, (e, i)


@pytest.mark.parametrize("i,e", [(5, 1), (0, 0), (-1, 1)])
def test_truncated_include_rejects_out_of_range(i, e):
    _, _, include = truncated_path_ring(RINGS["sq0_z2"], 2)
    with pytest.raises(IndexOutOfRange):
        include(i, e)


def _tampered_j(tp, idx, images):
    stage, rho, _, loops = tp.stages[idx]
    tp.stages[idx] = (stage, rho, RingHom(loops, stage, images, label="j"),
                      loops)


def test_kernel_exactness_reports_image_outside_kernel():
    tp = TruncatedPuppe(H_TOWER, 2, m=2)
    stage, rho, j, _ = tp.stages[1]
    outside = next(x for x in (stage.gen(i) for i in range(stage.ngens))
                   if not rho.target.is_zero(rho.apply(x)))
    _tampered_j(tp, 1, [outside, outside] + list(j.images[2:]))
    assert tp.verify_kernel_exactness() == {"ok": False, "failures": [
        (1, "rho o j != 0", 0), (1, "rho o j != 0", 1), (1, 32, 64)]}


def test_kernel_exactness_reports_order_mismatch_only():
    tp = TruncatedPuppe(H_TOWER, 2, m=2)
    stage, _, j, _ = tp.stages[0]
    _tampered_j(tp, 0, [stage.zero()] + list(j.images[1:]))
    assert tp.verify_kernel_exactness() == {"ok": False,
                                            "failures": [(0, 8, 16)]}


def _count_calls(monkeypatch, module, name):
    """Record each call of module.name, wherever a hotring module binds it."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "hotring" \
                and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_truncated_puppe_builds_each_ring_once(monkeypatch):
    """One truncated path ring per stage; kernel exactness builds no ring;
    pointed-set exactness enumerates the homs into each ring once."""
    paths = _count_calls(monkeypatch, triangle_module, "truncated_path_ring")
    tp = TruncatedPuppe(H_TOWER, 3, m=2)
    assert len(paths) == 3
    kernels = _count_calls(monkeypatch, rings_module, "kernel_subring")
    validated = _count_calls(monkeypatch, rings_module, "validate_ring")
    assert tp.verify_kernel_exactness()["ok"]
    assert (len(kernels), len(validated)) == (0, 0)
    enumerated = _count_calls(monkeypatch, rings_module, "enumerate_homs")
    exact = TruncatedPuppe(H_TOWER, 2, m=2).pointed_set_exactness(
        RINGS["sq0_z2"])
    assert exact["ok"]
    assert len(enumerated) == 4


# ---------------------------------------------------------------------------
# fibration family axioms


def _tower_family():
    rings = {"tower3": RINGS["tower3"], "tower2": RINGS["tower2"],
             "sq0_z2": RINGS["sq0_z2"], "0": zero_ring()}
    homs = {"h": H_TOWER, "k": K_TOWER,
            "kh": compose(K_TOWER, H_TOWER, label="kh")}
    for label, ring in list(rings.items()):
        if label != "0":
            homs[f"{label}->0"] = zero_hom(ring, rings["0"])
    return rings, homs


def test_axioms_all_surjective_family_passes():
    rings, homs = _tower_family()
    fam = FibrationFamily(rings, homs, all_surjective=True)
    report = check_axioms(fam, probes=10)
    assert report["ok"], report


def test_axioms_missing_terminal_map_flagged():
    rings, homs = _tower_family()
    fam = FibrationFamily(rings, homs,
                          fibration_names=["h", "k", "kh", "tower3->0",
                                           "tower2->0"])
    report = check_axioms(fam, probes=5)
    assert not report["Ax1"]["ok"]
    assert any("sq0_z2" in v for v in report["Ax1"]["violations"])


@pytest.mark.parametrize("extra, marked, violation", [
    ({}, [], "k o h not marked"),
    ({"id2": identity_hom(RINGS["tower2"])}, ["kh"],
     "isomorphism id2 not marked"),
], ids=["composite", "isomorphism"])
def test_axioms_unmarked_map_flagged(extra, marked, violation):
    rings, homs = _tower_family()
    homs.update(extra)
    fam = FibrationFamily(rings, homs,
                          fibration_names=["h", "k", "tower3->0", "tower2->0",
                                           "sq0_z2->0"] + marked)
    report = check_axioms(fam, probes=5)
    assert report["Ax2"] == {"ok": False, "violations": [violation]}
    assert not report["ok"]


def test_family_over_an_infinite_ring_is_a_typed_error():
    # surjectivity is decided between finite rings only; a family over
    # E(Z/3) names the offending hom instead of dying with a traceback
    b = PathRing(RINGS["z3_unital"], "x")
    with pytest.raises(HotringError, match="id_E"):
        FibrationFamily({"E": b}, {"id": identity_hom(b)},
                        all_surjective=True)


def test_marking_non_surjective_map_rejected_at_ingestion():
    rings, homs = _tower_family()
    homs["bad"] = zero_hom(RINGS["sq0_z2"], RINGS["tower2"])
    with pytest.raises(NotSurjective):
        FibrationFamily(rings, homs, fibration_names=["bad"])


# ---------------------------------------------------------------------------
# triangles and rotation


def test_standard_triangle_consecutive_kernel_composites():
    rng = random.Random(5)
    tri, mp = standard_triangle(K_TOWER)
    for _ in range(1000):
        loop = mp.loops.sample(rng)
        assert mp.g1.apply(mp.j.apply(loop)) == K_TOWER.source.zero()
    null = mp.null_homotopy()
    assert verify_certificate(null, probes=30).valid


def test_rotation_shifts_objects():
    tri, _ = standard_triangle(K_TOWER)
    rot = rotate(tri)
    assert rot.objects[1:] == tri.objects[:3]
    assert rot.provenance[0] == "rotated"


def test_rotation_witness_endpoints():
    # y = 0 recovers kappa, y = 1 recovers nu o Omega g o sigma; the
    # homotopy itself is a verified certificate between them
    cert, mp, mp1 = rotation_witness(K_TOWER)
    report = verify_certificate(cert, probes=60)
    assert report.valid, report.failure
    assert (mp.var, mp1.var, cert.var) == ("x1", "x2", "y")


def test_rotation_witness_on_unital_ring():
    g = zero_hom(RINGS["z2_unital"], RINGS["z2_unital"])
    cert, _, _ = rotation_witness(g)
    assert verify_certificate(cert, probes=40).valid


def test_double_rotation_sign_bookkeeping():
    # -Omega(-Omega g) equals Omega^2 g conjugated by both involutions,
    # exactly on elements; with sigma^2 = id this is the rotation sign rule
    rng = random.Random(6)
    g = K_TOWER
    b_ring, c_ring = g.source, g.target
    lb1 = LoopRing(b_ring, "u")
    lc1 = LoopRing(c_ring, "u")
    lb2 = LoopRing(lb1, "v")
    lc2 = LoopRing(lc1, "v")
    m1 = minus_omega_hom(g, lb1, lc1)
    m2 = minus_omega_hom(m1, lb2, lc2)
    o2 = omega_hom(omega_hom(g, lb1, lc1), lb2, lc2)
    from hotring import one_minus, substitute
    for _ in range(60):
        p = lb2.sample(rng)
        direct = m2.apply(p)
        swapped = substitute(lc2.scalar_base, o2.apply(p),
                             {"u": one_minus("u"), "v": one_minus("v")})
        assert direct == swapped


# ---------------------------------------------------------------------------
# octahedron


def test_octahedron_tower_passes():
    report = octahedron(H_TOWER, K_TOWER, probes=40)
    assert report.ok, report.data["failures"][:3]
    assert report.data["orders"]["A"] == 2     # ker(tower3 -> tower2)
    assert report.data["orders"]["F"] == 4     # ker(tower3 -> sq0_z2)
    assert report.data["orders"]["E"] == 2     # ker(tower2 -> sq0_z2)


def test_octahedron_degenerate_k_identity():
    report = octahedron(H_TOWER, identity_hom(RINGS["tower2"]), probes=20)
    assert report.ok
    assert report.data["orders"]["E"] == 1


def test_octahedron_degenerate_h_identity():
    report = octahedron(identity_hom(RINGS["tower2"]), K_TOWER, probes=20)
    assert report.ok
    assert report.data["orders"]["A"] == 1


def test_octahedron_requires_surjections():
    with pytest.raises(NotSurjective, match="h is not surjective"):
        octahedron(zero_hom(RINGS["sq0_z2"], RINGS["tower2"]), K_TOWER)
    with pytest.raises(NotSurjective, match="k is not surjective"):
        octahedron(H_TOWER, zero_hom(RINGS["tower2"], RINGS["sq0_z2"]))


def test_octahedron_requires_composable_maps():
    with pytest.raises(HotringError, match="k must start where h ends"):
        octahedron(H_TOWER, H_TOWER)


# ---------------------------------------------------------------------------
# K_0 presentations


def test_k0_free_when_no_relations():
    d = K0Diagram(["A", "B", "C"])
    res = k0_presentation(d)
    assert res.rank == 3 and res.torsion == []


def test_k0_loop_relation():
    d = K0Diagram(["A", "OA", "0"],
                  fib_seq=[("OA", "0", "A"), ("0", "0", "0")])
    res = k0_presentation(d)
    assert res.rank == 1 and res.torsion == []
    assert res.classes["0"] == (0,)
    (a,) = res.classes["A"]
    (oa,) = res.classes["OA"]
    assert oa == -a and a != 0


def test_k0_shuffle_invariance():
    rng = random.Random(7)
    base = K0Diagram(["A", "B", "C", "D", "F"],
                     weq=[("A", "B")],
                     fib_seq=[("F", "A", "C"), ("F", "B", "D")])
    expect = k0_presentation(base)
    for _ in range(10):
        weq = list(base.weq)
        fib = list(base.fib_seq)
        rng.shuffle(weq)
        rng.shuffle(fib)
        weq = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in weq]
        res = k0_presentation(K0Diagram(base.objects, weq=weq, fib_seq=fib))
        assert res.rank == expect.rank and res.torsion == expect.torsion


def test_k0_milnor_square_against_minor_gcd_oracle():
    d = K0Diagram(["A", "B", "C", "D", "F"],
                  fib_seq=[("F", "A", "C"), ("F", "B", "D")])
    res = k0_presentation(d)
    rows = d.relation_rows()
    oracle = [s for s in minors_gcd_invariants(rows) if s not in (0, 1)]
    assert res.torsion == oracle
    rank_oracle = len(d.objects) - len(
        [s for s in minors_gcd_invariants(rows) if s != 0])
    assert res.rank == rank_oracle
    assert res.rank == 3


def test_k0_unknown_object_rejected():
    with pytest.raises(HotringError, match="unknown object 'B'"):
        K0Diagram(["A"], weq=[("A", "B")])
    with pytest.raises(HotringError, match="fibre sequence"):
        K0Diagram(["A"], fib_seq=[("A", "A", "C")])


# ---------------------------------------------------------------------------
# GL-fibration flag


def test_gl_fibration_flag_cases():
    assert gl_fibration_flag(H_TOWER)["flag"] == "Verified"
    assert gl_fibration_flag(
        zero_hom(RINGS["sq0_z2"], RINGS["tower2"]))["flag"] == "Counterexample"
    unital = RingHom(RINGS["z2_unital"], RINGS["z2_unital"], [(1,)])
    unital.validate()
    assert gl_fibration_flag(unital)["flag"] == "Unknown"


# ---------------------------------------------------------------------------
# fresh variables: each construction runs on a ring that uses its names


def _verifies(cert, rng):
    report = verify_certificate(cert, probes=10, rng=rng)
    assert report.valid and report.mode == "probes", report


def _factorize(b, rng):
    result = factorize(identity_hom(b)).verify(probes=10, rng=rng)
    assert result["ok"] and result["certificate"].mode == "probes", result


def _puppe(b, rng):
    result = puppe(identity_hom(b), 2).verify(probes=5, rng=rng)
    assert result["ok"], result["failures"][:3]


def _standard_triangle(b, rng):
    tri, mp = standard_triangle(identity_hom(b))
    j, g1, _ = tri.maps
    for _ in range(10):
        v = j.apply(mp.loops.sample(rng))
        assert mp.ring.contains(v) and g1.apply(v) == b.zero()


def _swap(b, rng):
    # t = 0 gives the swap, t = 1 the identity, and the map is additive
    om2 = double_loop_ring(b, fresh_var("x", b), fresh_var("y", b))
    h, tau = swap_homotopy(om2), tau_hom(om2)
    (t,) = set(h.target.vars) - set(om2.vars)
    sb = om2.scalar_base
    for _ in range(10):
        f, g = om2.sample(rng), om2.sample(rng)
        hf = h.apply(f)
        assert evaluate(sb, hf, t, 0) == tau.apply(f)
        assert evaluate(sb, hf, t, 1) == f
        assert h.apply(om2.add(f, g)) == h.target.add(hf, h.apply(g))


CONSTRUCTIONS = {
    "factorize": _factorize,
    "puppe": _puppe,
    "standard_triangle": _standard_triangle,
    "rotation_witness": lambda b, rng: _verifies(
        rotation_witness(identity_hom(b))[0], rng),
    "null_homotopy": lambda b, rng: _verifies(
        mapping_path(identity_hom(b)).null_homotopy(), rng),
    "path_contraction": lambda b, rng: _verifies(
        path_contraction_certificate(b), rng),
    "constant": lambda b, rng: _verifies(
        constant_certificate(identity_hom(b)), rng),
    "swap_homotopy": _swap,
}


@pytest.mark.parametrize("v", ["x", "x1", "x2", "y", "s", "t"])
@pytest.mark.parametrize("construction", list(CONSTRUCTIONS))
def test_construction_adjoins_fresh_variables(construction, v):
    """On E(Z/3; v) every construction adjoins names the ring does not
    use, even where its names on a finite ring (x, y, x1, x2, s, t) are v."""
    CONSTRUCTIONS[construction](PathRing(RINGS["z3_unital"], v),
                                random.Random(0))
