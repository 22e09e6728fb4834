"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time

from hotring import (LoopRing, PathRing, corpus, determinant_certificate,
                     double_loop_ring, enumerate_homs, evaluate, factorize,
                     homotopy_classes, identity_hom,
                     k0_presentation, kv1_approx, octahedron,
                     path_contraction_certificate, puppe, search_elementary,
                     sigma_hom, swap_homotopy, tau_hom, tower_homs,
                     verify_certificate, zero_hom, HomotopyCertificate,
                     K0Diagram, TruncatedPuppe,
                     check_contraction_compatibility,
                     check_simplicial_identities)

RINGS = corpus()
H_TOWER, K_TOWER = tower_homs(RINGS)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {name}"
          f"{' (' + detail + ')' if detail else ''}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_simplicial_identities():
    rng = random.Random(101)
    start = time.time()
    total_checks = 0
    bad = []
    for label, ring in sorted(RINGS.items()):
        checks, failures = check_simplicial_identities(ring, 4, 1000, rng)
        total_checks += checks
        bad.extend((label, f) for f in failures)
    elapsed = time.time() - start
    ok = not bad and elapsed < 60.0
    _report(1, "simplicial identities, five families, n <= 4, all rings",
            ok, f"{total_checks} checks in {elapsed:.1f}s")


def test_criterion_02_contraction_witness_compatibility():
    rng = random.Random(102)
    bad = []
    checks = 0
    for label, ring in sorted(RINGS.items()):
        c, failures = check_contraction_compatibility(ring, "x", 3, 4, rng)
        checks += c
        bad.extend((label, f[0], f[1]) for f in failures)
    _report(2, "polynomial-extension contraction vs faces/degeneracies, "
               "n <= 3, all rings", not bad, f"{checks} checks")


def test_criterion_03_contractibility():
    rng = random.Random(103)
    bad = []
    for label, ring in sorted(RINGS.items()):
        cert = path_contraction_certificate(PathRing(ring, "x"))
        report = verify_certificate(cert, probes=50, rng=rng)
        if not report.valid:
            bad.append((label, report.failure))
    r = RINGS["sq0_z2"]
    found = search_elementary(identity_hom(r), zero_hom(r, r), 1)
    independent = isinstance(found, HomotopyCertificate) \
        and verify_certificate(found).valid
    _report(3, "path-ring contraction certificate + degree-1 search hit",
            not bad and independent)


def test_criterion_04_kv1_values():
    start = time.time()
    results = {}
    for label in ("sq0_z2", "sq0_z3"):
        results[label] = kv1_approx(RINGS[label], 2, 1).order
    results["z2_unital"] = kv1_approx(RINGS["z2_unital"], 2, 1).order
    f3 = kv1_approx(RINGS["z3_unital"], 2, 1)
    results["z3_unital"] = f3.order
    cert = determinant_certificate(f3)
    monotone = all(
        kv1_approx(RINGS[label], 2, 1).order
        >= kv1_approx(RINGS[label], 2, 2).order
        for label in ("sq0_z2", "sq0_z3"))
    elapsed = time.time() - start
    ok = (results["sq0_z2"] == 1 and results["sq0_z3"] == 1
          and results["z2_unital"] == 1 and results["z3_unital"] == 2
          and f3.invariant_factors == [2]
          and cert["subgroup_in_kernel"]
          and cert["determinant_image_order"] == 2
          and monotone and elapsed < 300.0)
    _report(4, "KV1 at (n=2, d=1): square-zero and F2 trivial, F3 of order "
               "exactly 2 with determinant certificate; monotone in d",
            ok, f"{results}, {elapsed:.1f}s")


def test_criterion_05_factorization_contract():
    rng = random.Random(105)
    labels = sorted(RINGS)
    homs = []
    for src_label in labels:
        for tgt_label in labels:
            if len(homs) >= 200:
                break
            homs.extend(enumerate_homs(RINGS[src_label], RINGS[tgt_label],
                                       budget=200_000))
        if len(homs) >= 200:
            break
    homs = homs[:200]
    bad = 0
    for u in homs:
        fac = factorize(u)
        result = fac.verify(probes=8, rng=rng)
        if not result["ok"]:
            bad += 1
    _report(5, "factorization contract on corpus homs", bad == 0,
            f"{len(homs)} homs, {bad} failures")


def test_criterion_06_puppe_exactness():
    rng = random.Random(106)
    seq = puppe(H_TOWER, 3)
    virtual_ok = seq.verify(probes=12, rng=rng)["ok"]

    trunc = TruncatedPuppe(H_TOWER, 3, m=2)
    kernel_ok = trunc.verify_kernel_exactness()["ok"]

    # exhaustive composite vanishing on the first truncated stage
    stage, rho, j, loops = trunc.stages[0]
    g_of_rho = all(
        H_TOWER.apply(rho.apply(j.apply(x))) == H_TOWER.target.zero()
        for x in loops.elements())
    j_kernel = all(rho.apply(j.apply(x)) == rho.target.zero()
                   for x in loops.elements())

    exact = TruncatedPuppe(H_TOWER, 2, m=2).pointed_set_exactness(
        RINGS["sq0_z2"], degree=1)
    _report(6, "Puppe tower: composites vanish, kernel exactness, "
               "pointed-set exactness at m=2",
            virtual_ok and kernel_ok and g_of_rho and j_kernel
            and exact["ok"],
            f"spots {[s['spot'] for s in exact['spots']]}")


def test_criterion_07_octahedron():
    rng = random.Random(107)
    report = octahedron(H_TOWER, K_TOWER, probes=100, rng=rng)
    _report(7, "octahedron psi identities on the corpus tower", report.ok,
            str(report.data["orders"]))


def test_criterion_08_sigma_tau_algebra():
    rng = random.Random(108)
    bad = []
    for label, ring in sorted(RINGS.items()):
        loop = LoopRing(ring, "x")
        sig = sigma_hom(loop)
        loop2 = double_loop_ring(ring, "x", "y")
        tau = tau_hom(loop2)
        h = swap_homotopy(loop2)
        sb = loop2.scalar_base
        for _ in range(1000):
            p = loop.sample(rng)
            if sig.apply(sig.apply(p)) != p:
                bad.append((label, "sigma^2", p))
                break
        for _ in range(1000):
            q = loop2.sample(rng)
            if tau.apply(tau.apply(q)) != q:
                bad.append((label, "tau^2", q))
                break
        for _ in range(60):
            q = loop2.sample(rng)
            hq = h.apply(q)
            if evaluate(sb, hq, "t", 1) != q:
                bad.append((label, "swap endpoint 1", q))
                break
            if evaluate(sb, hq, "t", 0) != tau.apply(q):
                bad.append((label, "swap endpoint 0", q))
                break
    _report(8, "sigma^2 = id, tau^2 = id on 1000 probes; swap homotopy "
               "endpoints reproduce tau and id exactly", not bad,
            str(bad[:2]) if bad else "")


def test_criterion_09_k0_loop_relation():
    rng = random.Random(109)
    base = K0Diagram(["A", "OA", "0"],
                     fib_seq=[("OA", "0", "A"), ("0", "0", "0")])
    res = k0_presentation(base)
    (a,) = res.classes["A"]
    (oa,) = res.classes["OA"]
    ok = res.rank == 1 and res.torsion == [] and oa == -a and a != 0
    for _ in range(10):
        fib = list(base.fib_seq)
        rng.shuffle(fib)
        shuffled = k0_presentation(K0Diagram(base.objects, fib_seq=fib))
        ok = ok and shuffled.rank == res.rank \
            and shuffled.torsion == res.torsion
    _report(9, "K0 loop relation gives rank 1 with [Omega A] = -[A]; "
               "SNF stable under 10 shuffles", ok)


def test_criterion_10_class_soundness():
    checked = 0
    stable = True
    for degree in (1, 2, 3):
        result = homotopy_classes(
            enumerate_homs(RINGS["z2_unital"], RINGS["z2_unital"]), degree)
        stable = stable and len(result.classes()) == 2
    for label_pair in (("sq0_z2", "sq0_z2"), ("two_z8", "two_z8"),
                       ("graded_dual", "graded_dual"),
                       ("sq0_z2", "two_z8")):
        homs = enumerate_homs(RINGS[label_pair[0]], RINGS[label_pair[1]])
        result = homotopy_classes(homs, 2)
        for (i, j), cert in result.edges.items():
            assert verify_certificate(cert).valid
            chain = result.chain_between(i, j)
            if chain is None or not chain.validate():
                stable = False
            checked += 1
    _report(10, "every class merge re-verifies from its stored chain; "
                "unital Z/2 stays at two classes for d = 1..3", stable,
            f"{checked} merges re-verified")
