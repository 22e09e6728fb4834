import itertools
import random

import pytest
from hypothesis import event, example, given, settings, strategies as st

from hotring import (BudgetExceeded, FuncHom, HomotopyCertificate,
                     HomotopyChain, HotringError, NotFoundAtBound, PairRing, PathRing,
                     RingHom, corpus,
                     enumerate_homs, flip_certificate, graded_certificate,
                     homotopy_classes,
                     identity_hom, path_contraction_certificate,
                     postcompose_certificate, precompose_certificate,
                     search_elementary, search_homotopy_equivalence,
                     search_up_to, verify_certificate, zero_hom, zero_ring,
                     GRADING)
from hotring.homotopy import carrier_ring, constant_certificate, eval_endpoint
from hotring.poly import Poly, iconst, imul, ivar, substitution_hom

from oracles import (carrier_first_nonmultiplicative, enumerate_homs_oracle,
                     enumerate_homs_reference, homotopy_classes_reference,
                     search_elementary_oracle, search_elementary_reference,
                     verify_certificate_exact_reference)

RINGS = corpus()


def test_equal_maps_have_constant_certificate():
    r = RINGS["two_z8"]
    f = identity_hom(r)
    cert = search_elementary(f, f, 0)
    assert isinstance(cert, HomotopyCertificate)
    assert verify_certificate(cert).valid


def test_square_zero_identity_homotopic_to_zero_at_degree_one():
    r = RINGS["sq0_z2"]
    cert = search_elementary(identity_hom(r), zero_hom(r, r), 1)
    assert isinstance(cert, HomotopyCertificate)
    report = verify_certificate(cert)
    assert report.valid and report.mode == "exact" and cert.var == "x"
    # the found certificate is g -> g x with endpoints (id, 0) flipped in
    # the search orientation: endpoints are pinned by construction
    assert cert.endpoint(0).images == identity_hom(r).images
    assert cert.endpoint(1).images == zero_hom(r, r).images


def idempotent_polynomials_f2(max_degree):
    """Independent oracle: idempotents of F2[x] of degree <= max_degree."""
    out = []
    for coeffs in itertools.product((0, 1), repeat=max_degree + 1):
        # p^2 = p over F2: p(x)^2 = p(x^2)
        square = [0] * (2 * max_degree + 1)
        for i, c in enumerate(coeffs):
            if c:
                square[2 * i] ^= 1
        padded = list(coeffs) + [0] * (len(square) - len(coeffs))
        if square == padded:
            out.append(coeffs)
    return out


def test_unital_z2_identity_not_homotopic_to_zero():
    # side argument: an elementary homotopy image of the idempotent
    # generator must be an idempotent of F2[x] interpolating 1 and 0, but
    # the only idempotents are the constants 0 and 1
    idems = idempotent_polynomials_f2(3)
    assert sorted(set(idems)) == [(0, 0, 0, 0), (1, 0, 0, 0)]
    r = RINGS["z2_unital"]
    for d in range(4):
        outcome = search_elementary(identity_hom(r), zero_hom(r, r), d)
        assert isinstance(outcome, NotFoundAtBound)
        assert outcome.degree == d


def test_search_budget():
    r = RINGS["tower3"]
    with pytest.raises(BudgetExceeded):
        search_elementary(identity_hom(r), zero_hom(r, r), 3, budget=10)


def test_path_contraction_certificate_all_corpus():
    rng = random.Random(0)
    for label, r in RINGS.items():
        cert = path_contraction_certificate(PathRing(r, "x"))
        report = verify_certificate(cert, probes=40, rng=rng)
        assert report.valid, (label, report.failure)


def test_graded_certificate_is_valid():
    r = RINGS["graded_dual"]
    cert = graded_certificate(r, GRADING["graded_dual"])
    report = verify_certificate(cert)
    assert report.valid and report.mode == "exact"
    # endpoints: projection to degree 0, and the identity
    assert cert.f0.images == ((1, 0), (0, 0))
    assert cert.f1.images == identity_hom(r).images


def test_corrupted_certificate_rejected_with_location():
    r = RINGS["graded_dual"]
    cert = graded_certificate(r, GRADING["graded_dual"])
    carrier = carrier_ring(r, cert.var)
    bad_images = list(cert.hom.images)
    bad_images[1] = carrier.add(bad_images[1], carrier.const(r.gen(0)))
    bad = HomotopyCertificate(
        RingHom(r, carrier, bad_images), cert.f0, cert.f1, cert.var)
    report = verify_certificate(bad)
    assert not report.valid
    assert report.failure is not None


def test_classes_square_zero_single_class():
    r = RINGS["sq0_z2"]
    result = homotopy_classes(enumerate_homs(r, r), 1)
    assert len(result.classes()) == 1


def test_classes_to_zero_ring():
    z = zero_ring()
    result = homotopy_classes(enumerate_homs(RINGS["two_z8"], z), 1)
    assert len(result.classes()) == 1


def test_classes_unital_z2_two_classes_stable():
    r = RINGS["z2_unital"]
    homs = enumerate_homs(r, r)
    for d in (1, 2, 3):
        result = homotopy_classes(homs, d)
        assert len(result.classes()) == 2


def test_classes_monotone_in_degree():
    for label in ("sq0_z3", "two_z8", "graded_dual"):
        r = RINGS[label]
        homs = enumerate_homs(r, r)
        counts = [len(homotopy_classes(homs, d).classes()) for d in (0, 1, 2)]
        assert counts[0] >= counts[1] >= counts[2]
        # refinement: same-class at lower degree stays same-class higher up
        low = homotopy_classes(homs, 1)
        high = homotopy_classes(homs, 2)
        for i in range(len(homs)):
            for j in range(len(homs)):
                if low.same_class(i, j):
                    assert high.same_class(i, j)


def test_every_merge_reverifies_from_stored_chain():
    r = RINGS["two_z8"]
    result = homotopy_classes(enumerate_homs(r, r), 2)
    for (i, j), cert in result.edges.items():
        assert verify_certificate(cert).valid
        chain = result.chain_between(i, j)
        assert chain is not None and chain.validate()


def test_chain_between_two_hops_and_across_classes():
    """On Z/3 with zero product the three endomorphisms x -> ax form one
    class, merged through hom 0 (edges (0, 1) and (0, 2)).  So the chain
    from 1 to 2 goes 1 -> 0 -> 2: its first step is edge (0, 1) flipped.
    Homs in different classes have no chain."""
    r = RINGS["sq0_z3"]
    result = homotopy_classes(enumerate_homs(r, r), 1)
    assert sorted(result.edges) == [(0, 1), (0, 2)]
    chain = result.chain_between(1, 2)
    assert len(chain) == 2 and chain.validate()
    first, second = chain.certs
    assert (first.f0.images, first.f1.images) == \
        (result.homs[1].images, result.homs[0].images)
    assert second is result.edges[(0, 2)]
    u = RINGS["z2_unital"]
    split = homotopy_classes(enumerate_homs(u, u), 1)
    assert len(split.classes()) == 2
    assert split.chain_between(0, 1) is None


def test_chain_validate_rejects_a_broken_link_or_certificate():
    """A chain fails when a certificate does not start where the last one
    ended, and when a certificate with the right start fails to verify."""
    r = RINGS["sq0_z3"]
    result = homotopy_classes(enumerate_homs(r, r), 1)
    chain = result.chain_between(1, 2)
    assert chain.validate()
    assert not HomotopyChain(result.homs[2], chain.certs).validate()
    first, second = chain.certs
    wrong_end = HomotopyCertificate(second.hom, second.f0, result.homs[1],
                                    second.var)
    assert not verify_certificate(wrong_end).valid
    assert not HomotopyChain(chain.start, [first, wrong_end]).validate()


def test_chain_between_distant_members():
    r = RINGS["sq0_z3"]
    result = homotopy_classes(enumerate_homs(r, r), 1)
    cls = result.classes()[0]
    if len(cls) >= 2:
        chain = result.chain_between(cls[0], cls[-1])
        assert chain.validate()


def test_flip_certificate_swaps_endpoints():
    r = RINGS["sq0_z2"]
    cert = search_elementary(identity_hom(r), zero_hom(r, r), 1)
    flipped = flip_certificate(cert)
    assert flipped.f0.images == cert.f1.images
    assert flipped.f1.images == cert.f0.images
    assert verify_certificate(flipped).valid


def test_composition_stability_transports():
    # from g ~ g' obtain gf ~ g'f and hg ~ hg' by construction
    rng = random.Random(1)
    s = RINGS["sq0_z2"]
    cert = search_elementary(identity_hom(s), zero_hom(s, s), 1)
    for f in enumerate_homs(RINGS["sq0_z3"], s):
        pre = precompose_certificate(cert, f)
        assert verify_certificate(pre, rng=rng).valid
    for h in enumerate_homs(s, RINGS["two_z8"]):
        post = postcompose_certificate(h, cert)
        assert verify_certificate(post, rng=rng).valid


def test_postcompose_over_a_polynomial_shaped_target():
    # h acts on the coefficients of E(Z/3)[y], which are themselves
    # polynomials in x: each y-slice goes through h whole
    rng = random.Random(2)
    paths = PathRing(RINGS["z3_unital"], "x")
    double = substitution_hom(paths, paths, {"x": imul(iconst(2), ivar("x"))})
    cert = path_contraction_certificate(paths)
    for h in (identity_hom(paths), double):
        post = postcompose_certificate(h, cert)
        report = verify_certificate(post, probes=20, rng=rng)
        assert report.valid and report.mode == "probes", report


def test_equivalence_identity():
    r = RINGS["two_z8"]
    g, c1, c2 = search_homotopy_equivalence(
        identity_hom(r), enumerate_homs(r, r), 1)
    assert g.images == identity_hom(r).images
    assert len(c1) == 0 and len(c2) == 0


def test_equivalence_graded_inclusion():
    # degree-0 part of the graded ring includes as a homotopy equivalence,
    # inverse given by the projection
    a = RINGS["graded_dual"]
    a0 = RINGS["z2_unital"]
    incl = RingHom(a0, a, [(1, 0)], label="incl")
    incl.validate()
    out = search_homotopy_equivalence(incl, enumerate_homs(a, a0), 2)
    assert not isinstance(out, NotFoundAtBound)
    g, chain_fg, chain_gf = out
    assert g.images == ((1,), (0,))          # the projection
    assert chain_fg.validate() and chain_gf.validate()


def test_equivalence_not_found_for_zero_map():
    r = RINGS["z2_unital"]
    out = search_homotopy_equivalence(zero_hom(r, r), enumerate_homs(r, r), 3)
    assert isinstance(out, NotFoundAtBound)


def test_constant_certificate_helper():
    r = RINGS["upper3_z2"]
    f = identity_hom(r)
    cert = constant_certificate(f)
    assert verify_certificate(cert).valid


def test_flip_of_a_path_contraction_verifies_on_probes():
    # the contraction p(x) -> p(xy) is a FuncHom, so endpoint and flip run
    # their FuncHom branches over a polynomial-shaped target
    rng = random.Random(5)
    paths = PathRing(RINGS["z3_unital"], "x")
    cert = path_contraction_certificate(paths)
    flipped = flip_certificate(cert)
    report = verify_certificate(flipped, probes=30, rng=rng)
    assert report.valid and report.mode == "probes"
    d0, d1 = cert.endpoint(0), cert.endpoint(1)
    assert isinstance(d0, FuncHom) and isinstance(d1, FuncHom)
    for _ in range(30):
        p = paths.sample(rng)
        assert d0.apply(p) == paths.zero()
        assert d1.apply(p) == p
        assert flipped.endpoint(0).apply(p) == p
        assert flipped.endpoint(1).apply(p) == paths.zero()


def test_constant_certificate_of_func_homs():
    rng = random.Random(6)
    paths = PathRing(RINGS["z3_unital"], "x")
    report = verify_certificate(constant_certificate(identity_hom(paths)),
                                probes=30, rng=rng)
    assert report.valid and report.mode == "probes"
    r = RINGS["two_z8"]
    for h in enumerate_homs(r, r):
        f = FuncHom(r, r, h.apply, label=h.label)
        cert = constant_certificate(f)
        report = verify_certificate(cert, probes=20, rng=rng)
        assert report.valid and report.mode == "probes"
        for a in r.elements():
            assert cert.endpoint(0).apply(a) == cert.endpoint(1).apply(a) \
                == h.apply(a)


def test_constant_certificate_into_a_pair_ring_is_a_typed_error():
    # the carrier of a pair ring is a pair of carriers, which a lifted
    # constant does not fit; refused where the hom is first seen
    pair = PairRing(RINGS["z2_unital"], RINGS["z3_unital"])
    with pytest.raises(HotringError, match=r"constant_certificate .*"
                       r"\(z2_unital x z3_unital\) is a pair ring"):
        constant_certificate(identity_hom(pair))


def test_search_up_to_prefers_lowest_degree():
    r = RINGS["sq0_z2"]
    cert = search_up_to(identity_hom(r), identity_hom(r), 2)
    # found at degree 0: images are constants
    assert all(img.degree_in("x") == 0 for img in cert.hom.images)


# ---------------------------------------------------------------------------
# the search by coefficient against the generator-level oracle


LABELS = sorted(RINGS)
CORPUS_HOMS = {(a, b): enumerate_homs(RINGS[a], RINGS[b])
               for a in LABELS for b in LABELS}


def test_enumerate_homs_order_matches_generator_level_search():
    for (a, b), homs in CORPUS_HOMS.items():
        assert [h.images for h in homs] == \
            enumerate_homs_oracle(RINGS[a], RINGS[b]), (a, b)


@st.composite
def corpus_hom_pairs(draw):
    homs = CORPUS_HOMS[draw(st.sampled_from(sorted(CORPUS_HOMS)))]
    return draw(st.sampled_from(homs)), draw(st.sampled_from(homs))


def _id_zero(label):
    r = RINGS[label]
    return identity_hom(r), zero_hom(r, r)


# a miss whose count depends on checking the coefficients above the degree
_HIGH_COEFFICIENTS = (
    RingHom(RINGS["tower2"], RINGS["upper3_z2"], [(0, 0, 0), (1, 0, 0)]),
    RingHom(RINGS["tower2"], RINGS["upper3_z2"], [(0, 0, 1), (0, 0, 0)]))


@settings(max_examples=300, deadline=None)
@given(pair=corpus_hom_pairs(), degree=st.integers(0, 4),
       budget=st.sampled_from([20, 200_000]))
@example(pair=_id_zero("z2_unital"), degree=3, budget=200_000)
@example(pair=_id_zero("two_z8"), degree=4, budget=200_000)
@example(pair=_id_zero("graded_dual"), degree=4, budget=200_000)
@example(pair=_id_zero("upper3_z2"), degree=2, budget=200_000)
@example(pair=_id_zero("tower3"), degree=3, budget=200_000)
@example(pair=_id_zero("sq0_z2"), degree=1, budget=20)
@example(pair=_HIGH_COEFFICIENTS, degree=2, budget=200_000)
def test_search_by_coefficient_matches_generator_level_oracle(pair, degree,
                                                              budget):
    """Same certificate images, same searched count, same budget verdict
    as building every option as a polynomial and checking whole pairs."""
    f0, f1 = pair
    try:
        expected = search_elementary_oracle(f0, f1, degree, budget=budget)
    except BudgetExceeded as exc:
        event("budget")
        with pytest.raises(BudgetExceeded) as got:
            search_elementary(f0, f1, degree, budget=budget)
        assert got.value.required == exc.required
        return
    event(expected[0])
    outcome = search_elementary(f0, f1, degree, budget=budget)
    if expected[0] == "miss":
        assert isinstance(outcome, NotFoundAtBound)
        assert (outcome.degree, outcome.searched) == (degree, expected[1])
    else:
        assert isinstance(outcome, HomotopyCertificate)
        assert outcome.hom.images == expected[1]


# ---------------------------------------------------------------------------
# the search on element codes against the same search on tuple arithmetic


def test_enumerate_homs_order_matches_tuple_reference():
    for (a, b), homs in CORPUS_HOMS.items():
        assert [h.images for h in homs] == \
            enumerate_homs_reference(RINGS[a], RINGS[b]), (a, b)


def _as_polys(ring, coeff_lists):
    """The carrier polynomials sum_e c_e x^e, built by carrier arithmetic."""
    carrier = carrier_ring(ring, "x")
    images = []
    for coeffs in coeff_lists:
        acc = carrier.zero()
        for e, c in enumerate(coeffs):
            acc = carrier.add(acc, carrier.monomial(c, (("x", e),)))
        images.append(acc)
    return tuple(images)


def test_coded_search_matches_tuple_reference():
    """Same certificate images (canonical as built) and same searched
    count as the search on tuple arithmetic, for every pair among up to
    five homs spread over each corpus pair, at degrees 0-2."""
    outcomes = {"hit": 0, "miss": 0}
    for (a, b), homs in CORPUS_HOMS.items():
        sample = homs[::max(1, len(homs) // 5)]
        for f0, f1 in itertools.product(sample, repeat=2):
            for d in range(3):
                kind, value = search_elementary_reference(f0, f1, d)
                outcome = search_elementary(f0, f1, d)
                outcomes[kind] += 1
                if kind == "miss":
                    assert isinstance(outcome, NotFoundAtBound), (a, b, d)
                    assert outcome.searched == value, (a, b, d)
                else:
                    assert outcome.hom.images == \
                        _as_polys(RINGS[b], value), (a, b, d)
    assert min(outcomes.values()) > 100


def test_search_needs_maps_with_one_source_and_target():
    r, s = RINGS["sq0_z2"], RINGS["z2_unital"]
    with pytest.raises(HotringError, match="share source and target"):
        search_elementary(identity_hom(r), zero_hom(r, s), 1)


# ---------------------------------------------------------------------------
# the exact check against the three-walk reference it replaced


def _report(cert):
    rep = verify_certificate(cert)
    return (rep.valid, rep.mode, rep.checked, rep.failure)


def test_exact_check_matches_reference_on_merge_certificates():
    merges = 0
    for (a, b), homs in CORPUS_HOMS.items():
        if len(homs) < 2:
            continue
        for d in (1, 2):
            for cert in homotopy_classes(homs, d).edges.values():
                assert _report(cert) == \
                    verify_certificate_exact_reference(cert), (a, b, d)
                merges += 1
    assert merges > 100


def _perturbed(cert):
    """cert with one slice coefficient of one generator image moved by a
    generator of R, at every generator, exponent up to one past the top
    and generator of R: once with cert's endpoints (so that order or an
    endpoint fails) and once with the moved image's own endpoints (so
    that multiplicativity decides)."""
    ring, var, src = cert.target, cert.var, cert.source
    carrier = carrier_ring(ring, var)
    top = max(p.degree_in(var) for p in cert.hom.images)
    for i, e, g in itertools.product(range(src.ngens), range(top + 2),
                                     range(ring.ngens)):
        images = list(cert.hom.images)
        images[i] = carrier.add(images[i],
                                carrier.monomial(ring.gen(g), ((var, e),)))
        hom = RingHom(src, carrier, images)
        yield HomotopyCertificate(hom, cert.f0, cert.f1, var)
        ends = [RingHom(src, ring, [eval_endpoint(ring, img, var, bit)
                                    for img in images]) for bit in (0, 1)]
        yield HomotopyCertificate(hom, *ends, var)


def test_slice_check_matches_carrier_reference_on_search_hits():
    """verify_certificate convolves var-slices where the reference
    multiplies carrier polynomials.  Their reports agree on every search
    hit for every corpus pair at degrees 0-2 (the merges of
    homotopy_classes, and the constant hit of each first hom at degree
    0), and on every perturbation (see _perturbed) of the first hit of
    each pair and degree."""
    hits, failures = 0, {}
    for (a, b), homs in CORPUS_HOMS.items():
        firsts = [[search_elementary(homs[0], homs[0], 0)]] if homs else []
        firsts += [list(homotopy_classes(homs, d).edges.values())
                   for d in range(3)]
        for certs in firsts:
            for n, cert in enumerate(certs):
                hits += 1
                for c in [cert, *(_perturbed(cert) if n == 0 else ())]:
                    got = _report(c)
                    assert got == verify_certificate_exact_reference(c), \
                        (a, b)
                    kind = got[3] and got[3][0]
                    failures[kind] = failures.get(kind, 0) + 1
    assert hits > 2000
    assert set(failures) == {None, "order", "endpoint0", "endpoint1",
                             "multiplicative"}
    assert failures["multiplicative"] > 100 and failures[None] > hits


def _with_image(cert, i, img):
    images = list(cert.hom.images)
    images[i] = img
    return HomotopyCertificate(RingHom(cert.hom.source, cert.hom.target,
                                       images), cert.f0, cert.f1, cert.var)


def _graded():
    r = RINGS["graded_dual"]
    return r, graded_certificate(r, GRADING["graded_dual"])


def _foreign_variable():
    r, cert = _graded()
    carrier = carrier_ring(r, cert.var)
    return _with_image(cert, 1, carrier.monomial(r.gen(1), (("z", 1),)))


def _order_not_respected():
    # 2 * 1 = 2 in Z/4, but the source generator has order 2
    s, r = RINGS["sq0_z2"], RINGS["two_z8"]
    carrier = carrier_ring(r, "x")
    f = RingHom(s, r, [(1,)])
    return HomotopyCertificate(RingHom(s, carrier, [carrier.const((1,))]),
                               f, f, "x")


def _shifted_constant():
    r, cert = _graded()
    carrier = carrier_ring(r, cert.var)
    return _with_image(cert, 1, carrier.add(cert.hom.images[1],
                                            carrier.const(r.gen(0))))


def _wrong_start():
    _, cert = _graded()
    return HomotopyCertificate(cert.hom, cert.f1, cert.f1, cert.var)


def _wrong_end():
    _, cert = _graded()
    return HomotopyCertificate(cert.hom, cert.f0, cert.f0, cert.var)


def _not_multiplicative():
    # 1 + x has the endpoints of id and 0 on Z/2, but squares to 1 + x^2
    r = RINGS["z2_unital"]
    carrier = carrier_ring(r, "x")
    img = carrier.add(carrier.const((1,)), carrier.monomial((1,), (("x", 1),)))
    return HomotopyCertificate(RingHom(r, carrier, [img]), identity_hom(r),
                               zero_hom(r, r), "x")


def _unreduced_endpoints():
    # apply reduces (3,) and (2,) in Z/2, so these endpoints are id and 0
    r = RINGS["sq0_z2"]
    cert = search_elementary(identity_hom(r), zero_hom(r, r), 1)
    return HomotopyCertificate(cert.hom, RingHom(r, r, [(3,)]),
                               RingHom(r, r, [(2,)]), cert.var)


def _function_endpoints(shift=False):
    r = RINGS["tower3"]
    cert = search_elementary(identity_hom(r), zero_hom(r, r), 1)
    f0 = FuncHom(r, r, cert.f0.apply)
    f1 = FuncHom(r, r, (lambda x: r.add(x, r.gen(2))) if shift
                 else cert.f1.apply)
    return HomotopyCertificate(cert.hom, f0, f1, cert.var)


@pytest.mark.parametrize("build, failure", [
    (_foreign_variable, ("membership", 1)),
    (_order_not_respected, ("order", 0)),
    (_shifted_constant, ("endpoint0", 1)),
    (_wrong_start, ("endpoint0", 1)),
    (_wrong_end, ("endpoint1", 1)),
    (_not_multiplicative, ("multiplicative", (0, 0))),
    (_unreduced_endpoints, None),
    (_function_endpoints, None),
    (lambda: _function_endpoints(shift=True), ("endpoint1", 0)),
], ids=["membership", "order", "endpoint0-constant", "endpoint0",
        "endpoint1", "multiplicative", "unreduced-endpoints",
        "function-endpoints", "function-endpoint1"])
def test_exact_check_matches_reference_on_edge_cases(build, failure):
    cert = build()
    got = _report(cert)
    assert got == verify_certificate_exact_reference(cert)
    assert got[0] == (failure is None)
    assert got[3] == failure


def test_dropped_coefficient_checks_trip_the_post_check():
    """The certificate a search returns is re-verified over R[x] without
    the search's coefficient checks, so a search that skips some of them
    fails loudly instead of returning an invalid certificate.  On Z/2 the
    only option for id ~ 0 at degree 1 is g -> 1 + x, which fails the
    checks of coefficients 1 and 2, both decided at the top slot; with
    that slot's checks dropped from the table the search keeps on the
    (freshly built) ring, the search accepts it."""
    from hotring import VerificationFailure
    from hotring.rings import _coefficient_checks

    r = corpus()["z2_unital"]
    f0, f1 = identity_hom(r), zero_hom(r, r)
    assert isinstance(search_elementary(f0, f1, 1), NotFoundAtBound)

    checks = _coefficient_checks(r, 1)
    assert r.derived[("checks", 1)] is checks
    checks[0][1] = []
    with pytest.raises(VerificationFailure) as exc:
        search_elementary(f0, f1, 1)
    assert exc.value.witness == ("multiplicative", (0, 0))


# ---------------------------------------------------------------------------
# probe mode: each failure branch on a path ring source


def _path_certificate(kind):
    r = RINGS["z3_unital"]
    paths = PathRing(r, "x")
    cert = path_contraction_certificate(paths)
    carrier = carrier_ring(paths, "y")
    h = cert.hom.apply
    if kind == "membership":       # a constant term leaves E(R)[y]
        hom = FuncHom(paths, carrier,
                      lambda p: carrier.add(h(p), carrier.const(r.gen(0))))
    elif kind == "additive":       # p -> p(xy)^2 is not additive over Z/3
        hom = FuncHom(paths, carrier, lambda p: carrier.mul(h(p), h(p)))
    elif kind == "multiplicative":  # p -> 2 p(xy) is additive only
        hom = FuncHom(paths, carrier, lambda p: carrier.scalar(2, h(p)))
    else:
        hom = cert.hom
    f0, f1 = cert.f0, cert.f1
    if kind == "endpoint0":
        f0 = f1
    elif kind == "endpoint1":
        f1 = f0
    return HomotopyCertificate(hom, f0, f1, "y")


def test_probe_mode_contraction_is_valid():
    rep = verify_certificate(_path_certificate(None), probes=20)
    assert (rep.valid, rep.mode, rep.checked) == (True, "probes", 20)


@pytest.mark.parametrize("kind", ["membership", "additive", "multiplicative",
                                  "endpoint0", "endpoint1"])
def test_probe_mode_reports_each_failure(kind):
    rep = verify_certificate(_path_certificate(kind), probes=20)
    assert not rep.valid
    assert rep.mode == "probes"
    assert rep.failure[0] == kind


# ---------------------------------------------------------------------------
# the class closure searches degree 0 only between equal maps


def test_classes_match_the_per_pair_reference():
    """Same sorted homs, same edges and the same certificate images as
    one search_up_to per pair, on every corpus pair with two or more homs
    at degrees 0-3."""
    edges = 0
    for (a, b), homs in CORPUS_HOMS.items():
        if len(homs) < 2:
            continue
        for d in range(4):
            result = homotopy_classes(homs, d)
            ref_homs, ref_edges = homotopy_classes_reference(homs, d)
            assert [h.images for h in result.homs] == \
                [h.images for h in ref_homs], (a, b, d)
            assert sorted(result.edges) == sorted(ref_edges), (a, b, d)
            for key, cert in result.edges.items():
                ref = ref_edges[key]
                assert cert.hom.images == ref.hom.images, (a, b, d, key)
                assert (cert.f0, cert.f1, cert.var) == \
                    (ref.f0, ref.f1, ref.var), (a, b, d, key)
            edges += len(ref_edges)
    assert edges > 2000


def _counting_searches(monkeypatch):
    """The degrees search_elementary is called at, in call order."""
    import hotring.homotopy as homotopy

    degrees = []
    search = homotopy.search_elementary

    def counted(f0, f1, degree, budget=200_000):
        degrees.append(degree)
        return search(f0, f1, degree, budget=budget)
    monkeypatch.setattr(homotopy, "search_elementary", counted)
    return degrees


def test_classes_skip_degree_zero_between_distinct_maps(monkeypatch):
    """tower3 -> tower3 has 512 homs, all in one class at degree 1: the
    closure searches each of the 511 edges once, at degree 1; one
    search_up_to per pair also tries degree 0 first, 1,022 searches."""
    homs = CORPUS_HOMS[("tower3", "tower3")]
    degrees = _counting_searches(monkeypatch)
    result = homotopy_classes(homs, 1)
    assert len(result.edges) == 511 and len(result.classes()) == 1
    assert degrees == [1] * 511
    degrees.clear()
    homotopy_classes_reference(homs, 1)
    assert len(degrees) == 1022 and degrees.count(0) == 511


def test_classes_search_degree_zero_between_equal_maps(monkeypatch):
    """A hom listed twice is merged by the constant certificate, found at
    degree 0 and by no search of higher degree."""
    r = RINGS["two_z8"]
    f = identity_hom(r)
    degrees = _counting_searches(monkeypatch)
    result = homotopy_classes([f, RingHom(r, r, f.images)], 2)
    assert degrees == [0]
    cert = result.edges[(0, 1)]
    assert all(img.degree_in(cert.var) == 0 for img in cert.hom.images)
    assert verify_certificate(cert).valid


# ---------------------------------------------------------------------------
# the exact check on coordinate tuples: edge cases on finite targets


def _pair_certificate(left_image=None):
    """id ~ 0 on sq0_z2 x sq0_z2 through the pair of sq0_z2's degree-1
    certificate with itself, the left image optionally replaced."""
    r = RINGS["sq0_z2"]
    pair = PairRing(r, r)
    cert = search_elementary(identity_hom(r), zero_hom(r, r), 1)
    img = cert.hom.images[0]
    hom = RingHom(r, carrier_ring(pair, cert.var),
                  [(left_image or img, img)])
    return HomotopyCertificate(hom, RingHom(r, pair, [((1,), (1,))]),
                               zero_hom(r, pair), cert.var)


def _mixed_term():
    # g_1 t y: a term in t and in the foreign variable y
    r, cert = _graded()
    return _with_image(cert, 1, Poly(((((cert.var, 1), ("y", 1)), r.gen(1)),)))


def _mixed_term_in_a_pair():
    r = RINGS["sq0_z2"]
    return _pair_certificate(Poly((((("x", 1), ("y", 1)), (1,)),)))


def _zero_slices(top=False):
    # 0 ~ 2 on two_z8 through g -> 2x, with an explicit zero coefficient
    # in a slice of its own: the constant one, or one past the top.  The
    # reference compares carrier polynomials as terms, and on two_z8
    # (g^2 = 2g) both of its sides come out of carrier arithmetic, which
    # drops the zero term.
    r = RINGS["two_z8"]
    cert = homotopy_classes(CORPUS_HOMS[("two_z8", "two_z8")], 1).edges[0, 2]
    img = cert.hom.images[0]
    zero_term = (((cert.var, 2),) if top else (), r.zero())
    return _with_image(cert, 0, Poly(sorted(img.terms + (zero_term,))))


@pytest.mark.parametrize("build, failure", [
    (_mixed_term, ("membership", 1)),
    (_mixed_term_in_a_pair, ("membership", 0)),
    (_pair_certificate, None),
    (_zero_slices, None),
    (lambda: _zero_slices(top=True), None),
], ids=["mixed-term", "mixed-term-in-a-pair", "pair", "zero-constant-slice",
        "zero-top-slice"])
def test_exact_check_on_tuples_matches_reference(build, failure):
    cert = build()
    got = _report(cert)
    assert got == verify_certificate_exact_reference(cert)
    assert got[3] == failure


def test_ring_hom_witness_matches_carrier_reference():
    """RingHom.validate checks products on the exact check's kernel: its
    witness is the first failing pair of the whole-image check, on random
    images that respect the generator orders, in every corpus pair."""
    from hotring import VerificationFailure
    from hotring.rings import _annihilator, _codes

    rng = random.Random(5)
    verdicts = {"hom": 0, "not": 0}
    for a, b in CORPUS_HOMS:
        src, tgt = RINGS[a], RINGS[b]
        element = _codes(tgt).element
        for _ in range(20):
            images = [element[rng.choice(_annihilator(tgt, d))]
                      for d in src.orders]
            expected = carrier_first_nonmultiplicative(src, tgt, images)
            try:
                RingHom(src, tgt, images).validate()
                got = None
            except VerificationFailure as exc:
                got = exc.witness
            assert got == expected, (a, b, images)
            verdicts["hom" if got is None else "not"] += 1
    assert min(verdicts.values()) > 100


# ---------------------------------------------------------------------------
# typed errors, reprs and the equivalence search's non-hom candidates


def test_flip_into_a_pair_ring_is_a_typed_error():
    cert = _pair_certificate()
    assert _report(cert) == (True, "exact", 2, None)
    with pytest.raises(HotringError, match=r"\(sq0_z2 x sq0_z2\)"):
        flip_certificate(cert)


def test_chain_with_function_endpoints_is_a_typed_error():
    cert = _function_endpoints()
    chain = HomotopyChain(cert.f0, [cert])
    with pytest.raises(HotringError, match="finite-source homs"):
        chain.validate()


def test_certificate_and_verdict_reprs():
    r = RINGS["sq0_z2"]
    cert = search_elementary(identity_hom(r), zero_hom(r, r), 1)
    assert repr(cert) == "<homotopy id_sq0_z2 ~ 0 via x>"
    unlabeled = HomotopyCertificate(cert.hom, RingHom(r, r, [(1,)]),
                                    RingHom(r, r, [(0,)]), "x")
    assert repr(unlabeled) == "<homotopy f0 ~ f1 via x>"
    u = RINGS["z2_unital"]
    miss = search_up_to(identity_hom(u), zero_hom(u, u), 1)
    assert not miss
    assert repr(miss) == \
        f"<not found at degree 1; {miss.searched} candidates>"


def test_equivalence_skips_candidates_that_are_not_homs():
    """On Z/3 with a unit, x -> 2x is additive but not multiplicative:
    composed with the identity it is no listed endomorphism, so it is
    passed over, and neither candidate answers."""
    r = RINGS["z3_unital"]
    doubling = RingHom(r, r, [(2,)])
    out = search_homotopy_equivalence(identity_hom(r),
                                      [doubling, zero_hom(r, r)], 1)
    assert isinstance(out, NotFoundAtBound)
    assert (out.degree, out.searched) == (1, 2)
