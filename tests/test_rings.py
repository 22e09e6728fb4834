import itertools
import random
import sys

import pytest

from hotring import intlin
from hotring import (BadUnit, BudgetExceeded, HotringError, IllDefined,
                     MalformedInput, NotAssociative, RingHom, TruncatedPuppe,
                     VerificationFailure, additive_closure, canonicalize,
                     compose, corpus, enumerate_homs, homotopy_classes,
                     identity_hom, ideal_closure,
                     is_surjective, kernel_subring, product_ring, pullback,
                     quotient, tower_homs, unitalization, validate_ring,
                     zero_hom, zero_ring)
from hotring.rings import _codes, _ring_from_group

RINGS = corpus()


# ---------------------------------------------------------------------------
# validation


def test_two_z8_accepted_against_direct_expansion():
    # 2Z/8Z on the generator g = 2: g*g = 4 = 2g.  Direct oracle: for all
    # residues a, b the products (2a)(2b) and 2*(2*(a*b)) agree mod 8.
    ring = validate_ring((4,), (((2,),),), label="2z8")
    for a in range(4):
        for b in range(4):
            left = (2 * a * 2 * b) % 8
            right = (2 * ring.mul((a,), (b,))[0]) % 8
            assert left == right


def test_square_zero_accepted():
    validate_ring((2,), (((0,),),))


def test_unit_checking():
    validate_ring((2,), (((1,),),))                    # no unit claimed
    validate_ring((2,), (((1,),),), unit=(1,))         # correct unit
    with pytest.raises(BadUnit):
        validate_ring((2,), (((1,),),), unit=(0,))


def test_ill_defined_rejected():
    # g has order 2 but g*g = 1*g cannot be halved: 2*(g*g) = 2g = 0 is
    # fine, so build a genuinely broken one: order 2 times entry of order 4
    with pytest.raises(IllDefined):
        validate_ring((2, 4), (((0, 1), (0, 0)), ((0, 0), (0, 0))))


def test_not_associative_rejected():
    # x*x = y, x*y = x forces (xx)x = yx = 0 vs x(xx) = xy = x
    with pytest.raises(NotAssociative) as err:
        validate_ring((2, 2), (((0, 1), (1, 0)), ((0, 0), (0, 0))))
    assert err.value.left != err.value.right


def test_ring_axioms_on_random_triples():
    rng = random.Random(0)
    for ring in RINGS.values():
        for _ in range(1000):
            a, b, c = (ring.sample(rng) for _ in range(3))
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b),
                                                           ring.mul(a, c))
            assert ring.mul(ring.add(a, b), c) == ring.add(ring.mul(a, c),
                                                           ring.mul(b, c))


def _dense_mul(ring, a, b):
    """The bilinear formula over every coordinate and every table entry."""
    out = [0] * ring.ngens
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for l, t in enumerate(ring.table[i][j]):
                out[l] += x * y * t
    return tuple(v % d for v, d in zip(out, ring.orders))


def test_sparse_mul_matches_dense_formula():
    h, _ = tower_homs(RINGS)
    rings = list(RINGS.values()) + TruncatedPuppe(h, 3, m=2).rings()
    rings += [canonicalize(RINGS["graded_dual"])[0],
              product_ring(RINGS["upper3_z2"], RINGS["z4_unital"])[0],
              zero_ring()]
    rng = random.Random(12)
    for ring in rings:
        pairs = [(ring.sample(rng), ring.sample(rng)) for _ in range(200)]
        pairs += [(ring.gen(i), ring.gen(j)) for i in range(ring.ngens)
                  for j in range(ring.ngens)]
        for a, b in pairs:
            assert ring.mul(a, b) == _dense_mul(ring, a, b), (ring.label, a, b)


def test_product_outside_presentation_is_verification_failure():
    ring = RINGS["two_z8"]
    with pytest.raises(VerificationFailure, match="escaped") as err:
        _ring_from_group((4,), [ring.gen(0)], ring.mul,
                         lambda vs: [None] * len(vs))
    assert err.value.witness == (0, 0)


# ---------------------------------------------------------------------------
# hom enumeration


def test_enumerate_homs_square_zero():
    r = RINGS["sq0_z2"]
    homs = enumerate_homs(r, r)
    assert [h.images for h in homs] == [((0,),), ((1,),)]


def test_enumerate_homs_to_zero_ring():
    z = zero_ring()
    for ring in RINGS.values():
        assert len(enumerate_homs(ring, z)) == 1


def test_enumerate_homs_sq0_to_two_z8():
    # g -> x needs 2x = 0 and x^2 = 0 in 2Z/8Z: x in {0, 4}, i.e. coords 0, 2
    homs = enumerate_homs(RINGS["sq0_z2"], RINGS["two_z8"])
    assert sorted(h.images for h in homs) == [((0,),), ((2,),)]


def _apply_by_ring_arithmetic(hom, x):
    """sum_i x_i images[i] by the target's scalar and add, term by term."""
    t = hom.target
    acc = t.zero()
    for c, img in zip(x, hom.images):
        if c:
            acc = t.add(acc, t.scalar(c, img))
    return acc


def test_apply_into_a_finite_ring_matches_ring_arithmetic():
    """RingHom.apply sums coordinate by coordinate and reduces once; the
    value is the one of k scalar multiples and k additions, on every
    element of the source and on unreduced coordinates too."""
    rng = random.Random(4)
    for a in sorted(RINGS):
        for b in sorted(RINGS):
            for hom in enumerate_homs(RINGS[a], RINGS[b])[:6]:
                xs = list(hom.source.elements()) + [
                    tuple(rng.randrange(-9, 10) for _ in hom.source.orders)
                    for _ in range(5)]
                for x in xs:
                    assert hom.apply(x) == _apply_by_ring_arithmetic(hom, x)


def test_codes_are_positions_and_tables_agree_with_tuples():
    """The code of an element is its position in ring.elements() (zero is
    0), also on mixed orders, and every table entry is the code of the
    tuple operation."""
    mixed = validate_ring((2, 3, 4), [[(0, 0, 0)] * 3] * 3, label="mixed")
    for ring in list(RINGS.values()) + [mixed]:
        codes = _codes(ring)
        elems = list(ring.elements())
        assert [codes.code[x] for x in elems] == list(range(len(elems)))
        assert [codes.element[c] for c in range(len(elems))] == elems
        assert codes.code[ring.zero()] == 0
        for x, y in itertools.product(elems, repeat=2):
            cx, cy = codes.code[x], codes.code[y]
            assert codes.add[cx][cy] == codes.code[ring.add(x, y)]
            assert codes.mul[cx][cy] == codes.code[ring.mul(x, y)]
        for x in elems:
            assert codes.neg[codes.code[x]] == codes.code[ring.neg(x)]
            assert codes.scalar[3][codes.code[x]] == \
                codes.code[ring.scalar(3, x)]
    # an unreduced tuple is coded as its reduction
    assert _codes(mixed).code[(3, -1, 6)] == _codes(mixed).code[(1, 2, 2)]


def test_large_rings_keep_codes_but_no_table_entries():
    """Up to 1024 elements a ring keeps its table entries; a larger one
    keeps only the translations, and its homs are still all found."""
    for k, kept in ((10, True), (11, False)):
        big = validate_ring((2,) * k, [[(0,) * k] * k] * k, label=f"sq0^{k}")
        homs = enumerate_homs(RINGS["sq0_z2"], big)
        assert len(homs) == 2 ** k
        codes = _codes(big)
        assert bool(codes.mul) == kept and len(codes.element) == 2 ** k


def test_enumerate_homs_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_homs(RINGS["tower3"], RINGS["tower3"], budget=3)


def test_validate_rejects_with_typed_error():
    src, tgt = RINGS["sq0_z2"], RINGS["z2_unital"]
    with pytest.raises(VerificationFailure, match="multiplicativity") as err:
        RingHom(src, tgt, [(1,)]).validate()
    assert err.value.witness == (0, 0)
    with pytest.raises(VerificationFailure, match="not in target"):
        RingHom(src, tgt, [(2,)]).validate()
    with pytest.raises(VerificationFailure, match="order of generator 0"):
        RingHom(tgt, RINGS["z4_unital"], [(1,)]).validate()
    with pytest.raises(VerificationFailure, match="2 generator images"):
        RingHom(src, tgt, [(0,), (0,)]).validate()


def test_values_that_are_not_integers_are_malformed():
    with pytest.raises(MalformedInput, match="orders must be integers"):
        validate_ring((True,), (((0,),),))
    with pytest.raises(MalformedInput, match="entries must be integers"):
        validate_ring((2,), (((1.0,),),))
    with pytest.raises(MalformedInput, match="unit must be integers"):
        validate_ring((2,), (((1,),),), unit=("1",))
    with pytest.raises(MalformedInput, match="unit must have length k"):
        validate_ring((2, 2), (((1, 0), (0, 0)), ((0, 0), (0, 0))),
                      unit=(1,))


def test_compose_rejects_homs_that_do_not_meet():
    f = identity_hom(RINGS["sq0_z2"])
    g = identity_hom(RINGS["tower2"])
    with pytest.raises(HotringError, match="cannot compose"):
        compose(g, f)


def test_unital_hom_need_not_preserve_unit():
    # the zero map between unital rings is a homomorphism here
    z = zero_hom(RINGS["z2_unital"], RINGS["z2_unital"])
    z.validate()


# ---------------------------------------------------------------------------
# pullbacks


def brute_force_pairs(f, g):
    return {(a, b) for a in f.source.elements() for b in g.source.elements()
            if f.apply(a) == g.apply(b)}


def test_pullback_of_identities_is_diagonal():
    r = RINGS["sq0_z2"]
    i = identity_hom(r)
    d, rho, sigma, embed = pullback(i, i)
    assert d.size() == 2
    for a in r.elements():
        assert embed(a, a) is not None
        assert rho.apply(embed(a, a)) == a
        assert sigma.apply(embed(a, a)) == a


def test_pullback_over_zero_is_product():
    a, b = RINGS["two_z8"], RINGS["upper3_z2"]
    z = zero_ring()
    d, rho, sigma, _ = pullback(zero_hom(a, z), zero_hom(b, z))
    assert d.size() == a.size() * b.size()
    assert is_surjective(rho) and is_surjective(sigma)
    # equal but distinct targets are not one cospan
    with pytest.raises(HotringError, match="must share their target"):
        pullback(zero_hom(a, zero_ring()), zero_hom(b, zero_ring()))


def test_pullback_order_matches_brute_force():
    # A = 2Z/8 -> C = 2Z/4 reduction; B = sq0 Z/2 -> C by g -> 2
    a = RINGS["two_z8"]
    c = validate_ring((2,), (((0,),),), label="two_z4")   # 2Z/4: g^2 = 4 = 0
    b = RINGS["sq0_z2"]
    f = RingHom(a, c, [(1,)], label="reduce")
    f.validate()
    g = RingHom(b, c, [(1,)], label="send_to_2")
    g.validate()
    d, rho, sigma, embed = pullback(f, g)
    pairs = brute_force_pairs(f, g)
    assert d.size() == len(pairs)
    for (x, y) in pairs:
        assert embed(x, y) is not None
    # f rho = g sigma on every element
    for e in d.elements():
        assert f.apply(rho.apply(e)) == g.apply(sigma.apply(e))


def test_pullback_projection_compatibility_everywhere():
    rng = random.Random(1)
    a, b = RINGS["tower3"], RINGS["tower2"]
    f = RingHom(a, b, [(1, 0), (0, 1), (0, 0)])
    f.validate()
    d, rho, sigma, _ = pullback(f, identity_hom(b))
    for e in d.elements():
        assert f.apply(rho.apply(e)) == sigma.apply(e)
    del rng


# ---------------------------------------------------------------------------
# quotients and ideals


def test_quotient_by_zero_is_isomorphic_presentation():
    r = RINGS["two_z8"]
    q, proj, ideal = quotient(r, [r.zero()])
    assert ideal == {r.zero()}
    assert q.size() == r.size()
    assert is_surjective(proj)


def test_quotient_by_everything_is_zero_ring():
    r = RINGS["upper3_z2"]
    q, proj, _ = quotient(r, [r.gen(i) for i in range(r.ngens)])
    assert q.size() == 1


def test_quotient_two_z8_by_four():
    # I = {0, 4}: quotient has order 2 and square zero, by coset expansion:
    # representatives {0, 2}, and 2*2 = 4 lies in I
    r = RINGS["two_z8"]
    four = r.element((2,))          # 2*g = 4
    q, proj, ideal = quotient(r, [four])
    assert sorted(ideal) == [(0,), (2,)]
    assert q.size() == 2
    g = q.gen(0)
    assert q.mul(g, g) == q.zero()
    assert is_surjective(proj)
    kernel = {a for a in r.elements() if proj.apply(a) == q.zero()}
    assert kernel == ideal


def test_is_surjective_off_finite_rings_is_a_typed_error():
    r = RINGS["z3_unital"]
    u = unitalization(r)
    with pytest.raises(HotringError, match=r"id_z3_unital\+ \(z3_unital\+"):
        is_surjective(identity_hom(u))
    with pytest.raises(HotringError, match="incl"):
        is_surjective(u.inclusion())


def test_ideal_closure_saturates():
    r = RINGS["upper3_z2"]
    # e12 generates e13 = e12*e23 only through right multiplication
    closure = ideal_closure(r, [r.gen(0)])
    assert r.gen(1) in closure          # e13 = e12 e23
    assert r.gen(2) not in closure


def test_kernel_subring():
    h, k = __import__("hotring").tower_homs(RINGS)
    ker, incl, coords = kernel_subring(h)
    assert ker.size() == 2
    for x in ker.elements():
        assert h.apply(incl.apply(x)) == h.target.zero()
    assert coords((0, 0, 1)) is not None
    assert coords((1, 0, 0)) is None


def test_presentations_on_empty_matrices():
    from hotring.rings import QuotientPresentation, SubgroupPresentation
    # no ambient coordinates at all
    empty = QuotientPresentation((), [])
    assert (empty.orders, empty.lifts, empty.project(())) == ((), [], ())
    assert SubgroupPresentation((), []).orders == ()
    # nothing to quotient by, and the trivial subgroup
    assert QuotientPresentation((2, 3), []).orders == (6,)
    assert SubgroupPresentation((2, 3), []).size() == 1
    # free coordinates with no relations: one zero column stands in
    free = QuotientPresentation((0, 0), [])
    assert free.orders == (0, 0) and free.lifts is None
    assert free.project((5, -2)) == (5, -2)
    # a kernel into the zero ring (no target coordinates) is everything
    r = RINGS["upper3_z2"]
    ker, incl, _ = kernel_subring(zero_hom(r, zero_ring()))
    assert ker.size() == r.size()
    assert sorted(incl.apply(x) for x in ker.elements()) == sorted(r.elements())


def _count_smith_forms(monkeypatch):
    """Record each Smith normal form, wherever a module binds it."""
    calls, real = [], intlin.smith_normal_form

    def counted(mat):
        calls.append(mat)
        return real(mat)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hotring" \
                and getattr(mod, "smith_normal_form", None) is real:
            monkeypatch.setattr(mod, "smith_normal_form", counted)
    return calls


def test_one_smith_form_per_integer_presentation(monkeypatch):
    """A fibre product or kernel ring takes three Smith forms: the kernel
    of the images, then one for the subgroup's relations and solves and
    one for its basis and U^-1.  canonicalize needs no kernel of images,
    and a quotient takes one."""
    calls = _count_smith_forms(monkeypatch)
    h, k = tower_homs(RINGS)
    t3 = RINGS["tower3"]
    for build, expected in [
            (lambda: pullback(h, h), 3),
            (lambda: pullback(compose(k, h), k), 3),
            (lambda: kernel_subring(h), 3),
            (lambda: kernel_subring(k), 3),
            (lambda: canonicalize(RINGS["graded_dual"]), 2),
            (lambda: quotient(t3, [t3.gen(0)]), 1)]:
        calls.clear()
        build()
        assert len(calls) == expected


def test_product_ring():
    d, rho, sigma, _ = product_ring(RINGS["sq0_z2"], RINGS["sq0_z3"])
    assert d.size() == 6


# ---------------------------------------------------------------------------
# unitalization


def test_unitalization_unit_and_embedding():
    rng = random.Random(2)
    a = RINGS["sq0_z2"]
    plus = unitalization(a)
    one = plus.one()
    for _ in range(50):
        x = plus.sample(rng)
        assert plus.mul(one, x) == x
        assert plus.mul(x, one) == x
    for _ in range(50):
        x, y = a.sample(rng), a.sample(rng)
        assert plus.mul((0, x), (0, y)) == (0, a.mul(x, y))


def test_unitalization_square_zero_involutions():
    # (1, a)^2 = (1, 2a + a^2) = (1, 0) in the square-zero case
    a = RINGS["sq0_z2"]
    plus = unitalization(a)
    for x in a.elements():
        assert plus.mul((1, x), (1, x)) == plus.one()


def test_unitalization_augmentation_exactness():
    rng = random.Random(3)
    a = RINGS["two_z8"]
    plus = unitalization(a)
    eps = plus.augmentation()
    incl = plus.inclusion()
    for i in range(a.ngens):
        assert eps.apply(incl.apply(a.gen(i))) == 0
    for _ in range(100):
        x = plus.sample(rng)
        if eps.apply(x) == 0:
            assert x[0] == 0 and a.contains(x[1])


def test_additive_closure():
    r = RINGS["two_z8"]
    assert additive_closure(r, [r.element((2,))]) == {(0,), (2,)}
