import random

import pytest

from hotring import (IndexOutOfRange, PolyRing, SimplexRing,
                     check_contraction_compatibility,
                     check_simplicial_identities, contraction_map, corpus,
                     evaluate, one_minus)

RINGS = corpus()


def test_level_one_faces_match_polynomial_evaluations():
    # the commuting square: R[t] -> R[Delta^1] by t -> t_0 = 1 - t_1
    # carries the evaluation at epsilon to the face map d_epsilon
    rng = random.Random(0)
    r = RINGS["two_z8"]
    line = PolyRing(r, ("t",))
    s1 = SimplexRing(r, 1)
    d0, d1 = s1.face(0), s1.face(1)
    for _ in range(200):
        p = line.sample(rng)
        # transport: rewrite p(t) as a polynomial in t1 via t -> t_0 = 1 - t1
        moved = line.substitute(p, {"t": one_minus("t1")})
        assert d0.apply(moved) == evaluate(r, p, "t", 0)
        assert d1.apply(moved) == evaluate(r, p, "t", 1)


def test_face_degeneracy_index_bounds():
    s = SimplexRing(RINGS["sq0_z2"], 2)
    with pytest.raises(IndexOutOfRange):
        s.face(3)
    with pytest.raises(IndexOutOfRange):
        s.degeneracy(5)
    with pytest.raises(IndexOutOfRange):
        SimplexRing(RINGS["sq0_z2"], 0).face(0)
    with pytest.raises(IndexOutOfRange):
        SimplexRing(RINGS["sq0_z2"], -1)


def test_degeneracy_then_face_is_identity_level_two():
    rng = random.Random(1)
    r = RINGS["upper3_z2"]
    s2 = SimplexRing(r, 2)
    s3 = SimplexRing(r, 3)
    for _ in range(100):
        p = s2.sample(rng)
        assert s3.face(0).apply(s2.degeneracy(0).apply(p)) == p


def test_simplicial_identities_spot_check():
    rng = random.Random(2)
    for label in ("two_z8", "graded_dual"):
        checks, failures = check_simplicial_identities(RINGS[label], 4, 50,
                                                       rng)
        assert checks > 0
        assert failures == []


def test_face_formula_case_split():
    # d_1(t_1) = 0 and d_1(t_2) = t_1 at level 2; d_0(t_1) = 1 - t_1 there
    r = RINGS["sq0_z2"]
    s2 = SimplexRing(r, 2)
    t1 = s2.ring.monomial((1,), (("t1", 1),))
    t2 = s2.ring.monomial((1,), (("t2", 1),))
    assert s2.face(1).apply(t1).is_zero_poly()
    assert s2.face(1).apply(t2) == SimplexRing(r, 1).ring.monomial(
        (1,), (("t1", 1),))
    d0t1 = s2.face(0).apply(t1)
    low = SimplexRing(r, 1).ring
    assert d0t1 == low.sub(low.const((1,)), low.monomial((1,), (("t1", 1),)))


def test_contraction_maps_compat_with_faces_and_degeneracies():
    rng = random.Random(3)
    for label in ("sq0_z2", "z3_unital"):
        checks, failures = check_contraction_compatibility(
            RINGS[label], "x", 2, 6, rng)
        assert checks > 0
        assert failures == []


def test_contraction_endpoint_maps():
    r = RINGS["two_z8"]
    s2 = SimplexRing(PolyRing(r, ("x",)), 2)
    p = s2.ring.add(
        s2.ring.monomial((1,), (("x", 2), ("t1", 1))),
        s2.ring.monomial((3,), (("t2", 2),)))
    assert contraction_map(s2, "x", 2).apply(p) == p
    killed = contraction_map(s2, "x", -1).apply(p)
    assert killed == s2.ring.monomial((3,), (("t2", 2),))
    # elements of R[Delta^n] without x are fixed by every h_v
    fixed_only = s2.ring.monomial((2,), (("t1", 1), ("t2", 1)))
    for i in range(-1, 3):
        assert contraction_map(s2, "x", i).apply(fixed_only) == fixed_only
