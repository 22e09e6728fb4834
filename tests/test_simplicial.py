import random
from collections import Counter

import pytest

from hotring import (IndexOutOfRange, PolyRing, SimplexRing,
                     check_contraction_compatibility,
                     check_simplicial_identities, contraction_map, corpus,
                     evaluate, one_minus, poly, simplicial)
from hotring.errors import UnknownVariable
from hotring.poly import iadd, iconst, imul, ivar, substitution_difference
from hotring.simplicial import simplicial_identity_cases
from oracles import (probe_contraction_compatibility,
                     probe_simplicial_identities)

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


def test_contraction_needs_the_variable_in_a_polynomial_base():
    base = PolyRing(RINGS["sq0_z2"], ("y",))
    with pytest.raises(UnknownVariable):
        check_contraction_compatibility(base, "x", 1, 1, random.Random(0))


# ---------------------------------------------------------------------------
# the composed, differenced probes against four chained applies


def _both(ring, probes=200, contraction_probes=4):
    """(check, reference) results of both checks at every level the
    simplicial workload runs, each with the rng state after it."""
    out = ([], [])
    for n in range(1, 5):
        for got, check in zip(out, (check_simplicial_identities,
                                    probe_simplicial_identities)):
            rng = random.Random(f"identities/{n}")
            got.append((check(ring, n, probes, rng), rng.random()))
    for n in range(1, 4):
        for got, check in zip(out, (check_contraction_compatibility,
                                    probe_contraction_compatibility)):
            rng = random.Random(f"contraction/{n}")
            got.append((check(ring, "x", n, contraction_probes, rng),
                        rng.random()))
    return out


def _failures(results):
    return sum(len(failures) for (_, failures), _ in results)


@pytest.mark.parametrize("label", sorted(RINGS))
def test_checks_match_the_chained_apply_reference(label):
    got, want = _both(RINGS[label])
    assert got == want
    assert _failures(got) == 0


def _short_t0(monkeypatch):
    t0 = SimplexRing._t0_expr
    monkeypatch.setattr(SimplexRing, "_t0_expr",
                        lambda self, level: t0(self, max(level - 1, 0)))


def _swapped_degeneracies(monkeypatch):
    assignment = SimplexRing.degeneracy_assignment
    monkeypatch.setattr(
        SimplexRing, "degeneracy_assignment",
        lambda self, i: assignment(self, 1 - i if self.level and i < 2 else i))


def _vertex_off_by_one(monkeypatch):
    monkeypatch.setattr(simplicial, "delta1_degeneracy_index",
                        lambda i, j: i + 1 if j < i else i)


@pytest.mark.parametrize("mutate", [_short_t0, _swapped_degeneracies,
                                    _vertex_off_by_one])
def test_mutants_fail_alike_in_check_and_reference(mutate, monkeypatch):
    mutate(monkeypatch)
    found = 0
    for label in sorted(RINGS):
        got, want = _both(RINGS[label], probes=50, contraction_probes=2)
        assert got == want
        found += _failures(got)
    assert found > 0


def _doubled_degeneracy(monkeypatch):
    """s_i sends t_i to t_i + t_(i+1) + 2 t_(i+1): the same map exactly
    when 2 = 0 in R."""
    assignment = SimplexRing.degeneracy_assignment

    def doubled(self, i):
        out = assignment(self, i)
        if i >= 1:
            t = self.tvar(i + 1)
            out[self.tvar(i)] = iadd(out[self.tvar(i)],
                                     imul(iconst(2), ivar(t)))
        return out
    monkeypatch.setattr(SimplexRing, "degeneracy_assignment", doubled)


@pytest.mark.parametrize("label,fails", [("z2_unital", False),
                                         ("upper3_z2", False),
                                         ("z3_unital", True),
                                         ("two_z8", True)])
def test_images_that_differ_by_2t_agree_on_z2(label, fails, monkeypatch):
    _doubled_degeneracy(monkeypatch)
    got, want = _both(RINGS[label], probes=50, contraction_probes=2)
    assert got == want
    assert (_failures(got) > 0) == fails


def _zero_images_kept(monkeypatch):
    """A substitution that mishandles a zero image: a variable sent to 0
    stays where it is."""
    image = poly._Substitution._image

    def kept(self, mono):
        assignment = self.assignment
        self.assignment = {v: ip for v, ip in assignment.items() if ip.terms}
        try:
            return image(self, mono)
        finally:
            self.assignment = assignment
    monkeypatch.setattr(poly._Substitution, "_image", kept)


def test_endpoint_zero_catches_a_substitution_that_keeps_zero_images(
        monkeypatch):
    """v(-1) is compared with the probe's terms free of x, read off
    without a substitution, so a substitution that gets x -> 0 wrong
    fails the endpoint_zero check at every level."""
    _zero_images_kept(monkeypatch)
    _, failures = check_contraction_compatibility(
        RINGS["two_z8"], "x", 2, 4, random.Random(0))
    assert {f[1] for f in failures if f[0] == "endpoint_zero"} == {0, 1, 2}


def test_difference_is_lhs_minus_rhs():
    rng = random.Random(4)
    lhs = {"t1": imul(iconst(3), ivar("t1")), "t2": iadd(ivar("t1"),
                                                         ivar("t2"))}
    difference = substitution_difference(lhs, {})
    for label in ("z2_unital", "z3_unital", "two_z8"):
        ring = SimplexRing(RINGS[label], 2).ring
        for _ in range(30):
            p = ring.sample(rng)
            assert difference(ring.scalar_base, p) == ring.sub(
                ring.substitute(p, lhs), p)


def _counting(monkeypatch, module, name, key):
    seen = {}
    wrapped = getattr(module, name)

    def counted(*args, **kwargs):
        k = key(*args, **kwargs)
        seen[k] = seen.get(k, 0) + 1
        return wrapped(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return seen


def test_contraction_check_builds_each_map_once(monkeypatch):
    built = _counting(monkeypatch, simplicial, "substitution_hom",
                      lambda source, target, assignment, label=None:
                      (source.label, label or "x -> 0"))
    check_contraction_compatibility(RINGS["sq0_z2"], "x", 3, 2,
                                    random.Random(0))
    assert set(built.values()) == {1}
    # faces d_j at levels 1..3, degeneracies s_j at 0..3 and contraction
    # maps h(v_i) at 0..4 (one above the top, for the degeneracies); the
    # x -> 0 endpoint is read off the probe, not substituted
    kinds = Counter(label[0] for _, label in built)
    assert kinds == {"d": 2 + 3 + 4, "s": 1 + 2 + 3 + 4,
                     "h": 2 + 3 + 4 + 5 + 6}


def test_identity_check_compiles_one_plan_per_side(monkeypatch):
    differences = _counting(monkeypatch, simplicial, "substitution_difference",
                            lambda lhs, rhs: (str(lhs), str(rhs)))
    homs = _counting(monkeypatch, simplicial, "substitution_hom",
                     lambda *args, **kwargs: None)
    plans = _counting(monkeypatch, poly, "_Substitution",
                      lambda assignment: str(assignment))
    counts = []
    for probes in (10, 400):
        for seen in (differences, plans):
            seen.clear()
        check_simplicial_identities(RINGS["two_z8"], 4, probes,
                                    random.Random(0))
        counts.append((sum(differences.values()), sum(plans.values())))
    cases = len(simplicial_identity_cases(4))
    # one difference per case, holding one plan per side; the rest of
    # the plans compose the sides' maps over Z, once per case
    assert counts[0] == counts[1]
    assert counts[0][0] == cases
    assert counts[0][1] <= 4 * cases
    assert homs == {}
