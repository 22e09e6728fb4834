import functools
import gc
import itertools
import os
import random
import subprocess
import sys
import weakref

import pytest

import hotring
from hotring import (BadUnit, BudgetExceeded, CircleGroup, IndexOutOfRange,
                     NotAssociative, PolyRing, VerificationFailure,
                     circle_determinant, corpus, determinant_certificate,
                     enumerate_homs, gl_group, homotopy_classes, kv1_approx,
                     quasi_inverse, stabilize, strict_pi0, validate_ring)
from hotring import glk
from hotring.glk import (_is_commutative, _path_ends, _poly_matrix,
                         _quotient_invariants)
from hotring.poly import constant_of, evaluate
from hotring.rings import FiniteRing
from oracles import (adjugate_quasi_inverse, circle,
                     circle_power_quasi_inverse, is_circle_witness, matrices,
                     mat_zero, quasi_inverse_cascade,
                     quasi_inverse_poly_cascade, witnesses_by_enumeration,
                     witnesses_up_to_degree)
from oracles import circle_determinant as tuple_circle_determinant

RINGS = corpus()


def _mat(ring, rows):
    return tuple(tuple(ring.element(x) for x in row) for row in rows)


def test_square_zero_witness_is_negation():
    r = RINGS["sq0_z2"]
    m = _mat(r, [[(1,), (0,)], [(1,), (1,)]])
    res = quasi_inverse(r, m)
    assert res.status == "ok"
    assert res.witness == tuple(tuple(r.neg(x) for x in row) for row in m)


def test_zero_matrix_witness_is_zero():
    for r in RINGS.values():
        z = mat_zero(r, 2)
        res = quasi_inverse(r, z)
        assert res.status == "ok"
        assert res.witness == z


def test_unital_z3_classical_witness():
    r = RINGS["z3_unital"]
    # I + M = [[1+1, 0], [0, 1+0]] = diag(2, 1): invertible over F3
    m = _mat(r, [[(1,), (0,)], [(0,), (0,)]])
    res = quasi_inverse(r, m)
    assert res.status == "ok"
    assert is_circle_witness(r, m, res.witness)
    # a = 2 = -1 is not quasi-invertible: 1 + a = 0
    bad = _mat(r, [[(2,)]])
    assert quasi_inverse(r, bad).status == "not_qi"


def test_nilpotent_series_on_upper_triangular():
    rng = random.Random(0)
    r = RINGS["upper3_z2"]
    for _ in range(30):
        m = tuple(tuple(r.sample(rng) for _ in range(2)) for _ in range(2))
        res = quasi_inverse(r, m)
        assert res.status == "ok"


def test_qi_matrix_class_and_circle_composition():
    # the group law of gl_group composes witnesses: (a o b)^-1 = b^-1 o a^-1,
    # each checked by the tuple circle product, and inversion is an
    # involution
    r = RINGS["sq0_z3"]
    g = gl_group(r, 2)
    rng = random.Random(1)
    for _ in range(30):
        a, b = rng.choice(g.elements), rng.choice(g.elements)
        ab, inv = g.op(a, b), g.op(g.inv(b), g.inv(a))
        assert is_circle_witness(r, ab, inv)
        assert g.inv(ab) == inv
        assert g.inv(g.inv(a)) == a and is_circle_witness(r, a, g.inv(a))
    a, b = g.elements[1], g.elements[2]
    assert not is_circle_witness(r, g.op(a, b), g.op(g.inv(a), g.inv(a)))


def test_gl1_square_zero_is_the_additive_group():
    r = RINGS["sq0_z2"]
    g = gl_group(r, 1)
    assert g.order() == 2
    # circle = plus when all products vanish
    for a in g.elements:
        for b in g.elements:
            assert g.op(a, b) == ((r.add(a[0][0], b[0][0]),),)
    assert g.verify_group_axioms()


def test_gl_of_zero_ring_trivial():
    from hotring import zero_ring
    g = gl_group(zero_ring(), 2)
    assert g.order() == 1


def test_gl1_unital_z3():
    # quasi-invertible a iff 1 + a invertible: a in {0, 1}, group of order 2
    g = gl_group(RINGS["z3_unital"], 1)
    assert g.order() == 2
    assert g.verify_group_axioms()


def test_gl2_f3_order():
    g = gl_group(RINGS["z3_unital"], 2)
    assert g.order() == 48          # |GL_2(F_3)|


def test_kv1_square_zero_trivial_any_size():
    for label in ("sq0_z2", "sq0_z3"):
        for n in (1, 2):
            pres = kv1_approx(RINGS[label], n, 1)
            assert pres.order == 1
            assert pres.invariant_factors == []


def test_kv1_f3_matches_k1():
    pres = kv1_approx(RINGS["z3_unital"], 2, 1)
    assert pres.order == 2
    assert pres.invariant_factors == [2]
    cert = determinant_certificate(pres)
    assert cert["subgroup_in_kernel"]
    assert cert["determinant_image_order"] == 2
    assert cert["lower_bound_matches"]


def test_kv1_f2_trivial():
    pres = kv1_approx(RINGS["z2_unital"], 2, 1)
    assert pres.order == 1


def test_kv1_monotone_in_degree():
    for label in ("sq0_z2", "sq0_z3"):
        r = RINGS[label]
        orders = [kv1_approx(r, 2, d).order for d in (1, 2)]
        assert orders[0] >= orders[1]


def test_kv1_higher_degree_is_a_further_quotient():
    # the identified subgroup grows with the degree bound, so the level
    # (n, d') presentation is literally a quotient of the level (n, d) one
    for label in ("sq0_z2", "z3_unital"):
        r = RINGS[label]
        p1 = kv1_approx(r, 2, 1)
        p2 = kv1_approx(r, 2, 2)
        assert set(p1.subgroup) <= set(p2.subgroup)
        # same-class at d=1 implies same-class at d=2
        for m in p1.group.elements:
            for h in p1.subgroup:
                assert p2.class_of(p2.group.op(m, h)) == p2.class_of(m)


def test_stabilization_preserves_identified_subgroup():
    # generators identified with the identity at size n stay identified
    # after the diag(M, 0) embedding into size n+1
    r = RINGS["sq0_z2"]
    small = kv1_approx(r, 1, 1)
    big = kv1_approx(r, 2, 1)
    zero_class = big.class_of(mat_zero(r, 2))
    for h in small.subgroup:
        embedded = stabilize(r, h, 2)
        assert big.class_of(embedded) == zero_class


def test_elementary_matrices_land_in_identity_class():
    # e_12(a) has M part a E_12; the path (a t) E_12 pins it to the class
    # of the identity at degree 1
    r = RINGS["z3_unital"]
    pres = kv1_approx(r, 2, 1)
    zero_class = pres.class_of(mat_zero(r, 2))
    for a in r.elements():
        m = ((r.zero(), a), (r.zero(), r.zero()))
        assert pres.class_of(m) == zero_class


def test_stabilization_embedding_is_a_group_hom():
    rng = random.Random(2)
    r = RINGS["sq0_z3"]
    g2 = gl_group(r, 2)
    for _ in range(40):
        a = g2.elements[rng.randrange(len(g2.elements))]
        b = g2.elements[rng.randrange(len(g2.elements))]
        big_ab = stabilize(r, g2.op(a, b), 3)
        assert big_ab == circle(r, stabilize(r, a, 3), stabilize(r, b, 3))


def test_kv1_monotone_under_stabilization():
    r = RINGS["sq0_z2"]
    p1 = kv1_approx(r, 1, 1)
    p2 = kv1_approx(r, 2, 1)
    assert p2.order <= p1.order


def test_polynomial_matrix_quasi_inverse():
    # over a square-zero base every polynomial matrix is quasi-invertible
    r = RINGS["sq0_z2"]
    pring = PolyRing(r, ("t",))
    m = ((pring.monomial(r.gen(0), (("t", 1),)),),)
    res = quasi_inverse(pring, m)
    assert res.status == "ok"


def test_circle_determinant_multiplicative():
    rng = random.Random(3)
    r = RINGS["z3_unital"]
    g = gl_group(r, 2)
    for _ in range(50):
        a = g.elements[rng.randrange(len(g.elements))]
        b = g.elements[rng.randrange(len(g.elements))]
        assert circle_determinant(r, g.op(a, b)) == r.mul(
            circle_determinant(r, a), circle_determinant(r, b))


def test_strict_pi0_partitions():
    assert strict_pi0(["a", "b", "c"], []) == [["a"], ["b"], ["c"]]
    assert strict_pi0(["a", "b", "c"], [("a", "b"), ("b", "c")]) == [
        ["a", "b", "c"]]
    assert strict_pi0([1, 2, 3, 4], [(1, 2), (3, 4)]) == [[1, 2], [3, 4]]


def test_gl_group_memo_lives_on_the_ring():
    r = corpus()["sq0_z3"]
    g = gl_group(r, 2)
    assert gl_group(r, 2) is g
    assert gl_group(corpus()["sq0_z3"], 2) is not g
    # the group's code tables are the ring's, which hom enumeration and
    # the homotopy search share; a search leaves its check tables and
    # annihilators on the ring too, and none of them, nor the code
    # tables' closures over the ring, may keep it alive
    assert g._add is r.derived[("codes",)].add
    assert len(homotopy_classes(enumerate_homs(r, r), 2).classes()) == 1
    assert set(r.derived) == {("codes",), ("gl", 2), ("checks", 0),
                              ("checks", 1), ("annihilator", 3)}
    ref = weakref.ref(r)
    del r, g
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# closure and normality on GL_2(F_2) = S_3


def _s3():
    g = gl_group(RINGS["z2_unital"], 2)
    order = {}
    for m in g.elements:
        k, x = 1, m
        while x != g.identity():
            k, x = k + 1, g.op(x, m)
        order[m] = k
    return g, order


def test_closure_ignores_redundant_generators():
    g, order = _s3()
    c = next(m for m in g.elements if order[m] == 3)
    single = g.subgroup_closure([c])
    assert len(single) == 3
    assert g.subgroup_closure([c, g.op(c, c), g.identity(), c]) == single
    t1, t2 = [m for m in g.elements if order[m] == 2][:2]
    assert g.subgroup_closure([t1, t2]) == g.elements
    for a in g.elements:
        for b in g.elements:
            assert g.subgroup_closure([a, b]) == _naive_closure(g, [a, b])


def test_normality_on_s3_subgroups():
    g, order = _s3()
    c = next(m for m in g.elements if order[m] == 3)
    assert g.is_normal(g.subgroup_closure([c]))
    for t in (m for m in g.elements if order[m] == 2):
        assert not g.is_normal(g.subgroup_closure([t]))
    assert g.is_normal(g.elements)
    assert g.is_normal([g.identity()])


def _normal_by_definition(group, subgroup):
    sub = set(subgroup)
    return all(group.op(group.op(g, h), group.inv(g)) in sub
               for g in group.elements for h in subgroup)


@pytest.mark.parametrize("label", ["z2_unital", "z3_unital"])
def test_normality_matches_the_definition_on_gl2(label):
    # every subgroup of GL_2(F_2) or GL_2(F_3) generated by one or two
    # elements, given as its closure (normality on the generators the
    # closure kept) and as a plain list (on all of its elements)
    g = gl_group(RINGS[label], 2)
    verdicts = {}
    for a, b in itertools.combinations_with_replacement(g.elements, 2):
        sub = g.subgroup_closure([a, b])
        key = tuple(sub)
        if key not in verdicts:
            verdicts[key] = _normal_by_definition(g, sub)
            assert g.is_normal(list(sub)) == verdicts[key]
        assert g.is_normal(sub) == verdicts[key]
    assert True in verdicts.values() and False in verdicts.values()


def _ceiling_out_of_reach(monkeypatch):
    """Double the ceiling K of kv1_approx with codes that are no matrix:
    the identified subgroup has at most |K| elements, half the doubled
    ceiling, so neither the stop nor the Lagrange cut can fire."""
    path_ends = glk._path_ends

    def doubled(group):
        ends = path_ends(group)
        return ends | {("out of reach", i) for i in range(len(ends))}
    monkeypatch.setattr(glk, "_path_ends", doubled)


def test_kv1_rejects_a_subgroup_that_is_not_normal(monkeypatch):
    _ceiling_out_of_reach(monkeypatch)
    monkeypatch.setattr(CircleGroup, "is_normal", lambda self, sub: False)
    with pytest.raises(VerificationFailure):
        kv1_approx(corpus()["sq0_z2"], 1, 1)


def test_group_axiom_failures_are_typed_errors():
    r = RINGS["sq0_z2"]
    g = gl_group(r, 2)
    one = g.elements[1]
    pair = CircleGroup(r, 2, [g.identity(), one],
                       {g.identity(): g.identity(), one: one})
    assert pair.verify_group_axioms()           # Z/2 inside GL_2
    missing = CircleGroup(r, 2, g.elements[1:], g.witnesses)
    with pytest.raises(VerificationFailure, match="identity"):
        missing.verify_group_axioms()
    other = next(m for m in g.elements[2:] if g.op(one, m) not in
                 (g.identity(), one))
    open_set = CircleGroup(r, 2, [g.identity(), one, other], g.witnesses)
    with pytest.raises(VerificationFailure, match="not closed"):
        open_set.verify_group_axioms()


def test_group_axioms_catch_a_wrong_witness():
    r = RINGS["z3_unital"]
    g = gl_group(r, 2)
    a, b = g.elements[1], g.elements[2]
    wrong = dict(g.witnesses)
    wrong[a] = g.witnesses[b]
    with pytest.raises(VerificationFailure, match="inverse law") as err:
        CircleGroup(r, 2, g.elements, wrong).verify_group_axioms()
    assert err.value.witness == a


def test_group_axioms_catch_a_non_associative_ring():
    # g0 g1 = g1 g0 = g1 and the other products 0 over Z/2: (g0 g0) g1 = 0
    # but g0 (g0 g1) = g1, so only a ring built without validate_ring has it
    table = (((0, 0), (0, 1)), ((0, 1), (0, 0)))
    with pytest.raises(NotAssociative):
        validate_ring((2, 2), table)
    r = FiniteRing((2, 2), table, label="not-assoc")
    z = mat_zero(r, 1)
    elements = [((x,),) for x in r.elements()]
    witnesses = {a: next(b for b in elements if circle(r, a, b) == z
                         and circle(r, b, a) == z) for a in elements}
    group = CircleGroup(r, 1, elements, witnesses)
    with pytest.raises(VerificationFailure, match="associativity"):
        group.verify_group_axioms()


def test_determinant_certificate_needs_commutative_unit():
    with pytest.raises(BadUnit):
        determinant_certificate(kv1_approx(RINGS["sq0_z2"], 1, 1))


@pytest.mark.parametrize("build,bad", [
    (lambda r: kv1_approx(r, 1, 0), "path degree 0"),
    (lambda r: kv1_approx(r, 0, 1), "matrix size 0"),
    (lambda r: gl_group(r, 0), "matrix size 0"),
    (lambda r: gl_group(r, -1), "matrix size -1")],
    ids=["kv1-degree-0", "kv1-size-0", "gl-size-0", "gl-size-negative"])
def test_degenerate_levels_are_typed_errors(build, bad):
    with pytest.raises(IndexOutOfRange, match=bad):
        build(RINGS["z3_unital"])


@pytest.mark.parametrize("label", ["graded_dual", "z3_unital", "z4_unital"])
def test_determinants_once_per_group_element(label, monkeypatch):
    # the endpoint filter and the side certificate read one map on the
    # group, and the certificate keeps the values of the tuple Leibniz
    # determinant
    ring = corpus()[label]
    seen = []
    det = CircleGroup._det

    def counted(self, c):
        seen.append(c)
        return det(self, c)

    monkeypatch.setattr(CircleGroup, "_det", counted)
    pres = kv1_approx(ring, 2, 1)
    cert = determinant_certificate(pres)
    group = pres.group
    assert sorted(seen) == group._codes
    assert [group._decode(c) for c in group._codes] == group.elements
    dets_sub = {tuple_circle_determinant(ring, h) for h in pres.subgroup}
    dets_all = {tuple_circle_determinant(ring, g) for g in group.elements}
    assert cert == {"subgroup_determinants": sorted(dets_sub),
                    "determinant_image_order": len(dets_all),
                    "subgroup_in_kernel": dets_sub == {ring.unit},
                    "lower_bound_matches": len(dets_all) <= pres.order}


def test_glk_checks_survive_optimized_python():
    code = """if True:
        from hotring import BadUnit, CircleGroup, VerificationFailure, corpus
        from hotring import determinant_certificate, gl_group, kv1_approx
        r = corpus()["sq0_z2"]
        g = gl_group(r, 2)
        try:
            CircleGroup(r, 2, g.elements[1:], g.witnesses).verify_group_axioms()
            raise SystemExit("axioms passed")
        except VerificationFailure:
            pass
        try:
            determinant_certificate(kv1_approx(r, 1, 1))
            raise SystemExit("certificate issued")
        except BadUnit:
            pass
    """
    src = os.path.dirname(os.path.dirname(hotring.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


# ---------------------------------------------------------------------------
# the KV_1 pipeline against its first, unpruned form


def _naive_closure(group, gens):
    seen = {group.identity()}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        if g in seen:
            continue
        seen.add(g)
        frontier.append(group.inv(g))
        for h in list(seen):
            frontier.append(group.op(g, h))
            frontier.append(group.op(h, g))
    return sorted(seen)


def _kv1_reference(ring, n, degree):
    """quasi_inverse on every path candidate, closure over all products,
    normality under every conjugation."""
    group = gl_group(ring, n)
    pring = PolyRing(ring, ("t",))
    zero = mat_zero(ring, n)
    mats = [tuple(tuple(c[i * n + j] for j in range(n)) for i in range(n))
            for c in itertools.product(ring.elements(), repeat=n * n)]
    gens = set()
    for coeffs in itertools.product(mats, repeat=degree):
        if all(m == zero for m in coeffs):
            continue
        pm = _poly_matrix(pring, "t", [zero] + list(coeffs))
        if quasi_inverse(pring, pm).status != "ok":
            continue
        end = tuple(tuple(constant_of(ring, evaluate(ring, p, "t", 1))
                          for p in row) for row in pm)
        if end != zero:
            gens.add(end)
    gens = sorted(gens)
    subgroup = _naive_closure(group, gens)
    seen = set(subgroup)
    for g in group.elements:
        for h in subgroup:
            assert group.op(group.op(g, h), group.inv(g)) in seen

    class_map, reps = {}, []
    for m in group.elements:
        if m not in class_map:
            coset = sorted(group.op(m, h) for h in seen)
            reps.append(coset[0])
            for x in coset:
                class_map[x] = len(reps) - 1
    return gens, subgroup, reps, class_map, _quotient_invariants(
        group, reps, class_map)


# tower3 and upper3_z2 at n = 2 have 4096-element groups, out of the
# reference's quadratic reach
KV1_LEVELS = (
    [(label, n, d) for label in sorted(RINGS)
     for n, d in ((1, 1), (1, 2), (1, 3))]
    + [(label, 2, 1) for label in sorted(RINGS)
       if label not in ("tower3", "upper3_z2")]
    + [("sq0_z2", 2, 2), ("z2_unital", 2, 2), ("z3_unital", 2, 2)])


@pytest.mark.parametrize("label,n,d", KV1_LEVELS)
def test_kv1_matches_unpruned_reference(label, n, d):
    ring = RINGS[label]
    _, subgroup, reps, class_map, inv = _kv1_reference(ring, n, d)
    pres = kv1_approx(ring, n, d)
    assert pres.group.subgroup_closure(pres.generators) == subgroup
    assert pres.subgroup == subgroup
    assert pres.reps == reps
    assert pres.class_map == class_map
    assert pres.invariant_factors == inv


def _count_calls(monkeypatch, owner, name):
    calls = []
    wrapped = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)
    monkeypatch.setattr(owner, name, counting)
    return calls


def _decided_by_walk(ring, n, d):
    """How many path candidates kv1_approx decides: those, in order, whose
    end is in the ceiling and outside the closure of the ends found
    before; decided here by quasi_inverse over A[t]."""
    group = gl_group(ring, n)
    pring = PolyRing(ring, ("t",))
    zero = mat_zero(ring, n)
    ceiling = {group._decode(c) for c in _path_ends(group)}
    found, closure, decided = [], {zero}, 0
    for coeffs in itertools.product(matrices(ring, n), repeat=d):
        end = functools.reduce(lambda a, b: tuple(
            tuple(map(ring.add, x, y)) for x, y in zip(a, b)), coeffs)
        if end not in ceiling or end in closure:
            continue
        decided += 1
        pm = _poly_matrix(pring, "t", [zero] + list(coeffs))
        if quasi_inverse(pring, pm).status == "ok":
            found.append(end)
            closure = set(group.subgroup_closure(found))
    return decided


@pytest.mark.parametrize("label,n,d", [
    ("z3_unital", 2, 2), ("z2_unital", 2, 2), ("sq0_z2", 2, 2),
    ("graded_dual", 2, 1), ("z4_unital", 2, 1), ("z3_unital", 1, 3)])
def test_kv1_with_its_ceiling_out_of_reach_runs_every_step(monkeypatch,
                                                           label, n, d):
    # the stop and the cut change no output; without them every candidate
    # that could enlarge H is decided and H is tested for normality
    ring = RINGS[label]
    stopped = kv1_approx(ring, n, d)
    _ceiling_out_of_reach(monkeypatch)
    decided = _count_calls(monkeypatch, glk, "_t_adic_quasi_inverse")
    normal = _count_calls(monkeypatch, CircleGroup, "is_normal")
    pres = kv1_approx(ring, n, d)
    assert len(decided) == _decided_by_walk(ring, n, d)
    assert len(normal) == 1
    assert pres.subgroup == stopped.subgroup
    assert pres.reps == stopped.reps
    assert pres.class_map == stopped.class_map
    assert pres.invariant_factors == stopped.invariant_factors
    assert pres.generators == stopped.generators


def test_kv1_stops_deciding_once_the_subgroup_meets_its_ceiling(monkeypatch):
    # 386 candidates were decided on z3_unital (2, 2) before the stop; SL_2
    # is generated by the first two ends found
    decided = _count_calls(monkeypatch, glk, "_t_adic_quasi_inverse")
    normal = _count_calls(monkeypatch, CircleGroup, "is_normal")
    pres = kv1_approx(corpus()["z3_unital"], 2, 2)
    assert len(pres.subgroup) == 24
    assert len(decided) <= 5
    assert not normal


def test_lagrange_cut_keeps_a_subgroup_of_index_two():
    # z3_unital (2, 2)'s H = SL_2(F_3) has 24 = 48/2 elements: the cut
    # returns G only past 24, so closing H gives H
    pres = kv1_approx(RINGS["z3_unital"], 2, 2)
    g = pres.group
    assert g.order() == 48 and len(pres.subgroup) == 24
    assert g.subgroup_closure(pres.subgroup) == pres.subgroup
    assert g.subgroup_closure(pres.generators) == pres.subgroup
    outside = next(m for m in g.elements if m not in pres.subgroup)
    assert g.subgroup_closure(pres.generators + [outside]) == g.elements
    # past |G|/2 elements the closure is G, and gens is read no further
    read = []

    def codes():
        for c in g._codes:
            read.append(c)
            yield c
    closure, kept = g._generate(codes())
    assert closure == set(g._codes)
    assert len(read) < len(g._codes)


def test_kv1_path_count_over_budget_is_refused():
    # GL_2(F_3) has 3^4 = 81 codes, within budget; its degree-2 paths
    # number 3^8 = 6561
    with pytest.raises(BudgetExceeded) as refused:
        kv1_approx(corpus()["z3_unital"], 2, 2, budget=1000)
    assert (refused.value.required, refused.value.budget) == (6561, 1000)


def _m2_f2():
    """M_2(F_2) on e11, e12, e21, e22: e_ij e_kl = [j = k] e_il."""
    cells = [(i, j) for i in range(2) for j in range(2)]
    table = [[tuple(int(j == k and (i, l) == c) for c in cells)
              for k, l in cells] for i, j in cells]
    return validate_ring((2,) * 4, table, unit=(1, 0, 0, 1), label="m2_f2")


def test_kv1_on_a_noncommutative_ring_with_unit():
    # K = GL_1(M_2(F_2)) = GL_2(F_2) of order 6, and the determinant
    # certificate refuses a ring that is not commutative
    ring = _m2_f2()
    assert ring.unit is not None and not _is_commutative(ring)
    pres = kv1_approx(ring, 1, 1)
    group = pres.group
    assert group.order() == 6
    assert _path_ends(group) == set(group._codes)
    assert pres.order == 1 and len(pres.subgroup) == 6
    with pytest.raises(BadUnit):
        determinant_certificate(pres)


@pytest.mark.parametrize("label", ["tower3", "upper3_z2"])
def test_kv1_on_4096_element_groups(label):
    pres = kv1_approx(RINGS[label], 2, 1)
    assert pres.group.order() == 4096
    assert pres.order == 1


@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("label", ["graded_dual", "z2_unital", "z3_unital",
                                   "z4_unital"])
def test_endpoint_filter_skips_only_paths_that_are_not_quasi_invertible(
        label, n, d):
    # a nonzero end outside _path_ends, in GL_n(A) or not, never ends a
    # quasi-invertible path
    ring = RINGS[label]
    group = gl_group(ring, n)
    ends = _path_ends(group)
    pring, candidates = _path_candidates(ring, n, d)
    by_determinant = 0
    for pm in candidates:
        end = tuple(tuple(constant_of(ring, evaluate(ring, p, "t", 1))
                          for p in row) for row in pm)
        if end == mat_zero(ring, n) or group._encode(end) in ends:
            continue
        assert quasi_inverse(pring, pm).status == "not_qi"
        by_determinant += end in group.index
    # 1 + N is all of A^x for F_2, Z/4 and F_2[v]/(v^2), but not for F_3
    assert (by_determinant > 0) == (label == "z3_unital")


@pytest.mark.parametrize("label,n", [("two_z8", 2), ("tower2", 2),
                                     ("sq0_z2", 3)])
def test_kv1_nilpotent_base_is_trivial(label, n):
    # over a nilpotent base t*M is a quasi-invertible path from 0 to any M
    pres = kv1_approx(RINGS[label], n, 1)
    assert pres.order == 1
    assert len(pres.subgroup) == pres.group.order()


# ---------------------------------------------------------------------------
# circle powers against the strategy cascade they replaced, and against
# brute force where that cascade had only its enumeration


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("label", sorted(RINGS))
def test_finite_quasi_inverse_matches_the_cascade(label, n):
    ring = RINGS[label]
    expected = {}
    for m in matrices(ring, n):
        status, witness = quasi_inverse_cascade(ring, m)
        res = quasi_inverse(ring, m)
        assert (res.status, res.witness) == (status, witness)
        if status == "ok":
            expected[m] = witness
    group = gl_group(ring, n)
    assert group.elements == sorted(expected)
    assert group.witnesses == expected


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("label", sorted(RINGS))
def test_finite_quasi_inverse_matches_tuple_circle_powers(label, n):
    # the circle powers on codes decide as the tuple circle powers do, on
    # every matrix of a corpus ring with at most 5000 of them
    ring = RINGS[label]
    assert ring.size() ** (n * n) <= 5000
    for m in matrices(ring, n):
        res = quasi_inverse(ring, m)
        assert (res.status, res.witness) == circle_power_quasi_inverse(ring,
                                                                       m)


COMMUTATIVE_UNITAL = [label for label in sorted(RINGS)
                      if RINGS[label].unit is not None
                      and _is_commutative(RINGS[label])]


@pytest.mark.parametrize("label,n", [(label, n) for label in COMMUTATIVE_UNITAL
                                     for n in (1, 2)] + [("z3_unital", 3)])
def test_coded_determinant_matches_tuple_leibniz(label, n):
    # det(I + M) by Leibniz on the code tables equals Leibniz by the ring's
    # tuple arithmetic on every element of GL_n(A), GL_3(F_3) included
    ring = RINGS[label]
    group = gl_group(ring, n)
    dets = group.determinants
    assert list(dets) == group._codes
    for m in group.elements:
        expected = tuple_circle_determinant(ring, m)
        assert group._element[dets[group._encode(m)]] == expected
        assert circle_determinant(ring, m) == expected
    if label == "z3_unital":
        assert group.order() == {1: 2, 2: 48, 3: 11232}[n]


@pytest.mark.parametrize("label,n", [(label, 1) for label in sorted(RINGS)]
                         + [("sq0_z2", 2), ("z2_unital", 2),
                            ("z3_unital", 2)])
def test_coded_product_decodes_to_circle(label, n):
    ring = RINGS[label]
    group = gl_group(ring, n)
    for a in group.elements:
        for b in group.elements:
            assert group.op(a, b) == circle(ring, a, b)


def _upper_triangular_f2():
    """T_2(F_2) on e11, e12, e22: unital, not commutative, not nilpotent,
    so only enumeration settled it before the circle powers."""
    return validate_ring(
        (2, 2, 2),
        (((1, 0, 0), (0, 1, 0), (0, 0, 0)),
         ((0, 0, 0), (0, 0, 0), (0, 1, 0)),
         ((0, 0, 0), (0, 0, 0), (0, 0, 1))),
        unit=(1, 0, 1), label="T2_F2")


def _check_against_brute_force(ring, group, m):
    found = witnesses_by_enumeration(ring, m)
    assert len(found) <= 1              # quasi-inverses are unique
    res = quasi_inverse(ring, m)
    assert res.status == ("ok" if found else "not_qi")
    assert res.witness == (found[0] if found else None)
    assert group.witnesses.get(m) == res.witness


def test_gl1_upper_triangular_f2_by_brute_force():
    ring = _upper_triangular_f2()
    group = gl_group(ring, 1)
    e12 = ((ring.gen(1),),)
    assert group.elements == [mat_zero(ring, 1), e12]
    for m in matrices(ring, 1):
        _check_against_brute_force(ring, group, m)
    assert group.verify_group_axioms()


def test_gl2_upper_triangular_f2_by_brute_force():
    ring = _upper_triangular_f2()
    group = gl_group(ring, 2)
    # I + M runs over the invertible upper triangular block matrices:
    # two diagonal blocks in GL_2(F_2) and any corner block in M_2(F_2)
    assert group.order() == 6 * 6 * 16
    rng = random.Random(6)
    outside = [m for m in matrices(ring, 2) if m not in group.index]
    for m in rng.sample(group.elements, 4) + rng.sample(outside, 4):
        _check_against_brute_force(ring, group, m)


# ---------------------------------------------------------------------------
# quasi-invertibility over A[t]: the t-adic recurrence against the strategy
# cascade it replaced, against adjugate and determinant, and against brute
# force


def _path_candidates(ring, n, degree):
    """Every n x n matrix P over ring[t] with P(0) = 0 and deg P <= degree."""
    pring = PolyRing(ring, ("t",))
    zero = mat_zero(ring, n)
    return pring, [_poly_matrix(pring, "t", (zero,) + coeffs)
                   for coeffs in itertools.product(matrices(ring, n),
                                                   repeat=degree)]


PATH_LEVELS = [(1, 1), (1, 2), (1, 3), (2, 1)]


@pytest.mark.parametrize("n,d", PATH_LEVELS)
@pytest.mark.parametrize("label", sorted(RINGS))
def test_path_quasi_inverse_matches_the_cascade(label, n, d):
    pring, candidates = _path_candidates(RINGS[label], n, d)
    for pm in candidates:
        res = quasi_inverse(pring, pm)
        expected = quasi_inverse_poly_cascade(pring, pm, witness_degree=2 * d)
        assert (res.status, res.witness) == expected


@pytest.mark.parametrize("n,d", PATH_LEVELS)
@pytest.mark.parametrize("label", ["graded_dual", "z2_unital", "z3_unital",
                                   "z4_unital"])
def test_path_recurrence_matches_the_adjugate(label, n, d):
    # the recurrence decides every ring, unital or not; the oracle inverts
    # I + P by adjugate and determinant
    pring, candidates = _path_candidates(RINGS[label], n, d)
    for pm in candidates:
        res = quasi_inverse(pring, pm)
        assert res.trace == ["t-adic recurrence"]
        assert (res.status, res.witness) == adjugate_quasi_inverse(pring, pm)


def _z16(unit=None):
    return validate_ring((16,), (((1,),),), unit=unit, label="z16")


def test_recurrence_finds_a_witness_past_twice_the_degree():
    # 1 + 2t has inverse 1 + 14t + 4t^2 + 8t^3 over Z/16, a degree-3
    # quasi-inverse of a degree-1 path
    ring = _z16()
    pring = PolyRing(ring, ("t",))
    m = ((pring.monomial((2,), (("t", 1),)),),)
    res = quasi_inverse(pring, m)
    assert res.status == "ok"
    assert res.witness == _poly_matrix(pring, "t", [((c,),) for c in
                                                    ((0,), (14,), (4,), (8,))])
    # so every even a is joined to 0 by the path a t, and GL_1 is one class
    assert kv1_approx(ring, 1, 1).order == 1


def test_recurrence_with_a_constant_term_matches_the_adjugate():
    bare, unital = _z16(), _z16(unit=(1,))
    walk_ring, adj_ring = PolyRing(bare, ("t",)), PolyRing(unital, ("t",))
    for m0, m1 in itertools.product(range(16), repeat=2):
        pm = _poly_matrix(walk_ring, "t", [(((m0,),),), (((m1,),),)])
        walk = quasi_inverse(walk_ring, pm)
        assert walk.trace == ["t-adic recurrence"]
        assert (walk.status, walk.witness) == adjugate_quasi_inverse(adj_ring,
                                                                     pm)
        # 1 + m is a unit of Z/16[t] exactly when 1 + m0 is a unit and m1
        # is nilpotent, that is when m0 and m1 are both even
        assert walk.status == ("ok" if m0 % 2 == m1 % 2 == 0 else "not_qi")
    # 2 + 2t: 1 + m = 3 + 2t has inverse 11 + 14t + 12t^2 + 8t^3
    pm = _poly_matrix(walk_ring, "t", [(((2,),),), (((2,),),)])
    assert quasi_inverse(walk_ring, pm).witness == _poly_matrix(
        walk_ring, "t", [(((c,),),) for c in (10, 14, 12, 8)])


def test_kv1_decides_paths_without_the_public_wrapper(monkeypatch):
    # path candidates are decided on the group's codes: no PolyRing is
    # built and quasi_inverse is never called
    calls = {"quasi_inverse": 0, "PolyRing": 0}
    qi, init = hotring.glk.quasi_inverse, PolyRing.__init__

    def counted_qi(*args):
        calls["quasi_inverse"] += 1
        return qi(*args)

    def counted_init(self, *args, **kwargs):
        calls["PolyRing"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(hotring.glk, "quasi_inverse", counted_qi)
    monkeypatch.setattr(PolyRing, "__init__", counted_init)
    pres = kv1_approx(corpus()["graded_dual"], 2, 1)
    assert pres.order == 1
    assert calls == {"quasi_inverse": 0, "PolyRing": 0}


def test_broken_recurrence_trips_the_convolution_check(monkeypatch):
    # with q_i = m_i + w_0 m_i unnegated, 2t over Z/16 gets the "witness"
    # 2t + 4t^2 + 8t^3, and m o w = 4t + 8t^2 is caught
    monkeypatch.setattr(CircleGroup, "_mat_neg", lambda self, a: a)
    ring = _z16()
    pring = PolyRing(ring, ("t",))
    with pytest.raises(VerificationFailure, match="t-adic quasi-inverse"):
        quasi_inverse(pring, ((pring.monomial((2,), (("t", 1),)),),))
    with pytest.raises(VerificationFailure, match="t-adic quasi-inverse"):
        kv1_approx(ring, 1, 1)


@pytest.mark.parametrize("d", [1, 2])
def test_path_quasi_inverse_upper_triangular_f2_by_brute_force(d):
    # T_2(F_2) is unital but not commutative, so the recurrence decides it
    ring = _upper_triangular_f2()
    pring, candidates = _path_candidates(ring, 1, d)
    for pm in candidates:
        res = quasi_inverse(pring, pm)
        if res.status == "ok":
            assert is_circle_witness(pring, pm, res.witness)
        else:
            assert res.status == "not_qi"
            assert witnesses_up_to_degree(pring, pm, 3) == []


def test_constant_term_upper_triangular_f2_by_brute_force():
    # m0 + m1 t over T_2(F_2): m0 need not be 0 or quasi-invertible
    ring = _upper_triangular_f2()
    pring, elements = PolyRing(ring, ("t",)), list(ring.elements())
    for m0, m1 in itertools.product(elements, repeat=2):
        pm = _poly_matrix(pring, "t", [((m0,),), ((m1,),)])
        found = witnesses_up_to_degree(pring, pm, 3)
        res = quasi_inverse(pring, pm)
        assert res.status == ("ok" if found else "not_qi")
        assert res.witness == (found[0] if found else None)


def test_path_quasi_inverse_over_the_zero_ring():
    from hotring import zero_ring
    for ring in (zero_ring(), validate_ring((), (), label="0-nu")):
        pring = PolyRing(ring, ("t",))
        for n in (1, 2):
            z = mat_zero(pring, n)
            res = quasi_inverse(pring, z)
            assert (res.status, res.witness) == ("ok", z)
        assert kv1_approx(ring, 2, 1).order == 1


def test_quasi_inverse_unknown_only_off_one_finite_variable():
    ring = RINGS["sq0_z2"]
    two = PolyRing(ring, ("s", "t"))
    m = ((two.monomial(ring.gen(0), (("s", 1), ("t", 1))),),)
    assert quasi_inverse(two, m).status == "unknown"
    from hotring.rings import ZZ
    zt = PolyRing(ZZ, ("t",))
    assert quasi_inverse(zt, ((zt.monomial(2, (("t", 1),)),),)).status == \
        "unknown"


def test_qi_result_truth_and_repr():
    """A QiResult is true exactly when it decided "ok"; its repr names
    the status and the strategies tried."""
    sq0, unital = RINGS["sq0_z2"], RINGS["z2_unital"]
    two = PolyRing(sq0, ("s", "t"))
    results = [quasi_inverse(sq0, ((sq0.gen(0),),)),
               quasi_inverse(unital, ((unital.gen(0),),)),
               quasi_inverse(two, ((two.monomial(sq0.gen(0),
                                                 (("s", 1), ("t", 1))),),))]
    assert [bool(res) for res in results] == [True, False, False]
    assert [repr(res) for res in results] == [
        "<qi ok; trace ['circle powers(1)']>",
        "<qi not_qi; trace ['circle powers(1)']>",
        "<qi unknown; trace ['no strategy applied']>"]
