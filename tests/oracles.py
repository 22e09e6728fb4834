"""Independent brute-force oracles shared by the test modules."""

from itertools import combinations


def det_int(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * det_int([row[:j] + row[j + 1:]
                                                for row in mat[1:]])
               for j in range(n))


def gcd_int(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def minors_gcd_invariants(mat):
    """Invariant factors via gcds of i x i minors (classical, independent
    of the Smith normal form pivoting path)."""
    m, n = len(mat), len(mat[0]) if mat else 0
    r = min(m, n)
    dets = [1]
    for size in range(1, r + 1):
        g = 0
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                g = gcd_int(g, det_int([[mat[i][j] for j in cols]
                                        for i in rows]))
        dets.append(abs(g))
    out = []
    for i in range(1, r + 1):
        out.append(0 if dets[i] == 0 else dets[i] // dets[i - 1])
    return out


# ---------------------------------------------------------------------------
# generator-level search: one whole image per option, as before the search
# by coefficient


def generator_level_images(source, target, options, budget, to_image=None,
                           tried=None):
    """Depth-first search over whole generator images, options[i] listing
    the candidates for generator i; a pair (i, j) is checked with
    carrier_first_nonmultiplicative once i, j and the support of g_i g_j
    are all assigned.  tried[0] counts every option tried."""
    from hotring.errors import BudgetExceeded
    from hotring.rings import _all_pairs

    k = source.ngens
    total = 1
    for opts in options:
        total *= len(opts)
    if total > budget:
        raise BudgetExceeded(total, budget)
    checks_at = [[] for _ in range(k)]
    for i, j in _all_pairs(source):
        support = [l for l, c in enumerate(source.table[i][j]) if c]
        checks_at[max([i, j] + support)].append((i, j))
    tried = tried if tried is not None else [0]
    images = [None] * k

    def extend(step):
        if step == k:
            yield list(images)
            return
        for x in options[step]:
            tried[0] += 1
            images[step] = x if to_image is None else to_image(x)
            if carrier_first_nonmultiplicative(source, target, images,
                                               checks_at[step]) is None:
                yield from extend(step + 1)
        images[step] = None

    return extend(0)


def enumerate_homs_oracle(source, target, budget=1_000_000):
    """Generator images of every hom source -> target, in search order."""
    candidates = [[x for x in target.elements()
                   if target.is_zero(target.scalar(d, x))]
                  for d in source.orders]
    return [tuple(images) for images in
            generator_level_images(source, target, candidates, budget)]


def search_elementary_oracle(f0, f1, degree, budget=200_000, var="x"):
    """("hit", images) or ("miss", searched), the outcome of building a
    polynomial for every option of every generator and checking whole
    pairs in R[var]; raises BudgetExceeded like search_elementary."""
    from itertools import product

    from hotring.homotopy import carrier_ring

    src, ring = f0.source, f0.target
    carrier = carrier_ring(ring, var)
    per_gen = []
    for i in range(src.ngens):
        lo, hi = f0.images[i], f1.images[i]
        if degree == 0:
            per_gen.append([(lo,)] if lo == hi else [])
            continue
        ann = sorted(x for x in ring.elements()
                     if ring.is_zero(ring.scalar(src.orders[i], x)))
        options = []
        for mid in product(ann, repeat=degree - 1):
            top = ring.sub(hi, lo)
            for c in mid:
                top = ring.sub(top, c)
            options.append((lo,) + mid + (top,))
        per_gen.append(options)

    def to_poly(coeffs):
        acc = carrier.zero()
        for e, c in enumerate(coeffs):
            acc = carrier.add(acc, carrier.monomial(c, ((var, e),))
                              if e else carrier.const(c))
        return acc

    searched = [0]
    found = next(generator_level_images(src, carrier, per_gen, budget,
                                        to_image=to_poly, tried=searched),
                 None)
    if found is None:
        return ("miss", searched[0])
    return ("hit", tuple(found))


# ---------------------------------------------------------------------------
# the search by coefficient on tuple arithmetic, as it ran before the search
# moved onto element codes


def multiplicative_images_reference(source, target, slots, budget,
                                    sums=None, tried=None):
    """rings._multiplicative_images on target elements (tuples) and the
    target's own add, mul, scalar and sub: the same check schedule
    (rings._coefficient_checks), the same order and the same option
    counts, with no element code or code table."""
    from hotring.errors import BudgetExceeded
    from hotring.rings import _coefficient_checks

    k = source.ngens
    total = 1
    below = []
    for gen_slots in slots:
        counts = [1] * len(gen_slots)
        for s in range(len(gen_slots) - 1, 0, -1):
            counts[s - 1] = counts[s] * len(gen_slots[s])
        below.append(counts)
        total *= counts[0] * len(gen_slots[0])
    if total > budget:
        raise BudgetExceeded(total, budget)
    free = len(slots[0]) if k else 0
    top = free if sums is not None else free - 1
    checks = _coefficient_checks(source, top)
    zero = target.zero()
    coeffs = [[None] * (top + 1) for _ in range(k)]

    def holds(todo):
        for i, j, e, terms, pairs in todo:
            lhs = zero
            for l, t in terms:
                lhs = target.add(lhs, target.scalar(t, coeffs[l][e]))
            rhs = zero
            for a, b in pairs:
                rhs = target.add(rhs, target.mul(coeffs[i][a], coeffs[j][b]))
            if lhs != rhs:
                return False
        return True

    tried = tried if tried is not None else [0]

    def extend(m, s):
        if m == k:
            yield [tuple(c) for c in coeffs]
            return
        c = coeffs[m]
        if s == free:
            tried[0] += 1
            if sums is not None:
                rest = sums[m]
                for x in c[:top]:
                    rest = target.sub(rest, x)
                c[top] = rest
                if not holds(checks[m][top]):
                    return
            yield from extend(m + 1, 0)
            return
        for x in slots[m][s]:
            c[s] = x
            if holds(checks[m][s]):
                yield from extend(m, s + 1)
            else:
                tried[0] += below[m][s]

    return extend(0, 0)


def _annihilator_elements(ring, order):
    return [x for x in ring.elements() if ring.is_zero(ring.scalar(order, x))]


def enumerate_homs_reference(source, target, budget=1_000_000):
    """Generator images of every hom, by the tuple-arithmetic search."""
    slots = [[_annihilator_elements(target, d)] for d in source.orders]
    return [tuple(c for (c,) in coeffs) for coeffs in
            multiplicative_images_reference(source, target, slots, budget)]


def search_elementary_reference(f0, f1, degree, budget=200_000):
    """("hit", coefficient lists) or ("miss", searched) of search_elementary,
    by the tuple-arithmetic search."""
    src, ring = f0.source, f0.target
    if degree == 0:
        slots = [[[lo] if lo == hi else []]
                 for lo, hi in zip(f0.images, f1.images)]
        sums = None
    else:
        slots = [[[lo]] + [_annihilator_elements(ring, d)] * (degree - 1)
                 for lo, d in zip(f0.images, src.orders)]
        sums = f1.images
    searched = [0]
    found = next(multiplicative_images_reference(
        src, ring, slots, budget, sums=sums, tried=searched), None)
    if found is None:
        return ("miss", searched[0])
    return ("hit", found)


# ---------------------------------------------------------------------------
# the exact certificate check on carrier polynomials


def carrier_first_nonmultiplicative(source, target, images, pairs=None):
    """The first generator pair (i, j) among pairs (all, in order, when
    None) on which sum_l t_ijl images[l] = images[i] images[j] fails in
    the target's own arithmetic (polynomial arithmetic for a carrier
    R[var]); None when every pair passes.  The multiplicativity check
    verify_certificate ran before it convolved var-slices."""
    if pairs is None:
        pairs = [(i, j) for i in range(source.ngens)
                 for j in range(source.ngens)]
    for i, j in pairs:
        lhs = None
        for l, c in enumerate(source.table[i][j]):
            if c:
                term = images[l] if c == 1 else target.scalar(c, images[l])
                lhs = term if lhs is None else target.add(lhs, term)
        if lhs is None:
            lhs = target.zero()
        if lhs != target.mul(images[i], images[j]):
            return (i, j)
    return None


def verify_certificate_exact_reference(cert):
    """(valid, mode, checked, failure) of the exact check as it ran before
    the single slice pass: per generator image, slicewise membership, the
    order check through the carrier, then both endpoints by substitution
    against f.apply on the generator; multiplicativity over R[var] last,
    on carrier polynomials."""
    from hotring.homotopy import (carrier_ring, eval_endpoint,
                                  slicewise_member)

    ring = cert.target
    carrier = cert.carrier or carrier_ring(ring, cert.var)
    h = cert.hom
    src = h.source
    checked = 0
    for i, img in enumerate(h.images):
        checked += 1
        if not slicewise_member(ring, img, cert.var):
            return (False, "exact", checked, ("membership", i))
        if not carrier.is_zero(carrier.scalar(src.orders[i], img)):
            return (False, "exact", checked, ("order", i))
        if eval_endpoint(ring, img, cert.var, 0) != cert.f0.apply(src.gen(i)):
            return (False, "exact", checked, ("endpoint0", i))
        if eval_endpoint(ring, img, cert.var, 1) != cert.f1.apply(src.gen(i)):
            return (False, "exact", checked, ("endpoint1", i))
    bad = carrier_first_nonmultiplicative(src, carrier, h.images)
    if bad is not None:
        checked += bad[0] * src.ngens + bad[1] + 1
        return (False, "exact", checked, ("multiplicative", bad))
    return (True, "exact", checked + src.ngens ** 2, None)


def homotopy_classes_reference(homs, degree, budget=200_000):
    """(sorted homs, {(i, j): certificate}) of the class closure as it ran
    before degree 0 was skipped between distinct maps: one search_up_to,
    degrees 0..degree, per pair of homs in different classes."""
    from hotring.homotopy import HomotopyCertificate, search_up_to
    from hotring.rings import _UnionFind

    homs = sorted(homs, key=lambda h: h.images)
    uf = _UnionFind(len(homs))
    edges = {}
    for i in range(len(homs)):
        for j in range(i + 1, len(homs)):
            if uf.find(i) == uf.find(j):
                continue
            outcome = search_up_to(homs[i], homs[j], degree, budget=budget)
            if isinstance(outcome, HomotopyCertificate):
                edges[(i, j)] = outcome
                uf.union(i, j)
    return homs, edges


# ---------------------------------------------------------------------------
# matrices over any ring by its tuple arithmetic: the reference that the
# coded arithmetic of hotring.glk is compared against


def mat_zero(ring, n):
    return tuple(tuple(ring.zero() for _ in range(n)) for _ in range(n))


def mat_add(ring, a, b):
    return tuple(tuple(ring.add(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_neg(ring, a):
    return tuple(tuple(ring.neg(x) for x in row) for row in a)


def mat_mul(ring, a, b):
    n = len(a)
    return tuple(tuple(ring.sum(ring.mul(a[i][k], b[k][j]) for k in range(n))
                       for j in range(n)) for i in range(n))


def circle(ring, a, b):
    """The group law on M parts: (I+a)(I+b) = I + (a o b)."""
    return mat_add(ring, mat_add(ring, a, b), mat_mul(ring, a, b))


def is_circle_witness(ring, m, n_mat):
    z = mat_zero(ring, len(m))
    return circle(ring, m, n_mat) == z and circle(ring, n_mat, m) == z


def _perm_sign(perm):
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def det(ring, mat):
    """Leibniz's determinant by the ring's tuple arithmetic."""
    from itertools import permutations

    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = ring.zero()
    for perm in permutations(range(n)):
        prod = None
        for i in range(n):
            prod = mat[i][perm[i]] if prod is None \
                else ring.mul(prod, mat[i][perm[i]])
        acc = ring.add(acc, ring.scalar(_perm_sign(perm), prod))
    return acc


def circle_determinant(ring, m):
    """det(I + m) over a commutative unital finite ring."""
    return det(ring, _unit_shift(ring, m))


def is_nilpotent(ring, x):
    """Whether some power of x is 0; in a finite ring the powers of x
    reach 0 or repeat."""
    seen, p = set(), x
    while not ring.is_zero(p):
        if p in seen:
            return False
        seen.add(p)
        p = ring.mul(p, x)
    return True


def circle_power_quasi_inverse(ring, m):
    """(status, witness) over a finite ring by tuple circle powers: m is
    quasi-invertible when its powers reach 0, and the last power before
    0 is then its witness; a repeat first means it is not."""
    zero, seen, p = mat_zero(ring, len(m)), [], m
    while p != zero and p not in seen:
        seen.append(p)
        p = circle(ring, p, m)
    if p != zero:
        return "not_qi", None
    return "ok", seen[-1] if seen else m


# ---------------------------------------------------------------------------
# quasi-invertibility over a finite ring by the strategy cascade that came
# before the circle-power walk


def matrices(ring, n):
    """Every n x n matrix over the finite ring, in enumeration order."""
    from itertools import product

    return [tuple(tuple(cand[i * n + j] for j in range(n)) for i in range(n))
            for cand in product(ring.elements(), repeat=n * n)]


def witnesses_by_enumeration(ring, m):
    """Every N with m o N = 0 = N o m, by trying all n x n matrices."""
    return [w for w in matrices(ring, len(m)) if is_circle_witness(ring, m, w)]


def _one(ring):
    """The unit of a unital finite ring A, or the constant 1 of A[t]."""
    from hotring.poly import PolyLike

    if isinstance(ring, PolyLike):
        return ring.const(ring.scalar_base.unit)
    return ring.unit


def _unit_shift(ring, m):
    """I + m over a unital finite ring A or over A[t]."""
    one = _one(ring)
    return tuple(tuple(ring.add(e, one) if i == j else e
                       for j, e in enumerate(row)) for i, row in enumerate(m))


def _adjugate(ring, mat):
    """adj(mat)[i][j]: (-1)^(i+j) times the determinant of mat without row
    j and column i."""
    def minor(r0, c0):
        return tuple(tuple(x for c, x in enumerate(row) if c != c0)
                     for r, row in enumerate(mat) if r != r0)

    n = len(mat)
    if n == 1:
        return ((_one(ring),),)
    return tuple(tuple(ring.scalar((-1) ** (i + j), det(ring, minor(j, i)))
                       for j in range(n)) for i in range(n))


def _classical_witness(ring, m, inv_det):
    """inv_det adj(I + m) - I: the quasi-inverse of m over a commutative
    ring when inv_det is the inverse of det(I + m)."""
    inverse = tuple(tuple(ring.mul(inv_det, x) for x in row)
                    for row in _adjugate(ring, _unit_shift(ring, m)))
    identity = _unit_shift(ring, mat_zero(ring, len(m)))
    return mat_add(ring, inverse, mat_neg(ring, identity))


def _invert_in_unital(ring, u):
    """Multiplicative inverse of u in A[t], A finite, commutative and
    unital; None when u is not a unit.  A polynomial is a unit exactly when
    its constant term is a unit and every higher coefficient is
    nilpotent."""
    base = ring.scalar_base
    u0 = next((c for mono, c in u.terms if not mono), base.zero())
    inv0 = next((v for v in base.elements() if base.mul(u0, v) == base.unit),
                None)
    if inv0 is None:
        return None
    w = ring.sub(u, ring.const(u0))
    if not all(is_nilpotent(base, c) for _, c in w.terms):
        return None
    inv0p = ring.const(inv0)
    term, acc = ring.const(base.unit), ring.zero()
    while term != ring.zero():
        acc = ring.add(acc, term)
        term = ring.neg(ring.mul(term, ring.mul(inv0p, w)))
    return ring.mul(inv0p, acc)


def quasi_inverse_cascade(ring, m, budget=200_000):
    """(status, witness) over a finite ring: (a) the alternating series
    over a nilpotent ring, (b) adjugate and determinant of I + m over a
    commutative unital ring, (c) enumeration of every witness within the
    budget; otherwise ("unknown", None)."""
    from hotring.glk import _is_commutative

    n = len(m)
    e = ring.nilpotency_class()
    if e is not None:
        power, acc, sign = m, mat_zero(ring, n), -1
        for _ in range(1, e):
            acc = mat_add(ring, acc, power if sign == 1
                          else mat_neg(ring, power))
            power = mat_mul(ring, power, m)
            sign = -sign
        if is_circle_witness(ring, m, acc):
            return "ok", acc
    if ring.unit is not None and _is_commutative(ring):
        d = circle_determinant(ring, m)
        inv_det = next((v for v in ring.elements()
                        if ring.mul(d, v) == ring.unit), None)
        if inv_det is None:
            return "not_qi", None
        witness = _classical_witness(ring, m, inv_det)
        if is_circle_witness(ring, m, witness):
            return "ok", witness
    if ring.size() ** (n * n) <= budget:
        found = witnesses_by_enumeration(ring, m)
        return ("ok", found[0]) if found else ("not_qi", None)
    return "unknown", None


# ---------------------------------------------------------------------------
# quasi-invertibility over A[t] by adjugate and determinant, and by the
# strategy cascade that came before the t-adic recurrence


def adjugate_quasi_inverse(ring, m):
    """(status, witness) over A[t], A finite, commutative and unital, by
    adjugate and determinant of I + m: ("not_qi", None) when the
    determinant is not a unit of A[t], and ("unknown", None) when the
    witness fails its check."""
    inv_det = _invert_in_unital(ring, circle_determinant(ring, m))
    if inv_det is None:
        return "not_qi", None
    witness = _classical_witness(ring, m, inv_det)
    if is_circle_witness(ring, m, witness):
        return "ok", witness
    return "unknown", None


def quasi_inverse_poly_cascade(ring, m, witness_degree, budget=200_000):
    """(status, witness) over a one-variable polynomial ring A[t], A
    finite: (a) the alternating series over a nilpotent A, (b) adjugate and
    determinant of I + m over a commutative unital A, (c) enumeration of
    every witness of degree <= witness_degree within the budget; otherwise
    ("unknown", None)."""
    from itertools import product

    from hotring.glk import _is_commutative

    base, n = ring.scalar_base, len(m)
    e = base.nilpotency_class()
    if e is not None:
        power, acc, sign = m, mat_zero(ring, n), -1
        for _ in range(1, e):
            acc = mat_add(ring, acc, power if sign == 1
                          else mat_neg(ring, power))
            power = mat_mul(ring, power, m)
            sign = -sign
        if is_circle_witness(ring, m, acc):
            return "ok", acc
    if base.unit is not None and _is_commutative(base):
        status, witness = adjugate_quasi_inverse(ring, m)
        if status != "unknown":
            return status, witness
    slots = n * n * (witness_degree + 1)
    if base.size() ** slots > budget:
        return "unknown", None
    var = ring.vars[-1]
    for cand in product(list(base.elements()), repeat=slots):
        w = []
        for i in range(n):
            row = []
            for j in range(n):
                off = (i * n + j) * (witness_degree + 1)
                p = ring.zero()
                for k in range(witness_degree + 1):
                    p = ring.add(p, ring.monomial(cand[off + k], ((var, k),)))
                row.append(p)
            w.append(tuple(row))
        w = tuple(w)
        if is_circle_witness(ring, m, w):
            return "ok", w
    return "not_qi", None


def witnesses_up_to_degree(ring, m, degree):
    """Every N of degree <= degree over A[t] with m o N = 0 = N o m, A
    finite, by trying all coefficient matrices of N and comparing both
    products coefficient by coefficient in A."""
    from itertools import product

    from hotring.glk import _poly_matrix

    base, var, n = ring.scalar_base, ring.vars[0], len(m)
    top = max(p.degree_in(var) for row in m for p in row)
    zero = mat_zero(base, n)
    mc = [tuple(tuple(_coefficient(base, p, var, e) for p in row)
                for row in m) for e in range(top + 1)]
    coeff_mats = matrices(base, n)

    def kills(a, b):
        """a o b = 0 for coefficient lists a and b."""
        for e in range(len(a) + len(b) - 1):
            acc = mat_add(base, a[e] if e < len(a) else zero,
                          b[e] if e < len(b) else zero)
            for i in range(max(0, e - len(b) + 1), min(e, len(a) - 1) + 1):
                acc = mat_add(base, acc, mat_mul(base, a[i], b[e - i]))
            if acc != zero:
                return False
        return True

    # coefficient 0 of both products reads w_0 only: try the rest of w
    # only for the w_0 that pass it
    return [_poly_matrix(ring, var, w)
            for w0 in coeff_mats if kills(mc[:1], [w0]) and kills([w0], mc[:1])
            for rest in product(coeff_mats, repeat=degree)
            for w in [[w0] + list(rest)] if kills(mc, w) and kills(w, mc)]


def _coefficient(base, p, var, e):
    for mono, c in p.terms:
        if mono == (((var, e),) if e else ()):
            return c
    return base.zero()


def int_poly_mul(p, q):
    """Product of integer polynomials given as coefficient lists, lowest
    degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def idempotent_power_remainder(e, m):
    """Coefficients of the remainder of x^e on integer long division by
    (x^2-x)^m, lowest degree first, padded to length 2m.  The divisor is
    multiplied out factor by factor, not read off the binomial theorem."""
    divisor = [1]
    for _ in range(m):
        divisor = int_poly_mul(divisor, [0, -1, 1])
    n = len(divisor) - 1
    rem = [0] * e + [1]
    while len(rem) > n:
        lead = rem.pop()                 # the divisor is monic
        shift = len(rem) - n
        for k, a in enumerate(divisor[:-1]):
            rem[shift + k] -= lead * a
    return rem + [0] * (n - len(rem))


# ---------------------------------------------------------------------------
# R[Delta] probed as chained applies of the face, degeneracy and
# contraction homs, on probes drawn one added term at a time


def sample_term_by_term(ring, rng):
    """A random element of the polynomial ring ``ring``, summing each drawn
    term into the ring with ``add``; the same draws as PolyRing.sample."""
    acc = ring.zero()
    for _ in range(rng.randrange(1, 4)):
        c = ring.scalar_base.sample(rng)
        mono = tuple((v, rng.randrange(1, 3))
                     for v in ring.vars if rng.random() < 0.5)
        acc = ring.add(acc, ring.monomial(c, mono))
    return acc


def _chained(outer, inner):
    return lambda p: outer.apply(inner.apply(p))


def identity_maps(base, case):
    """(level, lhs, rhs) of a simplicial identity, each side two homs
    applied in turn."""
    from hotring.simplicial import SimplexRing

    family, n, i, j = case
    if family == "dd":
        top, mid = SimplexRing(base, n), SimplexRing(base, n - 1)
        return (top, _chained(mid.face(i), top.face(j)),
                _chained(mid.face(j - 1), top.face(i)))
    lower, mid = SimplexRing(base, n), SimplexRing(base, n + 1)
    if family == "ss":
        return (lower, _chained(mid.degeneracy(i), lower.degeneracy(j)),
                _chained(mid.degeneracy(j + 1), lower.degeneracy(i)))
    lhs = _chained(mid.face(i), lower.degeneracy(j))
    if family in ("ds_eq", "ds_eq1"):
        return lower, lhs, lambda p: p
    below = SimplexRing(base, n - 1)
    k = j - 1 if family == "ds_lt" else j
    i_low = i if family == "ds_lt" else i - 1
    return lower, lhs, _chained(below.degeneracy(k), lower.face(i_low))


def probe_simplicial_identities(base, max_level, probes_per_family, rng):
    """check_simplicial_identities with lhs(p) != rhs(p) decided on the
    two chained applies of each side."""
    from hotring.simplicial import simplicial_identity_cases

    by_family = {}
    for case in simplicial_identity_cases(max_level):
        family = "ds_unit" if case[0] in ("ds_eq", "ds_eq1") else case[0]
        by_family.setdefault(family, []).append(case)
    failures, checks = [], 0
    for family, cases in sorted(by_family.items()):
        per_case = max(1, probes_per_family // len(cases))
        for case in cases:
            level, lhs, rhs = identity_maps(base, case)
            for _ in range(per_case):
                p = sample_term_by_term(level.ring, rng)
                checks += 1
                if lhs(p) != rhs(p):
                    failures.append((case, p))
    return checks, failures


def probe_contraction_compatibility(base, xvar, max_level, probes, rng):
    """check_contraction_compatibility with every map rebuilt for each
    (vertex, index) pair and evaluation at x = 0 compiled per probe; the
    vertex transports are looked up on the module, so that a patched one
    reaches this reference too."""
    from hotring import simplicial
    from hotring.poly import PolyLike, PolyRing
    from hotring.simplicial import SimplexRing, contraction_map

    failures, checks = [], 0
    poly_base = PolyRing(base, (xvar,)) if not isinstance(base, PolyLike) else base
    for n in range(0, max_level + 1):
        top = SimplexRing(poly_base, n)
        for i in range(-1, n + 1):
            h_top = contraction_map(top, xvar, i)
            for j in range(0, n + 1):
                if n >= 1:
                    lower = SimplexRing(poly_base, n - 1)
                    hv = contraction_map(lower, xvar,
                                         simplicial.delta1_face_index(i, j))
                    d = top.face(j)
                    for _ in range(probes):
                        p = sample_term_by_term(top.ring, rng)
                        checks += 1
                        if d.apply(h_top.apply(p)) != hv.apply(d.apply(p)):
                            failures.append(("face", n, i, j, p))
                upper = SimplexRing(poly_base, n + 1)
                hv = contraction_map(upper, xvar,
                                     simplicial.delta1_degeneracy_index(i, j))
                s = top.degeneracy(j)
                for _ in range(probes):
                    p = sample_term_by_term(top.ring, rng)
                    checks += 1
                    if s.apply(h_top.apply(p)) != hv.apply(s.apply(p)):
                        failures.append(("degeneracy", n, i, j, p))
        ident = contraction_map(top, xvar, n)
        collapse = contraction_map(top, xvar, -1)
        for _ in range(probes):
            p = sample_term_by_term(top.ring, rng)
            checks += 2
            if ident.apply(p) != p:
                failures.append(("endpoint_id", n, None, None, p))
            if collapse.apply(p) != top.ring.evaluate(p, xvar, 0):
                failures.append(("endpoint_zero", n, None, None, p))
    return checks, failures
