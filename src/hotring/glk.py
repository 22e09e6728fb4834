"""Matrix groups over nonunital rings and truncated KV_1.

GL_n of a nonunital ring A is the set of matrices I + M whose inverse is
again of that shape; we store only the M part, so membership is a
quasi-inverse witness N with M + N + MN = 0 = N + M + NM and the group
law is the circle product M o M' = M + M' + MM'.  This recovers the
kernel of GL_n on the unitalization without ever building unbounded
integer matrices.

pi_0 of GL(A[Delta]) is approximated from the 1-skeleton: matrices over
A[t] with P(0) = 0 contribute their value P(1) to the identified
subgroup.  The 1-skeleton suffices for pi_0 because the components of a
simplicial set are the coequalizer of the two face maps out of level 1;
higher simplices only witness relations between relations.  Only paths
of degree at most d are tried, so the computed quotient always surjects
onto the true pi_0 at its size level and is monotone in the degree bound.

Quasi-invertibility is decided completely and with no budget.  Over a
finite ring the circle powers of M decide (see _circle_powers), and
gl_group walks those powers so that each matrix is decided once.  Over
A[t], whose circle monoid is infinite, the t-adic recurrence of the
quasi-inverse decides on every finite A (see _t_adic_quasi_inverse),
run on the integer codes of its coefficient matrices; so no path
candidate is ever skipped as undecided.

Path candidates are filtered by their end P(1), the sum of their
coefficient matrices, before any quasi-inverse is sought over A[t].
Evaluation at t = 1 is a ring hom A[t] -> A, so every quasi-invertible
path ends in GL_n(A); a candidate ending outside GL_n(A) or in the
subgroup the ends found so far generate can add nothing.  When A is
commutative with a unit the ends narrow further to 1 + N, N the
nilradical of A: if P(0) = 0 and I + P(t) is invertible over A[t], then
det(I + P(t)) is a unit of A[t] with constant term 1, its higher
coefficients are nilpotent, and so det(I + P(1)) lies in 1 + N.  So the
ends lie in a normal subgroup K known in advance (_path_ends): the
kernel of det modulo 1 + N, or all of GL_n(A).  The search stops once
the ends found generate K, which needs no normality test.

All matrix arithmetic runs on integer codes (CircleGroup): an element of
A is coded by its index in ring.elements(), which is lexicographic, so
coded matrices sort as the matrices do.  The codes and their add, mul
and neg tables are the ring's own (rings._codes), filled entry by entry
on first use and shared by every GL group of A and the homotopy search.
Circle powers, endpoint sums, the t-adic recurrence, closure, normality,
cosets and determinants (Leibniz on the tables) never call the ring's
tuple arithmetic; only the public surface (CircleGroup.elements,
witnesses, index, op, inv, quasi_inverse's witness, circle_determinant
and every Pi0Presentation field) holds matrices and ring elements.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import (BadUnit, BudgetExceeded, IndexOutOfRange,
                     VerificationFailure)
from .intlin import invariant_factors
from .poly import Poly, PolyLike
from .rings import FiniteRing, _codes, _UnionFind


# ---------------------------------------------------------------------------
# deciding quasi-invertibility


class QiResult:
    def __init__(self, status, witness=None, trace=()):
        self.status = status        # "ok" | "not_qi" | "unknown"
        self.witness = witness
        self.trace = list(trace)

    def __bool__(self):
        return self.status == "ok"

    def __repr__(self):
        return f"<qi {self.status}; trace {self.trace}>"


def _is_commutative(ring):
    for i in range(ring.ngens):
        for j in range(i + 1, ring.ngens):
            if ring.table[i][j] != ring.table[j][i]:
                return False
    return True


def _circle_powers(m, zero, product):
    """The circle powers m, m o m, ... of a square matrix over a finite
    ring, up to the first one that is 0 or repeats, and whether 0 came;
    m and zero, the identity, are coded matrices and product is the
    circle product on codes (CircleGroup._op).

    (M_n(A), o) is a finite monoid with identity 0, so m is quasi-invertible
    exactly when m^{o(k+1)} = 0 for some k, and m^{o k} is then its unique
    inverse (Jacobson, Amer. J. Math. 67, 1945; Howie, Fundamentals of
    Semigroup Theory, 1995, ch. 1).  A repeat before 0 rules out every
    power too: m^{o j} o N = 0 would make m^{o(j-1)} o N a right inverse
    of m, and in a finite monoid a right inverse is two-sided."""
    powers = {}                 # insertion-ordered, with set lookup
    p = m
    while p != zero and p not in powers:
        powers[p] = None
        p = product(p, m)
    return list(powers), p == zero


def _t_adic_quasi_inverse(group, coeffs):
    """The quasi-inverse w_0, w_1, ... of m = sum_{e<=D} m_e t^e over A[t],
    D = len(coeffs) - 1, or None when there is none; coeffs and w are
    coded n x n matrices of group, a CircleGroup over the finite ring A.

    Read coefficient by coefficient, m o w = 0 says that w_0 is the
    quasi-inverse of m_0 (evaluation at t = 0 is a ring hom) and, after
    multiplying by I + w_0 on the left,
        w_j = q_j + sum_{i=1}^{min(j,D)} q_i w_{j-i},  q_i = -(m_i + w_0 m_i),
    with q_j = 0 for j > D.  So the power series w is unique, and it is
    two-sided because I + m is invertible over A[[t]] once I + m_0 is.
    Past j = D the state (w_j, ..., w_{j-D+1}) moves by an additive map T
    of M_n(A)^D, and w is a polynomial exactly when some state is 0.  The
    states that reach 0 form ker T <= ker T^2 <= ..., a chain of subgroups
    whose order at least doubles at each strict step, so it is constant
    from L = floor(log2 |A|^{n^2 D}) on: the state at j = D reaches 0
    within L steps or never."""
    zero, add, mul = group._zero, group._mat_add, group._mat_mul
    top = len(coeffs) - 1
    powers, reached_zero = _circle_powers(coeffs[0], zero, group._op)
    if not reached_zero:
        return None
    w = [powers[-1] if powers else zero]
    q = [group._mat_neg(a if w[0] == zero else mul(w[0], a, a))
         for a in coeffs]
    states = group.ring.size() ** (len(zero) * top)
    last = top + states.bit_length() - 1
    zeros = int(w[0] == zero)         # trailing zero coefficients of w
    j = 0
    while j < top or zeros < top:
        if j == last:
            return None
        j += 1
        acc = q[j] if j <= top else zero
        for i in range(1, min(j, top) + 1):
            if w[j - i] != zero:
                acc = mul(q[i], w[j - i], acc)
        w.append(acc)
        zeros = zeros + 1 if acc == zero else 0
    w = w[:len(w) - zeros] or [zero]
    # m o w = 0 = w o m, coefficient by coefficient
    for a, b in ((coeffs, w), (w, coeffs)):
        out = [add(x, y) for x, y in itertools.zip_longest(a, b,
                                                            fillvalue=zero)]
        out += [zero] * (len(a) + len(b) - 1 - len(out))
        for i, x in enumerate(a):
            for k, y in enumerate(b):
                if x != zero and y != zero:
                    out[i + k] = mul(x, y, out[i + k])
        if any(c != zero for c in out):
            raise VerificationFailure("t-adic quasi-inverse fails",
                                      witness=(coeffs, w))
    return w


def quasi_inverse(ring, m):
    """Quasi-inverse of the square matrix m, with how it was decided.

    Over a finite ring the circle powers of m decide (see _circle_powers).
    Over A[t], A a finite ring, the t-adic recurrence decides on the codes
    of the coefficient matrices (see _t_adic_quasi_inverse); both are
    complete.  Several variables or a coefficient ring that is not a
    FiniteRing answer unknown.
    """
    if isinstance(ring, FiniteRing):
        # a group given no elements only codes, on the ring's shared tables
        group = CircleGroup(ring, len(m), (), {})
        powers, reached_zero = _circle_powers(group._encode(m), group._zero,
                                              group._op)
        trace = [f"circle powers({len(powers)})"]
        if not reached_zero:
            return QiResult("not_qi", None, trace)
        # m = 0 is its own inverse
        return QiResult("ok", group._decode(powers[-1]) if powers else m,
                        trace)

    if not (isinstance(ring, PolyLike) and len(ring.vars) == 1
            and isinstance(ring.scalar_base, FiniteRing)):
        return QiResult("unknown", None, ["no strategy applied"])

    var, n = ring.vars[0], len(m)
    group = CircleGroup(ring.scalar_base, n, (), {})
    top = max((p.degree_in(var) for row in m for p in row), default=0)
    coeffs = [list(group._zero) for _ in range(top + 1)]
    for r, row in enumerate(m):
        for c, p in enumerate(row):
            for mono, x in p.terms:
                coeffs[mono[0][1] if mono else 0][r * n + c] = group._code[x]
    w = _t_adic_quasi_inverse(group, tuple(map(tuple, coeffs)))
    trace = ["t-adic recurrence"]
    if w is None:
        return QiResult("not_qi", None, trace)
    witness = _poly_matrix(ring, var, [group._decode(c) for c in w])
    return QiResult("ok", witness, trace)


# ---------------------------------------------------------------------------
# the finite circle group GL_n(A)


class _Subgroup(list):
    """A subgroup closed by CircleGroup._generate: its elements as a
    sorted list of matrices and, on codes, its element set and the
    generators its closure kept."""

    def __init__(self, elements, codes, generators):
        super().__init__(elements)
        self.codes = codes
        self.generators = generators


class CircleGroup:
    """(GL_n(A), o) with quasi-inverse witnesses, run on integer codes.

    Inside, a matrix is the flat tuple of the codes of its entries, read
    through the ring's code tables (rings._codes), which the group shares
    with every other user of A.  Built from ring and n alone it is all of
    GL_n(A): the circle powers of each matrix not yet decided settle it
    and all its powers at once.  Elements and witnesses may also be given;
    given no elements, the group only codes matrices (see quasi_inverse).
    """

    def __init__(self, ring, n, elements=None, witnesses=None):
        self.ring = ring
        self.n = n
        tables = _codes(ring)
        self._code, self._element = tables.code, tables.element
        self._add, self._mul, self._neg = tables.add, tables.mul, tables.neg
        # entry e = (i, j) of a o b is a_e + b_e + sum_k a_ik b_kj
        self._terms = tuple(
            (i * n + j, tuple((i * n + k, k * n + j) for k in range(n)))
            for i in range(n) for j in range(n))
        self._zero = (0,) * (n * n)   # zero's code is 0
        self._matrix = {}             # code -> matrix, for the elements
        if elements is None:
            inverse = self._circle_power_walk()
            codes = sorted(inverse)
            self._matrix = {c: self._decode(c) for c in codes}
            elements = [self._matrix[c] for c in codes]
            witnesses = {self._matrix[c]: self._matrix[w]
                         for c, w in inverse.items()}
        else:
            codes = [self._encode(m) for m in elements]
            self._matrix = dict(zip(codes, elements))
            inverse = {self._encode(m): self._encode(w)
                       for m, w in witnesses.items()}
        self.elements = elements      # sorted list of M parts
        self.witnesses = witnesses    # M -> N
        self.index = {m: i for i, m in enumerate(elements)}
        self._codes = codes
        self._inverse = inverse
        self._generators = None       # of the whole group, on first use

    def _encode(self, m):
        code = self._code
        return tuple([code[x] for row in m for x in row])

    def _decode(self, c):
        m = self._matrix.get(c)
        if m is None:
            elems, n = self._element, self.n
            m = tuple(tuple([elems[x] for x in c[i:i + n]])
                      for i in range(0, n * n, n))
        return m

    def _op(self, a, b):
        """The circle product a + b + ab on codes, in one pass: it is the
        inner loop of the power walk, the closure and the normality test."""
        add, mul = self._add, self._mul
        out = []
        for e, pairs in self._terms:
            acc = add[a[e]][b[e]]
            for x, y in pairs:
                acc = add[acc][mul[a[x]][b[y]]]
            out.append(acc)
        return tuple(out)

    def _mat_add(self, a, b):
        """a + b on codes."""
        add = self._add
        return tuple([add[x][y] for x, y in zip(a, b)])

    def _mat_neg(self, a):
        """-a on codes."""
        neg = self._neg
        return tuple([neg[x] for x in a])

    def _mat_mul(self, a, b, acc):
        """acc + ab on codes."""
        add, mul = self._add, self._mul
        out = []
        for e, pairs in self._terms:
            x = acc[e]
            for i, k in pairs:
                x = add[x][mul[a[i]][b[k]]]
            out.append(x)
        return tuple(out)

    def _circle_power_walk(self):
        """Code of M -> code of its witness, for every M in GL_n(A)."""
        zero = self._zero
        inverse = {}
        outside = set()
        for m in itertools.product(range(self.ring.size()),
                                   repeat=self.n * self.n):
            if m in inverse or m in outside:
                continue
            powers, reached_zero = _circle_powers(m, zero, self._op)
            if not reached_zero:
                outside.update(powers)
                continue
            # m^{o(k+1)} = 0: the powers m^{o j}, j = 0..k, form a cyclic
            # group in which m^{o j} has inverse m^{o(k+1-j)}
            cycle = [zero] + powers
            for j, p in enumerate(cycle):
                inverse[p] = cycle[-j]
        return inverse

    def op(self, a, b):
        return self._decode(self._op(self._encode(a), self._encode(b)))

    def inv(self, a):
        return self.witnesses[a]

    def identity(self):
        return self._decode(self._zero)

    def order(self):
        return len(self.elements)

    def verify_group_axioms(self):
        z = self.identity()
        if z not in self.index:
            raise VerificationFailure("identity missing")
        for a in self.elements:
            if self.op(a, z) != a or self.op(z, a) != a:
                raise VerificationFailure("identity law fails", witness=a)
            if self.op(a, self.inv(a)) != z or self.op(self.inv(a), a) != z:
                raise VerificationFailure("inverse law fails", witness=a)
        for a in self.elements:
            for b in self.elements:
                if self.op(a, b) not in self.index:
                    raise VerificationFailure("not closed", witness=(a, b))
        for a in self.elements:
            for b in self.elements:
                ab = self.op(a, b)
                for c in self.elements:
                    if self.op(ab, c) != self.op(a, self.op(b, c)):
                        raise VerificationFailure("associativity fails",
                                                  witness=(a, b, c))
        return True

    def _generate(self, gens, ceiling=None, seen=None):
        """The subgroup generated by the codes gens, and the generators
        kept: each one not already in the closure of those kept before it.
        In a finite group the subgroup is the monoid its generators span,
        so closing the identity under right multiplication by the kept
        generators suffices (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, ch. 4).  The subgroup lies in ceiling,
        the codes of a subgroup K (all of G by default); a proper subgroup
        of K has at most |K|/q elements, q the least prime factor of |K|
        (Lagrange), so once the closure grows past that it is K, returned
        without reading gens further.  A lazy gens may read seen, the set
        the closure grows in, to skip what it already holds."""
        op = self._op
        ceiling = self._codes if ceiling is None else ceiling
        size = len(ceiling)
        bound = size // next((p for p in range(2, math.isqrt(size) + 1)
                              if size % p == 0), max(size, 2))
        seen = {self._zero} if seen is None else seen
        kept = []
        for g in gens:
            if g in seen:
                continue
            kept.append(g)
            # seen is closed under the earlier generators, so the old
            # elements need only g; the new ones need every generator
            frontier = [x for x in {op(h, g) for h in seen} if x not in seen]
            seen.update(frontier)
            while frontier and len(seen) <= bound:
                h = frontier.pop()
                for s in kept:
                    x = op(h, s)
                    if x not in seen:
                        seen.add(x)
                        frontier.append(x)
            if len(seen) > bound:
                return set(ceiling), kept
        return seen, kept

    @functools.cached_property
    def _leibniz(self):
        """Leibniz's terms for n x n: for each permutation p of range(n),
        whether it is odd and the flat indices of the entries (i, p(i))."""
        n = self.n
        return [(sum(a > b for a, b in itertools.combinations(p, 2)) % 2,
                 tuple(i * n + j for i, j in enumerate(p)))
                for p in itertools.permutations(range(n))]

    def _det(self, c):
        """The code of det(I + M), M coded c, over a commutative unital A,
        by Leibniz's formula on the ring's code tables."""
        add, mul, neg = self._add, self._mul, self._neg
        one = self._code[self.ring.unit]
        shifted = list(c)
        for e in range(0, len(c), self.n + 1):
            shifted[e] = add[c[e]][one]
        acc = 0
        for odd, cells in self._leibniz:
            prod = shifted[cells[0]]
            for e in cells[1:]:
                prod = mul[prod][shifted[e]]
            acc = add[acc][neg[prod] if odd else prod]
        return acc

    @functools.cached_property
    def determinants(self):
        """Code -> code of det(I + M) for every M in the group, over a
        commutative unital A; computed on first use and kept."""
        return {c: self._det(c) for c in self._codes}

    @functools.cached_property
    def _one_plus_nilradical(self):
        """The codes of 1 + N, N the nilradical of a commutative unital A,
        computed on first use and kept: x is nilpotent when its powers
        reach 0, the code of zero, before they repeat."""
        add, mul, one = self._add, self._mul, self._code[self.ring.unit]
        out = set()
        for x in range(self.ring.size()):
            seen, p = set(), x
            while p and p not in seen:
                seen.add(p)
                p = mul[p][x]
            if not p:
                out.add(add[one][x])
        return out

    def subgroup_closure(self, gens):
        """The subgroup generated by gens, as a _Subgroup."""
        seen, kept = self._generate([self._encode(g) for g in gens])
        return _Subgroup([self._decode(c) for c in sorted(seen)], seen, kept)

    def is_normal(self, subgroup):
        """Whether the subgroup H is normal.  Conjugation by g is an
        automorphism and G is finite, so H is normal once g s g^-1 lies in
        H for g in a generating set of G and s in one of H.  G's is found
        once and kept on the group; H's is the one its closure kept when H
        comes from subgroup_closure, and all of H otherwise."""
        if len(subgroup) == len(self.elements):
            return True
        if isinstance(subgroup, _Subgroup):
            sub, gens = subgroup.codes, subgroup.generators
        else:
            sub = gens = {self._encode(m) for m in subgroup}
        if self._generators is None:
            self._generators = self._generate(self._codes)[1]
        op = self._op
        for g in self._generators:
            gi = self._inverse[g]
            for s in gens:
                if op(op(g, s), gi) not in sub:
                    return False
        return True


def gl_group(ring, n, budget=200_000):
    """GL_n over a finite ring, with witnesses (see CircleGroup).  Kept in
    ring.derived under ("gl", n), so the group lives exactly as long as
    the ring."""
    if n < 1:
        raise IndexOutOfRange(f"matrix size {n}")
    if ("gl", n) in ring.derived:
        return ring.derived[("gl", n)]
    count = ring.size() ** (n * n)
    if count > budget:
        raise BudgetExceeded(count, budget)
    group = ring.derived[("gl", n)] = CircleGroup(ring, n)
    return group


# ---------------------------------------------------------------------------
# pi_0 of GL(A[Delta]) at a truncation level


class Pi0Presentation:
    def __init__(self, level, group, subgroup, generators, reps, class_map,
                 invariant_factors):
        self.level = level                  # (n, d)
        self.group = group
        self.subgroup = subgroup
        self.generators = generators        # ends H's closure kept, in order
        self.reps = reps
        self.class_map = class_map          # M part -> class index
        self.order = len(reps)
        self.invariant_factors = invariant_factors

    def class_of(self, m):
        return self.class_map[m]

    def summary(self):
        return {
            "level": list(self.level),
            "gl_order": self.group.order(),
            "identified_subgroup_order": len(self.subgroup),
            "classes": self.order,
            "invariant_factors": self.invariant_factors,
        }


def _poly_matrix(ring, var, coeff_mats):
    """The matrix sum_e coeff_mats[e] var^e over the polynomial ring.

    Terms are listed by exponent, which is monomial order, so each entry
    is canonical as built."""
    n = len(coeff_mats[0])
    zero = ring.scalar_base.zero()
    monos = [((var, e),) if e else () for e in range(len(coeff_mats))]
    return tuple(
        tuple(Poly(tuple((monos[e], mat[i][j])
                         for e, mat in enumerate(coeff_mats)
                         if mat[i][j] != zero))
              for j in range(n))
        for i in range(n))


def _path_ends(group):
    """The codes of a normal subgroup K holding every end P(1) of a
    quasi-invertible path P with P(0) = 0: all of GL_n(A) or, when A is
    commutative with a unit, the M with det(I + M) in 1 + N (see the
    module docstring)."""
    ring = group.ring
    if ring.unit is not None and _is_commutative(ring):
        dets, allowed = group.determinants, group._one_plus_nilradical
        return {c for c in group._codes if dets[c] in allowed}
    return set(group._codes)


def kv1_approx(ring, n, degree, budget=200_000):
    """Classes of GL_n(A) modulo ends of degree <= degree polynomial paths.

    H is the subgroup generated by {P(1) : P in GL_n(A[t]), deg P <= d,
    P(0) = 0}, closed as the ends are found; until H is the ceiling K,
    every candidate P that could enlarge it is decided by the t-adic
    recurrence on the codes of its coefficient matrices (see
    _t_adic_quasi_inverse).  The returned quotient GL_n(A)/H surjects onto
    the true pi_0(GL_n(A[Delta])) and is monotone in the degree bound.
    """
    if degree < 1:
        raise IndexOutOfRange(f"path degree {degree}")
    group = gl_group(ring, n, budget=budget)

    count = ring.size() ** (n * n * degree)
    if count > budget:
        raise BudgetExceeded(count, budget)

    mats = list(itertools.product(range(ring.size()), repeat=n * n))
    ceiling = _path_ends(group)
    closure = {group._zero}

    def quasi_invertible_ends():
        # the endpoint filter of the module docstring
        for coeffs in itertools.product(mats, repeat=degree):
            end = functools.reduce(group._mat_add, coeffs)
            if (end in ceiling and end not in closure
                    and _t_adic_quasi_inverse(group, (group._zero,) + coeffs)
                    is not None):
                yield end

    codes, kept = group._generate(quasi_invertible_ends(), ceiling, closure)
    subgroup = _Subgroup([group._decode(c) for c in sorted(codes)], codes,
                         kept)
    # H = K is normal: K is all of G or the kernel of det mod 1 + N
    if len(codes) < len(ceiling) and not group.is_normal(subgroup):
        raise VerificationFailure("identified subgroup is not normal")

    # the cosets m H, each listed once, on codes
    coded_map, coded_reps = {}, []
    for m in group._codes:
        if m in coded_map:
            continue
        coset = sorted(group._op(m, h) for h in codes)
        coded_reps.append(coset[0])
        for x in coset:
            coded_map[x] = len(coded_reps) - 1
    reps = [group._decode(c) for c in coded_reps]
    class_map = {group._decode(x): i for x, i in coded_map.items()}

    inv_factors = _quotient_invariants(group, reps, class_map)
    return Pi0Presentation((n, degree), group, list(subgroup),
                           [group._decode(c) for c in kept], reps, class_map,
                           inv_factors)


def _quotient_invariants(group, reps, class_map):
    """Invariant factors of the quotient when it is abelian, else None."""
    k = len(reps)
    table = [[class_map[group.op(reps[i], reps[j])] for j in range(k)]
             for i in range(k)]
    for i in range(k):
        for j in range(k):
            if table[i][j] != table[j][i]:
                return None
    rows = []
    for i in range(k):
        for j in range(k):
            row = [0] * k
            row[i] += 1
            row[j] += 1
            row[table[i][j]] -= 1
            rows.append(row)
    return sorted(d for d in invariant_factors(rows) if d not in (0, 1))


def stabilize(ring, m, bigger):
    """diag(M, 0) embedding GL_n -> GL_bigger."""
    n = len(m)
    z = ring.zero()
    return tuple(tuple(m[i][j] if i < n and j < n else z
                       for j in range(bigger)) for i in range(bigger))


def circle_determinant(ring, m):
    """det(I + M) over a commutative unital finite ring, on codes."""
    group = CircleGroup(ring, len(m), (), {})
    return group._element[group._det(group._encode(m))]


def determinant_certificate(pres):
    """Side certificate against over-collapse for commutative unital bases.

    A subgroup generator P(1) has det(I+P(1)) in 1 + N, N the nilradical
    of A: det(I+P(t)) is a unit of A[t] equal to 1 at t = 0.  Only when
    ``subgroup_in_kernel`` holds (always for reduced A) does the
    determinant factor through the quotient, which is then at least as
    large as the determinant image; otherwise ``lower_bound_matches``
    bounds nothing.  Returns the comparison data."""
    group = pres.group
    ring = group.ring
    if ring.unit is None or not _is_commutative(ring):
        raise BadUnit("determinant certificate needs a commutative ring "
                      "with unit")
    dets = group.determinants
    dets_sub = {dets[group._encode(h)] for h in pres.subgroup}
    dets_all = set(dets.values())
    return {
        "subgroup_determinants": sorted(group._element[d] for d in dets_sub),
        "determinant_image_order": len(dets_all),
        "subgroup_in_kernel": dets_sub == {group._code[ring.unit]},
        "lower_bound_matches": len(dets_all) <= pres.order,
    }


# ---------------------------------------------------------------------------
# generic strict homotopization of a finite set along verified edges


def strict_pi0(elements, edges):
    """Partition of elements by the reflexive-symmetric-transitive closure
    of the given edges; deterministic class labels (sorted by least
    member)."""
    elements = list(elements)
    index = {x: i for i, x in enumerate(elements)}
    uf = _UnionFind(len(elements))
    for a, b in edges:
        uf.union(index[a], index[b])
    return [sorted(elements[i] for i in cls) for cls in uf.classes()]
