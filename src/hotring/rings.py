"""Finite nonunital associative rings given by structure constants.

A ring is a finite abelian group ``Z/d_1 x ... x Z/d_k`` together with a
k x k table of coordinate vectors recording the products of generators.
Elements are coordinate tuples reduced modulo the orders.  Multiplication
of arbitrary elements is the bilinear extension of the table, so checking
ring axioms on generators suffices.

Also here: ring homomorphisms (determined by generator images when the
source is finite), ``PairRing`` (pairs cut out by an optional predicate,
for the fibre products of ``virtual`` and the pair carriers of ``poly``),
hom enumeration, ideals and quotients, fibre products, and kernel
subrings.  Presentations of subgroups and quotients go through integer
kernels and Smith normal form (see ``intlin``).
"""

from __future__ import annotations

import itertools
import math
import types

from .errors import (BadUnit, BudgetExceeded, HotringError, IllDefined,
                     MalformedInput, NotAssociative, VerificationFailure)
from .intlin import (LinearSolver, identity_matrix, mat_mul, smith_normal_form,
                     transpose)


class Ring:
    """Minimal interface every ring in the library implements: zero(),
    add(a, b), neg(a), mul(a, b), scalar(n, a), contains(a) and
    sample(rng), on which sub, sum and is_zero below are built.

    Elements are plain hashable values; the ring object owns the
    arithmetic.  ``scalar`` is the integral action n.x, which exists in any
    ring and replaces multiplication by units we may not have.
    """

    label = "ring"

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def sum(self, xs):
        acc = self.zero()
        for x in xs:
            acc = self.add(acc, x)
        return acc

    def is_zero(self, a):
        return a == self.zero()

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class IntegerRing(Ring):
    """The ring of integers; the coefficient domain for substitutions.

    Only its arithmetic exists: no element of it is drawn at random or
    checked for membership.
    """

    label = "Z"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def scalar(self, n, a):
        return n * a

    def is_zero(self, a):
        return a == 0


ZZ = IntegerRing()


class FiniteRing(Ring):
    """Use ``validate_ring`` to construct one; it enforces the axioms."""

    def __init__(self, orders, table, unit=None, label="R"):
        self.orders = tuple(int(d) for d in orders)
        self.ngens = len(self.orders)
        self.table = tuple(tuple(self._reduce_raw(v) for v in row) for row in table)
        self.unit = self._reduce_raw(unit) if unit is not None else None
        self.label = label
        self._zero = (0,) * self.ngens
        # (i, ((j, ((l, t), ...)), ...)) for each generator i with a
        # nonzero product g_i g_j: those j, each with the nonzero
        # coordinates t of g_i g_j at l
        products = []
        for i, row in enumerate(self.table):
            prods = tuple((j, tuple((l, t) for l, t in enumerate(v) if t))
                          for j, v in enumerate(row) if any(v))
            if prods:
                products.append((i, prods))
        self._products = tuple(products)
        # tables that depend on this ring only, each built on first use
        # and dropped with the ring: ("codes",) by _codes, ("gl", n) by
        # glk.gl_group, ("checks", top) by _coefficient_checks and
        # ("annihilator", order) by _annihilator
        self.derived = {}

    def _reduce_raw(self, v):
        return tuple(int(c) % d for c, d in zip(v, self.orders))

    def element(self, coords):
        return self._reduce_raw(coords)

    def gen(self, i):
        return tuple(1 if j == i else 0 for j in range(self.ngens))

    def zero(self):
        return self._zero

    def is_zero(self, a):
        return a == self._zero

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def scalar(self, n, a):
        return tuple((n * x) % d for x, d in zip(a, self.orders))

    def mul(self, a, b):
        """Bilinear extension of the table, over the nonzero coordinates
        of a and b and the nonzero generator products only."""
        out = None
        for i, prods in self._products:
            x = a[i]
            if not x:
                continue
            if out is None:
                out = [0] * self.ngens
            for j, terms in prods:
                y = b[j]
                if y:
                    c = x * y
                    for l, t in terms:
                        out[l] += c * t
        if out is None:
            return self._zero
        return tuple(x % d for x, d in zip(out, self.orders))

    def contains(self, a):
        return (isinstance(a, tuple) and len(a) == self.ngens
                and all(isinstance(x, int) and 0 <= x < d
                        for x, d in zip(a, self.orders)))

    def size(self):
        return math.prod(self.orders)

    def elements(self):
        return (tuple(c) for c in itertools.product(*(range(d) for d in self.orders)))

    def sample(self, rng):
        return tuple(rng.randrange(d) for d in self.orders)

    def nilpotency_class(self):
        """Smallest e with all e-fold products zero, or None.

        Left-normed products of generators span the span of all m-fold
        products, so the chain is computed from generator words only.
        The spans A ⊇ A² ⊇ … only shrink until one repeats, so the loop
        ends within log₂|A| + 1 steps.
        """
        words = [self.gen(i) for i in range(self.ngens)]
        seen = None
        for m in itertools.count(1):
            span = additive_closure(self, words)
            if span == {self.zero()}:
                return m
            if span == seen:
                return None
            seen = span
            words = [self.mul(self.gen(i), w)
                     for i in range(self.ngens) for w in words]
            words = sorted(set(words))


class _Lazy(dict):
    """A dict computing a missing entry as fill(key), kept if keep is set."""

    __slots__ = ("fill", "keep")

    def __init__(self, fill, keep=True):
        self.fill, self.keep = fill, keep

    def __missing__(self, key):
        value = self.fill(key)
        if self.keep:
            self[key] = value
        return value


def _codes(ring):
    """Integer codes of the elements of a finite ring, kept in ring.derived
    for hom enumeration, the homotopy search and every GL group of it.

    The code of x is the mixed-radix index of its coordinates, i.e. its
    position in ring.elements(), and zero is 0.  code[x] and element[c]
    translate; add[a][b], mul[a][b], neg[a] and scalar[n][a] act on codes.
    Each entry is computed by tuple arithmetic on first use, so no ring is
    enumerated, and kept if the ring has at most 1024 elements: a larger
    ring rarely reads an entry twice, and each kept row costs a dict."""
    if ("codes",) in ring.derived:
        return ring.derived[("codes",)]
    radix = [(d, math.prod(ring.orders[i + 1:]))   # (order, stride)
             for i, d in enumerate(ring.orders)]
    code = _Lazy(lambda x: sum(c % d * s for c, (d, s) in zip(x, radix)))
    elem = _Lazy(lambda c: tuple(c // s % d for d, s in radix))
    keep = ring.size() <= 1024

    def table(op):
        return _Lazy(lambda a: _Lazy(
            lambda b, x=elem[a]: code[op(x, elem[b])], keep), keep)
    codes = ring.derived[("codes",)] = types.SimpleNamespace(
        radix=radix, code=code, element=elem,
        add=table(ring.add), mul=table(ring.mul),
        neg=_Lazy(lambda a: code[ring.neg(elem[a])], keep),
        scalar=_Lazy(lambda n: _Lazy(
            lambda a: code[ring.scalar(n, elem[a])], keep)))
    return codes


def zero_ring(label="0"):
    return FiniteRing((), (), unit=(), label=label)


def _check_vector(v, k, what):
    if not (isinstance(v, (list, tuple)) and len(v) == k):
        raise MalformedInput(f"{what} must have length k")
    if not all(type(c) is int for c in v):      # no bool, no float
        raise MalformedInput(f"{what} must be integers")


def validate_ring(orders, table, unit=None, label="R"):
    """Build a FiniteRing after checking all its invariants.

    Raises MalformedInput when an order, a structure constant or the unit
    is not made of integers (bools and floats included), an order is not
    positive or the table has the wrong shape, IllDefined when a product
    is incompatible with the generator orders, NotAssociative with the
    offending triple, BadUnit when a claimed identity fails on some
    generator.
    """
    if not (isinstance(orders, (list, tuple))
            and all(type(d) is int for d in orders)):
        raise MalformedInput("generator orders must be integers")
    if any(d <= 0 for d in orders):
        raise MalformedInput("generator orders must be positive")
    k = len(orders)
    if not (isinstance(table, (list, tuple)) and len(table) == k
            and all(isinstance(row, (list, tuple)) and len(row) == k
                    for row in table)):
        raise MalformedInput("structure constant table must be k x k")
    for row in table:
        for v in row:
            _check_vector(v, k, "structure constant entries")
    if unit is not None:
        _check_vector(unit, k, "the unit")

    ring = FiniteRing(orders, table, unit=None, label=label)

    # d_i * (g_i g_j) and d_j * (g_i g_j) must vanish, otherwise the
    # bilinear extension is not well defined on Z/d_i x Z/d_j
    for i in range(k):
        for j in range(k):
            v = ring.table[i][j]
            for d in (orders[i], orders[j]):
                if any((d * c) % dl != 0 for c, dl in zip(v, orders)):
                    raise IllDefined(i, j)

    # associativity on generator triples suffices by bilinearity:
    # (g_i g_j) g_l = g_i (g_j g_l), both products read off the table
    gens = [ring.gen(i) for i in range(k)]
    for i in range(k):
        gi, row = gens[i], ring.table[i]
        for j in range(k):
            left_ij, right_j = row[j], ring.table[j]
            for l in range(k):
                left = ring.mul(left_ij, gens[l])
                right = ring.mul(gi, right_j[l])
                if left != right:
                    raise NotAssociative(i, j, l, left, right)

    if unit is not None:
        e = ring.element(unit)
        for i, g in enumerate(gens):
            if ring.mul(e, g) != g or ring.mul(g, e) != g:
                raise BadUnit(f"claimed unit {e} fails on generator {i}")
        ring.unit = e
    return ring


# ---------------------------------------------------------------------------
# homomorphisms


class Hom:
    def __init__(self, source, target, label=""):
        self.source = source
        self.target = target
        self.label = label

    def apply(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.apply(x)

    def __repr__(self):
        name = self.label or type(self).__name__
        return f"<{name}: {self.source.label} -> {self.target.label}>"


class RingHom(Hom):
    """Hom out of a finite ring, stored as generator images."""

    def __init__(self, source, target, images, label=""):
        super().__init__(source, target, label)
        self.images = tuple(images)

    def apply(self, x):
        t = self.target
        if isinstance(t, FiniteRing):
            # sum_i c_i images[i], coordinate by coordinate, reduced once
            terms = [(c, img) for c, img in zip(x, self.images) if c]
            return tuple(sum(c * img[l] for c, img in terms) % d
                         for l, d in enumerate(t.orders))
        return t.sum(t.scalar(c, img) for c, img in zip(x, self.images) if c)

    def validate(self):
        """Raise VerificationFailure, with the offending generator or pair
        as witness, unless the images define a ring homomorphism."""
        src, t = self.source, self.target
        if len(self.images) != src.ngens:
            raise VerificationFailure(
                f"{len(self.images)} generator images for {src.ngens} "
                "generators")
        for i, img in enumerate(self.images):
            if not t.contains(img):
                raise VerificationFailure(
                    f"image of generator {i} not in target", witness=i)
            if not t.is_zero(t.scalar(src.orders[i], img)):
                raise VerificationFailure(
                    f"order of generator {i} not respected", witness=i)
        bad = _first_nonmultiplicative(src, t,
                                       [{0: x} for x in self.images])
        if bad is not None:
            raise VerificationFailure(
                "multiplicativity fails on generators {},{}".format(*bad),
                witness=bad)

    def __eq__(self, other):
        return (isinstance(other, RingHom) and self.source is other.source
                and self.target is other.target and self.images == other.images)

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.images))


class FuncHom(Hom):
    """Hom given by a function; used for maps out of intensional rings."""

    def __init__(self, source, target, fn, label=""):
        super().__init__(source, target, label)
        self.fn = fn

    def apply(self, x):
        return self.fn(x)


def compose(g, f, label=""):
    if not (f.target is g.source or f.target.label == g.source.label):
        raise HotringError(f"cannot compose {f} with {g}")
    if isinstance(f, RingHom):
        return RingHom(f.source, g.target, [g.apply(x) for x in f.images],
                       label=label or f"{g.label}*{f.label}")
    return FuncHom(f.source, g.target, lambda x: g.apply(f.apply(x)),
                   label=label or f"{g.label}*{f.label}")


def identity_hom(ring):
    if isinstance(ring, FiniteRing):
        return RingHom(ring, ring, [ring.gen(i) for i in range(ring.ngens)],
                       label=f"id_{ring.label}")
    return FuncHom(ring, ring, lambda x: x, label=f"id_{ring.label}")


def zero_hom(source, target):
    if isinstance(source, FiniteRing):
        return RingHom(source, target, [target.zero()] * source.ngens, label="0")
    return FuncHom(source, target, lambda x: target.zero(), label="0")


class PairRing(Ring):
    """Componentwise ring structure on pairs, optionally cut by a predicate."""

    def __init__(self, left, right, predicate=None, sampler=None, label=None):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.sampler = sampler
        self.label = label or f"({left.label} x {right.label})"

    def zero(self):
        return (self.left.zero(), self.right.zero())

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def scalar(self, n, a):
        return (self.left.scalar(n, a[0]), self.right.scalar(n, a[1]))

    def contains(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            return False
        if not (self.left.contains(a[0]) and self.right.contains(a[1])):
            return False
        return self.predicate is None or self.predicate(a)

    def sample(self, rng):
        if self.sampler is not None:
            return self.sampler(rng)
        if self.predicate is None:
            return (self.left.sample(rng), self.right.sample(rng))
        raise NotImplementedError(f"no sampler for {self.label}")

    def first(self):
        return FuncHom(self, self.left, lambda a: a[0], label="pr1")

    def second(self):
        return FuncHom(self, self.right, lambda a: a[1], label="pr2")


def _all_pairs(source):
    return [(i, j) for i in range(source.ngens) for j in range(source.ngens)]


def _first_nonmultiplicative(source, target, slices_of):
    """The first generator pair (i, j) on which images, given by their
    slices in a central variable (slices_of[i] = {e: element of target};
    {0: image} for a plain image), do not multiply like the generators;
    None when every pair passes.  The pair passes exactly when
    sum_l t_ijl s_l[e] = sum_{a+b=e} s_i[a] s_j[b] in target for every e,
    t_ijl the structure constants of source.  A FiniteRing target sums
    lhs - rhs as raw integers over nonzero terms and reduces once per pair."""
    if isinstance(target, FiniteRing):
        return _first_nonmultiplicative_finite(source, target, slices_of)
    zero = target.zero()
    for i, j in _all_pairs(source):
        lhs, rhs = {}, {}
        for l, c in enumerate(source.table[i][j]):
            for e, x in slices_of[l].items() if c else ():
                x = x if c == 1 else target.scalar(c, x)
                lhs[e] = target.add(lhs[e], x) if e in lhs else x
        for a, x in slices_of[i].items():
            for b, y in slices_of[j].items():
                p = target.mul(x, y)
                rhs[a + b] = target.add(rhs[a + b], p) if a + b in rhs else p
        if any(lhs.get(e, zero) != rhs.get(e, zero) for e in lhs | rhs):
            return (i, j)
    return None


def _first_nonmultiplicative_finite(source, target, slices_of):
    zero = target.zero()
    support = {(i, j): terms for i, prods in source._products
               for j, terms in prods}
    products = [(p, q, m, t) for p, prods in target._products
                for q, terms in prods for m, t in terms]
    slices_of = [[(e, x) for e, x in sl.items() if any(x)] for sl in slices_of]
    # a pair outside support can fail only on a nonzero product of slices
    live = [i for i, sl in enumerate(slices_of) if sl] if products else []
    for i, j in sorted(support.keys() | {(i, j) for i in live for j in live}):
        diff = {}       # e -> coordinates of lhs - rhs at var^e, unreduced
        for l, c in support.get((i, j), ()):
            for e, x in slices_of[l]:
                diff[e] = [u + c * y for u, y in zip(diff.get(e, zero), x)]
        for a, x in slices_of[i]:
            for b, y in slices_of[j]:
                v = diff.setdefault(a + b, list(zero))
                for p, q, m, t in products:
                    v[m] -= t * x[p] * y[q]
        for v in diff.values():
            if any(map(int.__mod__, v, target.orders)):
                return (i, j)
    return None


def _coefficient_checks(source, top):
    """The coefficient checks of _multiplicative_images for images whose
    top coefficient is c_{i,top}, scheduled by the slot that decides them.

    checks[m][s] lists the checks decided once coefficient s of generator
    m is assigned, as (i, j, e, terms of g_i g_j, (a, b) pairs).  The table
    depends on the source ring and top only, so it is built once and kept
    in source.derived, shared by every hom enumeration and homotopy
    search out of source."""
    key = ("checks", top)
    if key in source.derived:
        return source.derived[key]
    # the (a, b) with a + b = e, both at most top
    convolutions = [tuple((a, e - a) for a in range(max(0, e - top),
                                                    min(e, top) + 1))
                    for e in range(2 * top + 1)]
    checks = [[[] for _ in range(top + 1)] for _ in range(source.ngens)]
    for i, j in _all_pairs(source):
        terms = [(l, c) for l, c in enumerate(source.table[i][j]) if c]
        m = max([i, j] + [l for l, _ in terms])
        for e, pairs in enumerate(convolutions):
            # coefficient e reads c_{l,e} for l in the support (e <= top
            # only) and c_{i,a}, c_{j,b} for a + b = e; m is in the support
            # when it is neither i nor j
            if e <= top:
                checks[m][e].append((i, j, e, terms, pairs))
            else:
                checks[m][top if m in (i, j) else 0].append(
                    (i, j, e, (), pairs))
    source.derived[key] = checks
    return checks


def _annihilator(ring, order):
    """The codes (see _codes) of the x in ring with order * x = 0,
    ascending; kept in ring.derived."""
    key = ("annihilator", order)
    if key not in ring.derived:
        # coordinate l ranges over the multiples of d_l / gcd(order, d_l)
        steps = [range(0, d * s, d // math.gcd(order, d) * s)
                 for d, s in _codes(ring).radix]
        ring.derived[key] = tuple(map(sum, itertools.product(*steps)))
    return ring.derived[key]


def _multiplicative_images(source, target, slots, budget, sums=None,
                           tried=None):
    """Depth-first search over generator images in target[x], the image of
    generator i a coefficient tuple (c_{i,0}, ..., c_{i,D}); D = 0 for the
    images of plain homomorphisms.  Coefficients are the codes of target
    elements (see _codes), in and out.

    slots[i] lists, for each searched coefficient of generator i in turn,
    the candidates tried for it.  With sums, generator i has one more
    coefficient, the top one, which is not searched: it is fixed by
    c_{i,0} + ... + c_{i,D} = sums[i].  A choice of every searched
    coefficient of generator i is one *option* for it.  Yields every
    multiplicative assignment as a list of coefficient tuples, in
    lexicographic order of the candidate indices.  Multiplicative means
    sum_l t_ijl c_{l,e} = sum_{a+b=e} c_{i,a} c_{j,b} in target for every
    generator pair (i, j) and every e, with t_ijl the structure constants
    of source, i.e. the images multiply like the generators in target[x].

    Coefficient e of pair (i, j) is checked on the target's code tables as
    soon as the coefficients it reads are assigned, while the last
    generator among i, j and the support of g_i g_j is assigned (never
    earlier, so options are rejected one generator at a time).  A failing
    prefix skips its whole subtree.  tried[0] counts options: a pruned
    prefix adds the number of options it stands for, so the count is the
    one of trying every option in turn.  Raises BudgetExceeded before
    searching when the product of the option counts exceeds budget.
    """
    k = source.ngens
    total = 1
    below = []      # below[i][s]: options a candidate for slot s stands for
    for gen_slots in slots:
        counts = [1] * len(gen_slots)
        for s in range(len(gen_slots) - 1, 0, -1):
            counts[s - 1] = counts[s] * len(gen_slots[s])
        below.append(counts)
        total *= counts[0] * len(gen_slots[0])
    if total > budget:
        raise BudgetExceeded(total, budget)

    free = len(slots[0]) if k else 0      # the same for every generator
    top = free if sums is not None else free - 1
    checks = _coefficient_checks(source, top)

    codes = _codes(target)
    add, mul, neg, scalar = codes.add, codes.mul, codes.neg, codes.scalar
    coeffs = [[0] * (top + 1) for _ in range(k)]

    def holds(todo):
        for i, j, e, terms, pairs in todo:
            lhs = 0             # the code of zero: 0 + x = x needs no lookup
            for l, t in terms:
                x = coeffs[l][e] if t == 1 else scalar[t][coeffs[l][e]]
                lhs = add[lhs][x] if lhs else x
            ci, cj = coeffs[i], coeffs[j]
            rhs = 0
            for a, b in pairs:
                x = mul[ci[a]][cj[b]]
                rhs = add[rhs][x] if rhs else x
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
                    rest = add[rest][neg[x]]
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


def enumerate_homs(source, target, budget=1_000_000):
    """All ring homomorphisms source -> target, in lexicographic order of
    generator image coordinates.  Both rings finite."""
    candidates = [[_annihilator(target, d)] for d in source.orders]
    element = _codes(target).element
    return [RingHom(source, target, [element[c] for (c,) in coeffs])
            for coeffs in
            _multiplicative_images(source, target, candidates, budget)]


def is_surjective(hom):
    """Surjectivity for a RingHom with finite source and target: the image
    is the additive span of the generator images."""
    if not (isinstance(hom, RingHom) and isinstance(hom.target, FiniteRing)):
        raise HotringError(f"{hom.label or 'a hom'} ({hom.source.label} -> "
                           f"{hom.target.label}): surjectivity needs finite rings")
    img = additive_closure(hom.target, list(hom.images))
    return len(img) == hom.target.size()


# ---------------------------------------------------------------------------
# union-find over indices, shared by homotopy classes and strict pi_0


class _UnionFind:
    """Incremental union-find on 0..n-1; the smaller root wins a union,
    so every class is rooted at its least member."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        self.parent[max(ri, rj)] = min(ri, rj)

    def classes(self):
        """Lists of members, each ascending, ordered by least member."""
        buckets = {}
        for i in range(len(self.parent)):
            buckets.setdefault(self.find(i), []).append(i)
        return [buckets[r] for r in sorted(buckets)]


# ---------------------------------------------------------------------------
# subgroups, quotients, presentations


def additive_closure(ring, elements):
    """The additive subgroup generated by the given elements (as a set)."""
    closed = {ring.zero()}
    frontier = list(elements)
    while frontier:
        x = frontier.pop()
        if x in closed:
            continue
        closed.add(x)
        for y in list(closed):
            s = ring.add(x, y)
            if s not in closed:
                frontier.append(s)
    return closed


def ideal_closure(ring, gens):
    """Two-sided ideal generated by gens, by worklist saturation."""
    current = additive_closure(ring, gens)
    while True:
        extra = set()
        for h in current:
            for i in range(ring.ngens):
                g = ring.gen(i)
                for p in (ring.mul(g, h), ring.mul(h, g)):
                    if p not in current:
                        extra.add(p)
        if not extra:
            return current
        current = additive_closure(ring, current | extra)


class SubgroupPresentation:
    """Smith-normal-form presentation of the subgroup of ⊕ Z/d_i spanned
    by the given vectors: Z^m modulo the integer relations among them.

    ``orders`` are the invariant factors, ``gens`` the corresponding
    elements of the ambient group, and ``coords`` maps a subgroup element
    to its coordinates in the new basis (or None when not a member).
    """

    def __init__(self, ambient_orders, vectors):
        vectors = [tuple(v) for v in vectors]
        m = self._m = len(vectors)
        # one Smith form of the relation matrix gives both the relations
        # among the vectors (its kernel) and coords (its solves)
        self._solver = LinearSolver(_relation_matrix(vectors, ambient_orders))
        relations = ([col[:m] for col in self._solver.kernel()]
                     if ambient_orders else identity_matrix(m))
        self._relations = QuotientPresentation((0,) * m, relations)
        self.orders = self._relations.orders
        # the new basis: the columns of U^-1 kept by the quotient, pushed
        # through the vectors
        uinv = self._relations._uinv
        self.gens = [tuple(sum(uinv[r][i] * vec[l]
                               for r, vec in enumerate(vectors)) % d
                           for l, d in enumerate(ambient_orders))
                     for i in self._relations._keep]

    def size(self):
        return math.prod(self.orders)

    def coords(self, v):
        """Coordinates of ambient element v in the subgroup basis."""
        return self.coords_all([v])[0]

    def coords_all(self, vs):
        """coords of every v in vs, solved as one batch."""
        sols = self._solver.solve_all([list(v) for v in vs])
        found = iter(self._relations.project_all(
            [sol[:self._m] for sol in sols if sol is not None]))
        return [None if sol is None else next(found) for sol in sols]


def _relation_matrix(vectors, orders):
    """Columns: the vectors, then orders[i] times the i-th unit vector."""
    return transpose([list(v) for v in vectors] + _order_columns(orders))


def _order_columns(orders):
    """orders[i] times the i-th unit vector, skipping orders 0 (free)."""
    k = len(orders)
    return [[d if c == i else 0 for c in range(k)]
            for i, d in enumerate(orders) if d]


def _kernel_presentation(source_orders, images, target_orders):
    """The x in ⊕ Z/source_orders with sum_i x_i images[i] = 0 modulo the
    target orders, as a SubgroupPresentation."""
    n = len(images)
    kernel = (identity_matrix(n) if not target_orders else
              [col[:n] for col in
               LinearSolver(_relation_matrix(images, target_orders)).kernel()])
    return SubgroupPresentation(source_orders, [
        tuple(x % d for x, d in zip(v, source_orders)) for v in kernel])


class QuotientPresentation:
    """Presentation of (⊕ Z/d_i) / H with H a subgroup given by vectors.

    An ambient order 0 is a free coordinate Z, and an invariant factor 0
    in ``orders`` a free summand of the quotient.  ``lifts``, ambient
    elements mapping to the new basis, are computed only when every
    ambient order is positive (None otherwise).
    """

    def __init__(self, ambient_orders, sub_vectors):
        self.ambient_orders = orders = tuple(ambient_orders)
        k = len(orders)
        cols = _order_columns(orders) + [list(v) for v in sub_vectors]
        s, u, _, uinv = smith_normal_form(transpose(cols or [[0] * k]))
        diag = [s[i][i] if i < len(s[i]) else 0 for i in range(k)]
        self._u = u
        self._uinv = uinv
        self._s = diag
        self._keep = [i for i in range(k) if diag[i] != 1]
        self.orders = tuple(diag[i] for i in self._keep)
        self.lifts = None
        if all(orders):
            self.lifts = [tuple(uinv[r][i] % d for r, d in enumerate(orders))
                          for i in self._keep]

    def project(self, v):
        return self.project_all([v])[0]

    def project_all(self, vs):
        """project of every v in vs, by one product with U."""
        uv = mat_mul(self._u, transpose([list(v) for v in vs]))
        return [self._reduce([row[c] for row in uv]) for c in range(len(vs))]

    def project_gen(self, i):
        """project of the i-th ambient unit vector: column i of U."""
        return self._reduce([row[i] for row in self._u])

    def _reduce(self, uv):
        return tuple(uv[r] % self._s[r] if self._s[r] else uv[r]
                     for r in self._keep)


def _ring_from_group(orders, gen_elements, host_mul, coords_all,
                     unit_coords=None, label="R"):
    """Assemble a FiniteRing on a presented abelian group.

    gen_elements live in some host structure with multiplication host_mul;
    coords_all maps a list of host elements to presentation coordinates
    (None outside the subgroup), once for all k^2 generator products.
    """
    k = len(orders)
    coords = coords_all([host_mul(a, b) for a in gen_elements
                         for b in gen_elements])
    if None in coords:
        raise VerificationFailure("product escaped the presented subgroup",
                                  witness=divmod(coords.index(None), k))
    table = [coords[i * k:(i + 1) * k] for i in range(k)]
    return validate_ring(orders, table, unit=unit_coords, label=label)


def quotient(ring, ideal_gens, label=None):
    """Quotient by the two-sided ideal generated by ideal_gens.

    Returns (Q, proj, ideal_elements) with proj a surjective RingHom and
    ideal_elements the saturated closure (the kernel of proj).
    """
    ideal = ideal_closure(ring, list(ideal_gens))
    pres = QuotientPresentation(ring.orders, sorted(ideal))
    unit_coords = pres.project(ring.unit) if ring.unit is not None else None
    q = _ring_from_group(pres.orders, pres.lifts, ring.mul,
                         pres.project_all,
                         unit_coords=unit_coords,
                         label=label or f"{ring.label}/I")
    proj = RingHom(ring, q, [pres.project_gen(i) for i in range(ring.ngens)],
                   label="proj")
    proj.validate()
    return q, proj, ideal


def pullback(f, g, label=None):
    """Fibre product of f: A -> C and g: B -> C.

    Returns (D, rho, sigma, embed) where rho, sigma are the projections to
    A and B and embed maps a pair (a, b) with f(a) = g(b) to its element
    of D (None when the pair is not in the fibre product).
    """
    a_ring, b_ring, c_ring = f.source, g.source, f.target
    if g.target is not c_ring:
        raise HotringError("pullback legs must share their target")
    ka = a_ring.ngens
    orders = a_ring.orders + b_ring.orders

    # the kernel of (a, b) -> f(a) - g(b)
    pres = _kernel_presentation(
        orders, list(f.images) + [c_ring.neg(y) for y in g.images],
        c_ring.orders)

    def host_mul(x, y):
        return (a_ring.mul(x[:ka], y[:ka]) + b_ring.mul(x[ka:], y[ka:]))

    unit_coords = None
    if a_ring.unit is not None and b_ring.unit is not None:
        cand = a_ring.unit + b_ring.unit
        if f.apply(a_ring.unit) == g.apply(b_ring.unit):
            unit_coords = pres.coords(cand)

    d_ring = _ring_from_group(pres.orders, pres.gens, host_mul,
                              pres.coords_all,
                              unit_coords=unit_coords,
                              label=label or f"{a_ring.label}x_{c_ring.label}{b_ring.label}")
    rho = RingHom(d_ring, a_ring, [gv[:ka] for gv in pres.gens], label="rho")
    sigma = RingHom(d_ring, b_ring, [gv[ka:] for gv in pres.gens], label="sigma")
    rho.validate()
    sigma.validate()

    def embed(a, b):
        if f.apply(a) != g.apply(b):
            return None
        return pres.coords(tuple(a) + tuple(b))

    return d_ring, rho, sigma, embed


def product_ring(a_ring, b_ring, label=None):
    z = zero_ring()
    return pullback(zero_hom(a_ring, z), zero_hom(b_ring, z),
                    label=label or f"{a_ring.label}x{b_ring.label}")


def canonicalize(ring, label=None):
    """Isomorphic presentation in invariant-factor form.

    Optional: user-supplied presentations are kept readable, but derived
    constructions sometimes want the canonical shape.  Returns
    (canonical_ring, to_canonical, from_canonical) with both direction
    maps validated.
    """
    vecs = [ring.gen(i) for i in range(ring.ngens)]
    pres = SubgroupPresentation(ring.orders, vecs)
    can = _ring_from_group(pres.orders, pres.gens, ring.mul, pres.coords_all,
                           unit_coords=(pres.coords(ring.unit)
                                        if ring.unit is not None else None),
                           label=label or f"{ring.label}#")
    fwd = RingHom(ring, can, [pres.coords(ring.gen(i))
                              for i in range(ring.ngens)], label="canon")
    back = RingHom(can, ring, list(pres.gens), label="canon^-1")
    fwd.validate()
    back.validate()
    return can, fwd, back


def kernel_subring(f, label=None):
    """Kernel of a RingHom between finite rings, as a ring of its own.

    Returns (K, incl, coords) with incl the inclusion into the source and
    coords the partial inverse (None off the kernel).
    """
    src, tgt = f.source, f.target
    pres = _kernel_presentation(src.orders, f.images, tgt.orders)
    kr = _ring_from_group(pres.orders, pres.gens, src.mul, pres.coords_all,
                          label=label or f"ker({f.label or f'{src.label}->{tgt.label}'})")
    incl = RingHom(kr, src, pres.gens, label="incl")
    incl.validate()

    def coords(a):
        if not tgt.is_zero(f.apply(a)):
            return None
        return pres.coords(a)

    return kr, incl, coords
