"""Exact sparse multivariate polynomials over an arbitrary base ring.

A ``Poly`` is a canonical, hashable value: a sorted tuple of
``(monomial, coefficient)`` pairs, where a monomial is a sorted tuple of
``(variable, exponent)`` pairs with positive exponents and coefficients
are nonzero elements of a base ring.  Variables are central, so products
of coefficients happen in the base ring and integer polynomials act on
ring polynomials by the Z-action.

Polynomial rings, path rings (polynomials vanishing at 0) and loop rings
(vanishing at 0 and 1) share this flat representation: a nested
construction like the double loop ring of R is a set of polynomials in
two variables over R cut out by endpoint conditions.  That keeps
substitutions such as x -> 1-x or the x/y swap one-step operations.

``lift`` and ``lower`` are the one place that decides how an element of a
ring R sits inside R[x]: an element of a polynomial-shaped R already is a
flat polynomial, and any other element becomes a constant polynomial.
``scalar_base_of`` names the coefficient ring of that flat form, and
``fresh_var`` is the one place that decides which x a construction
adjoins: a name no ring involved already uses.

Affine expressions like 1 - x never live in a nonunital R[x]; they are
integer polynomials (polys over the ZZ ring) and enter only through
substitution and the integer action.
"""

from __future__ import annotations

from .errors import HotringError, MembershipViolation, UnknownVariable
from .rings import FuncHom, Ring, ZZ


class Poly:
    """Canonical sparse polynomial value; arithmetic lives on the ring."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = tuple(terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def is_zero_poly(self):
        return not self.terms

    def degree_in(self, var):
        d = 0
        for mono, _ in self.terms:
            for v, e in mono:
                if v == var and e > d:
                    d = e
        return d

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in self.terms:
            mono_s = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono)
            bits.append(f"{c!r}*{mono_s}" if mono_s else f"{c!r}")
        return " + ".join(bits)


def _canon(base, acc):
    terms = [(m, c) for m, c in acc.items() if not base.is_zero(c)]
    terms.sort(key=lambda t: t[0])
    return Poly(terms)


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def poly_add(base, p, q):
    acc = dict(p.terms)
    for m, c in q.terms:
        acc[m] = base.add(acc[m], c) if m in acc else c
    return _canon(base, acc)


def poly_neg(base, p):
    return Poly(tuple((m, base.neg(c)) for m, c in p.terms))


def poly_sub(base, p, q):
    return poly_add(base, p, poly_neg(base, q))


def poly_mul(base, p, q):
    acc = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            c = base.mul(c1, c2)
            if base.is_zero(c):
                continue
            m = _mono_mul(m1, m2)
            acc[m] = base.add(acc[m], c) if m in acc else c
    return _canon(base, acc)


def poly_scalar(base, n, p):
    acc = {}
    for m, c in p.terms:
        nc = base.scalar(n, c)
        if not base.is_zero(nc):
            acc[m] = nc
    return _canon(base, acc)


def const_poly(base, c):
    if base.is_zero(c):
        return Poly()
    return Poly((((), c),))


def monomial(base, c, mono):
    if base.is_zero(c):
        return Poly()
    mono = tuple(sorted((v, e) for v, e in mono if e))
    return Poly(((mono, c),))


def shift_poly(base, p, var, k):
    """Multiply by var^k."""
    if k == 0:
        return p
    acc = {}
    for m, c in p.terms:
        acc[_mono_mul(m, ((var, k),))] = c
    return _canon(base, acc)


def slices(p, var):
    """Decompose p = sum_e slice[e] * var^e; slices do not contain var."""
    out = {}
    for m, c in p.terms:
        e = 0
        rest = []
        for v, ex in m:
            if v == var:
                e = ex
            else:
                rest.append((v, ex))
        out.setdefault(e, []).append((tuple(rest), c))
    return {e: Poly(sorted(ts)) for e, ts in out.items()}


def constant_of(base, p):
    """The coefficient of the empty monomial; p must be constant."""
    if not p.terms:
        return base.zero()
    if len(p.terms) != 1 or p.terms[0][0] != ():
        raise MembershipViolation(f"{p!r} is not constant")
    return p.terms[0][1]


# integer polynomials (substitution images, affine reparametrizations)

def iconst(n):
    return const_poly(ZZ, n)


def ivar(name):
    return monomial(ZZ, 1, ((name, 1),))


def iadd(p, q):
    return poly_add(ZZ, p, q)


def isub(p, q):
    return poly_sub(ZZ, p, q)


def imul(p, q):
    return poly_mul(ZZ, p, q)


def ipow(p, k):
    out = iconst(1)
    for _ in range(k):
        out = imul(out, p)
    return out


def one_minus(name):
    return isub(iconst(1), ivar(name))


def loop_unit_ipoly(name):
    # x^2 - x, the generator of loop conditions
    return isub(ipow(ivar(name), 2), ivar(name))


def int_action(base, ip, p):
    """Product of an integer polynomial with a ring polynomial."""
    acc = {}
    for m1, n in ip.terms:
        for m2, c in p.terms:
            nc = base.scalar(n, c)
            if base.is_zero(nc):
                continue
            m = _mono_mul(m1, m2)
            acc[m] = base.add(acc[m], nc) if m in acc else nc
    return _canon(base, acc)


class _Substitution:
    """A simultaneous substitution compiled from its assignment.

    An image with a single term (0, a constant, a rename such as
    t_j -> t_{j-1}, a product of variables) acts on a monomial by exponent
    arithmetic.  Only images that are sums are expanded, and each power
    of one is formed once.  The integer polynomial a monomial of the
    source goes to is memoized, so applying the plan to many polynomials
    expands each monomial once.
    """

    __slots__ = ("assignment", "powers", "images")

    def __init__(self, assignment):
        for v in assignment:
            if not isinstance(v, str):
                raise UnknownVariable(str(v))
        self.assignment = dict(assignment)
        self.powers = {}        # (var, e) -> image of var to the e, for sums
        self.images = {}        # monomial -> ((monomial, integer), ...)

    def _power(self, v, e):
        key = (v, e)
        if key not in self.powers:
            ip = self.assignment[v]
            self.powers[key] = ip if e == 1 else imul(self._power(v, e - 1), ip)
        return self.powers[key]

    def _image(self, mono):
        exps = {}
        k = 1
        sums = []
        for v, e in mono:
            ip = self.assignment.get(v)
            if ip is None:
                exps[v] = exps.get(v, 0) + e
            elif not ip.terms:
                return ()
            elif len(ip.terms) == 1:
                (m, n), = ip.terms
                k *= n ** e
                for w, f in m:
                    exps[w] = exps.get(w, 0) + f * e
            else:
                sums.append((v, e))
        out = Poly(((tuple(sorted(exps.items())), k),))
        for v, e in sums:
            out = imul(out, self._power(v, e))
        return out.terms

    def __call__(self, base, p):
        images = self.images
        acc = {}
        for mono, c in p.terms:
            img = images.get(mono)
            if img is None:
                img = images[mono] = self._image(mono)
            for m, n in img:
                if n == 1:
                    nc = c
                else:
                    nc = base.scalar(n, c)
                    if base.is_zero(nc):
                        continue
                acc[m] = base.add(acc[m], nc) if m in acc else nc
        return _canon(base, acc)


class _Difference(_Substitution):
    """p -> p(lhs) - p(rhs) by linearity: the integer polynomial
    img_lhs(m) - img_rhs(m) is memoized per source monomial m and acts on
    the coefficient of m.  The same integer images and Z-action as the
    two substitutions, so the result is exact: on Z/2, two images that
    differ by 2t give 0."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        super().__init__({})
        self.lhs, self.rhs = _Substitution(lhs), _Substitution(rhs)

    def _image(self, mono):
        return isub(Poly(self.lhs._image(mono)),
                    Poly(self.rhs._image(mono))).terms


def substitution_difference(lhs, rhs):
    """The plan (base, p) -> p(lhs) - p(rhs), compiled once."""
    return _Difference(lhs, rhs)


def compose_assignments(outer, inner):
    """The assignment of p -> p(inner)(outer): v -> outer(inner[v]), the
    integer polynomials substituted over Z."""
    plan = _Substitution(outer)
    return {v: plan(ZZ, inner.get(v, ivar(v))) for v in {**outer, **inner}}


def substitute(base, p, assignment):
    """Substitute integer polynomials for variables, simultaneously.

    Central variables make this a ring homomorphism: coefficients commute
    with every substituted expression.  Each call compiles the assignment
    into a fresh ``_Substitution``; ``substitution_hom`` compiles once and
    keeps the plan, so renames and other single-term images cost exponent
    arithmetic and each source monomial is expanded once per hom.
    """
    return _Substitution(assignment)(base, p)


def evaluate(base, p, var, value):
    """Evaluate one variable at 0, 1, an integer, or an integer polynomial."""
    if isinstance(value, int):
        value = iconst(value)
    return substitute(base, p, {var: value})


# ---------------------------------------------------------------------------
# polynomial-shaped rings


class PolyLike(Ring):
    """Common behaviour of R[vars] and its path/loop subrings.

    ``scalar_base`` is the non-polynomial coefficient ring at the root,
    ``vars`` the full ordered variable tuple of the flat representation.
    """

    def __init__(self, scalar_base, vars, label):
        if isinstance(scalar_base, PolyLike):
            raise HotringError(f"{label}: the coefficient ring "
                               f"{scalar_base.label} is itself polynomial")
        self.scalar_base = scalar_base
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise HotringError(f"{label}: repeated variable in {self.vars}")
        self.label = label

    def zero(self):
        return Poly()

    def add(self, a, b):
        return poly_add(self.scalar_base, a, b)

    def neg(self, a):
        return poly_neg(self.scalar_base, a)

    def mul(self, a, b):
        return poly_mul(self.scalar_base, a, b)

    def scalar(self, n, a):
        return poly_scalar(self.scalar_base, n, a)

    def const(self, c):
        return const_poly(self.scalar_base, c)

    def monomial(self, c, mono):
        return monomial(self.scalar_base, c, mono)

    def evaluate(self, p, var, value):
        if var not in self.vars:
            raise UnknownVariable(var)
        return evaluate(self.scalar_base, p, var, value)

    def substitute(self, p, assignment):
        for v in assignment:
            if v not in self.vars:
                raise UnknownVariable(v)
        return substitute(self.scalar_base, p, assignment)

    def _coeffs_ok(self, p):
        allowed = set(self.vars)
        for mono, c in p.terms:
            if not self.scalar_base.contains(c):
                return False
            for v, e in mono:
                if v not in allowed or e <= 0:
                    return False
        return True


def scalar_base_of(ring):
    """The coefficient ring of R's flat representation."""
    return ring.scalar_base if isinstance(ring, PolyLike) else ring


def _vars_of(ring):
    return ring.vars if isinstance(ring, PolyLike) else ()


def fresh_var(name, *rings):
    """The variable a construction adjoins to the given rings: ``name``
    when none of them uses it, else the first unused of stem1, stem2, ...,
    where the stem is ``name`` without its trailing digits."""
    from .virtual import PairRing
    used, rings = set(), list(rings)
    while rings:
        ring = rings.pop()
        if isinstance(ring, PairRing):      # carrier_ring splits pairs
            rings += [ring.left, ring.right]
        else:
            used.update(_vars_of(ring))
    stem, k = name.rstrip("0123456789"), 1
    while name in used:
        name, k = f"{stem}{k}", k + 1
    return name


def lift(ring, x):
    """An element x of R as an element of R[x] in the flat form."""
    return x if isinstance(ring, PolyLike) else const_poly(ring, x)


def lower(ring, q):
    """The inverse of ``lift``, for q free of the adjoined variable;
    MembershipViolation when R is not polynomial-shaped and q is not
    a constant."""
    return q if isinstance(ring, PolyLike) else constant_of(ring, q)


class PolyRing(PolyLike):
    """The full polynomial ring scalar_base[vars]."""

    def __init__(self, scalar_base, vars, label=None):
        vars = _vars_of(scalar_base) + tuple(vars)
        scalar_base = scalar_base_of(scalar_base)
        super().__init__(scalar_base, vars,
                         label or f"{scalar_base.label}[{','.join(vars)}]")

    def contains(self, p):
        return isinstance(p, Poly) and self._coeffs_ok(p)

    def sample(self, rng):
        sb = self.scalar_base
        acc = {}
        for _ in range(rng.randrange(1, 4)):
            c = sb.sample(rng)
            # self.vars is not in sorted order: sort each monomial
            mono = tuple(sorted((v, rng.randrange(1, 3))
                                for v in self.vars if rng.random() < 0.5))
            acc[mono] = sb.add(acc[mono], c) if mono in acc else c
        return _canon(sb, acc)


def _base_contains(base, q):
    """Is the slice polynomial q an element of the coefficient ring?"""
    try:
        return base.contains(lower(base, q))
    except MembershipViolation:
        return False


class _Adjoined(PolyLike):
    """Polynomials over ``base`` in one more variable ``var``, cut out by
    conditions at the endpoints of ``var``."""

    prefix = None

    def __init__(self, base, var="x", label=None):
        self.base = base
        self.var = var
        super().__init__(scalar_base_of(base), _vars_of(base) + (var,),
                         label or f"{self.prefix}({base.label};{var})")


class PathRing(_Adjoined):
    """ER: polynomials over R in a fresh variable with zero constant term."""

    prefix = "E"

    def contains(self, p):
        if not (isinstance(p, Poly) and self._coeffs_ok(p)):
            return False
        for e, q in slices(p, self.var).items():
            if e == 0:
                return False
            if not _base_contains(self.base, q):
                return False
        return True

    def sample(self, rng):
        acc = self.zero()
        for k in (1, 2):
            acc = self.add(acc, shift_poly(
                self.scalar_base, lift(self.base, self.base.sample(rng)),
                self.var, k))
        return acc


class LoopRing(_Adjoined):
    """Omega R: kernel of both endpoint evaluations, equal to (x^2-x)R[x]."""

    prefix = "Omega"

    def contains(self, p):
        if not (isinstance(p, Poly) and self._coeffs_ok(p)):
            return False
        sl = slices(p, self.var)
        if 0 in sl:
            return False
        total = Poly()
        for e, q in sl.items():
            if not _base_contains(self.base, q):
                return False
            total = poly_add(self.scalar_base, total, q)
        return total.is_zero_poly()

    def from_factor(self, q):
        """(var^2 - var) * q; always a member when q has base coefficients."""
        sb = self.scalar_base
        return poly_sub(sb, shift_poly(sb, q, self.var, 2),
                        shift_poly(sb, q, self.var, 1))

    def factor(self, p):
        """The unique q with p = (var^2 - var) q; exact synthetic division."""
        sb = self.scalar_base
        sl = slices(p, self.var)
        if 0 in sl:
            raise MembershipViolation(f"{p!r} has a constant term in {self.var}")
        g = {e - 1: q for e, q in sl.items()}          # divided by var
        h = {}
        carry = Poly()
        for e in range(max(g) if g else 0, 0, -1):     # divide by (var - 1)
            carry = poly_add(sb, g.get(e, Poly()), carry)
            h[e - 1] = carry
        expect = poly_neg(sb, g.get(0, Poly()))
        if carry != expect:
            raise MembershipViolation(f"{p!r} does not vanish at {self.var}=1")
        acc = Poly()
        for e, q in h.items():
            acc = poly_add(sb, acc, shift_poly(sb, q, self.var, e))
        return acc

    def sample(self, rng):
        return self.from_factor(lift(self.base, self.base.sample(rng)))


def double_loop_ring(base, inner="x", outer="y"):
    return LoopRing(LoopRing(base, inner), outer)


def coefficient_map(hom, source, target, label=None):
    """Extend a hom of coefficient rings to polynomials over them: the
    terms of p are grouped by their monomial in the variables hom.source
    does not use, and each group is lowered, mapped and lifted back."""
    sb = target.scalar_base
    own = set(_vars_of(hom.source))

    def fn(p):
        groups = {}
        for mono, c in p.terms:
            outer = tuple((v, e) for v, e in mono if v not in own)
            inner = tuple((v, e) for v, e in mono if v in own)
            groups.setdefault(outer, []).append((inner, c))
        acc = {}
        for outer, terms in groups.items():
            q = lower(hom.source, Poly(sorted(terms)))
            for m2, c2 in lift(hom.target, hom.apply(q)).terms:
                m = _mono_mul(outer, m2)
                acc[m] = sb.add(acc[m], c2) if m in acc else c2
        return _canon(sb, acc)

    return FuncHom(source, target, fn, label or f"{hom.label}[...]")


def substitution_hom(source, target, assignment, label=None):
    """The ring hom p -> p(assignment) between polynomial-shaped rings.

    The assignment is compiled once into a ``_Substitution`` held by the
    hom: renames and other single-term images act by exponent arithmetic,
    and the image of each source monomial is expanded once and reused on
    every later call.  The plan dies with the hom.
    """
    plan = _Substitution(assignment)
    sb = target.scalar_base

    def fn(p):
        return plan(sb, p)
    return FuncHom(source, target, fn, label or f"subst{sorted(assignment)}")


def sigma_hom(loop):
    """The involution a(x) -> a(1-x) of a loop ring."""
    return substitution_hom(loop, loop, {loop.var: one_minus(loop.var)},
                            label=f"sigma_{loop.var}")


def tau_hom(loop2):
    """Swap the two loop variables of a double loop ring."""
    x = loop2.base.var
    y = loop2.var
    return substitution_hom(loop2, loop2, {x: ivar(y), y: ivar(x)},
                            label="tau")


def swap_homotopy(loop2):
    """The explicit interpolation between the x/y swap and the identity.

    f = (x^2-x)(y^2-y) f'(x, y) is sent to
    (x^2-x)(y^2-y) f'(tx + (1-t)y, (1-t)x + ty), t = fresh_var("t", loop2).

    Evaluation at t = 0 gives the swap, at 1 the identity, and the
    map is additive with every value a member of the double loop ring over
    base[t].  It is multiplicative only when products of base coefficients
    vanish (square-zero style bases); see the test suite for the exact
    boundary of that property.
    """
    x = loop2.base.var
    y = loop2.var
    inner = loop2.base
    sb = loop2.scalar_base
    tvar = fresh_var("t", loop2)
    target = PolyRing(sb, loop2.vars + (tvar,))
    unit = imul(loop_unit_ipoly(x), loop_unit_ipoly(y))
    mix = _Substitution({
        x: iadd(imul(ivar(tvar), ivar(x)), imul(one_minus(tvar), ivar(y))),
        y: iadd(imul(one_minus(tvar), ivar(x)), imul(ivar(tvar), ivar(y))),
    })

    def fn(f):
        fprime = inner.factor(loop2.factor(f))
        return int_action(sb, unit, mix(sb, fprime))

    return FuncHom(loop2, target, fn, label="swap_homotopy")
