"""The simplicial ring R[Delta] in its reduced coordinates.

Level n is represented as polynomials in t_1 .. t_n over R, using the
isomorphism that eliminates t_0 = 1 - (t_1 + ... + t_n); since 1 - t is
not an element of a nonunital polynomial ring, eliminated expressions
appear only as integer polynomials inside substitutions.

Face and degeneracy operators transport the barycentric case formulas
through this isomorphism; the only place the eliminated coordinate
resurfaces is the 0th face, which sends t_1 to 1 - (t_1 + ... + t_{n-1}).
"""

from __future__ import annotations

from .errors import IndexOutOfRange
from .poly import (PolyLike, PolyRing, iadd, iconst, imul, isub, ivar,
                   substitution_hom)


class SimplexRing:
    """R[Delta^n] together with its face and degeneracy maps."""

    def __init__(self, base, level):
        if level < 0:
            raise IndexOutOfRange(f"simplex level {level}")
        self.base = base
        self.level = level
        self.ring = PolyRing(base, tuple(f"t{i}" for i in range(1, level + 1)),
                             label=f"{base.label}[Delta^{level}]")

    def tvar(self, i):
        return f"t{i}"

    def _t0_expr(self, level):
        # the eliminated coordinate at the given level
        acc = iconst(1)
        for l in range(1, level + 1):
            acc = isub(acc, ivar(self.tvar(l)))
        return acc

    def face(self, i):
        """d_i : R[Delta^n] -> R[Delta^(n-1)], 0 <= i <= n, n >= 1."""
        n = self.level
        if not (0 <= i <= n) or n == 0:
            raise IndexOutOfRange(f"face {i} at level {n}")
        lower = SimplexRing(self.base, n - 1)
        assignment = {}
        for j in range(1, n + 1):
            if j < i:
                assignment[self.tvar(j)] = ivar(self.tvar(j))
            elif j == i:
                assignment[self.tvar(j)] = iconst(0)
            elif i == 0 and j == 1:
                assignment[self.tvar(j)] = self._t0_expr(n - 1)
            else:
                assignment[self.tvar(j)] = ivar(self.tvar(j - 1))
        hom = substitution_hom(self.ring, lower.ring, assignment,
                               label=f"d{i}")
        return hom

    def degeneracy(self, i):
        """s_i : R[Delta^n] -> R[Delta^(n+1)], 0 <= i <= n."""
        n = self.level
        if not (0 <= i <= n):
            raise IndexOutOfRange(f"degeneracy {i} at level {n}")
        upper = SimplexRing(self.base, n + 1)
        assignment = {}
        for j in range(1, n + 1):
            if j < i:
                assignment[self.tvar(j)] = ivar(self.tvar(j))
            elif j == i:
                assignment[self.tvar(j)] = iadd(ivar(self.tvar(j)),
                                                ivar(self.tvar(j + 1)))
            else:
                assignment[self.tvar(j)] = ivar(self.tvar(j + 1))
        return substitution_hom(self.ring, upper.ring, assignment,
                                label=f"s{i}")

    def sample(self, rng):
        return self.ring.sample(rng)


def contraction_map(simplex, xvar, i):
    """The homotopy component at the 1-simplex v(i), -1 <= i <= n.

    Fixes everything except the adjoined variable, which goes to
    x * (t_0 + ... + t_i); the two vertices give the identity (i = n)
    and evaluation at x = 0 followed by inclusion (i = -1).
    """
    n = simplex.level
    if not (-1 <= i <= n):
        raise IndexOutOfRange(f"vertex {i} at level {n}")
    if i == -1:
        image = iconst(0)
    else:
        # t_0 + ... + t_i = 1 - (t_{i+1} + ... + t_n)
        acc = iconst(1)
        for l in range(i + 1, n + 1):
            acc = isub(acc, ivar(simplex.tvar(l)))
        image = imul(ivar(xvar), acc)
    return substitution_hom(simplex.ring, simplex.ring, {xvar: image},
                            label=f"h(v{i})@{n}")


def delta1_face_index(i, j):
    """Image of the 1-simplex v(i) under the j-th face of Delta^1."""
    return i - 1 if j <= i else i


def delta1_degeneracy_index(i, j):
    return i + 1 if j <= i else i


def simplicial_identity_cases(max_level):
    """All (family, n, i, j) identity instances with every level <= max_level."""
    cases = []
    for n in range(0, max_level + 1):
        for j in range(0, n + 1):
            for i in range(0, j):
                if n >= 2:
                    cases.append(("dd", n, i, j))
        for j in range(0, n + 1):
            for i in range(0, j + 1):
                if n + 2 <= max_level:
                    cases.append(("ss", n, i, j))
            if n + 1 <= max_level:
                for i in range(0, j):
                    cases.append(("ds_lt", n, i, j))
                cases.append(("ds_eq", n, j, j))
                cases.append(("ds_eq1", n, j + 1, j))
                for i in range(j + 2, n + 2):
                    cases.append(("ds_gt", n, i, j))
    return cases


def identity_pair(base, case):
    """The two composite maps asserted equal by a simplicial identity.

    Both are maps out of the level recorded in the case; returns
    (level_ring, lhs, rhs) with lhs/rhs callables on its elements.
    """
    family, n, i, j = case
    if family == "dd":
        top = SimplexRing(base, n)
        mid = SimplexRing(base, n - 1)
        lhs = _comp(mid.face(i), top.face(j))
        rhs = _comp(mid.face(j - 1), top.face(i))
        return top, lhs, rhs
    if family == "ss":
        lower = SimplexRing(base, n)
        mid = SimplexRing(base, n + 1)
        lhs = _comp(mid.degeneracy(i), lower.degeneracy(j))
        rhs = _comp(mid.degeneracy(j + 1), lower.degeneracy(i))
        return lower, lhs, rhs
    lower = SimplexRing(base, n)
    mid = SimplexRing(base, n + 1)
    if family == "ds_lt":
        below = SimplexRing(base, n - 1)
        lhs = _comp(mid.face(i), lower.degeneracy(j))
        rhs = _comp(below.degeneracy(j - 1), lower.face(i))
        return lower, lhs, rhs
    if family in ("ds_eq", "ds_eq1"):
        lhs = _comp(mid.face(i), lower.degeneracy(j))
        rhs = lambda p: p
        return lower, lhs, rhs
    if family == "ds_gt":
        below = SimplexRing(base, n - 1)
        lhs = _comp(mid.face(i), lower.degeneracy(j))
        rhs = _comp(below.degeneracy(j), lower.face(i - 1))
        return lower, lhs, rhs
    raise ValueError(family)


def _comp(outer, inner):
    return lambda p: outer.apply(inner.apply(p))


def check_simplicial_identities(base, max_level, probes_per_family, rng):
    """Probe every identity instance, spending probes_per_family random
    elements on each of the five families; returns (checks_run, failures).
    The two unit identities d_j s_j = id = d_{j+1} s_j count as one family.
    """
    by_family = {}
    for case in simplicial_identity_cases(max_level):
        family = "ds_unit" if case[0] in ("ds_eq", "ds_eq1") else case[0]
        by_family.setdefault(family, []).append(case)
    failures = []
    checks = 0
    for family, cases in sorted(by_family.items()):
        built = [(case, identity_pair(base, case)) for case in cases]
        per_case = max(1, probes_per_family // len(cases))
        for case, (level, lhs, rhs) in built:
            for _ in range(per_case):
                p = level.sample(rng)
                checks += 1
                if lhs(p) != rhs(p):
                    failures.append((case, p))
    return checks, failures


def check_contraction_compatibility(base, xvar, max_level, probes, rng):
    """Probe compatibility of the contraction maps with faces/degeneracies,
    [w* of h] = [h of the transported vertex] after w*, plus the vertex
    endpoints; returns (checks_run, failures)."""
    failures = []
    checks = 0
    poly_base = PolyRing(base, (xvar,)) if not isinstance(base, PolyLike) else base
    for n in range(0, max_level + 1):
        top = SimplexRing(poly_base, n)
        for i in range(-1, n + 1):
            h_top = contraction_map(top, xvar, i)
            for j in range(0, n + 1):
                if n >= 1:
                    lower = SimplexRing(poly_base, n - 1)
                    hv = contraction_map(lower, xvar, delta1_face_index(i, j))
                    d = top.face(j)
                    for _ in range(probes):
                        p = top.sample(rng)
                        checks += 1
                        if d.apply(h_top.apply(p)) != hv.apply(d.apply(p)):
                            failures.append(("face", n, i, j, p))
                upper = SimplexRing(poly_base, n + 1)
                hv = contraction_map(upper, xvar, delta1_degeneracy_index(i, j))
                s = top.degeneracy(j)
                for _ in range(probes):
                    p = top.sample(rng)
                    checks += 1
                    if s.apply(h_top.apply(p)) != hv.apply(s.apply(p)):
                        failures.append(("degeneracy", n, i, j, p))
        # endpoints: v(n) acts as the identity, v(-1) as evaluation at 0
        ident = contraction_map(top, xvar, n)
        collapse = contraction_map(top, xvar, -1)
        for _ in range(probes):
            p = top.sample(rng)
            checks += 2
            if ident.apply(p) != p:
                failures.append(("endpoint_id", n, None, None, p))
            if collapse.apply(p) != top.ring.evaluate(p, xvar, 0):
                failures.append(("endpoint_zero", n, None, None, p))
    return checks, failures
