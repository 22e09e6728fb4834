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

from .errors import IndexOutOfRange, UnknownVariable
from .poly import (PolyLike, PolyRing, compose_assignments, iadd, iconst,
                   imul, isub, ivar, substitution_difference,
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

    def face_assignment(self, i):
        """The integer images of t_1 .. t_n under d_i, 0 <= i <= n, n >= 1."""
        n = self.level
        if not (0 <= i <= n) or n == 0:
            raise IndexOutOfRange(f"face {i} at level {n}")
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
        return assignment

    def face(self, i):
        """d_i : R[Delta^n] -> R[Delta^(n-1)], 0 <= i <= n, n >= 1."""
        assignment = self.face_assignment(i)
        lower = SimplexRing(self.base, self.level - 1).ring
        return substitution_hom(self.ring, lower, assignment, label=f"d{i}")

    def degeneracy_assignment(self, i):
        """The integer images of t_1 .. t_n under s_i, 0 <= i <= n."""
        n = self.level
        if not (0 <= i <= n):
            raise IndexOutOfRange(f"degeneracy {i} at level {n}")
        assignment = {}
        for j in range(1, n + 1):
            if j < i:
                assignment[self.tvar(j)] = ivar(self.tvar(j))
            elif j == i:
                assignment[self.tvar(j)] = iadd(ivar(self.tvar(j)),
                                                ivar(self.tvar(j + 1)))
            else:
                assignment[self.tvar(j)] = ivar(self.tvar(j + 1))
        return assignment

    def degeneracy(self, i):
        """s_i : R[Delta^n] -> R[Delta^(n+1)], 0 <= i <= n."""
        assignment = self.degeneracy_assignment(i)
        upper = SimplexRing(self.base, self.level + 1).ring
        return substitution_hom(self.ring, upper, assignment, label=f"s{i}")

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
    (level, lhs, rhs) with lhs and rhs the assignments of the two
    composites, composed over Z (the identity is the empty assignment).
    """
    family, n, i, j = case
    d = lambda m, k: SimplexRing(base, m).face_assignment(k)
    s = lambda m, k: SimplexRing(base, m).degeneracy_assignment(k)
    if family == "dd":
        lhs, rhs = (d(n - 1, i), d(n, j)), (d(n - 1, j - 1), d(n, i))
    elif family == "ss":
        lhs, rhs = (s(n + 1, i), s(n, j)), (s(n + 1, j + 1), s(n, i))
    elif family in ("ds_eq", "ds_eq1"):
        lhs, rhs = (d(n + 1, i), s(n, j)), ({}, {})
    elif family == "ds_lt":
        lhs, rhs = (d(n + 1, i), s(n, j)), (s(n - 1, j - 1), d(n, i))
    elif family == "ds_gt":
        lhs, rhs = (d(n + 1, i), s(n, j)), (s(n - 1, j), d(n, i - 1))
    else:
        raise ValueError(family)
    return (SimplexRing(base, n), compose_assignments(*lhs),
            compose_assignments(*rhs))


def check_simplicial_identities(base, max_level, probes_per_family, rng):
    """Probe every identity instance, spending probes_per_family random
    elements on each of the five families; returns (checks_run, failures).
    The two unit identities d_j s_j = id = d_{j+1} s_j count as one family.
    A probe p fails when p(lhs) - p(rhs) is not 0.
    """
    by_family = {}
    for case in simplicial_identity_cases(max_level):
        family = "ds_unit" if case[0] in ("ds_eq", "ds_eq1") else case[0]
        by_family.setdefault(family, []).append(case)
    failures = []
    checks = 0
    for family, cases in sorted(by_family.items()):
        per_case = max(1, probes_per_family // len(cases))
        for case in cases:
            level, lhs, rhs = identity_pair(base, case)
            difference = substitution_difference(lhs, rhs)
            sb = level.ring.scalar_base
            for _ in range(per_case):
                p = level.sample(rng)
                checks += 1
                if difference(sb, p).terms:
                    failures.append((case, p))
    return checks, failures


def check_contraction_compatibility(base, xvar, max_level, probes, rng):
    """Probe compatibility of the contraction maps with faces/degeneracies,
    [w* of h] = [h of the transported vertex] after w*, plus the vertex
    endpoints; returns (checks_run, failures).  Each level's maps are
    built once per call and keep their monomial memos across probes."""
    failures = []
    checks = 0
    poly_base = PolyRing(base, (xvar,)) if not isinstance(base, PolyLike) else base
    if xvar not in poly_base.vars:
        raise UnknownVariable(xvar)
    levels = [SimplexRing(poly_base, n) for n in range(max_level + 2)]
    h = [{i: contraction_map(s, xvar, i) for i in range(-1, s.level + 1)}
         for s in levels]
    for n in range(0, max_level + 1):
        top = levels[n]
        faces = [top.face(j) for j in range(n + 1)] if n >= 1 else []
        degeneracies = [top.degeneracy(j) for j in range(n + 1)]
        for i in range(-1, n + 1):
            h_top = h[n][i]
            for j in range(0, n + 1):
                if n >= 1:
                    hv = h[n - 1][delta1_face_index(i, j)]
                    d = faces[j]
                    for _ in range(probes):
                        p = top.sample(rng)
                        checks += 1
                        if d.apply(h_top.apply(p)) != hv.apply(d.apply(p)):
                            failures.append(("face", n, i, j, p))
                hv = h[n + 1][delta1_degeneracy_index(i, j)]
                s = degeneracies[j]
                for _ in range(probes):
                    p = top.sample(rng)
                    checks += 1
                    if s.apply(h_top.apply(p)) != hv.apply(s.apply(p)):
                        failures.append(("degeneracy", n, i, j, p))
        # endpoints: v(n) acts as the identity, v(-1) as evaluation at 0
        ident, collapse = h[n][n], h[n][-1]
        at_zero = substitution_hom(top.ring, top.ring, {xvar: iconst(0)})
        for _ in range(probes):
            p = top.sample(rng)
            checks += 2
            if ident.apply(p) != p:
                failures.append(("endpoint_id", n, None, None, p))
            if collapse.apply(p) != at_zero.apply(p):
                failures.append(("endpoint_zero", n, None, None, p))
    return checks, failures
