"""Exact integer linear algebra: Smith normal form, solves, kernels.

Everything works on plain lists of Python ints, so there is no overflow
and no floating point anywhere.  Sizes here are desk scale (presentations
of finite abelian groups, relation matrices of small diagrams), so the
classical pivoting algorithm is plenty.

The Smith normal form is the only elimination: solves and kernels are
read off one (S, U, V), and U^-1 is kept beside U by the same row steps,
so no second elimination ever inverts a transform.
"""

from __future__ import annotations


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a:
        return []
    rows, inner = len(a), len(a[0])
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows if cols else 0):
        ai = a[i]
        for k in range(inner):
            x = ai[k]
            if x == 0:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                oi[j] += x * bk[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def smith_normal_form(mat):
    """Return (S, U, V, U^-1) with U*mat*V = S, U and V unimodular, S
    diagonal with nonnegative entries s1 | s2 | ... along the diagonal.

    U is the product of the row steps E, so U^-1 is the product of their
    inverses in the opposite order: each step applies E^-1 on the right of
    U^-1, a column step (a swap swaps columns, row[dst] += q*row[src]
    becomes col[src] -= q*col[dst], a negation negates a column)."""
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = identity_matrix(m)
    uinv = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
        for row in uinv:
            row[src] -= q * row[dst]

    def add_col(src, dst, q):
        for row in a + v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    t = 0
    while t < min(m, n):
        # locate a pivot of smallest absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        if a[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue

        # divisibility fix-up: pivot must divide every remaining entry
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1

    return a, u, v, uinv


def invariant_factors(mat):
    """Diagonal of the Smith form, without the transform matrices."""
    s = smith_normal_form(mat)[0]
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


class LinearSolver:
    """Precomputed Smith form of a matrix A, for repeated solves of
    A x = b and for the kernel of A."""

    def __init__(self, mat):
        self.m = len(mat)
        self.n = len(mat[0]) if self.m else 0
        self.s, self.u, self.v, _ = smith_normal_form(mat)

    def solve(self, rhs):
        return self.solve_all([rhs])[0]

    def solve_all(self, rhss):
        """A solution x of A x = b for each b in rhss, None where there is
        none: one product by U and one by V for the whole batch."""
        k = len(rhss)
        ub = mat_mul(self.u, transpose(rhss))
        y = [[0] * k for _ in range(self.n)]
        solvable = [True] * k
        for i in range(self.m):
            si = self.s[i][i] if i < self.n else 0
            for c, x in enumerate(ub[i]):
                # S y = U b: s_i divides (U b)_i, which is 0 where s_i is
                if (x % si if si else x) != 0:
                    solvable[c] = False
                elif si:
                    y[i][c] = x // si
        vy = mat_mul(self.v, y)
        return [[row[c] for row in vy] if solvable[c] else None
                for c in range(k)]

    def kernel(self):
        """Basis (list of vectors) of {x in Z^n : A x = 0}: the columns of
        V whose diagonal entry of S is zero."""
        return [[row[j] for row in self.v] for j in range(self.n)
                if j >= self.m or self.s[j][j] == 0]
