"""Independent checks for the benchmark's verdicts.

Nothing here calls into hotring's algorithms: the hom count is a brute
force over all generator images, and the K_0 invariants come from gcds
of minors of the relation matrix instead of a Smith normal form.
"""

from __future__ import annotations

import itertools
from math import gcd


# ---------------------------------------------------------------------------
# ring homomorphisms by brute force


def _mul(orders, table, a, b):
    out = [0] * len(orders)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for l, t in enumerate(table[i][j]):
                out[l] += x * y * t
    return tuple(v % d for v, d in zip(out, orders))


def _combine(orders, coeffs, images):
    out = [0] * len(orders)
    for c, img in zip(coeffs, images):
        for l, v in enumerate(img):
            out[l] += c * v
    return tuple(v % d for v, d in zip(out, orders))


def count_homs(src, tgt):
    """Number of ring maps src -> tgt between finite rings given by
    (orders, table): every tuple of generator images that respects the
    generator orders and the structure constants."""
    s_orders, s_table = src.orders, src.table
    t_orders, t_table = tgt.orders, tgt.table
    elements = list(itertools.product(*(range(d) for d in t_orders)))
    zero = (0,) * len(t_orders)
    options = [[x for x in elements
                if tuple((d * v) % o for v, o in zip(x, t_orders)) == zero]
               for d in s_orders]
    k = len(s_orders)
    count = 0
    for images in itertools.product(*options):
        if all(_combine(t_orders, s_table[i][j], images)
               == _mul(t_orders, t_table, images[i], images[j])
               for i in range(k) for j in range(k)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# K_0 of a diagram by gcds of minors


def k0_relation_matrix(objects, weq, fib_seq):
    """[a] = [b] for a weak equivalence, [E] = [F] + [B] for a fibre
    sequence F -> E -> B; one row per relation, one column per object."""
    col = {label: i for i, label in enumerate(objects)}
    rows = []
    for a, b in weq:
        row = [0] * len(objects)
        row[col[a]] += 1
        row[col[b]] -= 1
        rows.append(row)
    for f, e, b in fib_seq:
        row = [0] * len(objects)
        row[col[e]] += 1
        row[col[f]] -= 1
        row[col[b]] -= 1
        rows.append(row)
    return rows


def _det(mat):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def k0_invariants(objects, weq, fib_seq):
    """(rank, torsion) of Z^objects modulo the relations: d_i is the gcd of
    the i x i minors, the invariant factors are d_i / d_(i-1)."""
    rows = k0_relation_matrix(objects, weq, fib_seq)
    m, n = len(rows), len(objects)
    d = [1]
    for size in range(1, min(m, n) + 1):
        g = 0
        for rs in itertools.combinations(range(m), size):
            for cs in itertools.combinations(range(n), size):
                g = gcd(g, _det([[rows[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        d.append(g)
    rank_rel = len(d) - 1
    factors = [d[i] // d[i - 1] for i in range(1, len(d))]
    return n - rank_rel, sorted(f for f in factors if f != 1)
