import random
from fractions import Fraction

from hotring.intlin import (LinearSolver, identity_matrix, invariant_factors,
                            mat_mul, smith_normal_form)

from oracles import minors_gcd_invariants


def mat_vec(a, v):
    """a * v, summing over the nonzero entries of v only."""
    support = [j for j, y in enumerate(v) if y]
    return [sum(row[j] * v[j] for j in support) for row in a]


def _is_unimodular(u):
    n = len(u)
    aug = [[Fraction(x) for x in row] for row in u]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return False
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(col + 1, n):
            f = aug[r][col]
            if f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return abs(det) == 1


def random_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(m)]


def test_snf_transform_identity_and_divisibility():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = random_matrix(rng, m, n)
        s, u, v, uinv = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert _is_unimodular(u) and _is_unimodular(v)
        assert mat_mul(u, uinv) == mat_mul(uinv, u) == identity_matrix(m)
        diag = [s[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if y != 0:
                assert x != 0 and y % x == 0
        assert all(d >= 0 for d in diag)


def test_invariant_factors_match_minor_gcd_oracle():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        a = random_matrix(rng, m, n, -4, 4)
        assert invariant_factors(a) == minors_gcd_invariants(a)


def test_snf_inverse_on_wide_tall_and_fixup_matrices():
    """U^-1 comes from the elimination itself; it must be the inverse on
    wide, tall, zero and divisibility-fix-up matrices alike."""
    rng = random.Random(13)
    cases = [[[0, 0], [0, 0]], [[2, 0], [0, 3]], [[4, 6, 10]],
             [[4], [6], [10]], [[2, 4], [4, 2], [6, 8]]]
    cases += [random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7),
                            -30, 30) for _ in range(200)]
    for a in cases:
        s, u, v, uinv = smith_normal_form(a)
        ident = identity_matrix(len(a))
        assert mat_mul(u, uinv) == ident and mat_mul(uinv, u) == ident
        assert mat_mul(uinv, s) == mat_mul(a, v)


def test_solve_integer():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        a = random_matrix(rng, m, n)
        x = [rng.randrange(-3, 4) for _ in range(n)]
        b = mat_vec(a, x)
        sol = LinearSolver(a).solve(b)
        assert sol is not None
        assert mat_vec(a, sol) == b
    assert LinearSolver([[2]]).solve([1]) is None
    assert LinearSolver([[0]]).solve([5]) is None


def _solve_one_at_a_time(solver, rhs):
    """The solve of A x = b as it ran before batches: U b, S^-1, then V,
    by matrix-vector products."""
    ub = mat_vec(solver.u, rhs)
    y = [0] * solver.n
    for i in range(solver.m):
        si = solver.s[i][i] if i < solver.n else 0
        if (ub[i] % si if si else ub[i]) != 0:
            return None
        if si:
            y[i] = ub[i] // si
    return mat_vec(solver.v, y)


def test_batch_solve_matches_one_at_a_time():
    """solve_all gives, for every right-hand side, the very solution (or
    None) of a solve by matrix-vector products, solvable or not, and an
    empty batch gives nothing."""
    rng = random.Random(8)
    unsolvable = 0
    for _ in range(80):
        m, n = rng.randrange(0, 5), rng.randrange(0, 5)
        a = random_matrix(rng, m, n)
        solver = LinearSolver(a)
        rhss = [rng.choice((mat_vec(a, [rng.randrange(-3, 4)
                                         for _ in range(n)]),
                            [rng.randrange(-5, 6) for _ in range(m)]))
                for _ in range(rng.randrange(0, 6))]
        expected = [_solve_one_at_a_time(solver, b) for b in rhss]
        assert solver.solve_all(rhss) == expected
        unsolvable += expected.count(None)
    assert unsolvable > 20
    assert LinearSolver([[2]]).solve_all([]) == []


def test_kernel_basis():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        a = random_matrix(rng, m, n)
        basis = LinearSolver(a).kernel()
        for vec in basis:
            assert mat_vec(a, vec) == [0] * m
        # rank-nullity over Q
        rank = len([d for d in invariant_factors(a) if d != 0])
        assert len(basis) == n - rank


def test_mat_vec_matches_dense_sum():
    rng = random.Random(21)
    for _ in range(200):
        m = rng.randrange(0, 5)
        n = rng.randrange(0, 6)
        a = random_matrix(rng, m, n, -2, 2)
        v = [rng.choice((0, 0, rng.randrange(-9, 10))) for _ in range(n)]
        expected = [sum(a[i][j] * v[j] for j in range(n)) for i in range(m)]
        assert mat_vec(a, v) == expected
    assert mat_vec([[1, 2], [3, 4]], [0, 0]) == [0, 0]
