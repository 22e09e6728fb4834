import random
from fractions import Fraction

import pytest

from hotring import HotringError
from hotring.intlin import (identity_matrix, invariant_factors,
                            invert_unimodular, kernel_basis, mat_mul, mat_vec,
                            smith_normal_form, solve_integer)

from oracles import minors_gcd_invariants


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
        s, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert _is_unimodular(u) and _is_unimodular(v)
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


def test_solve_integer():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        a = random_matrix(rng, m, n)
        x = [rng.randrange(-3, 4) for _ in range(n)]
        b = mat_vec(a, x)
        sol = solve_integer(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b
    assert solve_integer([[2]], [1]) is None
    assert solve_integer([[0]], [5]) is None


def test_kernel_basis():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        a = random_matrix(rng, m, n)
        basis = kernel_basis(a)
        for vec in basis:
            assert mat_vec(a, vec) == [0] * m
        # rank-nullity over Q
        rank = len([d for d in invariant_factors(a) if d != 0])
        assert len(basis) == n - rank


def test_invert_unimodular_roundtrip():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a = random_matrix(rng, n, n)
        _, u, _ = smith_normal_form(a)
        uinv = invert_unimodular(u)
        assert mat_mul(u, uinv) == identity_matrix(n)


def test_invert_unimodular_rejects_other_matrices():
    for mat in ([[2]], [[0]], [[1, 1], [1, 1]], [[2, 1], [0, 1]]):
        with pytest.raises(HotringError, match="not unimodular"):
            invert_unimodular(mat)


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
