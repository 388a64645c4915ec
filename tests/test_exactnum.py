from fractions import Fraction
from math import gcd
from random import Random

import pytest

from _helpers import random_unimodular, sort_hnf
from latclass import exactnum as xn
from latclass.errors import DomainError, RankError, ResourceError


def test_nu_delta_examples():
    assert xn.nu_delta(Fraction(-6, 4)) == (3, 2)
    assert xn.nu_delta(5) == (5, 1)
    assert xn.nu_delta(Fraction(2, 9)) == (2, 9)
    with pytest.raises(DomainError):
        xn.nu_delta(0)


def test_nu_delta_reconstructs():
    rng = Random(1)
    for _ in range(200):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if q == 0:
            continue
        nu, de = xn.nu_delta(q)
        assert q == (1 if q > 0 else -1) * Fraction(nu, de)


def _gcd_q_oracle(q1, q2, bound=25):
    best = None
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            v = a * q1 + b * q2
            if v > 0 and (best is None or v < best):
                best = v
    return best


def test_integer_helpers_match_naive_oracles():
    for n in range(1, 400):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        primes = [p for p in divs[1:] if all(p % q for q in range(2, p))]
        assert xn.divisors(n) == xn.divisors(-n) == divs
        assert xn.prime_divisors(n) == primes
        assert xn.euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        delta, g = xn.squarefree_split(-n)
        assert delta * g * g == -n and delta < 0
        assert all(delta % (p * p) for p in primes)
        c = xn.icbrt(n)
        assert c**3 <= n < (c + 1) ** 3
    big = 3**70 + 12345
    c = xn.icbrt(big)
    assert c**3 <= big < (c + 1) ** 3
    for f in (xn.factorize, xn.divisors, xn.squarefree_split):
        with pytest.raises(DomainError):
            f(0)


def test_gcd_q_examples():
    assert xn.gcd_q(Fraction(2, 3), Fraction(10, 9)) == Fraction(2, 9)
    assert xn.gcd_q(Fraction(2, 3), Fraction(10, 9)) == _gcd_q_oracle(
        Fraction(2, 3), Fraction(10, 9))
    assert xn.gcd_q(Fraction(-7, 2), 0) == Fraction(7, 2)
    assert xn.gcd_q(4, 6) == 2
    with pytest.raises(DomainError):
        xn.gcd_q(0, 0)


def test_gcd_q_is_commutative_associative_semigroup():
    rng = Random(2)
    for _ in range(120):
        qs = [Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(3)]
        a, b, c = qs
        assert xn.gcd_q(a, b) == xn.gcd_q(b, a)
        assert xn.gcd_q(xn.gcd_q(a, b), c) == xn.gcd_q(a, xn.gcd_q(b, c))


def test_gcd_q_matches_small_oracle():
    rng = Random(3)
    for _ in range(40):
        q1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        q2 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert xn.gcd_q(q1, q2) == _gcd_q_oracle(q1, q2)


# ---------------------------------------------------------------------------
# rational elimination: det, rmat_inv, solve, nullspace, column_space_basis

def _leibniz_det(a):
    """Determinant as the signed sum over all permutations, independent of
    any elimination."""
    from itertools import permutations

    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def _minor_rank(a) -> int:
    """Rank of a rational matrix: the largest k with a nonzero k x k minor
    (Leibniz determinants, independent of elimination)."""
    from itertools import combinations

    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if _leibniz_det([[a[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


def _rref_oracle(m, ncols):
    """The former Fraction Gauss-Jordan elimination, kept as an oracle: in
    place on the first ncols columns of the rows m, each pivot scaled to 1
    and cleared from its column.  Returns (pivot columns, the product of the
    pivots with the sign of the row swaps)."""
    rows = len(m)
    pivots = []
    scale = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            scale = -scale
        p = m[r][c]
        scale *= p
        m[r] = [x / p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots, scale


def _random_rational_matrix(rng, rows, cols):
    """Entries p/q with small p, q; about a third of the matrices are products
    through a narrower middle, so singular and rank-deficient cases occur."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    if rng.random() < 1 / 3 and min(rows, cols) > 1:
        k = rng.randint(1, min(rows, cols) - 1)
        left = [[entry() for _ in range(k)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(k)]
        return xn.mat_mul(left, right)
    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


def test_elimination_cross_check():
    rng = Random(11)
    singular = deficient = inconsistent = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_rational_matrix(rng, rows, cols)
        rank = _minor_rank(a)
        b = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rows))
        # rmat_inv and solve on square input
        if rows == cols:
            if xn.det(a) == 0:
                singular += 1
                with pytest.raises(RankError):
                    xn.rmat_inv(a)
                assert xn.solve(a, b) is None
            else:
                inv = xn.rmat_inv(a)
                assert xn.mat_mul(inv, a) == xn.identity(rows, Fraction(1))
                assert xn.solve(a, b) == xn.mat_vec(inv, b)
        # solve on any shape: the unique solution, or None
        sol = xn.solve(a, b)
        consistent = _minor_rank([row + (x,) for row, x in zip(a, b)]) == rank
        if rank < cols:
            deficient += 1
            assert sol is None
        elif not consistent:
            inconsistent += 1
            assert sol is None
        else:
            assert xn.mat_vec(a, sol) == b
        # nullspace: kernel vectors, cols - rank of them, independent
        kernel = xn.nullspace(a)
        assert len(kernel) == cols - rank
        for v in kernel:
            assert all(x == 0 for x in xn.mat_vec(a, v))
        if kernel:
            assert _minor_rank(kernel) == len(kernel)
        # column_space_basis: the greedy choice of independent columns
        greedy = []
        for c in xn.columns(a):
            if _minor_rank(xn.from_columns(greedy + [c])) > len(greedy):
                greedy.append(c)
        assert xn.column_space_basis(a) == greedy
        assert len(greedy) == rank
    assert singular and deficient and inconsistent


def test_elimination_matches_fraction_gauss_jordan():
    rng = Random(13)
    singular = deficient = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_rational_matrix(rng, rows, cols)
        b = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rows))
        m = [list(row) for row in a]
        pivots, scale = _rref_oracle(m, cols)
        deficient += len(pivots) < min(rows, cols)
        free = [c for c in range(cols) if c not in pivots]
        kernel = []
        for fc in free:
            v = [Fraction(0)] * cols
            v[fc] = Fraction(1)
            for i, pc in enumerate(pivots):
                v[pc] = -m[i][fc]
            kernel.append(tuple(v))
        assert xn.nullspace(a) == kernel
        assert xn.column_space_basis(a) == [tuple(row[c] for row in a) for c in pivots]
        ab = [list(row) + [x] for row, x in zip(a, b)]
        if len(_rref_oracle(ab, cols)[0]) < cols or any(row[cols] for row in ab[cols:]):
            assert xn.solve(a, b) is None
        else:
            assert xn.solve(a, b) == tuple(row[cols] for row in ab[:cols])
        if rows != cols:
            continue
        full = len(pivots) == rows
        assert xn.det(a) == (scale if full else 0)
        singular += not full
        aug = [list(row) + [Fraction(int(i == j)) for j in range(rows)]
               for i, row in enumerate(a)]
        _rref_oracle(aug, rows)
        if full:
            assert xn.rmat_inv(a) == tuple(tuple(row[rows:]) for row in aug)
        else:
            with pytest.raises(RankError):
                xn.rmat_inv(a)
    assert singular and deficient


def test_elimination_rejects_misshapen_input():
    for a in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]]):
        with pytest.raises(DomainError):
            xn.rmat_inv(a)
    for a, b in (([[1, 0], [0, 1]], [1, 2, 3]), ([[1, 0], [0, 1]], [1]),
                 ([[1, 0], [0]], [1, 2]), ([[1, 0, 0], [0, 1]], [1, 2])):
        with pytest.raises(DomainError):
            xn.solve(a, b)
    for a in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(DomainError):
            xn.nullspace(a)
        with pytest.raises(DomainError):
            xn.column_space_basis(a)


# ---------------------------------------------------------------------------
# HNF

def _hnf_span_oracle(cols_a, cols_b, box=5):
    """Brute-force check that two full-rank integer column sets span the same
    lattice: compare exact membership for every point of a small box."""
    from itertools import product

    def member(cols, v):
        rows = [[col[i] for col in cols] for i in range(len(v))]
        sol = xn.solve(rows, v)
        return sol is not None and all(x.denominator == 1 for x in sol)

    dim = len(cols_a[0])
    for v in product(range(-box, box + 1), repeat=dim):
        if member(cols_a, v) != member(cols_b, v):
            return False
    return True


def test_hnf_examples():
    # columns {(4,2),(2,2)} -> {(2,0),(0,2)}
    h = xn.hnf(((4, 2), (2, 2)))
    assert h == ((2, 0), (0, 2))
    assert _hnf_span_oracle([(4, 2), (2, 2)], xn.columns(h))
    assert xn.hnf(xn.identity(3)) == xn.identity(3)
    # columns {(1,0),(5,3)}: row-1 entries reduce modulo the pivot 1 to 0
    h = xn.hnf(((1, 5), (0, 3)))
    assert h == ((1, 0), (0, 3))
    assert _hnf_span_oracle([(1, 0), (5, 3)], xn.columns(h))


def test_hnf_shape_and_idempotence():
    rng = Random(4)
    for _ in range(150):
        n = rng.randint(1, 4)
        cols = n + rng.randint(0, 2)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(n)]
        try:
            h = xn.hnf(m)
        except RankError:
            continue
        # upper triangular, positive diagonal, reduced entries
        for i in range(n):
            assert h[i][i] > 0
            for j in range(n):
                if j < i:
                    assert h[i][j] == 0
                elif j > i:
                    assert 0 <= h[i][j] < h[i][i]
        assert xn.hnf(h) == h


def test_hnf_preserves_membership():
    rng = Random(5)
    for _ in range(60):
        n = rng.randint(2, 3)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if xn.det(m) == 0:
            continue
        h = xn.hnf(m)
        # random integer combinations of original columns lie in span(h)
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            v = tuple(sum(c * m[i][j] for j, c in enumerate(coeffs)) for i in range(n))
            sol = xn.solve(h, v)
            assert all(x.denominator == 1 for x in sol)
        assert abs(xn.det(m)) == xn.det(h)


def test_hnf_rank_error():
    with pytest.raises(RankError):
        xn.hnf(((1, 2), (2, 4)))


def _random_hnf_input(rng: Random):
    """An n x k integer matrix, n in 1..5 and k in n..n^2+n, with zero
    columns, negative entries and entries up to 2^64; a few are rank
    deficient."""
    n = rng.randint(1, 5)
    k = rng.randint(n, n * n + n)
    size = rng.choice((1, 3, 40, 2**20, 2**64))
    m = [[rng.randint(-size, size) if rng.random() < 0.8 else 0 for _ in range(k)]
         for _ in range(n)]
    for j in rng.sample(range(k), rng.randint(0, k // 3)):
        for row in m:
            row[j] = 0
    if rng.random() < 0.1:                  # a repeated row: rank deficient
        m[rng.randrange(n)] = list(m[rng.randrange(n)])
    return tuple(map(tuple, m))


def test_hnf_matches_sort_oracle():
    rng = Random(19)
    shapes, ranked, deficient, big = set(), 0, 0, 0
    for _ in range(2400):
        m = _random_hnf_input(rng)
        try:
            want = sort_hnf(m)
        except RankError:
            with pytest.raises(RankError):
                xn.hnf(m)
            deficient += 1
            continue
        got = xn.hnf(m)
        assert got == want and all(type(x) is int for row in got for x in row), m
        ranked += 1
        shapes.add((len(m), len(m[0])))
        big += max(abs(x) for row in m for x in row) > 2**63
    assert ranked >= 2000 and deficient >= 50 and big >= 200
    assert {n for n, _ in shapes} == {1, 2, 3, 4, 5}
    assert (5, 30) in shapes and (5, 5) in shapes


def test_hnf_entry_types():
    class Int(int):
        pass

    assert xn.hnf(((True, False), (False, True))) == ((1, 0), (0, 1))
    assert xn.hnf(((Int(4), Int(2)), (Int(2), Int(2)))) == ((2, 0), (0, 2))
    for bad in (Fraction(1, 2), Fraction(2), 2.0, float("nan")):
        with pytest.raises(DomainError):
            xn.hnf(((1, 0), (0, bad)))
    # the type check comes before the rank check
    with pytest.raises(DomainError):
        xn.hnf(((1, 2), (2, 4.0)))
    with pytest.raises(RankError):
        xn.hnf(((0, 0, 0), (1, 2, 3)))


def test_solve_upper_matches_fraction_solve():
    rng = Random(23)
    answers = nones = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        h = [[0] * n for _ in range(n)]
        for i in range(n):
            h[i][i] = rng.choice((1, 1, 2, 3, 5, -2))
            for j in range(i + 1, n):
                h[i][j] = rng.randint(-6, 6)
        h = xn.mat(h)
        den = rng.choice((1, 1, 2, 6))
        cols = rng.randint(1, 4)
        if rng.random() < 0.5:              # b = den * h * y: integral answers
            y = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(n)]
            b = tuple(tuple(den * x for x in row) for row in xn.mat_mul(h, y))
        else:
            b = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(n))
        want = xn.mat_mul(xn.rmat_inv(h), [[Fraction(x, den) for x in row] for row in b])
        got = xn.solve_upper(h, b, den)
        if xn.mat_is_integral(want):
            assert got == xn.mat_int(want)
            answers += 1
        else:
            assert got is None
            nones += 1
    assert answers >= 150 and nones >= 100


# ---------------------------------------------------------------------------
# SNF

def _check_snf(m):
    u, s, v = xn.snf(m)
    assert xn.mat_mul(xn.mat_mul(u, m), v) == s
    assert abs(xn.det(u)) == 1
    assert abs(xn.det(v)) == 1
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    for i in range(len(s)):
        for j in range(len(s[0])):
            if i != j:
                assert s[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d >= 0 for d in diag)
    return diag


def test_snf_examples():
    assert _check_snf(((2, 0), (0, 6))) == [2, 6]
    assert _check_snf(((2, 0), (0, 3))) == [1, 6]
    assert _check_snf(((0, 0), (0, 0))) == [0, 0]


def test_snf_random_and_det():
    rng = Random(6)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-7, 7) for _ in range(cols)) for _ in range(rows))
        diag = _check_snf(m)
        if rows == cols:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(int(xn.det(m)))


def test_complete_to_basis():
    rng = Random(7)
    from math import gcd
    general = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        y = [rng.randint(-12, 12) for _ in range(n)]
        g = 0
        for x in y:
            g = gcd(g, x)
        if g != 1:
            continue
        general += all(abs(x) != 1 for x in y)
        v = xn.complete_to_basis(y)
        assert [row[0] for row in v] == y
        assert abs(xn.det(v)) == 1
    assert general
    # no entry of absolute value 1: the Smith-form completion
    for y in ([6, 10, 15], [0, 4, 9], [-6, 0, 10, 15], [2, 3]):
        v = xn.complete_to_basis(y)
        assert [row[0] for row in v] == y
        assert all(type(x) is int for row in v for x in row)
        assert abs(xn.det(v)) == 1
    with pytest.raises(DomainError):
        xn.complete_to_basis([4, 6])


def test_det_int_path_matches_fraction_path():
    rng = Random(12)
    for _ in range(400):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:              # singular: a repeated row
            m[rng.randrange(n)] = list(m[rng.randrange(n)])
        d = xn.det(m)
        assert type(d) is int
        assert d == xn.det(xn.mat_fractions(m))
        assert type(xn.det(xn.mat_fractions(m))) is Fraction
    assert xn.det([[2, 1], [Fraction(1, 2), 1]]) == Fraction(3, 2)
    assert xn.det([[0, 1], [1, 0]]) == -1


def test_unimodular_inverse_matches_rmat_inv():
    rng = Random(14)
    for _ in range(300):
        n = rng.randint(2, 5)
        u = random_unimodular(n, rng, length=12)
        inv = xn.unimodular_inverse(u)
        assert all(type(x) is int for row in inv for x in row)
        assert inv == xn.rmat_inv(u)
    assert xn.unimodular_inverse([[-1]]) == ((-1,),)
    for bad in ([[2]], [[1, 2], [2, 4]], [[2, 1], [1, 1], [0, 1]], [[1, 0, 0], [0, 1, 0]],
                [[1, 0], [0]], [[1, Fraction(1, 2)], [0, 1]]):
        with pytest.raises(DomainError):
            xn.unimodular_inverse(bad)


def test_factorize_cap(monkeypatch):
    # trial division stops at FACTOR_CAP: what is left below FACTOR_CAP^2 is prime
    assert xn.factorize(2**5 * 3 * 999_983) == [(2, 5), (3, 1), (999_983, 1)]
    assert xn.factorize(6 * 1_000_003) == [(2, 1), (3, 1), (1_000_003, 1)]
    for n in (10**18 + 3, 1_000_003**2):    # a prime and a square above the cap
        with pytest.raises(ResourceError):
            xn.factorize(n)
        with pytest.raises(ResourceError):
            xn.divisors(n)
    monkeypatch.setattr(xn, "FACTOR_CAP", 10)
    assert xn.factorize(2**4 * 7 * 113) == [(2, 4), (7, 1), (113, 1)]
    assert xn.factorize(3 * 9 * 97) == [(3, 3), (97, 1)]
    with pytest.raises(ResourceError):
        xn.factorize(11 * 13)
