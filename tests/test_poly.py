import time
from fractions import Fraction
from random import Random

import pytest

from latclass import poly as up
from latclass.errors import DomainError, ResourceError, UnsupportedError


def P(*coeffs):
    return up.poly(coeffs)


def test_arithmetic_basics():
    f = P(1, 2, 1)           # 1 + 2t + t^2
    g = P(1, 1)              # 1 + t
    assert up.mul(g, g) == f
    q, r = up.divmod_poly(f, g)
    assert q == g and r == ()
    assert up.gcd(f, g) == g
    assert up.evaluate(f, 3) == 16
    assert up.derivative(f) == P(2, 2)


def test_string_round_trip():
    f = up.from_string("t^3+4t^2+8t+16")
    assert f == P(16, 8, 4, 1)
    assert up.to_string(f) == "t^3+4*t^2+8*t+16"
    assert up.from_string(up.to_string(f)) == f
    assert up.from_string("t^2-t-1") == P(-1, -1, 1)
    assert up.from_string("t^2-7") == P(-7, 0, 1)
    assert up.to_string(()) == "0"
    for text in ("t/2", "3t/4+1", "t^", "2t3"):
        with pytest.raises(ValueError):
            up.from_string(text)
    # an exponent above exactnum.MAX_DIGITS is refused before the dense
    # coefficient list is built
    start = time.process_time()
    for text in ("t^3000000+1", "t^4301", "2t^10000000000000000000-1"):
        with pytest.raises(ValueError, match="exponent"):
            up.from_string(text)
    assert time.process_time() - start < 1
    assert up.degree(up.from_string("t^4300+1")) == 4300


def test_squarefree_decompose_examples():
    t = P(0, 1)
    assert up.squarefree_decompose(P(0, 0, 0, 1)) == [(t, 3)]
    f = up.mul(up.mul(P(-2, 1), t), P(2, 1))   # (t-2) t (t+2)
    assert up.squarefree_decompose(f) == [(f, 1)]
    # t^4 - 2t^3 + t^2 = (t^2 - t)^2
    assert up.squarefree_decompose(P(0, 0, 1, -2, 1)) == [(P(0, -1, 1), 2)]
    with pytest.raises(DomainError):
        up.squarefree_decompose(P(0, 2))


def test_squarefree_reconstructs_and_gcd_oracle():
    rng = Random(11)
    for _ in range(60):
        # random product of small monic factors
        f = P(1)
        for _ in range(rng.randint(1, 3)):
            g = up.poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1])
            f = up.mul(f, up.power(g, rng.randint(1, 2)))
        if up.degree(f) < 1:
            continue
        parts = up.squarefree_decompose(f)
        prod = P(1)
        for g, m in parts:
            prod = up.mul(prod, up.power(g, m))
            assert up.gcd(g, up.derivative(g)) == P(1)   # squarefree
        assert prod == f
        for i, (g1, _) in enumerate(parts):
            for g2, _ in parts[i + 1:]:
                assert up.gcd(g1, g2) == P(1)


def test_factor_rationals_examples():
    assert up.factor_rationals(P(-7, 0, 1)) == [(P(-7, 0, 1), 1)]
    assert up.factor_rationals(P(16, 8, 4, 1)) == [(P(16, 8, 4, 1), 1)]
    f = up.mul(up.mul(P(-2, 1), P(0, 1)), P(2, 1))
    assert up.factor_rationals(f) == [(P(-2, 1), 1), (P(0, 1), 1), (P(2, 1), 1)]
    # degree-4 irreducible found by the Kronecker stage
    assert up.factor_rationals(P(1, 0, 0, 0, 1)) == [(P(1, 0, 0, 0, 1), 1)]
    # and a degree-4 split into two quadratics
    f = up.mul(P(1, 0, 1), P(2, 0, 1))
    assert up.factor_rationals(f) == [(P(1, 0, 1), 1), (P(2, 0, 1), 1)]
    with pytest.raises(UnsupportedError):
        up.factor_rationals(P(-1, -1, 0, 0, 0, 0, 0, 0, 0, 1))   # t^9 - t - 1


def test_kronecker_search_is_capped():
    # t^6 + 720720 has 629,760 candidate factors: refused before the search
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        up.factor_rationals(P(720720, 0, 0, 0, 0, 0, 1))
    assert time.perf_counter() - start < 1
    with pytest.raises(ResourceError):
        up.factor_rationals(P(720720, 0, 0, 0, 1))          # 15,360 candidates


def test_kronecker_cap_counts_only_the_degrees_searched():
    # a quadratic runs no search, so h(1) = 2^61 - 1 (prime) is never factored
    f = P(2**61 - 2, 0, 1)
    assert up.factor_rationals(f) == [(f, 1)]
    # (t^2+1)(t^6+3) splits at degree 2 after 128 candidates, and
    # (t^2+1)(t^6+5) after 288; the three degrees of their searches together
    # would count 9,344 and 78,624
    for c in (3, 5):
        g = P(c, 0, 0, 0, 0, 0, 1)
        assert up.factor_rationals(up.mul(P(1, 0, 1), g)) == [(P(1, 0, 1), 1), (g, 1)]


def test_kronecker_takes_each_monic_candidate_once(monkeypatch):
    # g and -g are one monic factor: t^4 + 30 (irreducible) has 8 positive
    # divisors at 0 and 4 signed divisors at 1 and at -1
    calls = []
    interpolate = up._interpolate
    monkeypatch.setattr(up, "_interpolate", lambda xs, ys: calls.append(ys) or interpolate(xs, ys))
    f = P(30, 0, 0, 0, 1)
    assert up.factor_rationals(f) == [(f, 1)]
    assert 0 < len(calls) <= 128


def test_factor_rationals_reconstructs_and_no_rational_roots():
    rng = Random(12)
    for _ in range(40):
        f = P(1)
        for _ in range(rng.randint(1, 2)):
            g = up.poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
            f = up.mul(f, g)
        if not 1 <= up.degree(f) <= 8:
            continue
        factors = up.factor_rationals(f)
        prod = P(1)
        for g, m in factors:
            prod = up.mul(prod, up.power(g, m))
            if up.degree(g) >= 2:
                # no rational root; for degree <= 3 that proves irreducibility
                ints, _ = up._int_coeffs(g)
                assert not up.integer_roots(ints)
        assert prod == f


def test_char_min_poly_examples():
    # companion matrix of f is regular: charpoly == minpoly == f
    f = P(16, 8, 4, 1)
    comp = ((0, 0, -16), (1, 0, -8), (0, 1, -4))
    cp, mp = up.char_min_poly(comp)
    assert cp == f and mp == f
    cp, mp = up.char_min_poly(((2, 0), (0, 2)))
    assert cp == up.mul(P(-2, 1), P(-2, 1))
    assert mp == P(-2, 1)
    m_l3 = ((0, 0, -8), (2, 0, -8), (0, 1, -4))
    cp, _ = up.char_min_poly(m_l3)
    assert cp == P(16, 8, 4, 1)


def test_minpoly_annihilates():
    from latclass import exactnum as xn
    rng = Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
        cp, mp = up.char_min_poly(m)
        assert up.mod(cp, mp) == ()
        acc = [[0] * n for _ in range(n)]
        power_m = xn.identity(n, Fraction(1))
        for c in mp:
            acc = [[x + c * y for x, y in zip(ra, rp)] for ra, rp in zip(acc, power_m)]
            power_m = xn.mat_mul(power_m, m)
        assert all(x == 0 for row in acc for x in row)


def _interpolation_charpoly(m):
    """The former charpoly: det(x*I - m) by Bareiss at x = 0..n, then the
    Lagrange interpolation through those n+1 values."""
    from latclass import exactnum as xn
    n = len(m)
    xs = list(range(n + 1))
    ys = [xn.det([[Fraction(int(i == j) * x) - Fraction(m[i][j]) for j in range(n)]
                  for i in range(n)]) for x in xs]
    out = ()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = up.constant(yi)
        for j, xj in enumerate(xs):
            if j != i:
                term = up.scale(up.mul(term, P(-xj, 1)), Fraction(1, xi - xj))
        out = up.add(out, term)
    return out


def test_charpoly_matches_interpolation_oracle():
    rng = Random(2024)
    for n in range(1, 6):
        for _ in range(30):
            ints = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
            fracs = tuple(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                for _ in range(n)) for _ in range(n))
            for m in (ints, fracs):
                cp = up.charpoly(m)
                assert cp == _interpolation_charpoly(m), m
                assert up.degree(cp) == n and up.is_monic(cp)
                assert all(type(c) is Fraction for c in cp)
