"""Answer checks made apart from latclass: exact arithmetic on ints and
Fractions written for the benchmark alone.

Nothing here imports latclass, so a fault in the program's elimination or
algebra code cannot hide itself in the check.  A lattice is given by its
basis matrix (rows of Fractions, one basis vector per column), the same
layout `FullLattice.basis` uses; an element of Q[t]/(f) is its coefficient
vector in the power basis 1, t, ..., t^(n-1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


# ---------------------------------------------------------------------------
# rational linear algebra

def columns(m):
    return [tuple(row[j] for row in m) for j in range(len(m[0]))]


def from_columns(cols):
    return tuple(tuple(c[i] for c in cols) for i in range(len(cols[0])))


def common_denominator(vectors):
    """(integer vectors, d) with vectors = integer vectors / d."""
    d = 1
    for v in vectors:
        for x in v:
            d = lcm(d, x.denominator)
    return [[x.numerator * (d // x.denominator) for x in v] for v in vectors], d


def _int_gauss_jordan(m):
    """Fraction-free (Bareiss) Gauss-Jordan on an integer matrix.  Returns
    (X, D) with m^-1 = X / D, or (None, 0) when m is singular; D is det(m)
    up to sign."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return None, 0
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    return [row[n:] for row in a], prev


def det(m) -> Fraction:
    """Determinant by fraction-free elimination: det(M / d) = det(M) / d^n."""
    ints, d = common_denominator(m)
    n = len(ints)
    a = [row[:] for row in ints]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            a[i] = [(a[k][k] * x - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return Fraction(sign * prev, d ** n)


def inverse_int(m):
    """(X, D) with m^-1 = X / D for a nonsingular rational matrix m."""
    ints, d = common_denominator(m)
    x, big_d = _int_gauss_jordan(ints)
    return [[v * d for v in row] for row in x], big_d


def inverse(m):
    x, big_d = inverse_int(m)
    return tuple(tuple(Fraction(v, big_d) for v in row) for row in x)


def contains_all(basis, vectors) -> bool:
    """Every vector lies in the Z-span of the basis columns: B^-1 v is
    integral, tested in integers as (D B^-1)(d v) = 0 mod D d."""
    inv_rows, big_d = inverse_int(basis)
    ints, d = common_denominator(vectors)
    mod = big_d * d
    return all(sum(a * b for a, b in zip(row, w)) % mod == 0
               for w in ints for row in inv_rows)


# ---------------------------------------------------------------------------
# Hermite normal form, by extended-gcd column pairs

def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def int_hnf(cols, n):
    """Upper-triangular column HNF of the integer vectors `cols` (length n,
    spanning Z-rank n): positive diagonal, and each entry right of the
    diagonal reduced into [0, diagonal) of its row.  Returns a row matrix."""
    rest = [list(c) for c in cols if any(c)]
    piv = [None] * n
    for i in range(n - 1, -1, -1):
        p = None
        keep = []
        for c in rest:
            if c[i] == 0:
                keep.append(c)
            elif p is None:
                p = c
            else:
                g, x, y = _xgcd(p[i], c[i])
                u, v = p[i] // g, c[i] // g
                p, c = ([x * s + y * t for s, t in zip(p, c)],
                        [u * t - v * s for s, t in zip(p, c)])
                if any(c):
                    keep.append(c)
        if p is None:
            raise ValueError("generators do not span a full lattice")
        if p[i] < 0:
            p = [-s for s in p]
        piv[i] = p
        rest = keep
    for j in range(n):
        for i in range(j - 1, -1, -1):
            q = piv[j][i] // piv[i][i]
            if q:
                piv[j] = [s - q * t for s, t in zip(piv[j], piv[i])]
    return tuple(tuple(piv[j][i] for j in range(n)) for i in range(n))


def canonical_basis(gens, d=None):
    """The canonical basis latclass promises for the lattice the vectors
    `gens` generate: clear denominators, HNF, divide back.  With `d` given,
    `gens` are integer vectors standing for gens / d."""
    if d is None:
        gens, d = common_denominator(gens)
    h = int_hnf(gens, len(gens[0]))
    return tuple(tuple(Fraction(x, d) for x in row) for row in h)


def std_dual(basis):
    """{x : x . y in Z for all y in L}: the columns of the inverse transpose,
    that is the rows of the inverse, canonicalised."""
    return canonical_basis(*inverse_int(basis))


# ---------------------------------------------------------------------------
# Q[t]/(f) with f monic with integer coefficients, low to high

def cyc_mul(f, x, y):
    """x*y mod f; exact on ints or Fractions."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    prod[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        if c:
            for i in range(n):
                prod[k - n + i] -= c * f[i]
    return tuple(prod[:n])


def _int_products(f, basis1, basis2):
    """All products of basis columns, as (integer vectors, denominator)."""
    c1, d1 = common_denominator(columns(basis1))
    c2, d2 = common_denominator(columns(basis2))
    return [cyc_mul(f, a, b) for a in c1 for b in c2], d1 * d2


def product_gens(f, basis1, basis2):
    ints, d = _int_products(f, basis1, basis2)
    return [tuple(Fraction(x, d) for x in v) for v in ints]


def product_basis(f, basis1, basis2):
    """The canonical basis of L1 * L2."""
    return canonical_basis(*_int_products(f, basis1, basis2))


def mult_matrix(f, x):
    n = len(f) - 1
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    return from_columns([cyc_mul(f, x, e) for e in unit])


def metric_gram(f):
    """G[i][j] = coefficient of t^(n-1) in t^(i+j) mod f."""
    n = len(f) - 1
    t = tuple(int(i == 1) for i in range(n))
    powers = [tuple(int(i == 0) for i in range(n))]
    for _ in range(2 * n - 2):
        powers.append(cyc_mul(f, powers[-1], t))
    return tuple(tuple(powers[i + j][n - 1] for j in range(n)) for i in range(n))


def colon(f, basis1, basis2):
    """L1 : L2 = {x : x*L2 in L1}.  With B1 the basis of L1 and M_g the
    multiplication matrix of a generator g of L2, x qualifies iff every
    B1^-1 M_g x is integral; the solutions are the standard dual of the row
    lattice of the stacked B1^-1 M_g."""
    inv_rows, big_d = inverse_int(basis1)
    gens, d2 = common_denominator(columns(basis2))
    n = len(inv_rows)
    rows = []
    for g in gens:
        m = mult_matrix(f, g)
        rows.extend([sum(r[k] * m[k][j] for k in range(n)) for j in range(n)]
                    for r in inv_rows)
    return std_dual(canonical_basis(rows, big_d * d2))


def pairs_integrally(gram, basis1, basis2) -> bool:
    """x^T G y is an integer for every basis column x of L1 and y of L2."""
    xs, d1 = common_denominator(columns(basis1))
    ys, d2 = common_denominator(columns(basis2))
    gys = [[sum(g * v for g, v in zip(row, y)) for row in gram] for y in ys]
    return all(sum(a * b for a, b in zip(x, gy)) % (d1 * d2) == 0
               for x in xs for gy in gys)


# ---------------------------------------------------------------------------
# integer matrices

def charpoly(m):
    """det(tI - m) by Faddeev-LeVerrier; coefficients low to high."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I ; c_{n-k} = -tr(A M_k) / k
        prev = [row[:] for row in mk]
        for i in range(n):
            prev[i][i] += coeffs[n - k + 1]
        mk = [[sum(a[i][r] * prev[r][j] for r in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs[n - k] = -sum(mk[i][i] for i in range(n)) / k
    return coeffs


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)
