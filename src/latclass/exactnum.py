"""Exact scalar and matrix arithmetic over Z and Q.

Scalars are Python ints and ``fractions.Fraction``; matrices are tuples of
row tuples.  Everything here is exact -- no floating point anywhere.

Every Hermite normal form in the package goes through ``hnf``: the lattice
keys, products, colons, orders and the finite-quotient unit tests all call
it, and no caller keeps a private copy of the elimination.  So one routine
has to be fast and correct, and its cost counters (calls, time, matrix
sizes, entry bits) see every HNF the package computes.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import DomainError, RankError, ResourceError

Mat = tuple[tuple, ...]


def nu_delta(q) -> tuple[int, int]:
    """Numerator and denominator of |q| as a reduced fraction."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("nu_delta: zero has no reduced numerator/denominator")
    return abs(q.numerator), q.denominator


def gcd_q(q1, q2) -> Fraction:
    """The positive generator of Z*q1 + Z*q2.

    For qi = pi/si reduced this is gcd(p1*s2, p2*s1) / (s1*s2).
    """
    q1, q2 = Fraction(q1), Fraction(q2)
    if q1 == 0 and q2 == 0:
        raise DomainError("gcd_q: (0, 0) generates the zero lattice")
    if q1 == 0:
        return abs(q2)
    if q2 == 0:
        return abs(q1)
    p1, s1 = q1.numerator, q1.denominator
    p2, s2 = q2.numerator, q2.denominator
    return Fraction(gcd(p1 * s2, p2 * s1), s1 * s2)


# ---------------------------------------------------------------------------
# small integer arithmetic

# the largest trial divisor factorize tries
FACTOR_CAP = 10**6


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| by trial division: (prime, exponent) pairs
    in increasing order of the prime.

    Tries divisors up to FACTOR_CAP only: raises ResourceError when what is
    left of |n| then still exceeds FACTOR_CAP^2, as it may be composite.
    """
    n = abs(n)
    if n == 0:
        raise DomainError("factorize: zero has no prime factorization")
    out = []
    p = 2
    while p * p <= n:
        if p > FACTOR_CAP:
            raise ResourceError(f"factorize: a cofactor of {n.bit_length()} bits "
                                f"has no prime factor up to the cap of {FACTOR_CAP}")
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n != 0 in increasing order."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def prime_divisors(n: int) -> list[int]:
    """The primes dividing n != 0 in increasing order."""
    return [p for p, _ in factorize(n)]


def euler_phi(n: int) -> int:
    """The number of k in [1, n] coprime to n >= 1."""
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def squarefree_split(n: int) -> tuple[int, int]:
    """n = delta * g^2 with delta squarefree (sign kept on delta)."""
    if n == 0:
        raise DomainError("zero has no squarefree part")
    delta, g = (1 if n > 0 else -1), 1
    for p, e in factorize(n):
        delta *= p ** (e % 2)
        g *= p ** (e // 2)
    return delta, g


def icbrt(n: int) -> int:
    """The integer cube root floor(n^(1/3)) of n >= 0, by Newton's method."""
    x = 1 << -(-n.bit_length() // 3)      # 2^ceil(bits/3) exceeds the root
    while x and (y := (2 * x + n // (x * x)) // 3) < x:
        x = y
    return x


# ---------------------------------------------------------------------------
# generic dense matrix helpers

def mat(rows) -> Mat:
    return tuple(tuple(r) for r in rows)


def identity(n, one=1) -> Mat:
    return tuple(tuple(one if i == j else 0 * one for j in range(n)) for i in range(n))


def transpose(a) -> Mat:
    return tuple(zip(*a))


def mat_mul(a, b) -> Mat:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def add_scalar(a, c) -> Mat:
    """a + c*I for a square matrix a."""
    return tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                 for i, row in enumerate(a))


def columns(a) -> list[tuple]:
    return list(zip(*a))


def from_columns(cols) -> Mat:
    return tuple(zip(*cols))


def denominator_lcm(a) -> int:
    """The least d > 0 that makes the matrix a of ints and Fractions integral."""
    return lcm(*(x.denominator for row in a for x in row))


# the most decimal digits Python reads or prints in an int by default
# (sys.int_info.default_max_str_digits), and so the most rational_string
# allows in a numerator or denominator
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS


def rational_string(s: str) -> Fraction:
    """The Fraction a string such as "1/10", "-7/2" or "1e3" names.  Raises
    ValueError for a string Fraction cannot read, and for one whose numerator
    or denominator would have more than MAX_DIGITS digits: Fraction reads
    "1e3000000" exactly, as an integer of 3,000,001 digits, so an exponent
    above MAX_DIGITS is refused before it is multiplied out."""
    _, e, exp = s.lower().partition("e")
    if e and abs(int(exp)) > MAX_DIGITS:
        raise ValueError(f"the exponent of {s[:40]!r} is above {MAX_DIGITS}")
    q = Fraction(s)
    if max(abs(q.numerator), q.denominator) >= _TOO_LONG:
        raise ValueError(f"{s[:40]!r} has more than {MAX_DIGITS} digits")
    return q


def rational(x) -> Fraction:
    """x as a Fraction: an int, a Fraction, or a string or other exact
    number that Fraction reads, such as "1/10".  Raises DomainError for a
    float or a complex number, whose binary value would be taken silently,
    and for anything that is not a finite rational, strings of more than
    MAX_DIGITS digits included (see rational_string).  A Decimal whose
    exponent is above MAX_DIGITS in size is refused before Fraction
    multiplies it out, as a string is."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, complex)):
        raise DomainError(f"inexact number {x!r}: give an int, a Fraction or "
                          "a string such as '1/10'")
    if isinstance(x, Decimal) and x.is_finite() and abs(x.as_tuple().exponent) > MAX_DIGITS:
        raise DomainError(f"the exponent of {str(x)[:40]!r} is above {MAX_DIGITS}")
    try:
        return rational_string(x) if isinstance(x, str) else Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{x!r} is not a rational number") from None


def mat_fractions(a) -> Mat:
    return tuple(tuple(map(rational, row)) for row in a)


def mat_is_integral(a) -> bool:
    return all(Fraction(x).denominator == 1 for row in a for x in row)


def mat_int(a) -> Mat:
    if not mat_is_integral(a):
        raise DomainError("matrix is not integral")
    return tuple(tuple(int(x) for x in row) for row in a)


def clear_denominators(a) -> tuple[Mat, int]:
    """(d*a, d) for the least d > 0 that makes the matrix a of ints and
    Fractions integral."""
    d = denominator_lcm(a)
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                 for row in a), d


def solve_upper(h, b, den: int = 1) -> Mat | None:
    """The integer matrix y with h*y = b/den, by back-substitution, for an
    upper triangular integer h with nonzero diagonal and an integer b; None
    when y is not integral (a division leaves a remainder)."""
    n = len(h)
    cols = []
    for col in zip(*b):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            hi = h[i]
            rest = 0
            for k in range(i + 1, n):
                rest += hi[k] * y[k]
            y[i], r = divmod(col[i] - den * rest, den * hi[i])
            if r:
                return None
        cols.append(y)
    return tuple(zip(*cols))


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination in place on the first ``ncols``
    columns of the integer rows m (Bareiss, Math. Comp. 22, 1968).

    Each step replaces every other row by (p*row - f*pivot row) / prev, with
    p the new pivot, f the row's entry in the pivot column and prev the
    pivot before; the division is exact, as each entry is then a minor of m.
    The pivot rows move to the top.  Returns (pivot columns, last pivot p,
    sign of the row swaps): every pivot row ends with p in its pivot column
    and 0 in the other pivot columns, so the rows divided by p are the
    reduced row echelon form, and a square m of full rank has det sign*p.
    """
    rows = len(m)
    pivots = []
    prev, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        pivots.append(c)
    return pivots, prev, sign


def _cleared_rows(a, name: str) -> list[list[int]]:
    if any(len(row) != len(a[0]) for row in a):
        raise DomainError(f"{name}: rows must all have one length")
    return [list(row) for row in clear_denominators(a)[0]]


def det(a):
    """Determinant by fraction-free elimination (exact).

    An int for a matrix of ints, which builds no Fractions; otherwise a
    Fraction, det(d*a) / d^n with d the least common denominator of a.
    """
    n = len(a)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in a):
        raise DomainError("det: matrix must be square")
    m, d = clear_denominators(a)
    pivots, p, sign = _eliminate([list(row) for row in m], n)
    out = sign * p if len(pivots) == n else 0
    if all(type(x) is int for row in a for x in row):
        return out
    return Fraction(out, d**n)


def rmat_inv(a) -> Mat:
    """Inverse of a square rational matrix: with a = A/d for an integer A,
    fraction-free elimination takes [A | d*I] to [p*I | p*a^-1]."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("rmat_inv: matrix must be square")
    m, d = clear_denominators(a)
    rows = [list(row) + [d if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    pivots, p, _ = _eliminate(rows, n)
    if len(pivots) < n:
        raise RankError("rmat_inv: singular matrix")
    return tuple(tuple(Fraction(x, p) for x in row[n:]) for row in rows)


def nullspace(a) -> list[tuple]:
    """Basis of the rational kernel of a (rows x cols), one vector per free
    column of the reduced row echelon form."""
    cols = len(a[0]) if a else 0
    m = _cleared_rows(a, "nullspace")
    pivots, p, _ = _eliminate(m, cols)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = Fraction(-m[i][fc], p)
        basis.append(tuple(v))
    return basis


def solve(a, b):
    """The unique solution x of a*x = b, or None unless a has full column
    rank and the system is consistent: fraction-free elimination on [a | b]."""
    cols = len(a[0]) if a else 0
    if len(b) != len(a):
        raise DomainError("solve: a must have one row per entry of b")
    m = _cleared_rows([(*row, x) for row, x in zip(a, b)], "solve")
    pivots, p, _ = _eliminate(m, cols)
    if len(pivots) < cols or any(row[cols] for row in m[cols:]):
        return None
    return tuple(Fraction(row[cols], p) for row in m[:cols])


def column_space_basis(a) -> list[tuple]:
    """A basis of the rational column space of a: the pivot columns, i.e.
    each column that is independent of the columns before it."""
    pivots, _, _ = _eliminate(_cleared_rows(a, "column_space_basis"), len(a[0]) if a else 0)
    return [tuple(Fraction(row[c]) for row in a) for c in pivots]


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms over Z

_INT = {int}


def hnf(a) -> Mat:
    """Column-style Hermite normal form of an integer matrix.

    The columns of ``a`` (rows x cols, cols >= rows) must span a rank-`rows`
    lattice; zero columns are tolerated.  Returns the unique rows x rows
    upper triangular basis with positive diagonal and, in every row, the
    entries right of the diagonal reduced into [0, diagonal).

    Rows are cleared from the bottom by gcd steps between columns, the
    pivot being the column of least nonzero entry in the row (Cohen, GTM
    138, 2.4.2).  When row i is reached every column left is zero below it,
    so each column update touches only rows 0..i, and so does the final
    reduction of row i against pivot column i.
    """
    if not set(map(type, chain.from_iterable(a))) <= _INT:
        for row in a:                       # int subclasses and bools pass
            for x in row:
                if not isinstance(x, int):
                    raise DomainError("hnf: entries must be integers")
    rows = len(a)
    avail = [list(col) for col in zip(*a)]
    h: list = [None] * rows                 # h[i]: the pivot column of row i
    for i in range(rows - 1, -1, -1):
        live = [c for c in avail if c[i]]
        if not live:
            raise RankError("hnf: columns do not span a full lattice")
        top = range(i + 1)
        while len(live) > 1:
            base = min(live, key=lambda c: abs(c[i]))
            b = base[i]
            left = [base]
            for c in live:
                if c is not base:
                    q = c[i] // b           # nonzero, as |c[i]| >= |b|
                    for k in top:
                        c[k] -= q * base[k]
                    if c[i]:
                        left.append(c)
            live = left
        piv = live[0]
        if piv[i] < 0:
            for k in top:
                piv[k] = -piv[k]
        h[i] = piv
        avail.remove(piv)                   # every other column is 0 in row i
    for j in range(1, rows):
        hj = h[j]
        for i in range(j - 1, -1, -1):
            hi = h[i]
            q = hj[i] // hi[i]
            if q:
                for k in range(i + 1):
                    hj[k] -= q * hi[k]
    return tuple(zip(*h))


def hnf_key(cols) -> tuple[Mat, int]:
    """Integer canonical form (H, d) of the full lattice spanned by rational
    columns: d > 0 is the least integer that makes them integral and H the
    column HNF of d times them.  As d is least, H and d share no common
    factor, so two column sets span the same lattice iff their keys agree."""
    return int_key(*clear_denominators(tuple(zip(*cols))))


def int_key(m, d: int) -> tuple[Mat, int]:
    """The hnf_key of the lattice spanned by the columns of m/d, for an
    integer matrix m and d > 0: the HNF of m and d, divided by their common
    factor (the content of the HNF is that of m)."""
    h = hnf(m)
    g = gcd(d, *(x for row in h for x in row))
    if g > 1:
        return tuple(tuple(x // g for x in row) for row in h), d // g
    return h, d


def key_basis(h: Mat, d: int) -> Mat:
    """The canonical basis H/d of a lattice with integer key (H, d)."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in h)


def rational_hnf(cols) -> Mat:
    """Canonical basis of the full lattice spanned by rational columns: the
    basis H/d of its hnf_key."""
    return key_basis(*hnf_key(cols))


def snf(a) -> tuple[Mat, Mat, Mat]:
    """Smith normal form with transforms: returns (u, s, v) with u*a*v = s.

    s is diagonal with nonnegative entries d_i | d_{i+1}; u and v are
    unimodular.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [[int(x) for x in row] for row in a]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_sub(i, j, q):  # row_i -= q*row_j
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):  # col_i -= q*col_j
        for r in range(rows):
            s[r][i] -= q * s[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def row_swap(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        if i != j:
            for r in range(rows):
                s[r][i], s[r][j] = s[r][j], s[r][i]
            for r in range(cols):
                v[r][i], v[r][j] = v[r][j], v[r][i]

    def clear_at(t) -> bool:
        """Pivot at (t,t) and clear row/column t; False if trailing block is 0."""
        while True:
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return False
            row_swap(t, best[0])
            col_swap(t, best[1])
            for i in range(t + 1, rows):
                if s[i][t]:
                    row_sub(i, t, s[i][t] // s[t][t])
            for j in range(t + 1, cols):
                if s[t][j]:
                    col_sub(j, t, s[t][j] // s[t][t])
            if all(s[i][t] == 0 for i in range(t + 1, rows)) and \
               all(s[t][j] == 0 for j in range(t + 1, cols)):
                if s[t][t] < 0:
                    s[t] = [-x for x in s[t]]
                    u[t] = [-x for x in u[t]]
                return True
            # nonzero remainders became smaller entries; repeat with new pivot

    rank = 0
    for t in range(min(rows, cols)):
        if not clear_at(t):
            break
        rank += 1

    # enforce divisibility d_i | d_{i+1} by folding and re-clearing
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if s[i + 1][i + 1] % s[i][i] != 0:
                col_sub(i, i + 1, -1)  # col_i += col_{i+1}
                for t in range(i, rank):
                    clear_at(t)
                changed = True
                break
    return mat(u), mat(s), mat(v)


def unimodular_inverse(a) -> Mat:
    """Integer inverse of a unimodular integer matrix: fraction-free
    elimination takes [a | I] to [p*I | p*a^-1], with last pivot p = +-1."""
    n = len(a)
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat_int(a))]
    pivots, p, _ = _eliminate(rows, n)
    if len(pivots) < n or abs(p) != 1 or any(len(row) != 2 * n for row in rows):
        raise DomainError("unimodular_inverse: matrix is not unimodular")
    return tuple(tuple(p * x for x in row[n:]) for row in rows)


def complete_to_basis(y) -> Mat:
    """A unimodular integer matrix whose first column is the primitive vector y.

    Prefers the completion (y, e_1, ..., e_n with e_k dropped) where k is the
    first index with |y_k| = 1; otherwise inverts the unimodular u with
    u*y = e_1 from the Smith form of y as a column.
    """
    n = len(y)
    y = [int(x) for x in y]
    if gcd(*y, 0) != 1:
        raise DomainError("complete_to_basis: vector is not primitive")
    k = next((i for i, x in enumerate(y) if abs(x) == 1), None)
    if k is None:
        # one column allows no column operations, so the Smith form is u*y = e_1
        u, _, _ = snf([[x] for x in y])
        return unimodular_inverse(u)
    cols = [tuple(y)]
    for j in range(n):
        if j != k:
            cols.append(tuple(1 if i == j else 0 for i in range(n)))
    return from_columns(cols)
