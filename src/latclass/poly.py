"""Exact univariate polynomial arithmetic over Q, desk-scale factorization,
and characteristic/minimal polynomials of rational matrices.

A polynomial is a tuple of Fractions in ascending degree with no trailing
zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import prod

from . import exactnum as xn
from .errors import DomainError, ResourceError, UnsupportedError

Poly = tuple[Fraction, ...]

MAX_FACTOR_DEGREE = 8
# the most candidate factors _kronecker_factor may interpolate
KRONECKER_CAP = 15_000


def poly(coeffs) -> Poly:
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: Poly) -> int:
    return len(p) - 1


def is_monic(p: Poly) -> bool:
    return bool(p) and p[-1] == 1


def constant(c) -> Poly:
    return poly([c])


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def scale(p: Poly, c) -> Poly:
    return poly([Fraction(c) * x for x in p])


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise DomainError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = degree(q)
    lead = q[-1]
    for i in range(len(rem) - 1, dq - 1, -1):
        if rem[i]:
            f = rem[i] / lead
            quo[i - dq] = f
            for j, c in enumerate(q):
                rem[i - dq + j] -= f * c
    return poly(quo), poly(rem)


def mod(p: Poly, q: Poly) -> Poly:
    return divmod_poly(p, q)[1]


def divexact(p: Poly, q: Poly) -> Poly:
    quo, rem = divmod_poly(p, q)
    if rem:
        raise DomainError("polynomial division is not exact")
    return quo


def monic(p: Poly) -> Poly:
    if not p:
        return p
    return scale(p, Fraction(1, 1) / p[-1])


def gcd(p: Poly, q: Poly) -> Poly:
    while q:
        p, q = q, mod(p, q)
    return monic(p)


def xgcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns monic (g, u, v) with u*p + v*q = g."""
    r0, r1 = p, q
    s0, s1 = constant(1), ()
    t0, t1 = (), constant(1)
    while r1:
        quo, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(quo, s1))
        t0, t1 = t1, sub(t0, mul(quo, t1))
    if r0:
        c = r0[-1]
        r0, s0, t0 = monic(r0), scale(s0, 1 / c), scale(t0, 1 / c)
    return r0, s0, t0


def derivative(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:])


def evaluate(p: Poly, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def power(p: Poly, k: int) -> Poly:
    out = constant(1)
    for _ in range(k):
        out = mul(out, p)
    return out


def to_string(p: Poly, var: str = "t") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            pv = var if i == 1 else f"{var}^{i}"
            term = ("-" if c < 0 else "") + mag + pv
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


def from_string(text: str, var: str = "t") -> Poly:
    """Parse sums of monomials like ``t^3+4t^2+8t+16`` or ``t^2-t-1``.

    Raises ValueError on a term it cannot read in full, on a coefficient
    that exactnum.rational_string refuses, and on an exponent above
    exactnum.MAX_DIGITS, before the dense coefficient list is built.
    """
    s = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not s:
        raise DomainError("empty polynomial string")
    s = s.replace("-", "+-")
    coeffs: dict[int, Fraction] = {}
    for tok in s.split("+"):
        if not tok:
            continue
        if var in tok:
            head, _, tail = tok.partition(var)
            if tail and not tail.startswith("^"):
                raise ValueError(f"cannot parse the term {tok!r}")
            exp = int(tail[1:]) if tail else 1
            if exp > xn.MAX_DIGITS:
                raise ValueError(f"the exponent of {tok[:40]!r} is above {xn.MAX_DIGITS}")
            if head in ("", "-"):
                c = Fraction(-1 if head == "-" else 1)
            else:
                c = xn.rational_string(head)
        else:
            exp = 0
            c = xn.rational_string(tok)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + c
    out = [Fraction(0)] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return poly(out)


# ---------------------------------------------------------------------------
# factorization at desk scale

def squarefree_decompose(f: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition of a monic f into pairwise-coprime squarefree parts."""
    if not is_monic(f):
        raise DomainError("squarefree_decompose: polynomial must be monic")
    if degree(f) < 1:
        raise DomainError("squarefree_decompose: degree must be >= 1")
    out: list[tuple[Poly, int]] = []
    g = gcd(f, derivative(f))
    w = divexact(f, g)
    k = 1
    while degree(w) > 0:
        y = gcd(w, g)
        factor = divexact(w, y)
        if degree(factor) > 0:
            out.append((monic(factor), k))
        w, g = y, divexact(g, y)
        k += 1
    return out


def _int_coeffs(f: Poly) -> tuple[list[int], int]:
    """Substitute t -> u/m to make a monic rational f integer monic in u.

    Returns (integer coefficients ascending, m) for g(u) = m^n f(u/m).
    """
    n = degree(f)
    m = xn.denominator_lcm([f])
    return [c.numerator * (m ** (n - i) // c.denominator) for i, c in enumerate(f)], m


def integer_roots(coeffs: list[int]) -> list[tuple[int, int]]:
    """The integer roots of the monic integer polynomial with ascending
    coefficients ``coeffs``, as (root, multiplicity) pairs in increasing order.

    t^k divides it for the k lowest zero coefficients; every other integer
    root divides the lowest nonzero coefficient, and each root found is
    divided out (Horner) as often as it goes, which counts its multiplicity.
    """
    k = next(i for i, c in enumerate(coeffs) if c)
    desc = coeffs[k:][::-1]   # descending, t^k divided out
    roots = [(0, k)] if k else []
    for d in xn.divisors(desc[-1]):
        for r in (-d, d):
            mult = 0
            while len(desc) > 1:
                acc = [desc[0]]
                for c in desc[1:]:
                    acc.append(acc[-1] * r + c)
                if acc[-1]:
                    break
                desc = acc[:-1]
                mult += 1
            if mult:
                roots.append((r, mult))
    return sorted(roots)


def _kronecker_factor(h: Poly) -> Poly | None:
    """A monic factor of degree in [2, min(4, deg//2)] of a monic integer
    squarefree h with no rational roots, or None if irreducible that way.

    A factor of degree d takes at d + 1 points values dividing those of h, so
    each choice of signed divisors, positive at the first point as g and -g
    are one monic factor, is one candidate to interpolate; raises
    ResourceError before the search of a degree that would bring the
    candidates tried through it above KRONECKER_CAP.
    """
    points = [0, 1, -1, 2, -2, 3, -3]
    divisor_sets: list[list[int]] = []
    count = 0
    for d in range(2, min(4, degree(h) // 2) + 1):
        while len(divisor_sets) <= d:
            v = int(evaluate(h, points[len(divisor_sets)]))
            signs = (1, -1) if divisor_sets else (1,)
            divisor_sets.append([s * e for e in xn.divisors(v) for s in signs])
        count += prod(map(len, divisor_sets))
        if count > KRONECKER_CAP:
            raise ResourceError(f"factor_rationals: {count} candidate factors "
                                f"through degree {d}, above the cap of {KRONECKER_CAP}")
        for combo in iproduct(*divisor_sets):
            g = _interpolate(points[: d + 1], combo)
            if degree(g) != d or g[-1] == 0:
                continue
            g = monic(g)
            if any(c.denominator != 1 for c in g):
                continue
            quo, rem = divmod_poly(h, g)
            if not rem:
                return g
    return None


def _interpolate(xs, ys) -> Poly:
    out: Poly = ()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = constant(yi)
        for j, xj in enumerate(xs):
            if j != i:
                term = scale(mul(term, poly([-xj, 1])), Fraction(1, xi - xj))
        out = add(out, term)
    return out


def _factor_squarefree_monic_int(g: Poly) -> list[Poly]:
    """Complete factorization of a monic squarefree integer polynomial."""
    if degree(g) > MAX_FACTOR_DEGREE:
        raise UnsupportedError(f"unsupported degree {degree(g)} > {MAX_FACTOR_DEGREE}")
    factors = []
    # g is monic with integer coefficients, so its rational roots are integers
    for r, mult in integer_roots([int(c) for c in g]):
        lin = poly([-r, 1])
        for _ in range(mult):
            factors.append(lin)
            g = divexact(g, lin)
    while degree(g) >= 2:
        k = _kronecker_factor(g)
        if k is None:
            factors.append(g)
            g = constant(1)
            break
        factors.append(k)
        g = divexact(g, k)
    return factors


def factor_rationals(f: Poly) -> list[tuple[Poly, int]]:
    """Factor a monic f over Q into monic irreducibles with multiplicities."""
    if not is_monic(f):
        raise DomainError("factor_rationals: polynomial must be monic")
    if degree(f) == 0:
        return []
    out: dict[Poly, int] = {}
    for part, mult in squarefree_decompose(f):
        ints, m = _int_coeffs(part)
        g = poly(ints)
        for piece in _factor_squarefree_monic_int(g):
            # undo the t -> u/m substitution: factor(t) = m^-deg piece(m t)
            d = degree(piece)
            back = monic(poly([piece[i] * Fraction(m) ** i for i in range(d + 1)]))
            out[back] = out.get(back, 0) + mult
    return sorted(out.items(), key=lambda kv: (degree(kv[0]), kv[0]))


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials

def charpoly(m) -> Poly:
    """Characteristic polynomial det(t*I - m) of a square matrix with int or
    Fraction entries.

    Berkowitz's division-free recurrence (IPL 18, 1984): the coefficient
    vector of the leading r x r block times a lower-triangular Toeplitz
    matrix, whose first column is 1, -a_rr, -R*C, -R*A*C, ..., with A the
    block before, C the column above a_rr and R the row left of it, gives
    that of the leading (r+1) x (r+1) block.  Only ring operations, so an
    integer matrix stays in ints throughout.
    """
    n = len(m)
    desc = [1]                      # descending coefficients of the empty block
    for r in range(n):
        row = m[r][:r]
        v = [m[i][r] for i in range(r)]
        toeplitz = [1, -m[r][r]]
        for _ in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, v)))
            v = [sum(m[i][j] * v[j] for j in range(r)) for i in range(r)]
        desc = [sum(toeplitz[i - j] * desc[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return poly(reversed(desc))


def minpoly(m) -> Poly:
    """Minimal polynomial via Krylov iteration on the standard basis vectors."""
    n = len(m)
    mm = xn.mat_fractions(m)
    out = constant(1)
    for start in range(n):
        v = tuple(Fraction(1 if i == start else 0) for i in range(n))
        krylov = [v]
        while True:
            v = xn.mat_vec(mm, krylov[-1])
            cols = krylov + [v]
            # look for a rational dependence of v on the previous vectors
            a = [[cols[j][i] for j in range(len(krylov))] for i in range(n)]
            sol = xn.solve(a, v)
            if sol is not None:
                p = poly(list(map(lambda c: -c, sol)) + [1])
                break
            krylov.append(v)
        g = gcd(out, p)
        out = divexact(mul(out, p), g)
        if degree(out) == n:
            break
    return out


def char_min_poly(m) -> tuple[Poly, Poly]:
    """(characteristic polynomial, minimal polynomial) of a square matrix."""
    cp = charpoly(m)
    mp = minpoly(m)
    if mod(cp, mp):  # pragma: no cover - internal consistency
        raise DomainError("minimal polynomial does not divide characteristic polynomial")
    return cp, mp
