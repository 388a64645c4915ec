"""Closed-form normal forms, conductors, unit counts and class data for the
rank-2/3 non-field families, plus the cubic-field fixture suite.

Families covered:
  * split: Q e_1 + ... + Q e_n with pairwise-orthogonal idempotents (n = 2, 3);
  * jordan: Q[a]/(a^n), a single nilpotent block (n = 2, 3);
  * mixed: Q e_1 + Q e_2 + Q a with e_2 a = a, a^2 = 0;
  * flat3: Q 1 + Q a + Q b with a^2 = ab = b^2 = 0;
  * the fixture cubic field with defining polynomial t^3+4t^2+8t+16 for 2*beta.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm, prod
from pathlib import Path
from typing import NamedTuple

from . import classes as cl
from . import exactnum as xn
from . import poly as up
from . import quadform as qf
from .algebra import Algebra, flat3_algebra, mixed_algebra, split_algebra
from .conjugacy import MatrixAnalysis, algebra_for_poly, matrix_for
from .errors import DomainError, ResourceError
from .exactnum import gcd_q
from .lattice import FullLattice, key_product_coords, span

SPLIT2 = split_algebra(2)
SPLIT3 = split_algebra(3)
MIXED = mixed_algebra()
FLAT3 = flat3_algebra()

HALF = Fraction(1, 2)

# characteristic polynomial of the fixture cubic field's generator 2*beta
CUBIC_POLY = up.poly([16, 8, 4, 1])


# ===========================================================================
# spectrum dispatch

class Spectrum(NamedTuple):
    """The family of a characteristic polynomial, and its integer roots in
    increasing order as (root, multiplicity) pairs."""
    tag: str | None
    roots: tuple[tuple[int, int], ...]


# (degree, sorted root multiplicities) -> tag, when every root is an integer
_ROOT_PATTERNS = {
    (1, (1,)): "linear",
    (2, (1, 1)): "split2",
    (2, (2,)): "jordan2",
    (3, (1, 1, 1)): "split3",
    (3, (3,)): "jordan3",
    (3, (1, 2)): "mixed",
}


def spectrum_family(f) -> Spectrum:
    """Which closed-form family the monic integer polynomial f belongs to.

    The tag is one of ``linear``, ``quadratic`` (irreducible of degree 2),
    ``split2``, ``jordan2``, ``split3``, ``jordan3``, ``mixed`` (a double and
    a single root), ``cubic_fixture`` (CUBIC_POLY) or None for any other f.
    Raises DomainError unless f is monic with integer coefficients.
    """
    f = up.poly(f)
    if not up.is_monic(f) or any(c.denominator != 1 for c in f):
        raise DomainError("expected a monic polynomial with integer coefficients")
    n = up.degree(f)
    # a rational root of a monic integer polynomial is an integer
    roots = tuple(up.integer_roots([int(c) for c in f]))
    mults = tuple(sorted(mult for _, mult in roots))
    if sum(mults) == n:
        tag = _ROOT_PATTERNS.get((n, mults))
    elif n == 2:
        tag = "quadratic"
    else:
        tag = "cubic_fixture" if f == CUBIC_POLY else None
    return Spectrum(tag, roots)


def _family_roots(a: MatrixAnalysis, tag: str) -> tuple[tuple[int, int], ...]:
    """The (root, multiplicity) pairs of the analysed matrix's characteristic
    polynomial, which must belong to the family ``tag``."""
    if a.spectrum.tag != tag:
        raise DomainError(f"matrix spectrum is of family {a.spectrum.tag}, not {tag}")
    return a.spectrum.roots


def _transport(a: MatrixAnalysis, alg: Algebra, g) -> FullLattice:
    """The lattice of the analysed matrix carried into alg by t -> g, where
    f(g) = 0 and g generates alg: the power basis 1, t, ..., t^(n-1) of
    Q[t]/(f) goes to the powers of g.

    A shift m -> s*(m - c*I) only renames t as c + s*t in this map, so the
    lattice of the shifted matrix is never built.
    """
    powers = [alg.unit]
    for _ in range(alg.dim - 1):
        powers.append(alg.mul(powers[-1], g))
    trans = xn.from_columns(powers)
    return span(alg, [xn.mat_vec(trans, col) for col in a.lattice.generators()])


def _centered(v: int, m: int) -> int:
    """Lift v into (-m/2, m/2] modulo m."""
    r = v % m
    return r - m if 2 * r > m else r


# ===========================================================================
# split family, n = 3

class _OrderTriple(NamedTuple):
    """The three parameters of an order of the split or the mixed family."""
    a1: int
    a2: int | Fraction
    a3: int | Fraction


class SplitOrderParams(_OrderTriple):
    """(a1, a2, a3) with a3 in (-a1/2, a1/2] and a1 | a3*(a2-a3)."""
    __slots__ = ()

    def __new__(cls, a1: int, a2: int, a3: int):
        if a1 < 1 or a2 < 1:
            raise DomainError("split order: a1, a2 must be positive")
        if not -a1 < 2 * a3 <= a1:
            raise DomainError("split order: a3 outside (-a1/2, a1/2]")
        if (a3 * (a2 - a3)) % a1:
            raise DomainError("split order: divisibility a1 | a3(a2-a3) fails")
        return super().__new__(cls, a1, a2, a3)


def split3_order_lattice(p: SplitOrderParams) -> FullLattice:
    return span(SPLIT3, [(p.a1, 0, 0), (p.a3, p.a2, 0), (1, 1, 1)])


def split3_order_params(order: FullLattice) -> SplitOrderParams:
    if order.algebra is not SPLIT3 or not order.is_order():
        raise DomainError("split3_order_params: not an order in the split algebra")
    b = order.basis
    a1, a2 = int(b[0][0]), int(b[1][1])
    a3 = _centered(int(b[0][1]), a1)
    p = SplitOrderParams(a1, a2, a3)
    if split3_order_lattice(p) != order:  # pragma: no cover - classification
        raise AssertionError("order does not match its parameter form")
    return p


def split3_orders_above(p: SplitOrderParams) -> list[SplitOrderParams]:
    """All orders containing the given one (finitely many, by divisors)."""
    out = []
    for b1 in xn.divisors(p.a1):
        for b2 in xn.divisors(p.a2):
            for b3 in range(-((b1 - 1) // 2), b1 // 2 + 1):
                if (b3 * (b2 - b3)) % b1:
                    continue
                if ((p.a2 // b2) * b3 - p.a3) % b1:
                    continue
                out.append(SplitOrderParams(b1, b2, b3))
    return sorted(out, key=lambda q: (q.a1, q.a2, q.a3))


def split_unit_size(order: FullLattice) -> int:
    """Number of sign vectors contained in the order, each tested as an
    integer column by back-substitution on the order's key."""
    return sum(1 for signs in iproduct((1, -1), repeat=order.algebra.dim)
               if order.int_coords(tuple((s,) for s in signs)) is not None)


def split3_conductor(p: SplitOrderParams) -> tuple[tuple[int, int, int], FullLattice]:
    """Conductor to the maximal order: diag(b1, b2, b3) with the closed formula."""
    b1 = p.a1
    b2 = p.a1 * p.a2 // gcd(p.a1, p.a3)
    b3 = p.a1 * p.a2 // gcd(p.a1, p.a2 - p.a3)
    return (b1, b2, b3), span(SPLIT3, [(b1, 0, 0), (0, b2, 0), (0, 0, b3)])


def split3_tau(p: SplitOrderParams) -> cl.TauData:
    """Number of w-classes of exact ideals, via the closed multiplication data."""
    a = (p.a3 * (p.a3 - p.a2)) // p.a1
    b = p.a2 - 2 * p.a3
    c = p.a1
    d = 0
    mu = gcd(a, b, c, d)
    t = len(xn.prime_divisors(mu))
    w1 = SPLIT3.element((0, p.a2 - p.a3, -p.a3))
    w2 = SPLIT3.element((p.a1, 0, 0))
    return cl.TauData(a, b, c, d, mu, t, 2**t, w1, w2)


def _split3_unit_row(p: SplitOrderParams) -> tuple[int, tuple, int, int, int]:
    """(sign units, conductor diagonal, units_big, units_small, |G([order])|):
    the unit counts of the conductor quotients of the maximal order and of
    the order, each computed once."""
    (b1, b2, b3), cond = split3_conductor(p)
    order = split3_order_lattice(p)
    signs = split_unit_size(order)
    units_small = cl.quotient_units(cl.finite_quotient(order, cond))
    units_big = xn.euler_phi(b1) * xn.euler_phi(b2) * xn.euler_phi(b3)
    size = Fraction(units_big, units_small) * Fraction(signs, 8)
    if size.denominator != 1:  # pragma: no cover - the size formula is integral
        raise AssertionError("group size formula did not give an integer")
    return signs, (b1, b2, b3), units_big, units_small, int(size)


def split3_group_size(p: SplitOrderParams) -> int:
    """|G([order])| from the conductor quotient units and the sign units."""
    return _split3_unit_row(p)[-1]


def _split_normal_window(n1, n2, n3, den=1) -> bool:
    """Whether (n1, n2, n3)/den lies in the window (Fractions over den = 1)."""
    if not (0 <= 2 * n2 <= den and 0 <= 2 * n3 <= den):
        return False
    inner3 = 0 < 2 * n3 < den
    if 0 < 2 * n2 < den and inner3:
        return 0 <= n1 < den
    if 2 * n2 == den and inner3:
        return 0 <= n1 <= 2 * n3
    if 2 * n2 == den == 2 * n3:
        return 0 <= 2 * n1 < den
    # remaining boundary cases share the window [0, 1/2]
    return 0 <= 2 * n1 <= den


def _split3_normal_triple(n1, n2, n3, den=1) -> tuple:
    """The normal form of the class of <(1,0,0), (d1,1,0), (d3,d2,1)> with
    (d1, d2, d3) = (n1, n2, n3)/den, as numerators over den.

    The sign unit (1, s1, s2) (one per class of sign vectors modulo -1)
    takes that basis, with its columns flipped back to a positive diagonal,
    to ((1, e1, e3), (0, 1, e2), (0, 0, 1)) with e1 = s1*d1, e2 = s1*s2*d2
    and e3 = s2*d3.  Its column HNF subtracts q = floor(e2) times the second
    column from the third, then reduces the first row mod 1.  The window
    isolates a single sign pattern away from the boundaries; on rare
    boundary configurations two can both land in it (e.g. the class of
    (1/3, 1/2, 0) also contains (1/3, 1/2, 1/3)), so ties are broken
    lexicographically.
    """
    cands = []
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        e1, e2, e3 = s1 * n1, s1 * s2 * n2, s2 * n3
        q = e2 // den
        c = (e1 % den, e2 - q * den, (e3 - q * e1) % den)
        if _split_normal_window(*c, den):
            cands.append(c)
    return min(cands)


def split3_normalize(l: FullLattice) -> tuple[Fraction, Fraction, Fraction]:
    """The canonical unit-class representative triple (d1, d2, d3).

    The positive unit (1/b00, 1/b11, 1/b22) scales the rows of the canonical
    basis b to the unipotent basis with d1 = b01/b00, d2 = b12/b11 and
    d3 = b02/b00, already reduced into [0, 1); the sign units then act on
    that triple in closed form (_split3_normal_triple), over one denominator.
    """
    if l.algebra is not SPLIT3:
        raise DomainError("split3_normalize: lattice is not in the split algebra")
    (h00, h01, h02), (_, h11, h12), _ = l.key[0]
    t = _split3_normal_triple(h01 * h11, h12 * h00, h02 * h11, h00 * h11)
    return tuple(Fraction(x, h00 * h11) for x in t)


def split3_lattice_of_triple(d1, d2, d3) -> FullLattice:
    return span(SPLIT3, [(1, 0, 0), (d1, 1, 0), (d3, d2, 1)])


def split3_order_of_triple(d1: Fraction, d2: Fraction, d3: Fraction) -> SplitOrderParams:
    """The order parameters of L = <(1,0,0), (d1,1,0), (d3,d2,1)>, in closed form.

    x*1 + (y1, y2, 0) lies in O(L) iff x, y1 and y2 are integers and
    (y1 - y2)*d1, y2*d2 and y1*d3 - y2*d1*d2 are integers.  So a1 is the
    least y1 > 0 with y2 = 0, and a2 the least y2 > 0 that admits some y1
    (unique mod a1), which is a3 centred.  With q_i = den(d_i), m = d1*d2*q3:
    y1 = y2 mod q1 and y1 = y2*m/num(d3) mod q3, so y2 = t*lcm(q2, den m), and
    the residues agree mod gcd(q1, q3) for the t read off below (CRT).
    """
    q1, q3 = d1.denominator, d3.denominator
    a1, g = lcm(q1, q3), gcd(q1, q3)
    m = Fraction(d1.numerator * d2.numerator * q3, q1 * d2.denominator)
    base = lcm(d2.denominator, m.denominator)
    w = base // m.denominator * m.numerator * pow(d3.numerator, -1, q3)
    a2 = base * (g // gcd(g, base - w))
    r = a2 // base * w - a2           # y1 = a2 + q1*k with q1*k = r mod q3
    y1 = a2 + q1 * (r // g * pow(q1 // g, -1, q3 // g))
    return SplitOrderParams(a1, a2, _centered(y1, a1))


def split3_cyclic_order(lams: tuple[int, int, int]) -> SplitOrderParams:
    """The order parameters of Z[g], g = lams . e, in closed form:
    (|(l1 - l3)(l1 - l2)|, |l2 - l3|, (l1 - l3)*sgn(l2 - l3) centred)."""
    l1, l2, l3 = lams
    a1 = abs((l1 - l3) * (l1 - l2))
    return SplitOrderParams(a1, abs(l2 - l3),
                            _centered(l1 - l3 if l2 > l3 else l3 - l1, a1))


def split3_enumerate_classes(lams: tuple[int, int, int]) -> list[dict]:
    """All unit classes of ideals of Z[lams . e] by normal triple, with order
    and matrix, from the candidates (i/den1, j/a2, k/a1) as numerators over
    one den; raises ResourceError above classes.QUOTIENT_CAP candidates."""
    if len(set(lams)) != 3:
        raise DomainError("split3_enumerate_classes: eigenvalues must be distinct")
    a1, a2, a3 = split3_cyclic_order(lams)
    den1 = gcd(a1, a2 - a3)
    count = den1 * (a2 // 2 + 1) * (a1 // 2 + 1)
    if count > cl.QUOTIENT_CAP:
        raise ResourceError(f"split3_enumerate_classes: {count} candidate triples, "
                            f"above the cap of {cl.QUOTIENT_CAP}")
    l1, l2, l3 = lams
    sgn = 1 if l2 > l3 else -1
    den = lcm(a1, a2)     # den1 divides a1
    out = []
    for i in range(den1):
        for j in range(a2 // 2 + 1):
            for k in range(a1 // 2 + 1):
                # g on ((1, d1, d3), (0, 1, d2), (0, 0, 1)) is [[l1, d1(l1-l2),
                # d3(l1-l3) - d1*d2(l2-l3)], [0, l2, sgn*j], [0, 0, l3]]; as a3 =
                # sgn(l1-l3) mod a1, the corner is integral (L is stable) iff
                # a1*den1 divides a3*k*den1 - i*j*a1
                corner, r = divmod(k * (l1 - l3) * den1 - sgn * i * j * a1, a1 * den1)
                if r:
                    continue
                t = (i * den // den1, j * den // a2, k * den // a1)
                if not _split_normal_window(*t, den) \
                        or _split3_normal_triple(*t, den) != t:
                    continue   # a boundary alias of a class listed elsewhere
                d = (Fraction(i, den1), Fraction(j, a2), Fraction(k, a1))
                out.append({"triple": d,
                            "matrix": ((l1, i * (l1 - l2) // den1, corner),
                                       (0, l2, sgn * j), (0, 0, l3)),
                            "order": split3_order_of_triple(*d)})
    return out


def split3_invariant(a: MatrixAnalysis) -> tuple:
    """Complete conjugacy invariant for 3x3 matrices with distinct integer
    eigenvalues: the eigenvalue vector plus the normal-form triple."""
    lams = tuple(r for r, _ in _family_roots(a, "split3"))
    return lams, split3_normalize(_transport(a, SPLIT3, SPLIT3.element(lams)))


# ---------------------------------------------------------------------------
# split family, n = 2

def split2_order_params(order: FullLattice) -> int:
    if order.algebra is not SPLIT2 or not order.is_order():
        raise DomainError("split2_order_params: not an order in the split plane")
    return int(order.basis[0][0])


def split2_orders_above(alpha: int) -> list[int]:
    """Orders containing the one with invariant alpha: the divisors."""
    if alpha < 1:
        raise DomainError("split2_orders_above: alpha must be positive")
    return xn.divisors(alpha)


def split2_normalize(l: FullLattice) -> Fraction:
    """The unipotent entry d = b01/b00 of the canonical basis b, in [0, 1),
    folded by the sign unit (1, -1) to min(d, 1 - d)."""
    b = l.basis
    d = b[0][1] / b[0][0]
    return min(d, 1 - d) if d else d


def split2_enumerate(lam: int) -> list[dict]:
    """Conjugacy classes of 2x2 matrices with eigenvalues (lam, 0)."""
    if lam < 1:
        raise DomainError("split2_enumerate: eigenvalue must be positive")
    out = []
    for mu in range(lam // 2 + 1):
        delta = Fraction(mu, lam)
        alpha = lam // gcd(lam, mu) if mu else 1
        out.append({"delta": delta, "order_alpha": alpha,
                    "matrix": ((lam, mu), (0, 0))})
    return out


def split2_invariant(a: MatrixAnalysis) -> tuple:
    """Normal form data (lam1, lam2, mu) for distinct integer eigenvalues."""
    (lo, _), (hi, _) = _family_roots(a, "split2")
    lat = _transport(a, SPLIT2, SPLIT2.element((hi, lo)))
    return (lo, hi, (hi - lo) * split2_normalize(lat))


# ===========================================================================
# jordan family: Q[a]/(a^n)

def jordan_algebra(n: int):
    return algebra_for_poly(up.poly([0] * n + [1]))


# coordinate order (a^2, a, 1) of the 3-dimensional jordan and flat algebras
_REVERSED = (2, 1, 0)


def _hnf_in_order(l: FullLattice, perm) -> xn.Mat:
    """Canonical basis of l with the coordinates taken in the order perm:
    row i of the result belongs to coordinate perm[i]."""
    return xn.rational_hnf(xn.columns(tuple(l.basis[k] for k in perm)))


def _require_jordan3(l: FullLattice):
    if l.algebra is not jordan_algebra(3)[0]:
        raise DomainError("lattice does not live in Q[a]/(a^3)")


def jordan_delta(l: FullLattice) -> Fraction:
    """The positive rational b22^2/(b11*b33), constant on unit classes."""
    _require_jordan3(l)
    h = _hnf_in_order(l, _REVERSED)
    b33, b22, b11 = h[0][0], h[1][1], h[2][2]
    return b22 * b22 / (b11 * b33)


def jordan_normalize(l: FullLattice) -> tuple[Fraction, Fraction, Fraction]:
    """The unique (g22, g32, g33) with basis (1, g22 a + g32 a^2, g33 a^2)
    and g32 in [0, gcd_q(g22^2, g33))."""
    _require_jordan3(l)
    alg = l.algebra
    h = _hnf_in_order(l, _REVERSED)   # columns: (h00 a^2), (h01 a^2 + h11 a), (.., .., h22)
    v = alg.element((h[2][2], h[1][2], h[0][2]))   # the basis vector with 1-part
    scaled = l.scale(alg.inv(v))
    hs = _hnf_in_order(scaled, _REVERSED)
    g33, g32, g22 = hs[0][0], hs[0][1], hs[1][1]
    if hs[2][2] != 1 or hs[1][2] != 0 or hs[0][2] != 0:  # pragma: no cover
        raise AssertionError("jordan normalization did not reach the shape")
    step = gcd_q(g22 * g22, g33)
    g32 = g32 - (g32 / step).__floor__() * step
    return g22, g32, g33


def jordan_lattice_of_triple(g22, g32, g33) -> FullLattice:
    alg, _ = jordan_algebra(3)
    return span(alg, [(1, 0, 0), (0, g22, g32), (0, 0, g33)])


def jordan_order_params(order: FullLattice) -> tuple[int, int, int]:
    """(n2, n3, n4) of an order containing Z[a], per the closed normal form."""
    alg, a = jordan_algebra(3)
    lam_a = span(alg, xn.columns(xn.identity(3)))
    if not order.contains_lattice(lam_a):
        raise DomainError("jordan_order_params: order does not contain Z[a]")
    g22, g32, g33 = jordan_normalize(order)
    n2 = int(1 / g22)
    n3 = int(1 / (g33 * n2 * n2))
    n4 = int(g32 * n2**3 * n3)
    if jordan_lattice_of_triple(g22, g32, g33) != order:  # pragma: no cover
        raise AssertionError("order normal form mismatch")
    return n2, n3, n4


def jordan_invertible(l: FullLattice) -> bool:
    """Invertibility criterion: the delta invariant is a positive integer."""
    return jordan_delta(l).denominator == 1


def _coprime_splits(n: int) -> list[tuple[int, int]]:
    return [(n1, n // n1) for n1 in xn.divisors(n) if gcd(n1, n // n1) == 1]


def jordan_enumerate(n2: int, n3: int, n4: int) -> list[dict]:
    """Unit classes of exact ideals of the order (n2, n3, n4): one for each
    coprime decomposition n3 = n1*d1, with the representative matrix."""
    if not (n2 >= 1 and n3 >= 1 and 0 <= n4 < n2):
        raise DomainError("jordan_enumerate: invalid order parameters")
    alg, a = jordan_algebra(3)
    out = []
    for n1, d1 in _coprime_splits(n3):
        g22 = Fraction(1, d1 * n2)
        g33 = Fraction(1, n2 * n2 * n3)
        g32 = Fraction(n4, d1 * n2**3 * n3)
        lat = jordan_lattice_of_triple(g22, g32, g33)
        basis = ((0, 0, 1), (0, g22, 0), (g33, g32, 0))   # columns (b2, b1, b0)
        m = matrix_for(lat, a, basis=basis)
        expected = ((0, n1 * n2, -n4), (0, 0, d1 * n2), (0, 0, 0))
        if m != expected:  # pragma: no cover - closed form
            raise AssertionError("jordan representative matrix mismatch")
        out.append({"n1": n1, "d1": d1, "triple": (g22, g32, g33),
                    "lattice": lat, "matrix": m})
    return out


def jordan_decode(m1: int, m2: int, m3: int) -> tuple[int, int, int, int, int]:
    """Order and class parameters (n2, n3, n4, n1, d1) of the representative
    [[0, m1, -m3], [0, 0, m2], [0, 0, 0]]."""
    if m1 < 1 or m2 < 1 or not 0 <= m3 < gcd(m1, m2):
        raise DomainError("jordan_decode: representative outside the window")
    n2 = gcd(m1, m2)
    return n2, m1 * m2 // (n2 * n2), m3, m1 // n2, m2 // n2


def jordan3_invariant(a: MatrixAnalysis) -> tuple:
    """Complete invariant (eigenvalue, normal triple) for a rank-3 single block."""
    (lam, _), = _family_roots(a, "jordan3")
    alg, _ = jordan_algebra(3)
    return lam, jordan_normalize(_transport(a, alg, alg.element((lam, 1, 0))))


def jordan2_invariant(a: MatrixAnalysis) -> tuple:
    """(eigenvalue, m) with representative [[0, m], [0, 0]] after the shift."""
    (lam, _), = _family_roots(a, "jordan2")
    entries = [int(x) for row in xn.add_scalar(a.matrix, -lam) for x in row]
    if not any(entries):
        raise DomainError("matrix is scalar, not regular")
    return lam, gcd(*entries)


# ===========================================================================
# mixed family: Q e1 + Q e2 + Q a

class MixedOrderParams(_OrderTriple):
    """(a1, a2, a3) of the basis (a2*a, a1*e1 + a3*a, 1)."""
    __slots__ = ()

    def __new__(cls, a1: int, a2: Fraction, a3: Fraction):
        if a1 < 1 or a2 <= 0:
            raise DomainError("mixed order: a1 in N and a2 > 0 required")
        n3 = a3 * a1 / a2
        if n3.denominator != 1 or not 0 <= n3 < a1:
            raise DomainError("mixed order: a3 outside (a2/a1)*[0, a1)")
        return super().__new__(cls, a1, a2, a3)


def mixed_order_lattice(p: MixedOrderParams) -> FullLattice:
    return span(MIXED, [(0, 0, p.a2), (p.a1, 0, p.a3), (1, 1, 0)])


# coordinate order (a, e1, e2) of the mixed algebra
_A_FIRST = (2, 0, 1)


def _mixed_shaped_triple(l: FullLattice) -> tuple[Fraction, Fraction, Fraction]:
    """(d1, d2, d3) of a basis (d2*a, e1 + d3*a, d1*e1 + e2), d1 in [0,1),
    d3 in [0, d2).

    With the coordinates in the order (a, e1, e2), let h be the HNF of the
    integer key.  The unit (1/h11, 1/h22, 0) scales its columns to
    (d2*a, e1 + d3*a, d1*e1 + e2 + c*a) with d2 = h00/h22, d3 = h01/h22 and
    d1 = h12/h11, already reduced; the unit 1 - c*a kills that last a-part
    and leaves the other two vectors alone.
    """
    h = xn.hnf([l.key[0][k] for k in _A_FIRST])
    return (Fraction(h[1][2], h[1][1]), Fraction(h[0][0], h[2][2]),
            Fraction(h[0][1], h[2][2]))


def _mixed_normal_window(n1, n3, den=1) -> bool:
    """Whether (n1/den, d2, (n3/den)*d2), d2 > 0, lies in the window
    (Fractions over den = 1)."""
    if not 0 <= 2 * n1 <= den:
        return False
    if n1 == 0 or 2 * n1 == den:
        return 0 <= 2 * n3 <= den
    return -den < 2 * n3 <= den


def _mixed_normal_pair(n1, n3, den=1) -> tuple:
    """The normal form (n1, n3) of the shaped triple (n1/den, d2, (n3/den)*d2),
    n3 in [0, den): the sign unit (1, -1, 0) maps a shaped (d1, d2, d3) to
    ((-d1) mod 1, d2, (-d3) mod d2), either may take d3 or d3 - d2, and window
    ties, should any arise, are broken lexicographically."""
    return min((e1, e3 - shift)
               for e1, e3 in ((n1, n3), ((-n1) % den, (-n3) % den))
               for shift in (0, den) if _mixed_normal_window(e1, e3 - shift, den))


def mixed_normalize(l: FullLattice) -> tuple[Fraction, Fraction, Fraction]:
    """The canonical unit-class representative (d1, d2, d3) of the basis shape
    (d2*a, e1 + d3*a, d1*e1 + e2), from the lattice's one shaped triple."""
    if l.algebra is not MIXED:
        raise DomainError("mixed_normalize: lattice is not in the mixed algebra")
    d1, d2, d3 = _mixed_shaped_triple(l)
    n1, n3 = _mixed_normal_pair(d1, d3 / d2)
    return n1, d2, n3 * d2


def mixed_lattice_of_triple(d1, d2, d3) -> FullLattice:
    return span(MIXED, [(0, 0, d2), (1, 0, d3), (d1, 1, 0)])


def mixed_order_params(order: FullLattice) -> MixedOrderParams:
    if not order.is_order():
        raise DomainError("mixed_order_params: lattice is not an order")
    p = mixed_order_of_triple(*mixed_normalize(order))
    if mixed_order_lattice(p) != order:  # pragma: no cover - classification
        raise AssertionError("mixed order normal form mismatch")
    return p


def mixed_order_of_triple(d1, d2, d3) -> MixedOrderParams:
    """Closed-form order parameters of the lattice with the given triple."""
    a2 = d2
    a1 = lcm(d1.denominator, (d3 / d2).denominator)
    a3 = (a1 * d1 * d3) % a2
    return MixedOrderParams(a1, a2, a3)


def mixed_invertible(d1, d2, d3) -> bool:
    """Invertibility: the denominator of d3/d2 divides the denominator of d1."""
    return Fraction(d1).denominator % Fraction(Fraction(d3) / d2).denominator == 0


def mixed_tau(p: MixedOrderParams) -> tuple[int, int, int]:
    """(mu, t, tau): tau = 2^t counts w-classes of exact ideals."""
    n3 = int(p.a3 * p.a1 / p.a2)
    mu = gcd(p.a1, n3)
    t = len(xn.prime_divisors(mu))
    return mu, t, 2**t


def mixed_mu_pair(p: MixedOrderParams, d1, d2, d3) -> tuple[int, int]:
    """(mu1, mu2), the complete w-class invariant of an exact ideal."""
    mu1 = gcd(p.a1, int(p.a1 * d1))
    mu2 = gcd(p.a1, int(p.a1 * d3 / p.a2))
    return mu1, mu2


def mixed_containment_triple(p: MixedOrderParams, alpha: int):
    """(n1, n3, n2) iff the order contains the cyclic order of alpha*e1 + a:
    a1 = alpha/n1, a2 = alpha/n2, a3 = n1*n3/n2 with n2 = n1^2*n3 mod alpha."""
    if alpha % p.a1:
        return None
    n1 = alpha // p.a1
    n2_f = Fraction(alpha) / p.a2
    if n2_f.denominator != 1 or n2_f < 1:
        return None
    n2 = int(n2_f)
    n3_f = p.a3 * n2 / n1
    if n3_f.denominator != 1:
        return None
    n3 = int(n3_f)
    if not 0 <= n3 < alpha // n1:
        return None
    if (n2 - n1 * n1 * n3) % alpha:
        return None
    return n1, n3, n2


def mixed_matrix(d1, d2, d3, alpha: int) -> xn.Mat:
    """Integer representative of multiplication by alpha*e1 + a on the
    normal-form basis (d2*a, e1 + d3*a, d1*e1 + e2), in closed form; raises
    DomainError unless the lattice is stable, i.e. the matrix is integral."""
    r = Fraction(d3) / d2
    return xn.mat_int(((0, -alpha * r, 1 / Fraction(d2) - alpha * d1 * r),
                       (0, alpha, alpha * d1), (0, 0, 0)))


def mixed_enumerate(alpha: int, max_n2: int = 8) -> list[dict]:
    """Unit classes of ideals of Z[alpha*e1 + a] with d2 = alpha/n2,
    n2 <= max_n2 (the full set is infinite), with the matrix of each.

    Candidates are d1 = i/alpha in [0, 1/2] and d3 = (j/alpha)*d2 with
    j/alpha in (-1/2, 1/2], the normal-form window; raises ResourceError
    before the search when there are more than classes.QUOTIENT_CAP of them.
    """
    if alpha < 1:
        raise DomainError("mixed_enumerate: alpha must be a positive integer")
    i_range = range(alpha // 2 + 1)
    j_range = range(-((alpha - 1) // 2), alpha // 2 + 1)
    count = max_n2 * len(i_range) * len(j_range)
    if count > cl.QUOTIENT_CAP:
        raise ResourceError(f"mixed_enumerate: {count} candidate triples, "
                            f"above the cap of {cl.QUOTIENT_CAP}")
    out = []
    for n2 in range(1, max_n2 + 1):
        d2 = Fraction(alpha, n2)
        for i in i_range:
            for j in j_range:
                # mixed_matrix in closed form: alpha/d2, alpha*d1, alpha*d3/d2
                # are n2, i, j, and L is stable iff the corner is integral
                corner, r = divmod(n2 - i * j, alpha)
                if r or _mixed_normal_pair(i, j % alpha, alpha) != (i, j):
                    continue
                out.append({"triple": (Fraction(i, alpha), d2, Fraction(j, n2)),
                            "matrix": ((0, -j, corner), (0, alpha, i), (0, 0, 0))})
    return out


def mixed_invariant(a: MatrixAnalysis) -> tuple:
    """Complete invariant for 3x3 matrices with a double and a single integer
    eigenvalue: (eigenvalues, normal triple)."""
    root_of = {mult: r for r, mult in _family_roots(a, "mixed")}
    double, single = root_of[2], root_of[1]
    # s = sign*(t - double) goes to |single - double|*e1 + a, so
    # t -> single*e1 + double*e2 + sign*a
    sign = 1 if single > double else -1
    lat = _transport(a, MIXED, MIXED.element((single, double, sign)))
    return (double, single), mixed_normalize(lat)


# the complete conjugacy invariant of a matrix (MatrixAnalysis.invariant),
# per spectrum_family tag: the families that same_class decides exactly
INVARIANTS = {
    # types IV and V; classify prints the river period of the shared SL2 key
    "quadratic": lambda a: qf.gl2_invariant(a.matrix, a.memo(qf.sl2_key)),
    "split2": split2_invariant,                          # type III
    "jordan2": jordan2_invariant,                        # type II
    "split3": split3_invariant,
    "jordan3": jordan3_invariant,
    "mixed": mixed_invariant,
}


# ===========================================================================
# flat3 family (the non-cyclic rank-3 algebra)

def flat3_epsilon_rep(l: FullLattice) -> FullLattice:
    """The unique order in the unit class of l (every class contains one)."""
    if l.algebra is not FLAT3:
        raise DomainError("flat3_epsilon_rep: lattice is not in the flat algebra")
    h = _hnf_in_order(l, _REVERSED)
    # the basis vector whose 1-part generates the projection to Q*1 is a unit
    v = FLAT3.element((h[2][2], h[1][2], h[0][2]))
    rep = l.scale(FLAT3.inv(v))
    if not rep.is_order():  # pragma: no cover - forced by the classification
        raise AssertionError("flat3 representative is not an order")
    return rep


def flat3_radical_part(order: FullLattice) -> xn.Mat:
    """The rank-2 radical lattice K with order = Z*1 + K."""
    b = order.basis
    return ((b[1][1], b[1][2]), (b[2][1], b[2][2]))


# ===========================================================================
# the cubic-field fixture suite

def _fixture_data() -> dict:
    path = Path(__file__).parent / "data" / "cubic_field.json"
    return json.loads(path.read_text("utf-8"))


class CubicFixture(NamedTuple):
    algebra: Algebra
    beta: tuple
    alpha: tuple                  # 2*beta, the matrix generator
    orders: dict                  # name -> FullLattice for Lambda_1..Lambda_4
    l3: FullLattice
    l4: FullLattice
    # Lambda4 : Lambda1, the conductor l4 is built from; kept, it keeps the
    # product and duals of its colon alive for the tables that meet it again
    c4: FullLattice
    unit: tuple                   # fundamental unit beta + 1
    class_number: int


def cubic_fixture() -> CubicFixture:
    data = _fixture_data()
    alg, beta = algebra_for_poly(up.poly(data["beta_minpoly"]))
    alpha = alg.smul(2, beta)
    lam1 = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    lam2 = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 1)])
    lam3 = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 2)])
    lam4 = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 4)])
    l3 = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])
    c4 = lam4.colon(lam1)
    a = alg.element((1, 0, 2))            # 1 + 2*beta^2
    l4 = c4 + lam4.scale(a)
    unit = alg.element(data["fundamental_unit_beta_coords"])
    return CubicFixture(alg, beta, alpha,
                        {"L1": lam1, "L2": lam2, "L3": lam3, "L4": lam4},
                        l3, l4, c4, unit, data["class_number"])


def orders_between(small: FullLattice, big: FullLattice) -> list[FullLattice]:
    """All orders M with small <= M <= big, by subgroup enumeration.

    Let u*T*v = diag(e) be the Smith form of T = big^-1 * small.  In the
    coordinates y = u*x of big, small is diag(e)*Z^n, and every lattice in
    between has an upper-triangular HNF basis H with h_ii | e_i and the
    entries right of the diagonal in [0, h_ii); it is spanned by the columns
    of big.basis * u^-1 * H.  A candidate H holds small when H^-1 diag(e) is
    integral, and its key is read off the integer (d * big.basis) * u^-1 * H
    over d, for big's key (H_big, d); the closure of an order is checked on
    that key, and a lattice is built only for an order found.  The orders
    come out in the order of their H: diagonals lexicographically, then the
    entries right of them.  Raises ResourceError before any candidate when
    there are more than classes.QUOTIENT_CAP such H.
    """
    big._same_algebra(small)
    t = big.int_coords(*small.key)
    if t is None:
        raise DomainError("orders_between: containment fails")
    n = big.algebra.dim
    u, s, _ = xn.snf(t)
    diags = [xn.divisors(s[i][i]) for i in range(n)]
    count = prod(sum(d ** (n - 1 - i) for d in ds) for i, ds in enumerate(diags))
    if count > cl.QUOTIENT_CAP:
        raise ResourceError(f"orders_between: {count} candidate lattices, "
                            f"above the cap of {cl.QUOTIENT_CAP}")
    h_big, d_big = big.key
    to_big = xn.mat_mul(h_big, xn.unimodular_inverse(u))
    out = []
    for diag in iproduct(*diags):
        for offs in iproduct(*(range(diag[r]) for r in range(n)
                               for _ in range(r + 1, n))):
            h = [[0] * n for _ in range(n)]
            rest = iter(offs)
            for r in range(n):
                h[r][r] = diag[r]
                for c in range(r + 1, n):
                    h[r][c] = next(rest)
            if xn.solve_upper(h, s) is None:
                continue
            key = xn.int_key(xn.mat_mul(to_big, h), d_big)
            if key_product_coords(big.algebra, key) is not None:
                out.append(FullLattice.from_key(big.algebra, key))
    return out


def cubic_unit_indices(fx: CubicFixture) -> dict[str, int]:
    """[Lambda_1^unit : Lambda_i^unit] via membership of powers of the unit."""
    alg = fx.algebra
    out = {"L1": 1}
    for name in ("L2", "L3", "L4"):
        lam = fx.orders[name]
        acc = fx.unit
        for k in range(1, 5):
            if acc in lam:
                out[name] = k
                break
            acc = alg.mul(acc, fx.unit)
        else:  # pragma: no cover - the fixture powers stabilize at 4
            raise AssertionError("unit power membership not found")
    return out


def cubic_suite() -> dict:
    """Recompute the whole fixture section: orders, tau table, conductors,
    unit indices, quotient units, group sizes, tables and the six matrices."""
    fx = cubic_fixture()
    alg = fx.algebra
    names = ("L1", "L2", "L3", "L4")
    found = orders_between(fx.orders["L4"], fx.orders["L1"])
    tau_rows = {name: cl.faddeev_tau(fx.orders[name]) for name in names}
    indices = cubic_unit_indices(fx)
    conductors = {}
    quotients = {}
    group_sizes = {"L1": fx.class_number}
    for name in ("L2", "L3", "L4"):
        c = cl.conductor(fx.orders["L1"], fx.orders[name])
        conductors[name] = c
        nb = cl.quotient_units(cl.finite_quotient(fx.orders["L1"], c))
        ns = cl.quotient_units(cl.finite_quotient(fx.orders[name], c))
        quotients[name] = (nb, ns)
        # classes.class_group_ratio, from the counts just made
        group_sizes[name] = int(fx.class_number * Fraction(nb, ns) / indices[name])
    reps = {"L1": fx.orders["L1"], "L2": fx.orders["L2"], "L3": fx.orders["L3"],
            "I3": fx.l3, "L4": fx.orders["L4"], "I4": fx.l4}
    matrices = {name: matrix_for(lat, fx.alpha) for name, lat in reps.items()}
    return {"fixture": fx, "orders_found": found, "tau": tau_rows,
            "unit_indices": indices, "conductors": conductors,
            "quotient_units": quotients, "group_sizes": group_sizes,
            "representatives": reps, "matrices": matrices}


# ---------------------------------------------------------------------------
# table emitters (TSV golden output)

CUBIC_NAMES = ("L1", "L2", "L3", "I3", "L4", "I4")
CUBIC_DISPLAY = {"L1": "Lambda1", "L2": "Lambda2", "L3": "Lambda3",
                 "I3": "L3", "L4": "Lambda4", "I4": "L4"}


def _fmt_mat(m) -> str:
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in m) + "]"


def cubic_tables() -> dict[str, str]:
    """TSV renditions of the multiplication-data, product and division tables."""
    suite = cubic_suite()
    reps = suite["representatives"]
    lines = ["order\tm1\tm2\ta\tb\tc\td\tmu\tt\ttau"]
    for name in ("L1", "L2", "L3", "L4"):
        d = suite["tau"][name]
        lines.append("\t".join([CUBIC_DISPLAY[name], _fmt_mat([d.omega1]),
                                _fmt_mat([d.omega2])] +
                               [str(v) for v in (d.a, d.b, d.c, d.d, d.mu, d.t, d.tau)]))
    t31 = "\n".join(lines)

    def rep_name_exact(lat):
        for name in CUBIC_NAMES:
            if reps[name] == lat:
                return CUBIC_DISPLAY[name]
        raise AssertionError("product left the representative set")

    def rep_name_eps(lat):
        hits = [name for name in CUBIC_NAMES
                if cl.epsilon_equivalent_bounded(lat, reps[name]) is True]
        if len(hits) != 1:
            raise AssertionError(f"division result matched {hits}")
        return CUBIC_DISPLAY[hits[0]]

    header = "\t".join([""] + [CUBIC_DISPLAY[n] for n in CUBIC_NAMES])
    rows = [header]
    for n1 in CUBIC_NAMES:
        row = [CUBIC_DISPLAY[n1]]
        for n2 in CUBIC_NAMES:
            row.append(rep_name_exact(reps[n1] * reps[n2]))
        rows.append("\t".join(row))
    t32 = "\n".join(rows)

    # cells of one value share one interned quotient, named once
    quotients = {(n1, n2): reps[n1].colon(reps[n2])
                 for n1 in CUBIC_NAMES for n2 in CUBIC_NAMES}
    names = {q: rep_name_eps(q) for q in dict.fromkeys(quotients.values())}
    rows = [header]
    for n1 in CUBIC_NAMES:
        row = [CUBIC_DISPLAY[n1]]
        for n2 in CUBIC_NAMES:
            row.append(names[quotients[n1, n2]])
        rows.append("\t".join(row))
    t33 = "\n".join(rows)

    lines = ["name\tmatrix"]
    for name in CUBIC_NAMES:
        lines.append(f"{CUBIC_DISPLAY[name]}\t{_fmt_mat(suite['matrices'][name])}")
    t_m = "\n".join(lines)
    return {"tau_data": t31, "products": t32, "division": t33, "matrices": t_m}


SPLIT_FIXTURE_LAMS = (-2, 2, 0)

_Z = Fraction(0)
_Q = Fraction(1, 4)

SPLIT_NAME_BY_TRIPLE = {
    (_Z, _Z, _Z): "O110",
    (_Z, HALF, _Z): "O120",
    (_Z, _Z, HALF): "O210",
    (HALF, _Z, _Z): "O211",
    (_Z, HALF, HALF): "O220",
    (HALF, _Z, HALF): "L1",
    (_Q, _Z, _Z): "O411",
    (HALF, HALF, _Q): "O422",
    (_Q, _Z, HALF): "L2",
    (_Q, HALF, Fraction(3, 8)): "O822",
}

SPLIT_FIXTURE_ORDER = ("O110", "O120", "O210", "O211", "O220", "L1",
                       "O411", "O422", "L2", "O822")

SPLIT_FIXTURE_PARAMS = {
    "O110": (1, 1, 0), "O120": (1, 2, 0), "O210": (2, 1, 0), "O211": (2, 1, 1),
    "O220": (2, 2, 0), "O411": (4, 1, 1), "O422": (4, 2, 2), "O822": (8, 2, -2),
}


def split202m2_representatives() -> dict[str, FullLattice]:
    """The table's ten lattices: the eight orders plus the two non-order
    classes with their customary bases."""
    out = {name: split3_order_lattice(SplitOrderParams(*params))
           for name, params in SPLIT_FIXTURE_PARAMS.items()}
    out["L1"] = span(SPLIT3, [(1, 0, 0), (HALF, 1, 0), (1, 1, 1)])
    out["L2"] = span(SPLIT3, [(4, 0, 0), (-1, 1, 0), (1, 1, 1)])
    return out


def split202m2_tables() -> dict[str, str]:
    """TSV tables for the eigenvalue (-2, 2, 0) fixture: order data, tau data,
    normal forms with their matrices, and the 10x10 product table."""
    classes = split3_enumerate_classes(SPLIT_FIXTURE_LAMS)
    by_name = {SPLIT_NAME_BY_TRIPLE[rec["triple"]]: rec for rec in classes}
    order_lines = ["order\tunits\tbetas\tunits_big\tunits_small\tgroup_size"]
    tau_lines = ["order\ta\tb\tc\td\tmu\tt\ttau"]
    for a1, a2, a3 in SPLIT_FIXTURE_PARAMS.values():
        p = SplitOrderParams(a1, a2, a3)
        label = f"O{a1}{a2}{a3}".replace("-", "m")
        d = split3_tau(p)
        tau_row = (d.a, d.b, d.c, d.d, d.mu, d.t, d.tau)
        order_lines.append("\t".join([label] + [str(v) for v in _split3_unit_row(p)]))
        tau_lines.append("\t".join([label] + [str(v) for v in tau_row]))
    t42 = "\n".join(order_lines)
    t43 = "\n".join(tau_lines)

    lines = ["name\ttriple\tmatrix"]
    for name in SPLIT_FIXTURE_ORDER:
        rec = by_name[name]
        lines.append("\t".join([name, str(tuple(map(str, rec["triple"]))),
                                _fmt_mat(rec["matrix"])]))
    t44 = "\n".join(lines)

    lattices = split202m2_representatives()
    header = "\t".join([""] + list(SPLIT_FIXTURE_ORDER))
    rows = [header]
    for n1 in SPLIT_FIXTURE_ORDER:
        row = [n1]
        for n2 in SPLIT_FIXTURE_ORDER:
            prod = lattices[n1] * lattices[n2]
            exact = next((nm for nm in SPLIT_FIXTURE_ORDER if lattices[nm] == prod), None)
            row.append(exact or "[" + SPLIT_NAME_BY_TRIPLE[split3_normalize(prod)] + "]")
        rows.append("\t".join(row))
    t45 = "\n".join(rows)
    return {"order_data": t42, "tau_data": t43, "normal_forms": t44,
            "products": t45}
