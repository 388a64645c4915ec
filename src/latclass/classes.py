"""Equivalences of full lattices, conductors, finite quotient unit groups,
the class-group size ratio, and the tau count of w-classes in dimension 3.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import gcd, prod
from operator import mul

from . import exactnum as xn
from .algebra import Decomposition
from .errors import DomainError, ResourceError
from .lattice import FullLattice, faddeev_data, product_table

QUOTIENT_CAP = 10**6


def w_equivalent(l1: FullLattice, l2: FullLattice) -> bool:
    """Mutual-multiple equivalence: L1 ~ L2 iff 1 lies in (L1:L2)(L2:L1)."""
    if l1 == l2:
        return True
    t12 = l1.colon(l2)
    t21 = l2.colon(l1)
    return l1.algebra.unit in (t12 * t21)


def conductor(big: FullLattice, small: FullLattice) -> FullLattice:
    """The conductor small:big of nested orders small < big."""
    if not (big.is_order() and small.is_order()):
        raise DomainError("conductor: both lattices must be orders")
    if big == small or not big.contains_lattice(small):
        raise DomainError("conductor: need small strictly contained in big")
    c = small.colon(big)
    if not small.contains_lattice(c):  # pragma: no cover - internal check
        raise AssertionError("conductor is not contained in the small order")
    if big * c != c:  # pragma: no cover - internal check
        raise AssertionError("conductor is not an ideal of the big order")
    return c


def _ideal_coords(order: FullLattice, ideal: FullLattice) -> tuple[list, xn.Mat]:
    """(t, c) in the order's canonical coordinates: t[r][s] lists coordinate r
    of b_i * b_s over i, for the canonical basis b of the order, so that
    multiplication by the element with coordinates z has the matrix
    [[z . e for e in row] for row in t]; c is the ideal's canonical basis,
    upper triangular with a positive diagonal as both canonical bases are.
    Raises DomainError unless the order is an order and the ideal an ideal
    of it."""
    order._same_algebra(ideal)
    _, p = product_table(order)
    c = order.int_coords(*ideal.key)
    if c is None:
        raise DomainError("quotient: need a sublattice of the order")
    if order * ideal != ideal:
        raise DomainError("quotient: the sublattice is not an ideal of the order")
    n = len(c)
    t = [[tuple(p[i][s][r] for i in range(n)) for s in range(n)] for r in range(n)]
    return t, c


@dataclass(frozen=True)
class FiniteQuotient:
    """The finite quotient order/ideal, worked out once from the pair: its
    size, the points of the box prod [0, c_ii) for the ideal's triangular
    basis c in the order's coordinates as the integer coordinates of coset
    representatives, the representatives, and the (t, c) of _ideal_coords
    that validated it.  Raises DomainError unless ideal is an ideal of the
    order, and ResourceError above cap cosets.

    The box holds one point of each coset of c Z^n: two points differ by
    c y only if, from the last coordinate up, each y_i is a multiple of
    c_ii below it in size, so zero; and there are det c of them."""
    order: FullLattice
    ideal: FullLattice
    cap: InitVar[int] = QUOTIENT_CAP
    size: int = field(init=False)
    reps: tuple[tuple, ...] = field(init=False)
    coords: tuple[tuple[int, ...], ...] = field(init=False)
    table: list = field(init=False, repr=False)
    ideal_basis: xn.Mat = field(init=False, repr=False)

    def __post_init__(self, cap: int):
        t, m = _ideal_coords(self.order, self.ideal)
        sides = [m[i][i] for i in range(len(m))]
        if (size := prod(sides)) > cap:
            raise ResourceError(f"quotient has {size} cosets, above the cap of {cap}")
        coords = tuple(iproduct(*(range(s) for s in sides)))
        h, d = self.order.key
        reps = tuple(tuple(Fraction(x, d) for x in xn.mat_vec(h, z)) for z in coords)
        for name, value in (("size", size), ("reps", reps), ("coords", coords),
                            ("table", t), ("ideal_basis", m)):
            object.__setattr__(self, name, value)


finite_quotient = FiniteQuotient    # finite_quotient(order, ideal, cap=QUOTIENT_CAP)


def quotient_units(q: FiniteQuotient) -> tuple[int, list[tuple]]:
    """Size and representatives of the unit group of the finite quotient O/C,
    for the ideal C of the order O that finite_quotient validated.

    x + C is a unit iff xO + C = O: in O's canonical coordinates, iff the
    column HNF of [A_x | C] is the identity, A_x the matrix of multiplication
    by x.
    """
    one = xn.identity(len(q.ideal_basis))
    units = []
    for x, z in zip(q.reps, q.coords):
        ax = [[sum(map(mul, z, e)) for e in row] for row in q.table]
        if xn.hnf([[*ra, *rc] for ra, rc in zip(ax, q.ideal_basis)]) == one:
            units.append(x)
    return len(units), units


def class_group_ratio(big: FullLattice, small: FullLattice,
                      unit_index: int) -> Fraction:
    """|G([small])| / |G([big])| from the conductor-quotient unit counts and
    the unit-group index [big^unit : small^unit] supplied by the caller."""
    c = conductor(big, small)
    nb, _ = quotient_units(finite_quotient(big, c))
    ns, _ = quotient_units(finite_quotient(small, c))
    return Fraction(nb, ns) / unit_index


@dataclass(frozen=True)
class TauData:
    """Multiplication data of a 3-dim order basis (1, w1, w2) with w1*w2 scalar."""
    a: int
    b: int
    c: int
    d: int
    mu: int
    t: int
    tau: int
    omega1: tuple
    omega2: tuple


def faddeev_tau(order: FullLattice) -> TauData:
    """Number of w-classes of exact ideals of a 3-dimensional order, 2^t,
    for t the number of primes dividing mu = gcd(a, b, c, d) of its
    multiplication data (lattice.faddeev_data), with the basis (1, w1, w2)
    that data is read in, w1 * w2 a scalar."""
    a, b, c, d, z1, z2 = faddeev_data(order)
    mu = gcd(a, b, c, d)
    if mu == 0:
        raise DomainError("faddeev_tau: all four multiplication integers vanish")
    t = len(xn.prime_divisors(mu))
    w1, w2 = (xn.mat_vec(order.basis, z) for z in (z1, z2))
    return TauData(a, b, c, d, mu, t, 2**t, w1, w2)


def project_lattice_matrix(dec: Decomposition, lat: FullLattice) -> xn.Mat:
    """pr_F(L) as a canonical basis matrix in coordinates of the separable basis."""
    return xn.rational_hnf([dec.coords(g) for g in lat.generators()])


def projection_check(order: FullLattice, dec: Decomposition,
                     samples: int = 10, seed: int = 0) -> bool:
    """Check that pr_F maps the order to an order of the separable part and
    respects lattice products on sampled pairs."""
    from random import Random

    alg = order.algebra
    if dec.algebra is not alg:
        raise DomainError("decomposition belongs to a different algebra")

    def ambient(coords):
        return tuple(sum(Fraction(c) * dec.separable_basis[j][i]
                         for j, c in enumerate(coords)) for i in range(alg.dim))

    def products(p1, p2) -> list:
        """The F-coordinates of the products of the columns of p1 and p2."""
        return [dec.coords(alg.mul(ambient(x), ambient(y)))
                for x in xn.columns(p1) for y in xn.columns(p2)]

    # pr_F(O) is an order iff adding 1 and its basis products leaves it as it is
    po = project_lattice_matrix(dec, order)
    if xn.rational_hnf(xn.columns(po) + [dec.coords(alg.unit)] + products(po, po)) != po:
        return False
    rng = Random(seed)
    for _ in range(samples):
        m1 = [[rng.randint(-2, 2) for _ in range(alg.dim)] for _ in range(alg.dim)]
        m2 = [[rng.randint(-2, 2) for _ in range(alg.dim)] for _ in range(alg.dim)]
        if xn.det(m1) == 0 or xn.det(m2) == 0:
            continue
        l1 = FullLattice(alg, xn.columns(m1))
        l2 = FullLattice(alg, xn.columns(m2))
        # the projection of the product against the product of the projections
        p12 = project_lattice_matrix(dec, l1 * l2)
        if p12 != xn.rational_hnf(products(project_lattice_matrix(dec, l1),
                                           project_lattice_matrix(dec, l2))):
            return False
    return True


def norm_form(mults) -> list[tuple[int, tuple[int, ...]]]:
    """The integer form N(c) = det(c_1 M_1 + ... + c_m M_m) of degree n in c,
    for integer n x n matrices M_j, as (coefficient, variables) terms: the
    term (k, (j_1, ..., j_n)) stands for k * c_j1 * ... * c_jn.

    det is multilinear in the columns, so N is the sum over the n^n choices
    j_1, ..., j_n of the mixed determinant det(M_j1[:, 1], ..., M_jn[:, n])
    times c_j1 ... c_jn.  Those determinants are expanded one column at a
    time: the state after s columns maps (sorted variables chosen, set of rows
    used) to the summed signed products, so each leading minor is worked out
    once for all the choices that share it.
    """
    n = len(mults[0])
    states = {((), 0): 1}
    for s in range(n):
        nxt = {}
        for (vars_, rows), acc in states.items():
            for j, mj in enumerate(mults):
                key_vars = tuple(sorted(vars_ + (j,)))
                for r in range(n):
                    x = mj[r][s]
                    if x and not rows >> r & 1:
                        # the rows used before r that lie below it
                        sign = -1 if bin(rows >> r).count("1") % 2 else 1
                        key = (key_vars, rows | 1 << r)
                        nxt[key] = nxt.get(key, 0) + sign * acc * x
        states = {k: v for k, v in nxt.items() if v}
    return [(k, vars_) for (vars_, _), k in states.items()]


def norm_values(form, points):
    """The value of the form (as norm_form gives it) at each point, lazily.
    Each prefix c_j1 ... c_jk of a term's monomial is multiplied out once per
    point, from the value of its own prefix, so terms share their prefixes."""
    levels, index = [], {(): 0}
    for k in range(1, len(form[0][1])):
        prefixes = dict.fromkeys(vars_[:k] for _, vars_ in form)
        levels.append([(index[v[:-1]], v[-1]) for v in prefixes])
        index = {v: i for i, v in enumerate(prefixes)}
    terms = [(a, index[v[:-1]], v[-1]) for a, v in form]
    for c in points:
        vals = (1,)
        for steps in levels:
            vals = [vals[i] * c[j] for i, j in steps]
        yield sum([a * vals[i] * c[j] for a, i, j in terms])


@cache
def _witness_combos(n: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """The coefficient vectors in [-bound, bound]^n by increasing absolute
    sum, then lexicographically: the witness search's order of candidates."""
    return tuple(sorted(iproduct(range(-bound, bound + 1), repeat=n),
                        key=lambda c: (sum(abs(x) for x in c), c)))


def principal_unit_witness(transporter: FullLattice, source: FullLattice,
                           target: FullLattice, bound: int = 3):
    """Search the transporter for a unit u with u*source == target.

    Sound but incomplete: candidates are short integer combinations of the
    transporter's canonical generators with coefficients in [-bound, bound],
    tried by increasing coefficient sum (see _norm_matches).
    """
    gens = transporter.generators()
    for coeffs, lands in _norm_matches(transporter, source, target, bound):
        if lands:
            return tuple(sum(Fraction(c) * g[i] for c, g in zip(coeffs, gens))
                         for i in range(len(gens)))
    return None


def _norm_matches(transporter: FullLattice, source: FullLattice,
                  target: FullLattice, bound: int):
    """Yield (coefficients, whether u*source lies in target) for each
    candidate u = sum c_j g_j of the witness search, in its order, whose
    norm is the one u*source == target forces: |N(u)| = |det target / det
    source|.  With k*mult_matrix(g_j) = M_j integral, that is |det(sum c_j
    M_j)| == k^n * |det target / det source|, read off the integer norm form
    of the M_j (norm_form) at c.  At that norm [target : u*source] = 1, so
    u*source lies in target exactly when it equals target; containment is
    back-substitution of (sum c_j M_j) * H on target's key, for source's key
    (H, d), over k*d.  In the transporter target : source every candidate of
    that norm lands; the containment test guards a wider transporter.
    """
    alg = transporter.algebra
    n = alg.dim
    rows, k = xn.clear_denominators([row for g in transporter.generators()
                                     for row in alg.mult_matrix(g)])
    # canonical bases are triangular: each determinant is its diagonal product
    norm = abs(prod(target.basis[i][i] for i in range(n))
               / prod(source.basis[i][i] for i in range(n))) * k**n
    if norm.denominator != 1:
        return
    mults = [rows[j * n:(j + 1) * n] for j in range(n)]
    combos = _witness_combos(n, bound)
    h, d = source.key
    for coeffs, value in zip(combos, norm_values(norm_form(mults), combos)):
        if abs(value) == norm.numerator:
            mu = [[sum(c * m[r][s] for c, m in zip(coeffs, mults)) for s in range(n)]
                  for r in range(n)]
            yield coeffs, target.int_coords(xn.mat_mul(mu, h), k * d) is not None


def epsilon_equivalent_bounded(l1: FullLattice, l2: FullLattice,
                               bound: int = 3):
    """Three-valued epsilon test: True / False / None (undecided).

    Complete on the negative side via the order invariant and the w-test;
    positive answers come from an explicit unit witness.
    """
    if l1 == l2:
        return True
    if l1.order() != l2.order():
        return False
    # quick win: proportional bases (the diagonals of both are positive)
    q = l2.basis[0][0] / l1.basis[0][0]
    if all(y == q * x for r1, r2 in zip(l1.basis, l2.basis) for x, y in zip(r1, r2)):
        return True
    # the w-test of w_equivalent, keeping the transporter l2:l1 for the search
    t21 = l2.colon(l1)
    if l1.algebra.unit not in l1.colon(l2) * t21:
        return False
    witness = principal_unit_witness(t21, l1, l2, bound)
    if witness is not None:
        return True
    return None
