"""Equivalences of full lattices, conductors, finite quotient unit groups,
the class-group size ratio, and the tau count of w-classes in dimension 3.

The unit group of a finite quotient O/C is counted from its residue
algebras.  O/C is the product of its p-parts over the primes p dividing its
size, and in the p-part p is nilpotent, so it lies in the Jacobson radical;
an element of a finite commutative ring is a unit iff it is one modulo the
radical (Atiyah-Macdonald, ch. 1).  So x + C is a unit iff its image in each
F_p-algebra R_p = O/(C + pO) is, which a determinant mod p of its
multiplication matrix on R_p decides: one HNF per prime, and no work per
coset for the count.  The box of coset coordinates is built only for the
representatives of the units.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import gcd, prod
from operator import mul
from typing import NamedTuple

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


class FiniteQuotient:
    """The finite quotient order/ideal, validated once from the pair: its
    size det c and the (t, c) of _ideal_coords, for the ideal's triangular
    basis c in the order's coordinates.  Raises DomainError unless ideal is
    an ideal of the order, and ResourceError above cap cosets.  The box of
    coset coordinates (coords) and the representatives (rep, reps) are
    built only when asked for.

    The box prod [0, c_ii) holds one point of each coset of c Z^n: two
    points differ by c y only if, from the last coordinate up, each y_i is a
    multiple of c_ii below it in size, so zero; and there are det c of them."""
    __slots__ = ("order", "ideal", "size", "table", "ideal_basis")

    def __init__(self, order: FullLattice, ideal: FullLattice, cap: int = QUOTIENT_CAP):
        t, c = _ideal_coords(order, ideal)
        size = prod(c[i][i] for i in range(len(c)))
        if size > cap:
            raise ResourceError(f"quotient has {size} cosets, above the cap of {cap}")
        self.order, self.ideal, self.size = order, ideal, size
        self.table, self.ideal_basis = t, c

    def __repr__(self):
        return f"FiniteQuotient(order={self.order!r}, ideal={self.ideal!r})"

    @property
    def coords(self) -> tuple[tuple[int, ...], ...]:
        """The points of the box, in lexicographic order."""
        c = self.ideal_basis
        return tuple(iproduct(*(range(c[i][i]) for i in range(len(c)))))

    def rep(self, z) -> tuple:
        """The coset representative H z / d with integer coordinates z in the
        order's canonical basis H/d."""
        h, d = self.order.key
        return tuple(Fraction(x, d) for x in xn.mat_vec(h, z))

    @property
    def reps(self) -> tuple[tuple, ...]:
        """The representatives of all the cosets, in the order of coords."""
        return tuple(map(self.rep, self.coords))


finite_quotient = FiniteQuotient    # finite_quotient(order, ideal, cap=QUOTIENT_CAP)


def _residue_algebras(q: FiniteQuotient) -> list[tuple[int, list, frozenset]]:
    """(p, proj, units) for each prime p dividing the size of O/C: the
    F_p-algebra R_p = O/(C + pO), its projection and its unit group.

    The column HNF h of [c | pI] is the basis of C + pO in O's coordinates.
    As C + pO holds pO, its diagonal entries are 1 or p.  A column with
    h_ff = p is p e_f: its entries above the diagonal are 0 in the rows
    with h_jj = 1 and below p in the others, and an element of C + pO whose
    last entry not divisible by p is in row j forces h_jj = 1.  So the free
    coordinates f, where h_ff = p, give R_p = F_p^r, and the residue of z is
    linear: z_f minus h_fi z_i over the pivots i, where h_ii = 1.  proj holds
    that map as one integer row per free coordinate, and units the residues
    w in [0, p)^r whose multiplication matrix sum w_j M_j on R_p has a
    determinant prime to p, read off the norm form of the M_j (norm_form);
    M_j multiplies by the basis vector of the j-th free coordinate.
    """
    t, c = q.table, q.ideal_basis
    n = len(c)
    out = []
    for p in xn.prime_divisors(q.size):
        h = xn.hnf([[*row, *(p * (i == j) for j in range(n))] for i, row in enumerate(c)])
        free = [f for f in range(n) if h[f][f] == p]
        proj = [[-h[f][j] if h[j][j] == 1 else int(j == f) for j in range(n)]
                for f in free]
        mults = [[[sum(a * t[r][s][f] for r, a in enumerate(row)) for s in free]
                  for row in proj] for f in free]
        points = tuple(iproduct(range(p), repeat=len(free)))
        units = frozenset(w for w, v in zip(points, norm_values(norm_form(mults), points))
                          if v % p)
        out.append((p, proj, units))
    return out


def quotient_units(q: FiniteQuotient) -> int:
    """The size of the unit group of the finite quotient O/C, for the ideal C
    of the order O that finite_quotient validated.

    O/C is the product of its p-parts A_p over the primes p dividing its
    size, and p is nilpotent in A_p, so it lies in the Jacobson radical: an
    element of A_p is a unit iff its residue in A_p / p A_p = R_p is
    (_residue_algebras).  So |(O/C)^x| = |O/C| * prod_p |R_p^x| / |R_p|.
    """
    count = q.size
    for p, proj, units in _residue_algebras(q):
        count = count // p ** len(proj) * len(units)
    return count


def quotient_unit_reps(q: FiniteQuotient) -> list[tuple]:
    """The representatives of the unit cosets of O/C, in the order of the
    box q.coords: x + C is a unit iff its residue in every R_p is
    (quotient_units)."""
    tests = _residue_algebras(q)
    return [q.rep(z) for z in q.coords
            if all(tuple(sum(map(mul, row, z)) % p for row in proj) in units
                   for p, proj, units in tests)]


def class_group_ratio(big: FullLattice, small: FullLattice,
                      unit_index: int) -> Fraction:
    """|G([small])| / |G([big])| from the conductor-quotient unit counts and
    the unit-group index [big^unit : small^unit] supplied by the caller."""
    c = conductor(big, small)
    nb = quotient_units(finite_quotient(big, c))
    ns = quotient_units(finite_quotient(small, c))
    return Fraction(nb, ns) / unit_index


class TauData(NamedTuple):
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
    """The coefficient vectors in [-bound, bound]^n whose first nonzero entry
    is negative, by increasing absolute sum, then lexicographically: the
    witness search's order of candidates.  u and -u have the same |N| and
    the same u*source, and -c comes before c in the order of the whole box,
    so the first witness of the whole box lies in this half."""
    return tuple(sorted((c for c in iproduct(range(-bound, bound + 1), repeat=n)
                         if next(filter(None, c), 0) < 0),
                        key=lambda c: (sum(abs(x) for x in c), c)))


def principal_unit_witness(transporter: FullLattice, source: FullLattice,
                           target: FullLattice, bound: int = 3):
    """Search the transporter for a unit u with u*source == target.

    Sound but incomplete: candidates are short integer combinations of the
    transporter's canonical generators with coefficients in [-bound, bound],
    one of each pair c, -c, tried by increasing coefficient sum
    (_witness_combos, _norm_matches).  The witness is
    H c / d for the coefficients c and the transporter's key (H, d).
    """
    h, d = transporter.key
    for coeffs, lands in _norm_matches(transporter, source, target, bound):
        if lands:
            return tuple(Fraction(sum(map(mul, row, coeffs)), d) for row in h)
    return None


def _norm_matches(transporter: FullLattice, source: FullLattice,
                  target: FullLattice, bound: int):
    """Yield (coefficients, whether u*source lies in target) for each
    candidate u = sum c_j g_j of the witness search, in its order, whose
    norm is the one u*source == target forces: |N(u)| = |det target / det
    source|.  For the transporter's key (H, d) and the algebra's D, g_j is
    H[:, j] / d and k = D*d makes M_j = k*mult_matrix(g_j) integral: column
    s of M_j is the integer product int_mul(H[:, j], e_s).  The norm match is
    |det(sum c_j M_j)| == k^n * |det target / det source|, read off the
    integer norm form of the M_j (norm_form) at c, with both determinants
    the diagonal products of the triangular keys.  At that norm [target :
    u*source] = 1, so u*source lies in target exactly when it equals target;
    containment is back-substitution of (sum c_j M_j) * H_s on target's key,
    for source's key (H_s, d_s), over k*d_s.  In the transporter target :
    source every candidate of that norm lands; the containment test guards a
    wider transporter.
    """
    alg = transporter.algebra
    n = alg.dim
    h, d = transporter.key
    k = alg.den * d
    (ht, dt), (hs, ds) = target.key, source.key
    # |det target / det source| * k^n, a fraction of the key diagonals
    num = prod(ht[i][i] for i in range(n)) * (k * ds) ** n
    den = prod(hs[i][i] for i in range(n)) * dt ** n
    if num % den:
        return
    norm = num // den
    units = xn.identity(n)
    mults = [xn.from_columns([alg.int_mul(g, e) for e in units]) for g in xn.columns(h)]
    combos = _witness_combos(n, bound)
    for coeffs, value in zip(combos, norm_values(norm_form(mults), combos)):
        if abs(value) == norm:
            mu = [[sum(c * m[r][s] for c, m in zip(coeffs, mults)) for s in range(n)]
                  for r in range(n)]
            yield coeffs, target.int_coords(xn.mat_mul(mu, hs), k * ds) is not None


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
    # quick win: proportional bases, H2 = q H1 with q = H2[0][0] / H1[0][0]
    # on the keys (the diagonals of both are positive)
    (h1, _), (h2, _) = l1.key, l2.key
    a, b = h1[0][0], h2[0][0]
    if all(a * y == b * x for r1, r2 in zip(h1, h2) for x, y in zip(r1, r2)):
        return True
    # the w-test of w_equivalent, keeping the transporter l2:l1 for the search
    t21 = l2.colon(l1)
    if l1.algebra.unit not in l1.colon(l2) * t21:
        return False
    witness = principal_unit_witness(t21, l1, l2, bound)
    if witness is not None:
        return True
    return None
