"""Shared helpers for the test suite: random generators and small oracles."""

from fractions import Fraction
from random import Random

from math import gcd

from latclass import exactnum as xn
from latclass.algebra import Algebra, cyclic_algebra
from latclass.classes import TauData
from latclass.errors import DomainError
from latclass.lattice import FullLattice

# a pool of monic integer polynomials covering separable, split and
# nilpotent-part behaviour in dimensions 2..5
POLY_POOL = {
    2: [(5, 0, 1), (-7, 0, 1), (-1, -1, 1), (0, 0, 1), (-4, 0, 1), (2, -3, 1)],
    3: [(0, 0, 0, 1), (16, 8, 4, 1), (0, -4, 0, 1), (2, 2, 2, 1), (-2, 0, 0, 1),
        (0, 0, -1, 1), (0, 1, 2, 1)],
    4: [(0, 0, 0, 0, 1), (1, 0, 0, 0, 1), (6, 0, -5, 0, 1), (0, 0, 1, -2, 1),
        (4, 0, -4, 0, 1), (0, -4, 0, 0, 1)],
    5: [(0, 0, 0, 0, 0, 1), (0, 0, 0, -4, 0, 1), (-2, 0, 0, 0, 0, 1)],
}

_ALGEBRAS = {}


def algebra_for(coeffs):
    key = tuple(coeffs)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = cyclic_algebra(list(key))
    return _ALGEBRAS[key]


def twin_algebra(alg):
    """A new algebra object with the structure of alg.  Lattices are shared
    per algebra object, so a lattice built in the twin shares no object,
    cache or memo with alg's and computes everything afresh."""
    return Algebra(alg.structure, alg.unit, label=alg.label, family=alg.family,
                   defining_poly=alg.defining_poly, generator=alg.generator,
                   validate=False)


def fraction_mul(alg, x, y):
    """x*y by the Fraction structure constants: the generator-product loop
    that Algebra.mul ran before the integer rows."""
    n = alg.dim
    out = [Fraction(0)] * n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in enumerate(alg.structure[i][j]):
                out[k] += Fraction(xi) * Fraction(yj) * c
    return tuple(out)


def fraction_product(l1, l2):
    """The canonical basis of l1 * l2 from the Fraction products of their
    generators."""
    alg = l1.algebra
    return xn.rational_hnf([fraction_mul(alg, a, b)
                            for a in l1.generators() for b in l2.generators()])


def fraction_product_coords(l):
    """The coordinates of 1 and of the basis products b_i b_j (i <= j) in l,
    from Fraction products, or None when one of them is not in l."""
    alg = l.algebra
    gens = l.generators()
    cols = [alg.unit] + [fraction_mul(alg, a, b)
                         for i, a in enumerate(gens) for b in gens[i:]]
    z = l.in_basis(xn.from_columns(cols))
    return xn.mat_int(z) if xn.mat_is_integral(z) else None


def fraction_faddeev(order) -> TauData:
    """The tau data of a rank-3 order in Fraction arithmetic, the route
    classes.faddeev_tau took before the integer product table: a basis (1,
    w1, w2) from the canonical basis, shifted so that w1*w2 is a scalar,
    with every product solved for in that basis."""
    alg = order.algebra
    if alg.dim != 3:
        raise DomainError("faddeev_tau: order must be 3-dimensional")
    if not order.is_order():
        raise DomainError("faddeev_tau: lattice is not an order")
    v = xn.complete_to_basis(xn.columns(order.product_coords())[0])
    one, w1, w2 = xn.columns(xn.mat_mul(order.basis, v))

    def in_basis(x) -> tuple:
        return xn.solve([[one[i], w1[i], w2[i]] for i in range(3)], x)

    prod0 = in_basis(alg.mul(w1, w2))
    k1, k2 = prod0[1], prod0[2]
    w1 = alg.sub(w1, alg.smul(k2, one))
    w2 = alg.sub(w2, alg.smul(k1, one))
    prod = in_basis(alg.mul(w1, w2))
    if prod[1] != 0 or prod[2] != 0:
        raise DomainError("faddeev_tau: no shift makes w1*w2 scalar")
    sq1 = in_basis(alg.mul(w1, w1))
    sq2 = in_basis(alg.mul(w2, w2))
    b, a = sq1[1], sq1[2]
    d, c = sq2[1], sq2[2]
    vals = [a, b, c, d, prod[0], sq1[0], sq2[0]]
    if any(x.denominator != 1 for x in vals):
        raise DomainError("faddeev_tau: basis products are not integral")
    a, b, c, d = int(a), int(b), int(c), int(d)
    if sq1[0] != -a * c or sq2[0] != -b * d or prod[0] != a * d:
        raise DomainError("faddeev_tau: multiplication data is inconsistent "
                          "(algebra not separable-compatible)")
    mu = gcd(a, b, c, d)
    if mu == 0:
        raise DomainError("faddeev_tau: all four multiplication integers vanish")
    t = len(xn.prime_divisors(mu))
    return TauData(a, b, c, d, mu, t, 2**t, tuple(w1), tuple(w2))


def random_unimodular(n: int, rng: Random, length: int = 6) -> xn.Mat:
    """A random product of at most `length` elementary generators of GL_n(Z)."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, length)):
        kind = rng.randint(0, 2)
        if kind == 0:      # add +-1 times one row to another
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            u[i] = [x + s * y for x, y in zip(u[i], u[j])]
        elif kind == 1:    # swap two rows
            i, j = rng.sample(range(n), 2)
            u[i], u[j] = u[j], u[i]
        else:              # negate a row
            i = rng.randrange(n)
            u[i] = [-x for x in u[i]]
    return xn.mat(u)


def elem_power(alg, x, k: int):
    """x^k in the algebra alg, for k >= 0."""
    out = alg.unit
    for _ in range(k):
        out = alg.mul(out, x)
    return out


def random_int_matrix(rng: Random, n, lo=-4, hi=4):
    while True:
        m = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if xn.det(m) != 0:
            return m


def random_lattice(rng: Random, alg, denom_max=4):
    m = random_int_matrix(rng, alg.dim)
    d = rng.randint(1, denom_max)
    cols = [tuple(Fraction(x, d) for x in col) for col in xn.columns(m)]
    return FullLattice(alg, cols)


def random_cyclic_order(rng: Random, alg):
    """Z[x] for a random integral x whose powers span the algebra."""
    n = alg.dim
    for _ in range(200):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        gens = [alg.unit]
        acc = alg.unit
        for _ in range(n - 1):
            acc = alg.mul(acc, x)
            gens.append(acc)
        rows = [[g[i] for g in gens] for i in range(n)]
        if xn.det(rows) != 0:
            return FullLattice(alg, gens)
    raise AssertionError("no cyclic order found")


def brute_lattice_points(basis, box):
    """All lattice points with coordinate vector entries in [-box, box]."""
    from itertools import product

    n = len(basis)
    cols = xn.columns(basis)
    pts = set()
    for coeffs in product(range(-box, box + 1), repeat=n):
        v = tuple(sum(Fraction(c) * col[i] for c, col in zip(coeffs, cols))
                  for i in range(n))
        pts.add(v)
    return pts
