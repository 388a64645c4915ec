"""Shared helpers for the test suite: random generators and small oracles."""

from fractions import Fraction
from random import Random

from latclass import exactnum as xn
from latclass.algebra import Algebra, cyclic_algebra
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
