"""The closed-form split- and mixed-family arithmetic against the lattice
route it replaced: normal forms by scaling and re-taking the HNF, orders by
the colon L : L, and representative matrices on an explicitly given basis."""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from random import Random

from _helpers import random_lattice

from latclass import families as fam
from latclass.conjugacy import matrix_for
from latclass.errors import DomainError
from latclass.lattice import FullLattice, span

F = Fraction

_SIGNS3 = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))


def oracle_unipotent_triple3(l: FullLattice):
    """The (d1, d2, d3) of the unipotent representative of l's unit class:
    scale by the unit (1/b00, 1/b11, 1/b22) and read the new canonical basis."""
    b = l.basis
    u = l.algebra.element((1 / b[0][0], 1 / b[1][1], 1 / b[2][2]))
    nb = l.scale(u).basis
    return nb[0][1], nb[1][2], nb[0][2]


def oracle_split3_normalize(l: FullLattice):
    cands = {oracle_unipotent_triple3(l.scale(fam.SPLIT3.element(s)))
             for s in _SIGNS3}
    return min(c for c in cands if fam._split_normal_window(*c))


def oracle_split3_enumerate(lams):
    """Every window triple stable under lams . e, kept when the lattice route
    normalizes it to itself; order by L : L, matrix on the unipotent basis."""
    g = fam.SPLIT3.element(lams)
    zg = span(fam.SPLIT3, [fam.SPLIT3.unit, g, fam.SPLIT3.mul(g, g)])
    p = fam.split3_order_params(zg)
    den1 = gcd(p.a1, p.a2 - p.a3)
    out = []
    for i in range(den1):
        for j in range(p.a2 // 2 + 1):
            for k in range(p.a1 // 2 + 1):
                d1, d2, d3 = F(i, den1), F(j, p.a2), F(k, p.a1)
                if not fam._split_normal_window(d1, d2, d3):
                    continue
                if (p.a3 * d3 - p.a2 * d1 * d2).denominator != 1:
                    continue
                lat = fam.split3_lattice_of_triple(d1, d2, d3)
                if oracle_split3_normalize(lat) != (d1, d2, d3):
                    continue
                basis = ((1, d1, d3), (0, 1, d2), (0, 0, 1))
                out.append({"triple": (d1, d2, d3),
                            "matrix": matrix_for(lat, g, basis=basis),
                            "order": fam.split3_order_params(lat.order())})
    out.sort(key=lambda r: r["triple"])
    return out


def oracle_mixed_enumerate(alpha, max_n2):
    """Every triple (i/alpha, alpha/n2, j/n2) with i, j in [0, alpha) that
    the lattice route normalizes to itself and whose lattice alpha*e1 + a
    keeps, with its matrix on the normal-form basis; by n2, then by triple."""
    g = fam.MIXED.element((alpha, 0, 1))
    out = []
    for n2 in range(1, max_n2 + 1):
        d2 = F(alpha, n2)
        recs, seen = [], set()
        for i in range(alpha):
            for j in range(alpha):
                triple = (F(i, alpha), d2, F(j, n2))
                lat = fam.mixed_lattice_of_triple(*triple)
                t = fam.mixed_normalize(lat)
                if t in seen or t[1] != d2:
                    continue
                seen.add(t)
                d1, _, d3 = t
                basis = ((0, 1, d1), (0, 0, 1), (d2, d3, 0))
                try:
                    m = matrix_for(fam.mixed_lattice_of_triple(*t), g, basis=basis)
                except DomainError:
                    continue
                recs.append({"triple": t, "matrix": m})
        out += sorted(recs, key=lambda r: r["triple"])
    return out


def oracle_split2_normalize(l: FullLattice):
    b = l.basis
    u = l.algebra.element((1 / b[0][0], 1 / b[1][1]))
    d = l.scale(u).basis[0][1]
    return min(d, 1 - d) if d else d


def test_split3_normalize_matches_lattice_route():
    rng = Random(7)
    for _ in range(3000):
        l = random_lattice(rng, fam.SPLIT3, denom_max=5)
        assert fam.split3_normalize(l) == oracle_split3_normalize(l), l


def test_split3_order_of_triple_matches_colon():
    rng = Random(8)
    for _ in range(300):
        d1, d2, d3 = (F(rng.randrange(q), q)
                      for q in (rng.randint(1, 8) for _ in range(3)))
        lat = fam.split3_lattice_of_triple(d1, d2, d3)
        assert fam.split3_order_of_triple(d1, d2, d3) == \
            fam.split3_order_params(lat.order()), (d1, d2, d3)


def test_split3_cyclic_order_matches_lattice_route():
    for lams in permutations(range(-5, 6), 3):
        g = fam.SPLIT3.element(lams)
        zg = span(fam.SPLIT3, [fam.SPLIT3.unit, g, fam.SPLIT3.mul(g, g)])
        assert fam.split3_cyclic_order(lams) == fam.split3_order_params(zg), lams


def test_split3_enumerate_matches_lattice_route():
    for lams in combinations(range(-4, 5), 3):
        assert fam.split3_enumerate_classes(lams) == oracle_split3_enumerate(lams), lams


def test_split3_enumerate_matches_lattice_route_in_any_eigenvalue_order():
    # the CLI passes the fixture eigenvalues as (-2, 2, 0)
    for lams in [*permutations((-2, 0, 2)), *permutations((-3, 1, 4)),
                 *permutations((-1, 0, 3))]:
        assert fam.split3_enumerate_classes(lams) == oracle_split3_enumerate(lams), lams


def test_mixed_enumerate_matches_lattice_route():
    for alpha in range(1, 13):
        expected = oracle_mixed_enumerate(alpha, 5)
        for r in expected:
            assert fam.mixed_matrix(*r["triple"], alpha) == r["matrix"], r
        for max_n2 in range(1, 6):
            assert fam.mixed_enumerate(alpha, max_n2) == \
                [r for r in expected if r["triple"][1] * max_n2 >= alpha], (alpha, max_n2)


def test_split2_normalize_matches_lattice_route():
    rng = Random(9)
    for _ in range(500):
        l = random_lattice(rng, fam.SPLIT2, denom_max=5)
        assert fam.split2_normalize(l) == oracle_split2_normalize(l), l
