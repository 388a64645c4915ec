"""The integer routes of the matrix <-> lattice correspondence, each checked
against the Fraction route it replaced, which is kept here as the oracle."""

from fractions import Fraction
from random import Random

import pytest

from _helpers import (POLY_POOL, algebra_for, fraction_mul, fraction_product,
                      fraction_product_coords, random_lattice, twin_algebra)
from latclass import conjugacy as cj
from latclass import exactnum as xn
from latclass import poly as up
from latclass.algebra import (Algebra, canonical_metric, cyclic_algebra, flat3_algebra,
                              mixed_algebra, split_algebra)
from latclass.errors import DomainError
from latclass.lattice import FullLattice, span


# -- the replaced routes --------------------------------------------------------

def old_matrix_to_lattice(m) -> FullLattice:
    """K^-1 by Fraction Gauss-Jordan, K the Krylov matrix in Fractions."""
    alg, _ = cj.algebra_for_poly(up.charpoly(m))
    k = cj._krylov(xn.mat_fractions(m), cj.cyclic_generator(m))
    return FullLattice.from_basis_matrix(alg, xn.rmat_inv(k))


def old_matrix_for(lat: FullLattice, x) -> xn.Mat:
    """basis^-1 * X * basis through the lattice's rational basis inverse."""
    alg = lat.algebra
    out = lat.in_basis(xn.mat_mul(alg.mult_matrix(x), lat.basis))
    if not xn.mat_is_integral(out):
        for g in xn.columns(lat.basis):
            if alg.mul(x, g) not in lat:
                raise DomainError(
                    f"lattice is not stable under the element: witness generator {g}")
        raise DomainError("lattice is not stable under the element")
    return xn.mat_int(out)


def old_structure(f):
    """Structure constants of Q[t]/(f) from n^2 polynomial divisions."""
    n = up.degree(f)
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            prod = up.mod(up.poly([0] * (i + j) + [1]), f)
            plane.append(tuple(prod[k] if k < len(prod) else Fraction(0)
                               for k in range(n)))
        out.append(tuple(plane))
    return tuple(out)


def old_gram(f):
    n = up.degree(f)
    lvals = []
    for m in range(2 * n - 1):
        r = up.mod(up.poly([0] * m + [1]), f)
        lvals.append(r[n - 1] if len(r) >= n else Fraction(0))
    return tuple(tuple(lvals[i + j] for j in range(n)) for i in range(n))


# -- inputs ---------------------------------------------------------------------

def _pool_matrices(rng, per_poly):
    """Regular matrices of each pool polynomial (t^n, repeated and distinct
    roots, irreducible): multiplication by t on L * Z[t], L random."""
    for n, pool in sorted(POLY_POOL.items()):
        for coeffs in pool:
            alg, t = algebra_for(coeffs)
            zt = span(alg, [alg.elem_power(t, k) for k in range(n)])
            for _ in range(per_poly):
                yield cj.lattice_to_matrix(random_lattice(rng, alg) * zt)


def _random_matrices(rng, count):
    """Regular integer matrices of dimension 2-5 with entries in [-3, 3]."""
    done = 0
    while done < count:
        n = rng.randint(2, 5)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        if cj.is_regular(m):
            done += 1
            yield m


def _jordan_matrices():
    """Single Jordan blocks and t^n companions: the fully repeated roots."""
    for n in (2, 3, 4, 5):
        for lam in (0, 2):
            yield tuple(tuple(lam if i == j else int(j == i + 1) for j in range(n))
                        for i in range(n))
        yield tuple(tuple(int(i == j + 1) for j in range(n)) for i in range(n))


def _matrices(seed):
    rng = Random(seed)
    yield from _pool_matrices(rng, 10)
    yield from _random_matrices(rng, 80)
    yield from _jordan_matrices()


# -- the oracle comparisons -------------------------------------------------------

def test_centralizer_order_matches_the_colon():
    count = 0
    for m in _matrices(900):
        lat = cj.matrix_to_lattice(m)
        fresh = FullLattice(twin_algebra(lat.algebra), lat.generators())
        assert lat.order().basis == fresh.colon(fresh).basis, m
        count += 1
    assert count >= 300


def test_centralizer_order_is_computed_on_first_use(monkeypatch):
    calls = []
    real = cj.centralizer_order
    monkeypatch.setattr(cj, "centralizer_order",
                        lambda *args: calls.append(1) or real(*args))
    lat = cj.matrix_to_lattice(((0, 0, 4), (1, 0, 0), (0, 1, 0)))
    assert calls == []
    assert lat.order() is lat.order()
    assert calls == [1]


def test_adjugate_lattice_matches_the_rational_inverse():
    for m in _matrices(901):
        assert cj.matrix_to_lattice(m) == old_matrix_to_lattice(m), m


def test_matrix_for_matches_the_rational_route():
    rng = Random(902)
    stable = unstable = 0
    for n, pool in sorted(POLY_POOL.items()):
        for coeffs in pool:
            alg, t = algebra_for(coeffs)
            for _ in range(6):
                lat = random_lattice(rng, alg)
                order = lat.order()
                # an element of the order, and a random rational element
                x = xn.mat_vec(order.basis, [rng.randint(-3, 3) for _ in range(n)])
                y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(n))
                for elem in (x, y, t):
                    try:
                        want = old_matrix_for(lat, elem)
                    except DomainError as err:
                        with pytest.raises(DomainError) as got:
                            cj.matrix_for(lat, elem)
                        assert str(got.value) == str(err)
                        unstable += 1
                    else:
                        assert cj.matrix_for(lat, elem) == want
                        stable += 1
    assert stable >= 100 and unstable >= 50


def test_matrix_for_names_the_same_witness():
    # <1, 2t> in Q[t]/(t^2 + 5) is not stable under t
    alg, t = algebra_for((5, 0, 1))
    lat = span(alg, [(1, 0), (0, 2)])
    with pytest.raises(DomainError) as err:
        old_matrix_for(lat, t)
    with pytest.raises(DomainError) as got:
        cj.matrix_for(lat, t)
    assert str(got.value) == str(err.value)
    assert "witness generator" in str(got.value)


def test_cyclic_algebra_matches_the_polynomial_divisions():
    rng = Random(903)
    polys = [up.poly([rng.randint(-5, 5) for _ in range(n)] + [1])
             for n in range(1, 6) for _ in range(4)]
    polys += [up.poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                       for _ in range(n)] + [1]) for n in range(1, 6) for _ in range(3)]
    polys += [up.poly([0] * n + [1]) for n in range(1, 6)]
    for f in polys:
        alg, _ = cyclic_algebra(f)
        assert alg.structure == old_structure(f), f
        assert canonical_metric(alg).gram == old_gram(f), f


# -- the integer multiplication kernel against Fraction products ---------------

def _kernel_algebras():
    """Fresh algebras of dims 2-5: cyclic, split, mixed, Jordan and flat3, and
    two whose structure constants are not integral (D > 1): Q[t]/(t^2 + 5)
    in the basis (1, t/2), and Q[t]/(t^3 + t/2 - 1/3)."""
    algs = [cyclic_algebra(POLY_POOL[n][i])[0] for n in range(2, 6) for i in (1, 2)]
    algs += [split_algebra(n) for n in range(2, 6)]
    algs += [mixed_algebra(), flat3_algebra()]
    algs += [cyclic_algebra([-1, 3, -3, 1])[0], cyclic_algebra([1, -4, 6, -4, 1])[0]]
    h = Fraction(1, 2)
    algs.append(Algebra([[(1, 0), (0, 1)], [(0, 1), (-5 * h * h, 0)]], (1, 0)))
    algs.append(cyclic_algebra([Fraction(-1, 3), h, 0, 1])[0])
    return algs


def test_product_kernel_matches_fraction_products():
    rng = Random(1601)
    algs = _kernel_algebras()
    assert [a.den for a in algs[-2:]] == [4, 6]
    orders = reduced = 0
    for alg in algs:
        for _ in range(4):
            x, y = (tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(alg.dim)) for _ in range(2))
            assert alg.mul(x, y) == fraction_mul(alg, x, y)
        lats = [random_lattice(rng, alg) for _ in range(4)]
        lats += [l.order() for l in lats[:2]]
        for l1, l2 in zip(lats, lats[1:] + lats[:1]):
            for a, b in ((l1, l2), (l1, l1)):
                ref = fraction_product(a, b)
                got = a * b
                assert got.basis == ref
                assert got.key == xn.hnf_key(xn.columns(ref))
                reduced += got.key[1] < alg.den * a.key[1] * b.key[1]
                lats.append(got)
        for l in lats:
            coords = fraction_product_coords(l)
            assert l.product_coords() == coords
            assert l.is_order() == (coords is not None)
            orders += coords is not None
    # the reduction by the common factor of the HNF and D d1 d2 is exercised
    assert orders >= 2 * len(algs) and reduced >= 10
