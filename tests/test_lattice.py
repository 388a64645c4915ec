import gc
from fractions import Fraction
from math import gcd
from random import Random

import pytest

from _helpers import (POLY_POOL, algebra_for, elem_power, random_cyclic_order,
                      random_lattice, twin_algebra)
from latclass import conjugacy as cj
from latclass import exactnum as xn
from latclass import families as fam
from latclass import poly as up
from latclass.algebra import MultMetric, canonical_metric, split_algebra
from latclass.errors import DomainError
from latclass.lattice import FullLattice, cubic_form, dedekind_chain, index, span


def beta_algebra():
    return algebra_for((2, 2, 2, 1))


def test_contains_examples():
    alg, beta = beta_algebra()
    lam4 = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 4)])   # <1, 2b, 4b^2>
    assert alg.unit in lam4
    assert beta not in lam4
    assert alg.smul(2, beta) in lam4


def test_sum_examples():
    alg = split_algebra(2)
    l1 = span(alg, [(2, 0), (0, 1)])
    l2 = span(alg, [(3, 0), (0, 1)])
    assert l1 + l2 == span(alg, [(1, 0), (0, 1)])
    l = random_lattice(Random(0), alg)
    assert l + l == l


def test_intersection_brute_force():
    from itertools import product
    rng = Random(30)
    alg = split_algebra(2)
    for _ in range(25):
        l1 = random_lattice(rng, alg, denom_max=2)
        l2 = random_lattice(rng, alg, denom_max=2)
        both = l1 & l2
        for v in product(range(-4, 5), repeat=2):
            x = (Fraction(v[0]), Fraction(v[1]))
            assert (x in both) == (x in l1 and x in l2)


def test_canonical_form_is_basis_independent():
    rng = Random(31)
    alg, _ = algebra_for((16, 8, 4, 1))
    for _ in range(30):
        l = random_lattice(rng, alg)
        # re-span by random unimodular combinations of the generators
        gens = l.generators()
        u = xn.mat([[1, rng.randint(-3, 3), 0], [0, 1, 0], [rng.randint(-3, 3), 0, 1]])
        new_gens = xn.columns(xn.mat_mul(l.basis, u))
        assert FullLattice(alg, new_gens) is l
        assert FullLattice(alg, new_gens + [alg.smul(2, new_gens[0])]) is l
        # the same value in another algebra object is another lattice
        twin = FullLattice(twin_algebra(alg), new_gens)
        assert twin != l and twin.basis == l.basis


def test_product_and_order():
    rng = Random(32)
    alg, _ = algebra_for((16, 8, 4, 1))
    for _ in range(15):
        l = random_lattice(rng, alg)
        o = l.order()
        assert alg.unit in o
        assert o * o == o
        assert l * o == l              # L * O(L) = L
        assert o.order() == o          # orders are idempotent


def test_colon_examples_cubic_orders():
    alg, beta = beta_algebra()
    lam1 = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    lam3 = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 2)])
    lam4 = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 4)])
    l3 = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])
    # O(L3) = Lambda_3, L3^2 = Lambda_1, L3 not invertible
    assert l3.order() == lam3
    assert l3 * l3 == lam1
    assert not l3.is_invertible()
    assert lam4.colon(lam3) == l3.scale(2)
    assert dedekind_chain(l3) == [l3, lam1]
    assert dedekind_chain(lam3) == [lam3]


def test_order_of_dedekind_example():
    alg, a = algebra_for((0, 0, 0, 1))     # Q[a]/(a^3)
    l = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])   # <1, a, 2a^2>
    o = l.order()
    assert o == span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 2)])
    # the chain stabilizes after one step at an order
    chain = dedekind_chain(l)
    assert len(chain) == 2
    assert chain[-1].is_order()


def test_order_of_split_dim2():
    alg = split_algebra(2)
    l = span(alg, [(1, 0), (Fraction(1, 3), 1)])
    o = l.order()
    assert o == span(alg, [(3, 0), (1, 1)])


def test_dedekind_power_chains():
    for n in (3, 4, 5):
        alg, a = algebra_for(tuple([0] * n + [1]))
        gens = [alg.unit, a] + [alg.smul(2, elem_power(alg, a, k)) for k in range(2, n)]
        l = span(alg, gens)
        chain = dedekind_chain(l)
        assert len(chain) == n - 1
        lam = span(alg, [elem_power(alg, a, k) for k in range(n)])
        assert chain[-1] == lam
        for mid in chain[:-1]:
            assert not mid.is_invertible()
        assert chain[-1].is_invertible()


def test_index():
    alg, _ = algebra_for((16, 8, 4, 1))
    lam = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert index(lam, lam.scale(2)) == 8
    assert index(lam, lam) == 1
    with pytest.raises(DomainError):
        index(lam.scale(2), lam)


def test_dual_examples():
    alg, _ = algebra_for((16, 8, 4, 1))
    lam_f = span(alg, xn.columns(xn.identity(3)))
    phi = canonical_metric(alg)
    assert lam_f.dual(phi) == lam_f            # cyclic order is self dual
    rng = Random(33)
    for _ in range(10):
        l = random_lattice(rng, alg)
        assert l.dual(phi).dual(phi) == l      # involution
        assert l.scale(2).dual(phi) == l.dual(phi).scale(Fraction(1, 2))


def test_duality_identities_sample():
    rng = Random(34)
    for dim in (2, 3, 4):
        for coeffs in POLY_POOL[dim][:3]:
            alg, _ = algebra_for(coeffs)
            phi = canonical_metric(alg)
            for _ in range(5):
                l1 = random_lattice(rng, alg)
                l2 = random_lattice(rng, alg)
                assert (l1 + l2).dual(phi) == l1.dual(phi) & l2.dual(phi)
                assert (l1 & l2).dual(phi) == l1.dual(phi) + l2.dual(phi)
                assert (l1 * l2).dual(phi) == l1.dual(phi).colon(l2)
                assert l1.dual(phi).order() == l1.order()
                assert l1 * l1.dual(phi) == l1.order().dual(phi)


def test_colon_two_routes_agree():
    rng = Random(35)
    for dim in (2, 3):
        for coeffs in POLY_POOL[dim][:3]:
            alg, _ = algebra_for(coeffs)
            phi = canonical_metric(alg)
            for _ in range(6):
                l1 = random_lattice(rng, alg)
                l2 = random_lattice(rng, alg)
                assert l1.colon_dual(l2, phi) == l1.colon_stacked(l2)


def _colon_by_snf(l1, l2):
    """The former stacked colon, kept as an oracle: the integrality rows
    in_basis(mult_matrix(g)) of the generators g of l2, cleared of
    denominators by d, have Smith form u*R*v = s, so x = v*y lies in l1 : l2
    iff s*y is in d*Z^m, i.e. the columns d*v_i/s_i span the colon."""
    alg = l1.algebra
    rows = []
    for g in l2.generators():
        rows.extend(l1.in_basis(alg.mult_matrix(g)))
    ints, d = xn.clear_denominators(rows)
    _, s, v = xn.snf(ints)
    return FullLattice(alg, [tuple(Fraction(v[r][i] * d, s[i][i]) for r in range(alg.dim))
                             for i in range(alg.dim)])


def test_colon_stacked_matches_smith_form_route():
    from latclass.families import FLAT3, MIXED, SPLIT2, SPLIT3
    rng = Random(37)
    pairs = 0
    for alg in (SPLIT2, SPLIT3, MIXED, FLAT3):
        for _ in range(75):
            l1 = random_lattice(rng, alg, denom_max=3)
            l2 = random_lattice(rng, alg, denom_max=3)
            assert l1.colon_stacked(l2) == _colon_by_snf(l1, l2)
            pairs += 1
    assert pairs >= 300


def test_invertibility_criteria_agree():
    # L (O(L):L) = O(L)  iff  O(O(L):L) = O(L): two invertibility oracles
    rng = Random(36)
    alg, _ = algebra_for((0, 0, 0, 1))
    seen_noninvertible = False
    for _ in range(40):
        l = random_lattice(rng, alg)
        o = l.order()
        t = o.colon(l)
        first = l * t == o
        second = t.order() == o
        assert first == second == l.is_invertible()
        seen_noninvertible |= not first
    assert seen_noninvertible


def test_dim2_always_invertible_sample():
    rng = Random(37)
    for coeffs in POLY_POOL[2]:
        alg, _ = algebra_for(coeffs)
        for _ in range(10):
            l = random_lattice(rng, alg)
            assert l.is_invertible()
            # the product criterion, which is_invertible skips in rank 2
            o = l.order()
            assert l * o.colon(l) == o


def test_high_powers_are_invertible_sample():
    rng = Random(38)
    for dim in (3, 4):
        for coeffs in POLY_POOL[dim][:2]:
            alg, _ = algebra_for(coeffs)
            for _ in range(5):
                l = random_lattice(rng, alg)
                assert l.power(dim - 1).is_invertible()


def test_cyclic_order_dual_criteria():
    rng = Random(39)
    for dim in (2, 3):
        for coeffs in POLY_POOL[dim][:3]:
            alg, _ = algebra_for(coeffs)
            phi = canonical_metric(alg)
            for _ in range(4):
                lam = random_cyclic_order(rng, alg)
                dualo = lam.dual(phi)
                assert dualo.is_invertible()
                assert (dualo * dualo).order() == lam


def test_product_semigroup_laws():
    rng = Random(40)
    alg, _ = algebra_for((0, -4, 0, 1))
    for _ in range(10):
        a = random_lattice(rng, alg)
        b = random_lattice(rng, alg)
        c = random_lattice(rng, alg)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_dual_default_metric_and_chain_errors():
    alg, _ = algebra_for((16, 8, 4, 1))
    lam_f = span(alg, xn.columns(xn.identity(3)))
    assert lam_f.dual() == lam_f            # canonical metric by default
    with pytest.raises(DomainError):
        dedekind_chain(lam_f.scale(2))      # 1 not in 2*Lambda


def _dual_by_inverse(lat, phi):
    """The former dual route, kept as an oracle: the columns of (B^T G)^-1."""
    m = xn.mat_mul(xn.transpose(lat.basis), phi.gram)
    return FullLattice.from_basis_matrix(lat.algebra, xn.rmat_inv(m))


def _is_order_by_contains(lat):
    """The former order test, kept as an oracle: 1 and all n^2 products of
    basis elements, one contains each."""
    alg = lat.algebra
    gens = lat.generators()
    return lat.contains(alg.unit) and all(lat.contains(alg.mul(a, b))
                                          for a in gens for b in gens)


def _is_order_by_in_basis(lat):
    """The former order test, kept as an oracle: one in_basis of the matrix
    whose columns are 1 and the n(n+1)/2 products of basis elements."""
    return xn.mat_is_integral(lat.in_basis(_unit_and_products(lat)))


def _unit_and_products(lat):
    alg = lat.algebra
    gens = lat.generators()
    return xn.from_columns([alg.unit] + [alg.mul(a, b) for i, a in enumerate(gens)
                                         for b in gens[i:]])


def test_cached_dual_matches_inverse_route():
    rng = Random(37)
    for dim in (2, 3, 4, 5):
        for coeffs in POLY_POOL[dim]:
            alg, _ = algebra_for(coeffs)
            phi = canonical_metric(alg)
            for _ in range(4):
                l = random_lattice(rng, alg)
                d = l.dual()
                assert d == _dual_by_inverse(l, phi)
                assert l.dual(phi) == d and l.dual() == d       # from the cache
                assert d.dual() == l == _dual_by_inverse(d, phi)
                p = l * random_lattice(rng, alg)
                assert p.dual(phi) == _dual_by_inverse(p, phi)


def test_dual_rejects_degenerate_and_foreign_metrics():
    alg, _ = algebra_for((2, 2, 2, 1))
    l = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 1)])
    l.dual()                                    # a cached canonical dual
    bad = MultMetric(alg, ((1, 0, 0), (0, 0, 0), (0, 0, 1)))
    for _ in range(2):                          # the failure is not cached
        with pytest.raises(DomainError, match="degenerate"):
            l.dual(bad)
    with pytest.raises(DomainError, match="dim x dim"):
        l.dual(MultMetric(alg, ((1, 0), (0, 1))))
    other, _ = algebra_for((5, 0, 1))
    with pytest.raises(DomainError):
        l.dual(canonical_metric(other))


def test_dual_under_a_second_metric():
    # a symmetric invariant metric other than the canonical one: c * G
    alg, _ = algebra_for((16, 8, 4, 1))
    phi = canonical_metric(alg)
    psi = MultMetric(alg, tuple(tuple(3 * x for x in row) for row in phi.gram))
    psi.validate()
    rng = Random(38)
    for _ in range(10):
        l = random_lattice(rng, alg)
        assert l.dual(psi) == _dual_by_inverse(l, psi) == l.dual(phi).scale(Fraction(1, 3))
        assert l.dual(phi) == _dual_by_inverse(l, phi)
        assert l.dual(psi).dual(psi) == l


def test_is_order_matches_contains_route():
    rng = Random(39)
    orders = non_orders = 0
    for dim in (2, 3, 4, 5):
        for coeffs in POLY_POOL[dim]:
            alg, _ = algebra_for(coeffs)
            for _ in range(4):
                l = random_lattice(rng, alg)
                for lat in (l, l.order(), random_cyclic_order(rng, alg),
                            l.order() + l, span(alg, l.order().generators() + [alg.unit])):
                    fresh = FullLattice(twin_algebra(alg), lat.generators())
                    expected = _is_order_by_contains(fresh)
                    assert _is_order_by_in_basis(fresh) is expected
                    assert fresh.is_order() is expected
                    if expected:
                        z = fresh.product_coords()
                        assert xn.mat_mul(fresh.basis, z) == _unit_and_products(fresh)
                    orders += expected
                    non_orders += not expected
    assert orders > 100 and non_orders > 50


def _invertible_by_product(lat):
    """The product criterion L * (O(L) : L) = O(L), kept as the oracle of
    the rank-3 route through the cubic form."""
    o = lat.order()
    return lat * o.colon(lat) == o


def _trace_discriminant(o):
    """det(Tr(b_i b_j)) over the canonical basis of the order o."""
    alg = o.algebra
    gens = o.generators()
    trace = lambda x: sum(row[i] for i, row in enumerate(alg.mult_matrix(x)))
    return xn.det([[trace(alg.mul(a, b)) for b in gens] for a in gens])


def _non_gorenstein_orders(rng, alg):
    """Z + p O' for a monogenic O' (form content 1), so of content p, with
    its dual: an order and a lattice whose order it is, the first invertible
    and the second not (a canonical module of a non-Gorenstein order)."""
    for p in (2, 3):
        o = random_cyclic_order(rng, alg)
        r = span(alg, [alg.unit] + [alg.smul(p, g) for g in o.generators()])
        assert gcd(*cubic_form(r)) == p
        d = r.dual()
        assert d.order() == r
        assert _invertible_by_product(r) and not _invertible_by_product(d)
        yield r
        yield d


def test_rank3_invertibility_matches_product_criterion():
    from latclass.families import FLAT3, MIXED, SPLIT3
    rng = Random(41)
    cyclic = [algebra_for(coeffs)[0] for coeffs in POLY_POOL[3]]
    lattices = [random_lattice(rng, alg) for alg in [FLAT3, MIXED, SPLIT3] for _ in range(30)]
    for alg in cyclic:
        for _ in range(15):
            lattices.append(random_lattice(rng, alg))
            # a lattice over a monogenic order, whose own order is often Gorenstein
            lattices.append(random_cyclic_order(rng, alg) * random_lattice(rng, alg))
        lattices.extend(_non_gorenstein_orders(rng, alg))
    seen = {True: 0, False: 0}
    by_form = {"cyclic": 0, "split": 0}
    for lat in lattices:
        expected = _invertible_by_product(lat)
        fresh = FullLattice(twin_algebra(lat.algebra), lat.generators())
        assert fresh.is_invertible() is expected
        seen[expected] += 1
        # every rank-3 order has a form, also where 1 is not the first column
        if gcd(*cubic_form(lat.order())) == 1:
            by_form["split" if lat.algebra in (MIXED, SPLIT3) else "cyclic"] += 1
    assert len(lattices) >= 300
    assert seen[True] > 100 and seen[False] > 100
    assert by_form["cyclic"] > 80 and by_form["split"] == 12


def test_cubic_form_has_the_discriminant_of_its_order():
    from latclass.families import FLAT3, MIXED, SPLIT3
    rng = Random(42)
    orders = 0
    for alg in [algebra_for(coeffs)[0] for coeffs in POLY_POOL[3]] + [FLAT3, SPLIT3, MIXED]:
        for lat in [random_lattice(rng, alg) for _ in range(8)] + list(
                _non_gorenstein_orders(rng, alg) if alg.family == "cyclic" else ()):
            o = lat.order()
            a, b, c, d = cubic_form(o)
            disc = b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
            assert disc == _trace_discriminant(o)
            orders += 1
    assert orders > 100


def test_int_coords_matches_in_basis():
    rng = Random(43)
    members = 0
    for dim in (2, 3, 4):
        for coeffs in POLY_POOL[dim][:3]:
            alg, _ = algebra_for(coeffs)
            for _ in range(10):
                l = random_lattice(rng, alg)
                z = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(2)] for _ in range(dim)]
                y, k = xn.clear_denominators(xn.mat_mul(l.basis, z))
                s = rng.randint(1, 3)
                y = tuple(tuple(s * x for x in row) for row in y)
                assert l.int_coords(y, k * s) == xn.mat(z)
                # the first column shifted by e_0 / (k s), in L or not
                y = ((y[0][0] + 1, y[0][1]),) + y[1:]
                expected = l.in_basis(tuple(tuple(Fraction(x, k * s) for x in row)
                                            for row in y))
                got = l.int_coords(y, k * s)
                assert got == (expected if xn.mat_is_integral(expected) else None)
                members += got is not None
    assert 0 < members < 90


def test_membership_matches_in_basis_route():
    """contains, contains_lattice and index back-substitute on the integer
    key; the former routes through the rational basis inverse are the oracle."""
    lattices = contained = members = 0
    for rng, alg, l in _seeded_lattices(61, per_poly=14):
        other = random_lattice(rng, alg)
        for sup, sub in ((l, l & other), (l + other, l), (l, other), (other, l)):
            t = sup.in_basis(sub.basis)
            inside = xn.mat_is_integral(t)
            assert sup.contains_lattice(sub) is inside
            if inside:
                assert index(sup, sub) == abs(xn.det(t))
                contained += 1
            else:
                with pytest.raises(DomainError):
                    index(sup, sub)
        for g in other.generators() + [alg.unit]:
            # a point of l, shifted by g or not
            x = xn.mat_vec(l.basis, [rng.randint(-3, 3) for _ in range(alg.dim)])
            x = tuple(a + rng.choice((0, 1)) * b for a, b in zip(x, g))
            expected = all(c.denominator == 1 for c in xn.mat_vec(l._inverse(), x))
            assert l.contains(x) is expected
            members += expected
        lattices += 1
    assert lattices >= 300 and contained > 600 and 400 < members < 1000
    with pytest.raises(DomainError):
        l.contains((1,) * (alg.dim + 1))


# -- one object per value -----------------------------------------------------------

def _seeded_lattices(seed, per_poly=3):
    rng = Random(seed)
    for dim in (2, 3, 4, 5):
        for coeffs in POLY_POOL[dim]:
            alg, _ = algebra_for(coeffs)
            for _ in range(per_poly):
                yield rng, alg, random_lattice(rng, alg)


def test_equality_and_hash_agree_with_canonical_bases():
    lattices = [l for _, _, l in _seeded_lattices(51)]
    lattices += [l * l for l in lattices[::3]] + [l.order() for l in lattices[::2]]
    for i, l1 in enumerate(lattices):
        h, d = l1.key
        assert gcd(d, *(x for row in h for x in row)) == 1
        assert l1.basis == tuple(tuple(Fraction(x, d) for x in row) for row in h)
        gens = l1.generators()
        extra = tuple(a - 3 * b for a, b in zip(gens[0], gens[-1]))
        assert xn.hnf_key([extra] + gens[::-1]) == l1.key
        assert xn.rational_hnf([extra] + gens) == l1.basis
        for l2 in lattices[i:i + 8]:
            same = l1.algebra is l2.algebra and l1.basis == l2.basis
            assert (l1 == l2) is same and (l1 != l2) is not same
            if same:
                assert hash(l1) == hash(l2)
    assert len(set(lattices)) == len({(id(l.algebra), l.basis) for l in lattices})


def test_memoized_products_and_colons_match_a_fresh_algebra(monkeypatch):
    for rng, alg, l1 in _seeded_lattices(52, per_poly=2):
        l2 = random_lattice(rng, alg)
        prod, quot = l1 * l2, l1.colon(l2)
        with monkeypatch.context() as m:     # remembered: no product is taken
            m.setattr(alg, "mul", None)
            assert l2 * l1 is prod and l1 * l2 is prod and l1.colon(l2) is quot
        twin = twin_algebra(alg)
        t1 = FullLattice(twin, l1.generators())
        t2 = FullLattice(twin, l2.generators())
        assert (t1 * t2).basis == prod.basis
        assert t1.colon(t2).basis == quot.basis


def test_memoized_colon_matches_the_stacked_route():
    rng = Random(53)
    pairs = 0
    for dim in (2, 3, 4):
        for coeffs in POLY_POOL[dim]:
            alg, _ = algebra_for(coeffs)
            for _ in range(12):
                l1 = random_lattice(rng, alg)
                l2 = rng.choice((random_lattice(rng, alg), l1.order(), l1 * l1))
                first = l1.colon(l2)
                assert l1.colon(l2) is first == l1.colon_stacked(l2)
                pairs += 1
    assert pairs >= 200


def test_dropped_lattices_leave_the_intern_table():
    fx_alg, _ = cj.algebra_for_poly(up.poly(fam._fixture_data()["beta_minpoly"]))
    enabled = gc.isenabled()
    gc.disable()
    try:
        tables = fam.cubic_tables()
        assert len(fx_alg._lattices) == 0
        fam.split202m2_tables()
        assert len(fam.SPLIT3._lattices) == 0
    finally:
        if enabled:
            gc.enable()
    assert tables["products"].startswith("\tLambda1")


def test_memo_keeps_nothing_for_dropped_partners():
    alg, _ = algebra_for((16, 8, 4, 1))
    rng = Random(54)
    l = random_lattice(rng, alg)
    live = random_lattice(rng, alg)
    kept = l * live
    for _ in range(1000):
        l * random_lattice(rng, alg)
        l.colon(random_lattice(rng, alg))
    assert list(l._memo) == [live]
    assert l * live is kept


def test_order_does_not_depend_on_which_construction_came_first():
    rng = Random(55)
    seen = 0
    while seen < 30:
        n = rng.choice((2, 3, 4))
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        if not cj.analyse(m).regular:
            continue
        # matrix_to_lattice first: order() reads the deferred centralizer order
        lat = cj.matrix_to_lattice(m)
        alg, key = lat.algebra, lat.key
        by_centralizer = lat.order().basis
        assert span(alg, lat.generators()) is lat
        del lat
        assert alg._lattices.get(key) is None
        # span first: order() is L : L, and matrix_to_lattice meets it set
        spanned = span(alg, [tuple(Fraction(x, key[1]) for x in col)
                             for col in xn.columns(key[0])])
        by_colon = spanned.order().basis
        assert cj.matrix_to_lattice(m) is spanned
        assert by_colon == by_centralizer
        seen += 1


@pytest.mark.parametrize("bad", [0.1, float("nan"), 1 + 0j, "nan", None])
def test_inexact_entries_are_refused(bad):
    alg, _ = algebra_for((5, 0, 1))
    with pytest.raises(DomainError):
        FullLattice(alg, [(bad, 0), (0, 1)])
    with pytest.raises(DomainError):
        alg.element((bad, 1))
    for scaled in (lambda: alg.smul(bad, alg.unit), lambda: alg.scalar(bad),
                   lambda: span(alg, [(1, 0), (0, 1)]).scale(bad)):
        with pytest.raises(DomainError):
            scaled()
    assert alg.element(("1/10", 1)) == (Fraction(1, 10), Fraction(1))
    with pytest.raises(DomainError):
        xn.mat_fractions([[bad, 0]])
    t = alg.element((0, 1))
    with pytest.raises(DomainError, match="inexact|not a rational"):
        cj.matrix_for(span(alg, [(1, 0), (0, 1)]), t, basis=[[bad, 0], [0, 10]])
    with pytest.raises(DomainError, match="does not span"):
        cj.matrix_for(span(alg, [(1, 0), (0, 1)]), t, basis=[["1/10", 0], [0, 10]])
