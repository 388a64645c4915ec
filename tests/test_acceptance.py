"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated wall-clock budget."""

import time
from fractions import Fraction
from math import gcd
from random import Random

from _helpers import POLY_POOL, algebra_for, elem_power, random_lattice, random_unimodular
from latclass import classes as cl
from latclass import conjugacy as cj
from latclass import exactnum as xn
from latclass import families as fam
from latclass import poly as up
from latclass import quadform as qf
from latclass.algebra import canonical_metric
from latclass.lattice import FullLattice, dedekind_chain, span
from latclass.quadform import QuadForm

F = Fraction
H = Fraction(1, 2)


class _Criterion:
    def __init__(self, number, budget):
        self.number = number
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number}: {status} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded its {self.budget}s budget"
        return False


def test_criterion_1_two_classes_of_t2_plus_5():
    with _Criterion(1, 1.0):
        members = qf.enumerate_m(0, 5)
        assert sorted(members) == sorted([
            ((0, -5), (1, 0)), ((0, 5), (-1, 0)),
            ((1, -3), (2, -1)), ((1, 3), (-2, -1))])
        classes = qf.gl2_classes(0, 5)
        assert len(classes) == 2
        assert sum(c["sl2_classes"] for c in classes) == 4


def test_criterion_2_t2_plus_20_and_product_table():
    with _Criterion(2, 5.0):
        assert len(qf.enumerate_m(0, 20)) == 12
        assert len(qf.gl2_classes(0, 20)) == 6
        alg, omega = qf.quad_algebra(-5)      # omega = sqrt(-5)
        lam1 = span(alg, [(1, 0), (0, 1)])
        l0 = span(alg, [(2, 0), (-1, 1)])
        lam2 = span(alg, [(1, 0), (0, 2)])
        l2 = span(alg, [(2, 0), (0, 1)])
        l1 = span(alg, [(3, 0), (-1, 2)])
        l3 = span(alg, [(3, 0), (1, 2)])
        # (left, right, unit coefficients in (1, omega), stated lattice)
        table = [
            (lam1, lam1, (1, 0), lam1), (lam1, l0, (1, 0), l0),
            (lam1, lam2, (1, 0), lam1), (lam1, l2, (1, 0), lam1),
            (lam1, l1, (H, H), l0), (lam1, l3, (H, -H), l0),
            (l0, l0, (2, 0), lam1), (l0, lam2, (1, 0), l0),
            (l0, l2, (1, 0), l0), (l0, l1, (1, 1), lam1),
            (l0, l3, (1, -1), lam1),
            (lam2, lam2, (1, 0), lam2), (lam2, l2, (1, 0), l2),
            (lam2, l1, (1, 0), l1), (lam2, l3, (1, 0), l3),
            (l2, l2, (1, 0), lam2),
            (l2, l1, (F(2, 3), -F(1, 3)), l3),
            (l2, l3, (F(2, 3), F(1, 3)), l1),
            (l1, l1, (2, -1), l2), (l1, l3, (3, 0), lam2),
            (l3, l3, (2, 1), l2),
        ]
        for left, right, unit, stated in table:
            assert left * right == stated.scale(alg.element(unit))


def test_criterion_3_t2_minus_7_types():
    with _Criterion(3, 5.0):
        assert len(qf.enumerate_m(0, -7)) == 4
        assert len(qf.enumerate_m(0, -7, wide=True)) == 6
        classes = qf.gl2_classes(0, -7)
        assert len(classes) == 1
        assert classes[0]["sl2_classes"] == 2
        a1, b1, c1 = qf.classify_types(QuadForm(1, 0, -7))
        assert a1 == {QuadForm(2, -2, -3), QuadForm(2, 2, -3), QuadForm(1, 0, -7)}
        assert b1 == {QuadForm(1, 6, 2), QuadForm(2, 6, 1)}
        assert c1 == {QuadForm(1, 4, -3), QuadForm(2, -2, -3),
                      QuadForm(2, 2, -3), QuadForm(1, -4, -3)}
        a2, b2, c2 = qf.classify_types(QuadForm(-1, 0, 7))
        assert a2 == {QuadForm(-2, -2, 3), QuadForm(-2, 2, 3), QuadForm(-1, 0, 7)}
        assert b2 == {QuadForm(3, 8, 3), QuadForm(3, 10, 6), QuadForm(6, 14, 7),
                      QuadForm(7, 14, 6), QuadForm(6, 10, 3)}
        # both sign variants of the (3,4,-1) bend occur, mirroring the
        # (1,+-4,-3) pair of the first class under reflection
        assert c2 == {QuadForm(3, 4, -1), QuadForm(3, -4, -1),
                      QuadForm(3, 2, -2), QuadForm(3, -2, -2)}


CUBIC_TAU_ROWS = {
    "L1": (1, 4, 6, 2, 1, 0, 1),
    "L2": (4, 8, 6, 1, 1, 0, 1),
    "L3": (2, 8, 12, 4, 2, 1, 2),
    "L4": (1, 8, 24, 16, 1, 0, 1),
}

CUBIC_PRODUCTS = {
    "L1": ("L1", "L1", "L1", "L1", "L1", "L1"),
    "L2": ("L1", "L2", "L2", "L1", "L2", "L2"),
    "L3": ("L1", "L2", "L3", "I3", "L3", "L3"),
    "I3": ("L1", "L1", "I3", "L1", "I3", "I3"),
    "L4": ("L1", "L2", "L3", "I3", "L4", "I4"),
    "I4": ("L1", "L2", "L3", "I3", "I4", "L4"),
}

CUBIC_DIVISIONS = {
    "L1": ("L1", "L1", "L1", "L1", "L1", "L1"),
    "L2": ("L1", "L2", "L2", "L1", "L2", "L2"),
    "L3": ("L1", "L1", "L3", "L1", "L3", "L3"),
    "I3": ("L1", "L2", "I3", "L3", "I3", "I3"),
    "L4": ("L1", "L2", "I3", "L3", "L4", "I4"),
    "I4": ("L1", "L2", "I3", "L3", "I4", "L4"),
}

CUBIC_MATRICES = {
    "L1": ((0, 0, -4), (2, 0, -4), (0, 2, -4)),
    "L2": ((0, 0, -4), (1, 0, -2), (0, 4, -4)),
    "L3": ((0, 0, -8), (1, 0, -4), (0, 2, -4)),
    "I3": ((0, 0, -8), (2, 0, -8), (0, 1, -4)),
    "L4": ((0, 0, -16), (1, 0, -8), (0, 1, -4)),
    "I4": ((0, -1, -2), (2, 0, -3), (0, 2, -4)),
}


def test_criterion_4_cubic_fixture():
    with _Criterion(4, 30.0):
        suite = fam.cubic_suite()
        fx = suite["fixture"]
        assert set(suite["orders_found"]) == set(fx.orders.values())
        for name, row in CUBIC_TAU_ROWS.items():
            d = suite["tau"][name]
            assert (d.a, d.b, d.c, d.d, d.mu, d.t, d.tau) == row
        assert [suite["group_sizes"][n] for n in ("L1", "L2", "L3", "L4")] == \
            [1, 1, 1, 2]
        assert fx.l3 * fx.l3 == fx.orders["L1"]
        assert not fx.l3.is_invertible()
        reps = suite["representatives"]
        names = list(fam.CUBIC_NAMES)
        for n1 in names:
            for n2 in names:
                assert reps[n1] * reps[n2] == reps[CUBIC_PRODUCTS[n1][names.index(n2)]]
        for n1 in names:
            for n2 in names:
                expected = reps[CUBIC_DIVISIONS[n1][names.index(n2)]]
                got = reps[n1].colon(reps[n2])
                assert cl.epsilon_equivalent_bounded(got, expected) is True
        f = up.poly([16, 8, 4, 1])
        trans = ((1, 0, 0), (0, 2, 0), (0, 0, 4))   # powers of 2*beta in beta coords
        for name in names:
            m = suite["matrices"][name]
            assert m == CUBIC_MATRICES[name]
            assert cj.analyse(m).regular
            assert up.charpoly(m) == f
            lat_f = cj.matrix_to_lattice(m)
            cols = [xn.mat_vec(xn.mat_fractions(trans), g)
                    for g in lat_f.generators()]
            transported = FullLattice(fx.algebra, cols)
            assert cl.epsilon_equivalent_bounded(transported, reps[name]) is True


SPLIT_ORDER_DATA = {
    "O110": (8, (1, 1, 1), 1, 1, 1), "O120": (8, (1, 2, 2), 1, 1, 1),
    "O210": (8, (2, 1, 2), 1, 1, 1), "O211": (8, (2, 2, 1), 1, 1, 1),
    "O220": (8, (2, 2, 2), 1, 1, 1), "O411": (4, (4, 4, 1), 4, 2, 1),
    "O422": (4, (4, 4, 2), 4, 2, 1), "O822": (2, (8, 8, 4), 32, 8, 1),
}

SPLIT_TAU_ROWS = {
    "O110": ((0, 1, 1, 0), 1, 0, 1), "O120": ((0, 2, 1, 0), 1, 0, 1),
    "O210": ((0, 1, 2, 0), 1, 0, 1), "O211": ((0, -1, 2, 0), 1, 0, 1),
    "O220": ((0, 2, 2, 0), 2, 1, 2), "O411": ((0, -1, 4, 0), 1, 0, 1),
    "O422": ((0, -2, 4, 0), 2, 1, 2), "O822": ((1, 6, 8, 0), 1, 0, 1),
}

SPLIT_PARAMS = {
    "O110": (1, 1, 0), "O120": (1, 2, 0), "O210": (2, 1, 0), "O211": (2, 1, 1),
    "O220": (2, 2, 0), "O411": (4, 1, 1), "O422": (4, 2, 2), "O822": (8, 2, -2),
}

SPLIT_NORMAL_MATRICES = {
    "O110": ((-2, 0, 0), (0, 2, 0), (0, 0, 0)),
    "O120": ((-2, 0, 0), (0, 2, 1), (0, 0, 0)),
    "O210": ((-2, 0, -1), (0, 2, 0), (0, 0, 0)),
    "O211": ((-2, -2, 0), (0, 2, 0), (0, 0, 0)),
    "O220": ((-2, 0, -1), (0, 2, 1), (0, 0, 0)),
    "L1": ((-2, -2, -1), (0, 2, 0), (0, 0, 0)),
    "O411": ((-2, -1, 0), (0, 2, 0), (0, 0, 0)),
    "O422": ((-2, -2, -1), (0, 2, 1), (0, 0, 0)),
    "L2": ((-2, -1, -1), (0, 2, 0), (0, 0, 0)),
    "O822": ((-2, -1, -1), (0, 2, 1), (0, 0, 0)),
}

# upper triangle of the product table; False marks up-to-unit-class entries
SPLIT_PRODUCTS = {
    ("O110", "O110"): ("O110", True), ("O110", "O120"): ("O110", True),
    ("O110", "O210"): ("O110", True), ("O110", "O211"): ("O110", True),
    ("O110", "O220"): ("O110", True), ("O110", "L1"): ("O110", False),
    ("O110", "O411"): ("O110", True), ("O110", "O422"): ("O110", True),
    ("O110", "L2"): ("O110", True), ("O110", "O822"): ("O110", True),
    ("O120", "O120"): ("O120", True), ("O120", "O210"): ("O110", True),
    ("O120", "O211"): ("O110", True), ("O120", "O220"): ("O120", True),
    ("O120", "L1"): ("O110", False), ("O120", "O411"): ("O110", True),
    ("O120", "O422"): ("O120", True), ("O120", "L2"): ("O110", True),
    ("O120", "O822"): ("O120", True),
    ("O210", "O210"): ("O210", True), ("O210", "O211"): ("O110", True),
    ("O210", "O220"): ("O210", True), ("O210", "L1"): ("O110", False),
    ("O210", "O411"): ("O110", True), ("O210", "O422"): ("O210", True),
    ("O210", "L2"): ("O110", True), ("O210", "O822"): ("O210", True),
    ("O211", "O211"): ("O211", True), ("O211", "O220"): ("O211", True),
    ("O211", "L1"): ("O110", False), ("O211", "O411"): ("O211", True),
    ("O211", "O422"): ("O211", True), ("O211", "L2"): ("O211", True),
    ("O211", "O822"): ("O211", True),
    ("O220", "O220"): ("O220", True), ("O220", "L1"): ("L1", True),
    ("O220", "O411"): ("O211", True), ("O220", "O422"): ("O220", True),
    ("O220", "L2"): ("O211", True), ("O220", "O822"): ("O220", True),
    ("L1", "L1"): ("O110", False), ("L1", "O411"): ("O110", False),
    ("L1", "O422"): ("L1", True), ("L1", "L2"): ("O110", False),
    ("L1", "O822"): ("L1", True),
    ("O411", "O411"): ("O411", True), ("O411", "O422"): ("O411", True),
    ("O411", "L2"): ("O211", True), ("O411", "O822"): ("O411", True),
    ("O422", "O422"): ("O422", True), ("O422", "L2"): ("L2", True),
    ("O422", "O822"): ("O422", True),
    ("L2", "L2"): ("O211", True), ("L2", "O822"): ("L2", True),
    ("O822", "O822"): ("O822", True),
}


def test_criterion_5_split_2_0_m2_tables():
    with _Criterion(5, 30.0):
        classes = fam.split3_enumerate_classes(fam.SPLIT_FIXTURE_LAMS)
        assert len(classes) == 10
        by_name = {fam.SPLIT_NAME_BY_TRIPLE[tuple(r["triple"])]: r
                   for r in classes}
        for name, (units, betas, nb, ns, gsize) in SPLIT_ORDER_DATA.items():
            p = fam.SplitOrderParams(*SPLIT_PARAMS[name])
            order = fam.split3_order_lattice(p)
            assert fam.split_unit_size(order) == units
            bs, cond = fam.split3_conductor(p)
            assert bs == betas
            got_nb = 1
            for b in bs:
                got_nb *= sum(1 for k in range(1, b + 1) if gcd(k, b) == 1)
            assert got_nb == nb
            got_ns = cl.quotient_units(cl.finite_quotient(order, cond))
            assert got_ns == ns
            assert fam.split3_group_size(p) == gsize
        for name, (abcd, mu, t, tau) in SPLIT_TAU_ROWS.items():
            d = fam.split3_tau(fam.SplitOrderParams(*SPLIT_PARAMS[name]))
            assert (d.a, d.b, d.c, d.d) == abcd
            assert (d.mu, d.t, d.tau) == (mu, t, tau)
        for name, matrix in SPLIT_NORMAL_MATRICES.items():
            assert by_name[name]["matrix"] == matrix
        # the product table multiplies the orders and the two customary lattices
        lattices = fam.split202m2_representatives()
        for (n1, n2), (label, exact) in SPLIT_PRODUCTS.items():
            prod = lattices[n1] * lattices[n2]
            if exact:
                assert prod == lattices[label], (n1, n2)
            else:
                assert fam.split3_normalize(prod) == \
                    tuple(by_name[label]["triple"]), (n1, n2)


def test_criterion_6_duality_suite():
    with _Criterion(6, 60.0):
        rng = Random(600)
        samples = 0
        while samples < 200:
            dim = rng.choice((2, 3, 4))
            coeffs = rng.choice(POLY_POOL[dim])
            alg, _ = algebra_for(coeffs)
            phi = canonical_metric(alg)
            l1 = random_lattice(rng, alg)
            l2 = random_lattice(rng, alg)
            samples += 1
            d1 = l1.dual(phi)
            d2 = l2.dual(phi)
            assert d1.dual(phi) == l1                          # involution
            assert (l1 + l2).dual(phi) == d1 & d2
            assert (l1 & l2).dual(phi) == d1 + d2
            assert (l1 * l2).dual(phi) == d1.colon(l2)
            assert d1.order() == l1.order()
            assert l1 * d1 == l1.order().dual(phi)
            assert l1.colon_dual(l2, phi) == l1.colon_stacked(l2)


def test_criterion_7_invertibility_suite():
    with _Criterion(7, 120.0):
        rng = Random(700)
        for i in range(500):
            coeffs = POLY_POOL[2][i % len(POLY_POOL[2])]
            alg, _ = algebra_for(coeffs)
            l = random_lattice(rng, alg)
            assert l.is_invertible()
            # the product criterion, which is_invertible skips in rank 2
            o = l.order()
            assert l * o.colon(l) == o
        for dim in (3, 4):
            for i in range(200):
                coeffs = POLY_POOL[dim][i % len(POLY_POOL[dim])]
                alg, _ = algebra_for(coeffs)
                l = random_lattice(rng, alg)
                assert l.power(dim - 1).is_invertible()
        for n in (3, 4, 5):
            alg, a = algebra_for(tuple([0] * n + [1]))
            gens = [alg.unit, a] + [alg.smul(2, elem_power(alg, a, k))
                                    for k in range(2, n)]
            chain = dedekind_chain(span(alg, gens))
            assert len(chain) == n - 1
            assert chain[-1] == span(alg, [elem_power(alg, a, k) for k in range(n)])
            for mid in chain[:-1]:
                assert not mid.is_invertible()
            assert chain[-1].is_invertible()


def _random_split_params(rng):
    while True:
        a1 = rng.randint(1, 4)
        a2 = rng.randint(1, 4)
        a3 = rng.randint(-((a1 - 1) // 2), a1 // 2)
        if (a3 * (a2 - a3)) % a1 == 0:
            return fam.SplitOrderParams(a1, a2, a3)


def _split_exact_ideals(p):
    order = fam.split3_order_lattice(p)
    den1 = gcd(p.a1, p.a2 - p.a3)
    out = []
    for i in range(den1):
        d1 = F(i, den1)
        for j in range(p.a2 // 2 + 1):
            d2 = F(j, p.a2)
            for k in range(p.a1 // 2 + 1):
                d3 = F(k, p.a1)
                if not fam._split_normal_window(d1, d2, d3):
                    continue
                if (p.a3 * d3 - p.a2 * d1 * d2).denominator != 1:
                    continue
                lat = fam.split3_lattice_of_triple(d1, d2, d3)
                if fam.split3_normalize(lat) != (d1, d2, d3):
                    continue   # boundary alias of another window triple
                if lat.order() == order:
                    out.append(lat)
    return out


def test_criterion_8_families_cross_validation():
    with _Criterion(8, 120.0):
        rng = Random(800)
        lam_max = fam.split3_order_lattice(fam.SplitOrderParams(1, 1, 0))
        for _ in range(100):
            p = _random_split_params(rng)
            order = fam.split3_order_lattice(p)
            _, cond = fam.split3_conductor(p)
            if p != fam.SplitOrderParams(1, 1, 0):
                assert cond == cl.conductor(lam_max, order)
            # closed-form tau equals the exhaustive w-classification
            ideals = _split_exact_ideals(p)
            wclasses = []
            for lat in ideals:
                for group in wclasses:
                    if cl.w_equivalent(group[0], lat):
                        group.append(lat)
                        break
                else:
                    wclasses.append([lat])
            assert len(wclasses) == fam.split3_tau(p).tau
            gsize = fam.split3_group_size(p)
            assert all(len(g) == gsize for g in wclasses)
            # normalization is constant on unit classes
            lat = rng.choice(ideals)
            u = fam.SPLIT3.element([F(rng.randint(1, 5), rng.randint(1, 5))
                                    * rng.choice((1, -1)) for _ in range(3)])
            assert fam.split3_normalize(lat.scale(u)) == fam.split3_normalize(lat)

        jalg, ja = fam.jordan_algebra(3)
        from latclass.exactnum import nu_delta
        for i in range(100):
            l = random_lattice(rng, jalg)
            d = fam.jordan_delta(l)
            nu, de = nu_delta(d)
            assert fam.jordan_invertible(l) == l.is_invertible()
            assert fam.jordan_delta(l.order()) == nu * de
            assert fam.jordan_delta(l * l) == nu
            assert (l * l).is_invertible()
            t = fam.jordan_normalize(l)
            u = jalg.element([rng.randint(1, 5), rng.randint(-3, 3),
                              rng.randint(-3, 3)])
            assert fam.jordan_normalize(l.scale(u)) == t
            if i < 20:
                n2 = rng.randint(1, 3)
                n3 = rng.randint(1, 6)
                n4 = rng.randint(0, n2 - 1)
                recs = fam.jordan_enumerate(n2, n3, n4)
                order = span(jalg, [(1, 0, 0),
                                    (0, F(1, n2), F(n4, n2**3 * n3)),
                                    (0, 0, F(1, n2 * n2 * n3))])
                assert order.is_order()
                assert len(recs) == cl.faddeev_tau(order).tau if n3 > 1 else True
                assert len(recs) == 2 ** len(xn.prime_divisors(n3)) if n3 > 1 \
                    else len(recs) == 1
                for rec in recs:
                    assert rec["lattice"].order() == order
                    assert fam.jordan_delta(rec["lattice"]) == F(rec["n1"], rec["d1"])

        for i in range(100):
            l = random_lattice(rng, fam.MIXED)
            t = fam.mixed_normalize(l)
            assert fam.mixed_invertible(*t) == l.is_invertible()   # 11.2(a)
            assert (l * l).is_invertible()                          # 11.2(c)
            q = fam.MIXED.element([F(rng.randint(1, 5), rng.randint(1, 5))
                                   * rng.choice((1, -1)),
                                   F(rng.randint(1, 5), rng.randint(1, 5))
                                   * rng.choice((1, -1)),
                                   F(rng.randint(-4, 4), rng.randint(1, 4))])
            assert fam.mixed_normalize(l.scale(q)) == t
            if i < 25:
                # closed-form order parameters match the generic order
                p = fam.mixed_order_of_triple(*t)
                assert fam.mixed_order_lattice(p) == l.order()
                mu, tt, tau = fam.mixed_tau(p)
                mu1, mu2 = fam.mixed_mu_pair(p, *t)
                assert mu == mu1 * mu2 and gcd(mu1, mu2) == 1      # 11.2(b)


def test_criterion_9_round_trip_conjugacy():
    with _Criterion(9, 120.0):
        rng = Random(900)
        done = 0
        while done < 200:
            n = rng.choice((2, 3))
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            cp = up.charpoly(m)
            if any(c.denominator != 1 for c in cp) or not cj.analyse(m).regular:
                continue
            done += 1
            lat = cj.matrix_to_lattice(m)
            back = cj.lattice_to_matrix(lat)
            assert up.charpoly(back) == cp
            # each order read off the matrix's own powers
            assert cj.matrix_to_lattice(back).order() == lat.order()
            assert cj.centralizer_order(lat.algebra, cj.analyse(back).powers) == lat.order()
            u = random_unimodular(n, rng)
            conj = xn.mat_mul(xn.mat_mul(xn.unimodular_inverse(u), m), u)
            assert up.charpoly(conj) == cp
            assert cj.matrix_to_lattice(conj).order() == lat.order()
            assert cj.centralizer_order(lat.algebra, cj.analyse(conj).powers) == lat.order()
            if done % 4 == 0 and \
                    fam.spectrum_family(cp).tag in fam.INVARIANTS:
                assert cj.same_class(m, conj) is True
        # distinct known classes answer False
        assert cj.same_class(((0, -5), (1, 0)), ((1, -3), (2, -1))) is False
        assert cj.same_class(((0, 4, 0), (1, 0, 0), (0, 0, 0)),
                             ((2, 2, 0), (0, -2, 0), (0, 0, 0))) is False
        assert cj.same_class(((0, 1, 0), (0, 0, 4), (0, 0, 0)),
                             ((0, 2, 0), (0, 0, 2), (0, 0, 0))) is False

