from fractions import Fraction
from itertools import product as iproduct
from math import prod
from random import Random

import pytest

from _helpers import POLY_POOL, algebra_for, random_cyclic_order, random_lattice
from latclass import classes as cl
from latclass import exactnum as xn
from latclass import families as fam
from latclass import quadform as qf
from latclass.algebra import decompose, mixed_algebra, split_algebra
from latclass.errors import DomainError, ResourceError
from latclass.lattice import FullLattice, span


def beta_setup():
    alg, beta = algebra_for((2, 2, 2, 1))
    lam1 = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    lam2 = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 1)])
    lam3 = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 2)])
    lam4 = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 4)])
    l3 = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])
    return alg, beta, lam1, lam2, lam3, lam4, l3


def test_w_equivalence_examples():
    alg, beta, lam1, lam2, lam3, lam4, l3 = beta_setup()
    u = alg.add(alg.unit, beta)              # beta + 1 is a unit
    assert cl.w_equivalent(lam1, lam1.scale(u))
    assert not cl.w_equivalent(lam3, l3)
    # two invertible lattices with the same order are w-equivalent
    assert cl.w_equivalent(lam4, lam4.scale(Fraction(3, 7)))


def test_w_equivalence_is_equivalence_and_respects_products():
    rng = Random(50)
    alg, _ = algebra_for((16, 8, 4, 1))
    lats = [random_lattice(rng, alg) for _ in range(6)]
    for a in lats:
        assert cl.w_equivalent(a, a)
    for a in lats:
        for b in lats:
            assert cl.w_equivalent(a, b) == cl.w_equivalent(b, a)
    # compatibility with multiplication on unit multiples
    for a in lats[:3]:
        for b in lats[:3]:
            a2 = a.scale(Fraction(2, 3))
            b2 = b.scale(Fraction(5, 2))
            assert cl.w_equivalent(a * b, a2 * b2)


def test_transporter_is_the_unique_w_witness():
    rng = Random(51)
    alg, _ = algebra_for((5, 0, 1))
    for _ in range(10):
        l1 = random_lattice(rng, alg)
        l2 = l1.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        t = l2.colon(l1)
        assert t * l1 == l2


def test_conductor_examples():
    alg, beta, lam1, lam2, lam3, lam4, l3 = beta_setup()
    c2 = cl.conductor(lam1, lam2)
    assert c2 == span(alg, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])
    c4 = cl.conductor(lam1, lam4)
    assert c4 == span(alg, [(4, 0, 0), (0, 4, 0), (0, 0, 4)])
    with pytest.raises(DomainError):
        cl.conductor(lam4, lam1)
    with pytest.raises(DomainError):
        cl.conductor(lam1, lam1)


def test_quotient_units_cubic_fixture():
    alg, beta, lam1, lam2, lam3, lam4, l3 = beta_setup()
    c4 = cl.conductor(lam1, lam4)
    n_big = cl.quotient_units(cl.finite_quotient(lam1, c4))
    n_small = cl.quotient_units(cl.finite_quotient(lam4, c4))
    assert n_big == 32
    assert n_small == 4
    # zero quotient: order over itself
    q = cl.finite_quotient(lam1, lam1)
    assert q.size == 1
    assert cl.quotient_units(q) == 1
    assert cl.quotient_unit_reps(q) == [(0, 0, 0)]


def _units_by_lattice(q):
    """The former unit test, kept as the oracle: x + C is a unit iff 1 lies in
    the lattice x*O + C, built as a FullLattice."""
    alg = q.order.algebra
    return [x for x in q.reps
            if alg.unit in FullLattice(alg, [alg.mul(x, g) for g in q.order.generators()]
                                       + q.ideal.generators())]


def _conductor_quotients():
    """(order, conductor) pairs: the cubic fixture's three conductors with
    Lambda_1 and with the small order, the eight split3 fixture orders with
    their conductors and the maximal order Z^3, and the quadratic orders
    Z + n*Lambda_1 (n <= 12) with n*Lambda_1 and Lambda_1."""
    fx = fam.cubic_fixture()
    for name in ("L2", "L3", "L4"):
        c = cl.conductor(fx.orders["L1"], fx.orders[name])
        yield fx.orders["L1"], c
        yield fx.orders[name], c
    z3 = span(fam.SPLIT3, xn.columns(xn.identity(3)))
    for params in fam.SPLIT_FIXTURE_PARAMS.values():
        p = fam.SplitOrderParams(*params)
        _, c = fam.split3_conductor(p)
        yield fam.split3_order_lattice(p), c
        yield z3, c
    for delta in (-3, 5):
        lam1 = qf.order_lambda_n(delta, 1)
        for n in range(1, 13):
            yield lam1, lam1.scale(n)
            yield qf.order_lambda_n(delta, n), lam1.scale(n)


def test_quotient_units_match_the_lattice_route():
    cases = units = 0
    for order, ideal in _conductor_quotients():
        q = cl.finite_quotient(order, ideal)
        assert len(q.reps) == len(q.coords) == q.size
        for x, z in zip(q.reps, q.coords):
            assert x == xn.mat_vec(order.basis, z)
        got = cl.quotient_unit_reps(q)
        assert got == _units_by_lattice(q) and cl.quotient_units(q) == len(got)
        cases += 1
        units += len(got)
    assert cases == 70 and units > 1000


def _seeded_quotients(rng, count, max_size=48):
    """count finite quotients O/C in dimensions 2 to 5 with 1 < |O/C| <=
    max_size: O a random order (the order of a random lattice, or a random
    Z[x]), C = mO + xO for m in a few small composites and prime powers and
    x a short combination of O's basis, a third of the time times a prime
    dividing m, so that C lies in pO more often."""
    out = []
    while len(out) < count:
        n = rng.choice((2, 3, 4, 5))
        alg, _ = algebra_for(rng.choice(POLY_POOL[n]))
        order = (random_lattice(rng, alg).order() if rng.randrange(2)
                 else random_cyclic_order(rng, alg))
        gens = order.generators()
        m = rng.choice((2, 3, 4, 6, 6, 8, 9, 10, 12, 15))
        coeffs = [rng.randint(-3, 3) for _ in gens]
        x = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n))
        if rng.randrange(3) == 0:
            p = rng.choice([p for p in (2, 3, 5) if m % p == 0])
            x = tuple(p * v for v in x)
        ideal = FullLattice(alg, [tuple(m * v for v in g) for g in gens]
                            + [alg.mul(x, g) for g in gens])
        q = cl.finite_quotient(order, ideal)
        if 1 < q.size <= max_size:
            out.append(q)
    return out


def test_residue_units_match_the_lattice_route_on_seeded_quotients():
    # the count and the representatives read off the residue algebras R_p
    # against the lattice route, on quotients with two primes, with p^2
    # dividing the size and with R_p = O/pO (r_p = n)
    kinds = dict.fromkeys(("two_primes", "p_squared", "r_is_n"), 0)
    dims = set()
    for q in _seeded_quotients(Random(2501), 200):
        got = cl.quotient_unit_reps(q)
        assert got == _units_by_lattice(q) and cl.quotient_units(q) == len(got)
        residues = cl._residue_algebras(q)
        n = q.order.algebra.dim
        dims.add(n)
        kinds["two_primes"] += len(residues) >= 2
        kinds["p_squared"] += any(q.size % (p * p) == 0 for p, _, _ in residues)
        kinds["r_is_n"] += any(len(proj) == n for _, proj, _ in residues)
    assert dims == {2, 3, 4, 5}
    assert kinds["two_primes"] >= 25 and kinds["p_squared"] >= 100 and kinds["r_is_n"] >= 60


def test_quotients_need_an_ideal_of_an_order():
    alg, beta, lam1, lam2, lam3, *_ = beta_setup()
    # lam3 = Z + 2*lam1 is an order inside lam1, but no lam1-ideal
    with pytest.raises(DomainError, match="not an ideal"):
        cl.finite_quotient(lam1, lam3)
    q = cl.finite_quotient(lam1, lam1.scale(2))
    with pytest.raises(DomainError, match="not an ideal"):
        cl.quotient_units(cl.FiniteQuotient(q.order, lam3))
    with pytest.raises(DomainError):            # not contained in the order
        cl.finite_quotient(lam3, lam1)
    with pytest.raises(DomainError):            # not an order
        cl.finite_quotient(lam1.scale(2), lam1.scale(4))
    with pytest.raises(DomainError):            # another algebra
        cl.finite_quotient(lam1, span(split_algebra(3), xn.columns(xn.identity(3))))


def test_quotient_resource_cap():
    alg, beta, lam1, *_ = beta_setup()
    with pytest.raises(ResourceError):
        cl.finite_quotient(lam1, lam1.scale(101), cap=10**6)


def test_class_group_ratio_examples():
    alg, beta, lam1, lam2, lam3, lam4, l3 = beta_setup()
    assert cl.class_group_ratio(lam1, lam4, 4) == 2
    assert cl.class_group_ratio(lam1, lam2, 2) == 1
    assert cl.class_group_ratio(lam1, lam3, 4) == 1


def test_faddeev_tau_cubic_rows():
    alg, beta, lam1, lam2, lam3, lam4, l3 = beta_setup()
    rows = {
        1: (lam1, (1, 4, 6, 2), 1, 0, 1),
        2: (lam2, (4, 8, 6, 1), 1, 0, 1),
        3: (lam3, (2, 8, 12, 4), 2, 1, 2),
        4: (lam4, (1, 8, 24, 16), 1, 0, 1),
    }
    for i, (lam, abcd, mu, t, tau) in rows.items():
        data = cl.faddeev_tau(lam)
        assert (data.a, data.b, data.c, data.d) == abcd, f"row {i}"
        assert (data.mu, data.t, data.tau) == (mu, t, tau), f"row {i}"


def test_faddeev_tau_split_family_row():
    alg = split_algebra(3)
    lam220 = span(alg, [(2, 0, 0), (0, 2, 0), (1, 1, 1)])
    data = cl.faddeev_tau(lam220)
    assert (data.a, data.b, data.c, data.d) == (0, 2, 2, 0)
    assert (data.mu, data.tau) == (2, 2)
    lam822 = span(alg, [(8, 0, 0), (-2, 2, 0), (1, 1, 1)])
    data = cl.faddeev_tau(lam822)
    assert (data.mu, data.t, data.tau) == (1, 0, 1)


def test_faddeev_tau_cyclic_orders_give_tau_1():
    from _helpers import random_cyclic_order
    rng = Random(52)
    for coeffs in ((16, 8, 4, 1), (0, -4, 0, 1), (2, 2, 2, 1)):
        alg, _ = algebra_for(coeffs)
        for _ in range(5):
            lam = random_cyclic_order(rng, alg)
            assert cl.faddeev_tau(lam).tau == 1


def test_faddeev_tau_matches_the_fraction_route():
    """The integer Delone-Faddeev routine against fraction_faddeev, on the
    orders of random lattices and random monogenic orders in the cyclic,
    split and mixed algebras: the same data and basis, or the same error."""
    from _helpers import fraction_faddeev, random_cyclic_order

    def outcome(route, order):
        try:
            return route(order)
        except DomainError as exc:
            return str(exc)

    rng = Random(53)
    algebras = [algebra_for(c)[0] for c in POLY_POOL[3]] + [fam.SPLIT3, fam.MIXED]
    orders = shifted = 0
    for alg in algebras:
        for _ in range(25):
            for order in (random_lattice(rng, alg).order(), random_cyclic_order(rng, alg)):
                got = outcome(cl.faddeev_tau, order)
                assert got == outcome(fraction_faddeev, order), order
                orders += 1
                shifted += order.basis[0][0] != 1 and not isinstance(got, str)
    assert orders >= 300 and shifted > 50


def test_projection_checks():
    # nilpotent rank-3 algebra: every order projects onto Z*1
    alg, a = algebra_for((0, 0, 0, 1))
    dec = decompose(alg)
    lam = span(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 4)])
    assert lam.is_order()
    assert cl.projection_check(lam, dec)
    assert cl.project_lattice_matrix(dec, lam) == ((1,),)
    # mixed algebra: alpha = (3, 2, 2/3); the projection is an order in F
    malg = mixed_algebra()
    mdec = decompose(malg)
    lam_m = span(malg, [(0, 0, 2), (3, 0, Fraction(2, 3)), (1, 1, 0)])
    assert lam_m.is_order()
    assert cl.projection_check(lam_m, mdec)
    assert cl.project_lattice_matrix(mdec, lam_m) == ((3, 1), (0, 1))
    # separable: projection is the identity
    salg = split_algebra(3)
    sdec = decompose(salg)
    lam_s = span(salg, [(2, 0, 0), (0, 2, 0), (1, 1, 1)])
    assert cl.projection_check(lam_s, sdec)
    assert cl.project_lattice_matrix(sdec, lam_s) == lam_s.basis


def test_epsilon_bounded():
    alg, beta, lam1, lam2, lam3, lam4, l3 = beta_setup()
    u = alg.add(alg.unit, beta)
    assert cl.epsilon_equivalent_bounded(lam1, lam1.scale(u)) is True
    assert cl.epsilon_equivalent_bounded(lam1, lam2) is False         # orders differ
    assert cl.epsilon_equivalent_bounded(lam3, l3) is False           # not w-equivalent
    assert cl.epsilon_equivalent_bounded(l3, l3.scale(2)) is True     # scalar multiple


def test_w_respects_multiplication_on_invertible_samples():
    # dim 2: every lattice is invertible; pairs with equal order are
    # w-equivalent, and products of equivalent pairs stay equivalent
    rng = Random(53)
    alg, _ = algebra_for((5, 0, 1))
    pool = [random_lattice(rng, alg) for _ in range(12)]
    by_order = {}
    for l in pool:
        by_order.setdefault(l.order(), []).append(l)
    checked = 0
    for group in by_order.values():
        for i, a1 in enumerate(group):
            for a2 in group[i + 1:]:
                assert cl.w_equivalent(a1, a2)
                for b1 in pool[:3]:
                    assert cl.w_equivalent(a1 * b1, a2 * b1)
                    checked += 1
    assert checked


def test_transporter_on_invertible_pairs():
    rng = Random(54)
    alg, _ = algebra_for((-7, 0, 1))
    pool = [random_lattice(rng, alg) for _ in range(10)]
    by_order = {}
    for l in pool:
        by_order.setdefault(l.order(), []).append(l)
    for group in by_order.values():
        for i, l1 in enumerate(group):
            for l2 in group[i + 1:]:
                t = l2.colon(l1)
                assert t * l1 == l2
                assert t.order() == l1.order()
                assert (l1.colon(l2)) * (l2.colon(l1)) == l1.order()


def _scaled_mults(transporter):
    """The integer matrices k*mult_matrix(g_j) of the transporter's generators."""
    mults = [transporter.algebra.mult_matrix(g) for g in transporter.generators()]
    k = xn.denominator_lcm([x for m in mults for x in m])
    return [[[int(x * k) for x in row] for row in m] for m in mults], k


def _witness_by_det(transporter, source, target, bound=3):
    """The former unit-witness search, kept as an oracle: one Bareiss det of
    the summed integer matrix per candidate."""
    gens = transporter.generators()
    n = len(gens)
    mults, k = _scaled_mults(transporter)
    norm = abs(xn.det(target.basis) / xn.det(source.basis)) * k**n
    if norm.denominator != 1:
        return None
    combos = sorted(iproduct(range(-bound, bound + 1), repeat=n),
                    key=lambda c: (sum(abs(x) for x in c), c))
    for coeffs in combos:
        m = [[sum(c * mj[r][s] for c, mj in zip(coeffs, mults)) for s in range(n)]
             for r in range(n)]
        if abs(xn.det(m)) != norm:
            continue
        u = tuple(sum(Fraction(c) * g[i] for c, g in zip(coeffs, gens))
                  for i in range(n))
        if source.scale(u) == target:
            return u
    return None


def test_norm_form_matches_bareiss_on_every_candidate():
    rng = Random(55)
    for dim, pairs in ((2, 4), (3, 3), (4, 1)):
        for coeffs in POLY_POOL[dim][:3]:
            alg, _ = algebra_for(coeffs)
            for _ in range(pairs):
                t = random_lattice(rng, alg).colon(random_lattice(rng, alg))
                mults, _ = _scaled_mults(t)
                form = cl.norm_form(mults)
                assert all(type(a) is int for a, _ in form)
                points = cl._witness_combos(dim, 3)
                dets = [xn.det([[sum(x * mj[r][s] for x, mj in zip(c, mults))
                                 for s in range(dim)] for r in range(dim)])
                        for c in points]
                assert [sum(a * prod(c[j] for j in js) for a, js in form)
                        for c in points] == dets
                assert list(cl.norm_values(form, points)) == dets


def test_unit_witness_matches_det_route():
    rng = Random(56)
    found = 0
    for coeffs in ((5, 0, 1), (-7, 0, 1), (2, 2, 2, 1), (16, 8, 4, 1)):
        alg, _ = algebra_for(coeffs)
        pool = [random_lattice(rng, alg, denom_max=2) for _ in range(6)]
        for l1 in pool:
            u = tuple(Fraction(rng.randint(-2, 2)) for _ in range(alg.dim))
            if alg.norm(u) == 0:
                continue
            for l2 in pool[:2] + [l1.scale(u)]:
                t = l2.colon(l1)
                w = cl.principal_unit_witness(t, l1, l2)
                assert w == _witness_by_det(t, l1, l2)
                found += w is not None
    assert found >= 10


def test_witness_candidates_are_sorted_once_per_shape():
    # the half box: of each pair c, -c only the one whose first nonzero entry
    # is negative, which comes first of the two in the order of the whole box
    for n, bound in ((2, 1), (3, 3), (4, 2)):
        combos = cl._witness_combos(n, bound)
        assert combos is cl._witness_combos(n, bound)
        whole = sorted(iproduct(range(-bound, bound + 1), repeat=n),
                       key=lambda c: (sum(abs(x) for x in c), c))
        assert list(combos) == [c for c in whole if any(c) and c < tuple(-x for x in c)]
        assert 2 * len(combos) + 1 == len(whole)
