from fractions import Fraction
from itertools import product as iproduct
from math import gcd, prod
from random import Random

import pytest

from _helpers import random_unimodular
from latclass import classes as cl
from latclass import exactnum as xn
from latclass import families as fam
from latclass import poly as up
from latclass.conjugacy import algebra_for_poly, analyse, same_class
from latclass.errors import DomainError, ResourceError
from latclass.lattice import FullLattice, span

F = Fraction
H = Fraction(1, 2)


def test_spectrum_family():
    cases = {
        "t-3": ("linear", ((3, 1),)),
        "t^2+5": ("quadratic", ()),
        "t^2-7": ("quadratic", ()),
        "t^2-4": ("split2", ((-2, 1), (2, 1))),
        "t^2-2t+1": ("jordan2", ((1, 2),)),
        "t^3-4t": ("split3", ((-2, 1), (0, 1), (2, 1))),
        "t^3": ("jordan3", ((0, 3),)),
        "t^3-2t^2": ("mixed", ((0, 2), (2, 1))),
        "t^3+2t^2": ("mixed", ((-2, 1), (0, 2))),
        "t^3+4t^2+8t+16": ("cubic_fixture", ()),
        "t^3-2": (None, ()),
        "t^3-t^2+t-1": (None, ((1, 1),)),
        "t^4+1": (None, ()),
        "t^4": (None, ((0, 4),)),
    }
    for text, (tag, roots) in cases.items():
        assert fam.spectrum_family(up.from_string(text)) == (tag, roots), text
    for coeffs in ((F(3, 2), 1, 1), (1, 0, 2), (1, F(1, 3)), ()):
        with pytest.raises(DomainError):
            fam.spectrum_family(coeffs)


def _spectrum_by_factoring(f) -> fam.Spectrum:
    """The Spectrum read off the rational factorization of f."""
    n = up.degree(f)
    roots = tuple(sorted((int(-g[0]), mult) for g, mult in up.factor_rationals(f)
                         if up.degree(g) == 1))
    mults = tuple(sorted(mult for _, mult in roots))
    if sum(mults) == n:
        tag = fam._ROOT_PATTERNS.get((n, mults))
    elif n == 2:
        tag = "quadratic"
    else:
        tag = "cubic_fixture" if f == fam.CUBIC_POLY else None
    return fam.Spectrum(tag, roots)


def test_spectrum_family_matches_factoring():
    rng = Random(31)
    # irreducible quadratics: t^2 + 5, t^2 - 7, t^2 - t - 1, t^2 + t + 1
    quadratics = [up.poly(c) for c in ((5, 0, 1), (-7, 0, 1), (-1, -1, 1), (1, 1, 1))]
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        f = up.poly([1])
        while up.degree(f) < n:
            room = n - up.degree(f)
            pick = rng.random()
            if pick < 0.15:
                f = up.mul(f, up.poly([0, 1]))                   # a zero root
            elif pick < 0.3 and room >= 2:
                f = up.mul(f, rng.choice(quadratics))
            elif pick < 0.35 and room >= 3:
                f = up.mul(f, fam.CUBIC_POLY)
            else:
                lin = up.poly([-rng.randint(-4, 4), 1])
                for _ in range(min(room, rng.choice((1, 1, 2, 3)))):  # repeated roots
                    f = up.mul(f, lin)
        seen.add(f)
    seen.add(fam.CUBIC_POLY)
    for f in seen:
        assert fam.spectrum_family(f) == _spectrum_by_factoring(f), f
    tags = {fam.spectrum_family(f).tag for f in seen}
    assert tags >= {"linear", "quadratic", "split2", "jordan2", "split3",
                    "jordan3", "mixed", "cubic_fixture", None}


# ---------------------------------------------------------------------------
# split family, n = 3

def test_split3_orders_above_822():
    p = fam.SplitOrderParams(8, 2, -2)
    above = fam.split3_orders_above(p)
    assert {(q.a1, q.a2, q.a3) for q in above} == {
        (1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 1, 1), (2, 2, 0),
        (4, 1, 1), (4, 2, 2), (8, 2, -2)}
    maxp = fam.SplitOrderParams(1, 1, 0)
    assert fam.split3_orders_above(maxp) == [maxp]


def test_split3_order_params_of_cyclic_generator():
    g = fam.SPLIT3.element((-2, 2, 0))
    zg = span(fam.SPLIT3, [fam.SPLIT3.unit, g, fam.SPLIT3.mul(g, g)])
    assert fam.split3_order_params(zg) == fam.SplitOrderParams(8, 2, -2)


def test_split_unit_sizes():
    expected = {
        (1, 1, 0): 8, (1, 2, 0): 8, (2, 1, 0): 8, (2, 1, 1): 8, (2, 2, 0): 8,
        (4, 1, 1): 4, (4, 2, 2): 4, (8, 2, -2): 2}
    for (a1, a2, a3), size in expected.items():
        order = fam.split3_order_lattice(fam.SplitOrderParams(a1, a2, a3))
        assert fam.split_unit_size(order) == size


def test_split3_conductors_and_group_sizes():
    rows = {
        (1, 1, 0): ((1, 1, 1), 1, 1),
        (1, 2, 0): ((1, 2, 2), 1, 1),
        (2, 1, 0): ((2, 1, 2), 1, 1),
        (2, 1, 1): ((2, 2, 1), 1, 1),
        (2, 2, 0): ((2, 2, 2), 1, 1),
        (4, 1, 1): ((4, 4, 1), 2, 1),
        (4, 2, 2): ((4, 4, 2), 2, 1),
        (8, 2, -2): ((8, 8, 4), 8, 1),
    }
    for (a1, a2, a3), (betas, units_small, gsize) in rows.items():
        p = fam.SplitOrderParams(a1, a2, a3)
        bs, cond = fam.split3_conductor(p)
        assert bs == betas
        order = fam.split3_order_lattice(p)
        assert cond == cl.conductor(fam.split3_order_lattice(
            fam.SplitOrderParams(1, 1, 0)), order) if (a1, a2, a3) != (1, 1, 0) \
            else cond == span(fam.SPLIT3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        n_small, _ = cl.quotient_units(cl.finite_quotient(order, cond))
        assert n_small == units_small
        assert fam.split3_group_size(p) == gsize


def test_split3_tau_rows():
    rows = {
        (1, 1, 0): ((0, 1, 1, 0), 1, 0, 1),
        (1, 2, 0): ((0, 2, 1, 0), 1, 0, 1),
        (2, 1, 0): ((0, 1, 2, 0), 1, 0, 1),
        (2, 1, 1): ((0, -1, 2, 0), 1, 0, 1),
        (2, 2, 0): ((0, 2, 2, 0), 2, 1, 2),
        (4, 1, 1): ((0, -1, 4, 0), 1, 0, 1),
        (4, 2, 2): ((0, -2, 4, 0), 2, 1, 2),
        (8, 2, -2): ((1, 6, 8, 0), 1, 0, 1),
    }
    for (a1, a2, a3), (abcd, mu, t, tau) in rows.items():
        data = fam.split3_tau(fam.SplitOrderParams(a1, a2, a3))
        assert (data.a, data.b, data.c, data.d) == abcd
        assert (data.mu, data.t, data.tau) == (mu, t, tau)


SPLIT_CLASS_TRIPLES = {
    (0, 0, 0): "L110",
    (0, H, 0): "L120",
    (0, 0, H): "L210",
    (H, 0, 0): "L211",
    (0, H, H): "L220",
    (H, 0, H): "I1",
    (F(1, 4), 0, 0): "L411",
    (H, H, F(1, 4)): "L422",
    (F(1, 4), 0, H): "I2",
    (F(1, 4), H, F(3, 8)): "L822",
}

SPLIT_CLASS_MATRICES = {
    "L110": ((-2, 0, 0), (0, 2, 0), (0, 0, 0)),
    "L120": ((-2, 0, 0), (0, 2, 1), (0, 0, 0)),
    "L210": ((-2, 0, -1), (0, 2, 0), (0, 0, 0)),
    "L211": ((-2, -2, 0), (0, 2, 0), (0, 0, 0)),
    "L220": ((-2, 0, -1), (0, 2, 1), (0, 0, 0)),
    "I1": ((-2, -2, -1), (0, 2, 0), (0, 0, 0)),
    "L411": ((-2, -1, 0), (0, 2, 0), (0, 0, 0)),
    "L422": ((-2, -2, -1), (0, 2, 1), (0, 0, 0)),
    "I2": ((-2, -1, -1), (0, 2, 0), (0, 0, 0)),
    "L822": ((-2, -1, -1), (0, 2, 1), (0, 0, 0)),
}


def test_split3_enumerate_2_0_minus2():
    classes = fam.split3_enumerate_classes((-2, 2, 0))
    assert len(classes) == 10
    by_triple = {tuple(rec["triple"]): rec for rec in classes}
    assert set(by_triple) == set(SPLIT_CLASS_TRIPLES)
    for triple, name in SPLIT_CLASS_TRIPLES.items():
        assert by_triple[triple]["matrix"] == SPLIT_CLASS_MATRICES[name]


def test_split3_enumerate_budget():
    # eigenvalues (0, 40, 120): 40 * 41 * 2401 = 3,937,640 candidate triples
    with pytest.raises(ResourceError, match="3937640 candidate triples"):
        fam.split3_enumerate_classes((0, 40, 120))
    with pytest.raises(ResourceError):
        fam.split3_enumerate_classes((40, 0, 120))


def test_split3_normalize_matches_fixture_triples():
    # normal forms of the order lattices themselves
    cases = {
        (2, 1, 0): (0, 0, H),
        (4, 1, 1): (F(1, 4), 0, 0),
        (8, 2, -2): (F(1, 4), H, F(3, 8)),
    }
    for params, triple in cases.items():
        order = fam.split3_order_lattice(fam.SplitOrderParams(*params))
        assert fam.split3_normalize(order) == triple
    # the customary bases of the two non-order classes
    l1 = span(fam.SPLIT3, [(1, 0, 0), (H, 1, 0), (1, 1, 1)])
    l2 = span(fam.SPLIT3, [(4, 0, 0), (-1, 1, 0), (1, 1, 1)])
    assert fam.split3_normalize(l1) == (H, 0, H)
    assert fam.split3_normalize(l2) == (F(1, 4), 0, H)


def test_split3_normalize_is_unit_invariant():
    rng = Random(60)
    from _helpers import random_lattice
    for _ in range(40):
        l = random_lattice(rng, fam.SPLIT3)
        t = fam.split3_normalize(l)
        u = fam.SPLIT3.element([F(rng.randint(1, 9), rng.randint(1, 9))
                                * rng.choice((1, -1)) for _ in range(3)])
        assert fam.split3_normalize(l.scale(u)) == t
        assert fam.split3_normalize(fam.split3_lattice_of_triple(*t)) == t


def test_split3_normal_form_of_matrix_separates_the_six():
    # the six hand-picked matrices realize pairwise distinct classes
    ms = [
        ((2, 0, 0), (0, 0, 0), (0, 0, -2)),
        ((0, 0, 0), (1, 2, 0), (0, 0, -2)),
        ((0, 0, 0), (1, -2, 0), (0, 0, 2)),
        ((0, 4, 0), (1, 0, 0), (0, 0, 0)),
        ((2, 2, 0), (0, -2, 0), (0, 0, 0)),
        ((0, 0, 0), (1, 0, 4), (0, 1, 0)),
    ]
    forms = [analyse(m).invariant for m in ms]
    assert len(set(forms)) == 6


def test_split2():
    assert [rec["matrix"] for rec in fam.split2_enumerate(4)] == [
        ((4, 0), (0, 0)), ((4, 1), (0, 0)), ((4, 2), (0, 0))]
    assert fam.split2_enumerate(4)[2]["order_alpha"] == 2
    # order of L_delta with delta = 1/3 has alpha = 3
    l = span(fam.SPLIT2, [(1, 0), (F(1, 3), 1)])
    assert fam.split2_order_params(l.order()) == 3
    m = ((2, 2), (0, -2))
    assert analyse(m).invariant == (-2, 2, 2)
    m2 = ((0, 4), (1, 0))
    assert analyse(m2).invariant == (-2, 2, 1)
    # a known conjugate pair: [[2,1],[0,-2]] and [[0,4],[1,0]]
    assert analyse(((2, 1), (0, -2))).invariant == \
        analyse(((0, 4), (1, 0))).invariant


# ---------------------------------------------------------------------------
# jordan family

def test_jordan_delta_and_normalize():
    alg, a = fam.jordan_algebra(3)
    lam = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert fam.jordan_delta(lam) == 1
    order = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, F(1, 6))])
    assert fam.jordan_delta(order) == 6
    assert fam.jordan_invertible(order)
    l = span(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])   # <1, a, 2a^2>
    assert fam.jordan_delta(l) == F(1, 2)
    assert not fam.jordan_invertible(l)
    g22, g32, g33 = fam.jordan_normalize(l)
    assert (g22, g32, g33) == (1, 0, 2)


def test_jordan_delta_identities():
    rng = Random(61)
    from _helpers import random_lattice
    alg, _ = fam.jordan_algebra(3)
    from latclass.exactnum import nu_delta
    for _ in range(40):
        l = random_lattice(rng, alg)
        d = fam.jordan_delta(l)
        nu, de = nu_delta(d)
        assert fam.jordan_delta(l.order()) == nu * de
        assert fam.jordan_delta(l * l) == nu
        assert fam.jordan_invertible(l) == l.is_invertible()
        u = alg.element([rng.randint(1, 5), rng.randint(-3, 3), rng.randint(-3, 3)])
        assert fam.jordan_delta(l.scale(u)) == d


def test_jordan_orders_and_enumeration():
    alg, a = fam.jordan_algebra(3)
    order = span(alg, [(1, 0, 0), (0, F(1, 2), F(1, 16)), (0, 0, F(1, 24))])
    # alpha32 = 1/16 reduces modulo alpha33 = 1/24 to 1/48, so n4 = 1
    n2, n3, n4 = fam.jordan_order_params(order)
    assert (n2, n3, n4) == (2, 6, 1)
    assert fam.jordan_delta(order) == 6
    classes = fam.jordan_enumerate(n2, n3, n4)
    assert len(classes) == 4            # coprime splits of 6: 1*6, 2*3, 3*2, 6*1
    deltas = {F(rec["n1"], rec["d1"]) for rec in classes}
    assert deltas == {F(1, 6), F(2, 3), F(3, 2), F(6, 1)}


def test_jordan_decode():
    assert fam.jordan_decode(4, 6, 1) == (2, 6, 1, 2, 3)
    m = ((0, 4, -1), (0, 0, 6), (0, 0, 0))
    n2, n3, n4, n1, d1 = fam.jordan_decode(4, 6, 1)
    rec = next(r for r in fam.jordan_enumerate(n2, n3, n4)
               if (r["n1"], r["d1"]) == (n1, d1))
    assert rec["matrix"] == m
    with pytest.raises(DomainError):
        fam.jordan_decode(4, 6, 2)


def test_jordan_normal_form_of_matrix_round_trip():
    rng = Random(62)
    from latclass import exactnum as xn
    for rec in fam.jordan_enumerate(2, 6, 1):
        m = rec["matrix"]
        u = random_unimodular(3, rng)
        conj = xn.mat_mul(xn.mat_mul(xn.unimodular_inverse(u), m), u)
        assert analyse(conj).invariant == analyse(m).invariant
    # distinct classes separate
    forms = {analyse(r["matrix"]).invariant
             for r in fam.jordan_enumerate(2, 6, 1)}
    assert len(forms) == 4


def test_jordan2():
    assert analyse(((3, 4), (-1, 7))).invariant == (5, 1)
    assert analyse(((0, 6), (0, 0))).invariant == (0, 6)
    assert analyse(((2, 4), (-1, 6))).invariant == (4, 1)


# ---------------------------------------------------------------------------
# mixed family

def test_mixed_order_params_round_trip():
    p = fam.MixedOrderParams(3, F(2), F(4, 3))
    order = fam.mixed_order_lattice(p)
    assert order.is_order()
    assert fam.mixed_order_params(order) == p
    # Lambda_alpha itself has containment triple (1, 1, 1)
    alpha = 4
    lam_a = fam.mixed_order_lattice(fam.MixedOrderParams(alpha, F(alpha), F(1)))
    assert lam_a.is_order()
    assert fam.mixed_containment_triple(
        fam.mixed_order_params(lam_a), alpha) == (1, 1, 1)


def test_mixed_normalize_invariance():
    rng = Random(63)
    from _helpers import random_lattice
    for _ in range(30):
        l = random_lattice(rng, fam.MIXED)
        t = fam.mixed_normalize(l)
        q1 = F(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice((1, -1))
        q2 = F(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice((1, -1))
        q3 = F(rng.randint(-5, 5), rng.randint(1, 5))
        u = fam.MIXED.element((q1, q2, q3))
        assert fam.mixed_normalize(l.scale(u)) == t
        assert fam.mixed_normalize(fam.mixed_lattice_of_triple(*t)) == t


def _a_line_content_oracle(l):
    """Content of the intersection with the radical line Q a."""
    b = l.basis
    kernel = xn.nullspace((b[0], b[1]))
    assert len(kernel) == 1
    c = kernel[0]
    den = xn.denominator_lcm([c])
    ints = [int(x * den) for x in c]
    g = gcd(*ints)
    val = sum(Fraction(x // g) * b[2][i] for i, x in enumerate(ints))
    return abs(val)


def _integer_preimage_oracle(p_rows, target):
    """An integer solution c of P c = target, read off the Smith form of P."""
    den = xn.denominator_lcm([*p_rows, target])
    pm = [[int(Fraction(x) * den) for x in row] for row in p_rows]
    tv = [int(Fraction(x) * den) for x in target]
    u, s, v = xn.snf(pm)
    ut = xn.mat_vec(u, tv)
    y = [Fraction(0)] * len(pm[0])
    for i in range(min(len(pm), len(pm[0]))):
        if s[i][i]:
            y[i] = Fraction(ut[i], s[i][i])
        else:
            assert ut[i] == 0
    c = xn.mat_vec(xn.mat_fractions(v), y)
    assert all(x.denominator == 1 for x in c)
    return tuple(int(x) for x in c)


def _mixed_shaped_triple_oracle(l):
    """(d1, d2, d3) of a basis (d2*a, e1 + d3*a, d1*e1 + e2) by unit scalings:
    normalise the projection to (e1, e2), kill the a-part of the vector over
    (d1, 1), then read d2 off the radical line and d3 off the vector over
    (1, 0)."""
    alg = l.algebra
    b = l.basis
    d = xn.denominator_lcm(b[:2])
    pr = xn.hnf([[int(x * d) for x in row] for row in b[:2]])
    p11, p12, p22 = Fraction(pr[0][0], d), Fraction(pr[0][1], d), Fraction(pr[1][1], d)
    l2 = l.scale(alg.element((1 / p11, 1 / p22, 0)))
    d1 = (p12 / p11) % 1
    b2 = l2.basis
    c = _integer_preimage_oracle((b2[0], b2[1]), (d1, 1))
    v3 = xn.mat_vec(b2, xn.mat_fractions((c,))[0])
    l3 = l2.scale(alg.element((1, 1, -v3[2])))
    d2 = _a_line_content_oracle(l3)
    b3 = l3.basis
    c = _integer_preimage_oracle((b3[0], b3[1]), (1, 0))
    v2 = xn.mat_vec(b3, xn.mat_fractions((c,))[0])
    return d1, d2, v2[2] % d2


def _mixed_normalize_oracle(l):
    cands = set()
    for signs in ((1, 1, 0), (1, -1, 0)):
        d1, d2, d3 = _mixed_shaped_triple_oracle(l.scale(fam.MIXED.element(signs)))
        for shifted in (d3, d3 - d2):
            if fam._mixed_normal_window(d1, shifted / d2):
                cands.add((d1, d2, shifted))
    return min(cands)


def test_mixed_normalize_matches_oracle():
    rng = Random(64)
    from _helpers import random_lattice
    for _ in range(300):
        l = random_lattice(rng, fam.MIXED)
        signs = fam.MIXED.element((rng.choice((1, -1)) * rng.randint(1, 3),
                                   rng.choice((1, -1)) * rng.randint(1, 3), 0))
        l = l.scale(signs)
        assert fam._mixed_shaped_triple(l) == _mixed_shaped_triple_oracle(l)
        assert fam.mixed_normalize(l) == _mixed_normalize_oracle(l)


def test_mixed_sign_unit_acts_on_the_shaped_triple():
    # mixed_normalize reads one shaped triple and applies this map
    rng = Random(65)
    from _helpers import random_lattice
    flip = fam.MIXED.element((1, -1, 0))
    for _ in range(300):
        l = random_lattice(rng, fam.MIXED).scale(fam.MIXED.element(
            (F(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice((1, -1)),
             F(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice((1, -1)),
             F(rng.randint(-5, 5), rng.randint(1, 5)))))
        d1, d2, d3 = fam._mixed_shaped_triple(l)
        assert fam._mixed_shaped_triple(l.scale(flip)) == ((-d1) % 1, d2, (-d3) % d2)


def test_mixed_invertibility_criterion():
    assert not fam.mixed_invertible(F(1, 2), F(1), F(1, 4))
    assert fam.mixed_invertible(F(1, 2), F(1), F(1, 2))
    assert fam.mixed_invertible(F(0), F(3), F(0))
    rng = Random(64)
    from _helpers import random_lattice
    for _ in range(25):
        l = random_lattice(rng, fam.MIXED)
        t = fam.mixed_normalize(l)
        assert fam.mixed_invertible(*t) == l.is_invertible()
        assert (l * l).is_invertible()


def test_mixed_tau_and_matrix():
    p = fam.MixedOrderParams(4, F(2), F(1))   # n3 = a3*a1/a2 = 2
    mu, t, tau = fam.mixed_tau(p)
    assert (mu, t, tau) == (2, 1, 2)
    m = fam.mixed_matrix(F(0), F(1, 2), F(0), 4)
    assert m == ((0, 0, 2), (0, 4, 0), (0, 0, 0))
    with pytest.raises(DomainError):     # the entry alpha*d1 = 4/3 is not integral
        fam.mixed_matrix(F(1, 3), F(1, 2), F(0), 4)
    from latclass.poly import charpoly, poly
    assert charpoly(m) == poly([0, 0, -4, 1])   # t^2 (t - 4)


def test_mixed_enumerate_and_w_classification():
    recs = fam.mixed_enumerate(2, max_n2=2)
    assert recs
    for rec in recs:
        lat = fam.mixed_lattice_of_triple(*rec["triple"])
        assert fam.mixed_normalize(lat) == tuple(rec["triple"])
        from latclass.poly import charpoly
        cp = charpoly(rec["matrix"])
        assert cp == (F(0), F(0), F(-2), F(1))   # t^3 - 2 t^2 = t^2 (t-2)
    # 4 * 1001 * 2000 candidate triples, and a limit of a million n2 values
    with pytest.raises(ResourceError):
        fam.mixed_enumerate(2000, max_n2=4)
    with pytest.raises(ResourceError):
        fam.mixed_enumerate(2, max_n2=10**6)


def test_mixed_normal_form_of_matrix():
    m = fam.mixed_matrix(F(0), F(1, 2), F(0), 4)
    lams, triple = analyse(m).invariant
    assert lams == (0, 4)
    assert triple == (0, F(1, 2), 0)
    rng = Random(65)
    from latclass import exactnum as xn
    u = random_unimodular(3, rng)
    conj = xn.mat_mul(xn.mat_mul(xn.unimodular_inverse(u), m), u)
    assert analyse(conj).invariant == (lams, triple)


# ---------------------------------------------------------------------------
# flat3 family

def test_flat3_all_invertible_and_order_reps():
    rng = Random(66)
    from _helpers import random_lattice
    for _ in range(20):
        l = random_lattice(rng, fam.FLAT3)
        assert l.is_invertible()
        rep = fam.flat3_epsilon_rep(l)
        assert rep.is_order()
        # the representative is unit-equivalent to l
        assert cl.epsilon_equivalent_bounded(l, rep) is True
    # semigroup iso onto radical lattices: K(L1*L2) = K(L1) + K(L2)
    for _ in range(10):
        l1 = random_lattice(rng, fam.FLAT3)
        l2 = random_lattice(rng, fam.FLAT3)
        r1 = fam.flat3_epsilon_rep(l1)
        r2 = fam.flat3_epsilon_rep(l2)
        r12 = fam.flat3_epsilon_rep(l1 * l2)
        from latclass import exactnum as xn
        k1 = fam.flat3_radical_part(r1)
        k2 = fam.flat3_radical_part(r2)
        k12 = fam.flat3_radical_part(r12)
        d = xn.denominator_lcm(k1 + k2)
        summed = xn.hnf([[int(x * d) for x in row1 + row2]
                         for row1, row2 in zip(k1, k2)])
        summed = tuple(tuple(F(x, d) for x in row) for row in summed)
        assert summed == xn.mat_fractions(k12)


# ---------------------------------------------------------------------------
# the cubic fixture

def test_cubic_suite_full():
    suite = fam.cubic_suite()
    fx = suite["fixture"]
    # exactly the four orders lie between the smallest and the maximal
    assert {o for o in suite["orders_found"]} == set(fx.orders.values())
    # the multiplication-data rows, exactly
    expected = {
        "L1": (1, 4, 6, 2, 1, 0, 1),
        "L2": (4, 8, 6, 1, 1, 0, 1),
        "L3": (2, 8, 12, 4, 2, 1, 2),
        "L4": (1, 8, 24, 16, 1, 0, 1),
    }
    for name, row in expected.items():
        d = suite["tau"][name]
        assert (d.a, d.b, d.c, d.d, d.mu, d.t, d.tau) == row
    assert suite["unit_indices"] == {"L1": 1, "L2": 2, "L3": 4, "L4": 4}
    assert suite["quotient_units"]["L4"] == (32, 4)
    assert suite["quotient_units"]["L2"] == (2, 1)
    assert suite["quotient_units"]["L3"] == (4, 1)
    assert suite["group_sizes"] == {"L1": 1, "L2": 1, "L3": 1, "L4": 2}
    # L3 and L4 behaviour
    alg = fx.algebra
    assert fx.l3 * fx.l3 == fx.orders["L1"]
    assert not fx.l3.is_invertible()
    assert fx.l3.order() == fx.orders["L3"]
    assert fx.l4 == span(alg, [(2, 0, 0), (0, 2, 0), (1, 0, 2)])
    assert fx.l4.is_invertible()
    assert fx.l4.order() == fx.orders["L4"]
    assert cl.epsilon_equivalent_bounded(fx.l4, fx.orders["L4"]) is not True
    assert cl.w_equivalent(fx.l4, fx.orders["L4"])
    # the six matrices
    assert suite["matrices"] == {
        "L1": ((0, 0, -4), (2, 0, -4), (0, 2, -4)),
        "L2": ((0, 0, -4), (1, 0, -2), (0, 4, -4)),
        "L3": ((0, 0, -8), (1, 0, -4), (0, 2, -4)),
        "I3": ((0, 0, -8), (2, 0, -8), (0, 1, -4)),
        "L4": ((0, 0, -16), (1, 0, -8), (0, 1, -4)),
        "I4": ((0, -1, -2), (2, 0, -3), (0, 2, -4)),
    }


def test_cubic_conductor_bases():
    suite = fam.cubic_suite()
    fx = suite["fixture"]
    alg = fx.algebra
    assert suite["conductors"]["L2"] == span(alg, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])
    assert suite["conductors"]["L3"] == span(alg, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert suite["conductors"]["L4"] == span(alg, [(4, 0, 0), (0, 4, 0), (0, 0, 4)])


def test_split2_orders_above():
    assert fam.split2_orders_above(4) == [1, 2, 4]
    assert fam.split2_orders_above(1) == [1]


SPLIT_CHOSEN_BASES = [
    # (matrix M_i, basis B_i rows, order params)
    (((2, 0, 0), (0, 0, 0), (0, 0, -2)),
     ((0, 0, 1), (1, 0, 0), (0, 1, 0)), (1, 1, 0)),
    (((0, 0, 0), (1, 2, 0), (0, 0, -2)),
     ((0, 0, 1), (1, 2, 0), (1, 0, 0)), (1, 2, 0)),
    (((0, 0, 0), (1, -2, 0), (0, 0, 2)),
     ((1, -2, 0), (0, 0, 1), (1, 0, 0)), (2, 1, 0)),
    (((0, 4, 0), (1, 0, 0), (0, 0, 0)),
     ((1, -2, 0), (1, 2, 0), (0, 0, 1)), (4, 1, 1)),
    (((2, 2, 0), (0, -2, 0), (0, 0, 0)),
     ((0, 1, 0), (2, 1, 0), (0, 0, 1)), (2, 1, 1)),
    (((0, 0, 0), (1, 0, 4), (0, 1, 0)),
     ((1, -2, 4), (1, 2, 4), (1, 0, 0)), (8, 2, -2)),
]


def test_matrices_from_the_chosen_bases():
    from latclass.conjugacy import matrix_for
    g = fam.SPLIT3.element((-2, 2, 0))
    for matrix, basis, params in SPLIT_CHOSEN_BASES:
        order = fam.split3_order_lattice(fam.SplitOrderParams(*params))
        assert span(fam.SPLIT3, [tuple(row[j] for row in basis)
                                 for j in range(3)]) == order
        assert matrix_for(order, g, basis=basis) == matrix


def test_split3_normalize_boundary_alias():
    # the class of (1/3, 1/2, 0) also contains the window triple
    # (1/3, 1/2, 1/3); the lexicographic tie-break picks the first
    la = fam.split3_lattice_of_triple(F(1, 3), H, F(0))
    lb = fam.split3_lattice_of_triple(F(1, 3), H, F(1, 3))
    u = fam.SPLIT3.element((1, 1, -1))
    assert la.scale(u) == lb
    assert fam.split3_normalize(la) == (F(1, 3), H, 0)
    assert fam.split3_normalize(lb) == (F(1, 3), H, 0)
    # enumeration keeps one representative per class
    classes = fam.split3_enumerate_classes((-3, 3, 0))
    triples = [tuple(r["triple"]) for r in classes]
    assert len(triples) == len(set(triples))
    for rec in classes:
        lat = fam.split3_lattice_of_triple(*rec["triple"])
        assert fam.split3_normalize(lat) == tuple(rec["triple"])


# ---------------------------------------------------------------------------
# the two searches of the fixture tables against brute-force oracles

def _orders_between_oracle(small, big):
    """Every order between small and big, from every upper-triangular HNF
    in big's coordinates whose diagonal entries divide [big:small].  A
    candidate whose index det H does not divide [big:small] cannot contain
    small; it is skipped before its lattice is built."""
    n = big.algebra.dim
    total = abs(int(xn.det(xn.mat_mul(xn.rmat_inv(big.basis), small.basis))))
    pos = [(r, c) for r in range(n) for c in range(r + 1, n)]
    out = []
    for diag in iproduct(xn.divisors(total), repeat=n):
        if total % prod(diag):
            continue
        for offs in iproduct(*(range(diag[r]) for r, _ in pos)):
            h = [[diag[r] if r == c else 0 for c in range(n)] for r in range(n)]
            for (r, c), v in zip(pos, offs):
                h[r][c] = v
            m = FullLattice(big.algebra, xn.columns(xn.mat_mul(big.basis, h)))
            if m.contains_lattice(small) and big.contains_lattice(m) \
                    and m.is_order() and m not in out:
                out.append(m)
    return out


def _unit_witness_oracle(transporter, source, target, bound=3):
    """The first unit u, by increasing coefficient sum, of the short
    combinations of the transporter's generators with u*source == target."""
    alg = transporter.algebra
    gens = transporter.generators()
    combos = sorted(iproduct(range(-bound, bound + 1), repeat=len(gens)),
                    key=lambda c: (sum(abs(x) for x in c), c))
    for coeffs in combos:
        if all(c == 0 for c in coeffs):
            continue
        u = tuple(sum(Fraction(c) * g[i] for c, g in zip(coeffs, gens))
                  for i in range(alg.dim))
        if alg.is_unit(u) and source.scale(u) == target:
            return u
    return None


def test_orders_between_matches_oracle():
    fx = fam.cubic_fixture()
    quad, _ = algebra_for_poly(up.from_string("t^2+5"))
    pairs = [
        (fx.orders["L4"], fx.orders["L1"]),
        (span(quad, [(1, 0), (0, 2)]), span(quad, [(1, 0), (0, 1)])),
        (fam.split3_order_lattice(fam.SplitOrderParams(8, 2, -2)),
         fam.split3_order_lattice(fam.SplitOrderParams(1, 1, 0))),
    ]
    for (small, big), count in zip(pairs, (4, 2, 8)):
        found = fam.orders_between(small, big)
        assert len(found) == len(set(found)) == count
        assert set(found) == set(_orders_between_oracle(small, big))
    assert fam.orders_between(*pairs[0]) == [
        fx.orders[name] for name in ("L1", "L2", "L3", "L4")]


def _orders_between_lattice_route(small, big):
    """orders_between as it ran before the key route: one FullLattice per
    candidate H, from the Fraction products big.basis * u^-1 * H, kept when
    it lies between small and big and is an order."""
    n = big.algebra.dim
    u, s, _ = xn.snf(big.int_coords(*small.key))
    to_big = xn.mat_mul(big.basis, xn.unimodular_inverse(u))
    out = []
    for diag in iproduct(*(xn.divisors(s[i][i]) for i in range(n))):
        for offs in iproduct(*(range(diag[r]) for r in range(n)
                               for _ in range(r + 1, n))):
            h = [[0] * n for _ in range(n)]
            rest = iter(offs)
            for r in range(n):
                h[r][r] = diag[r]
                for c in range(r + 1, n):
                    h[r][c] = next(rest)
            m = FullLattice(big.algebra, xn.columns(xn.mat_mul(to_big, h)))
            if m.contains_lattice(small) and big.contains_lattice(m) \
                    and m.is_order() and m not in out:
                out.append(m)
    return out


def test_orders_between_matches_the_lattice_route():
    fx = fam.cubic_fixture()
    z3 = fam.split3_order_lattice(fam.SplitOrderParams(1, 1, 0))
    pairs = [(fx.orders["L4"], fx.orders["L1"])]
    pairs += [(fam.split3_order_lattice(fam.SplitOrderParams(*params)), z3)
              for params in fam.SPLIT_FIXTURE_PARAMS.values()]
    counts = []
    for small, big in pairs:
        found = fam.orders_between(small, big)
        assert found == _orders_between_lattice_route(small, big)
        counts.append(len(found))
    assert counts == [4, 1, 2, 2, 2, 5, 3, 7, 8]


def test_witness_containment_matches_scaling(monkeypatch):
    # every search of both tables and of seeded same3 pairs: each candidate
    # of the right norm is accepted exactly when source.scale(u) == target.
    # In the transporter target : source every such candidate is a witness,
    # so each search runs again in the wider T + O(target), where some are not
    searches = []
    search = cl.principal_unit_witness

    def record(transporter, source, target, bound=3):
        searches.append((transporter, source, target, bound))
        return search(transporter, source, target, bound)

    monkeypatch.setattr(cl, "principal_unit_witness", record)
    fam.cubic_tables()
    fam.split202m2_tables()
    tables = len(searches)
    rng = Random(1602)
    pairs = 0
    while pairs < 10:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        a = analyse(m)
        if not a.regular or a.invariant is not None:
            continue
        u = random_unimodular(3, rng)
        same_class(m, xn.mat_mul(xn.mat_mul(u, m), xn.unimodular_inverse(u)))
        same_class(m, xn.transpose(m))
        pairs += 1
    accepted = rejected = 0
    for t, source, target, bound in searches:
        for transporter in (t, t + target.order()):
            gens = transporter.generators()
            for coeffs, lands in cl._norm_matches(transporter, source, target, bound):
                u = tuple(sum(Fraction(c) * g[i] for c, g in zip(coeffs, gens))
                          for i in range(len(gens)))
                assert lands == (source.scale(u) == target)
                accepted += lands
                rejected += not lands
    assert tables > 0 and len(searches) > tables
    assert accepted > 0 and rejected > 0


def test_orders_between_budget():
    big = fam.cubic_fixture().orders["L1"]
    with pytest.raises(ResourceError):
        fam.orders_between(big.scale(10**4), big)
    with pytest.raises(DomainError):
        fam.orders_between(big, big.scale(2))


def test_unit_witness_matches_oracle():
    # every (colon result, representative) pair the division table compares;
    # the default bound on the pairs epsilon_equivalent_bounded searches
    reps = fam.cubic_suite()["representatives"]
    quotients = {reps[a].colon(reps[b]) for a in reps for b in reps}
    pairs = sorted(((q, r) for q in quotients for r in reps.values()), key=repr)
    searched = 0
    for q, r in pairs:
        t = r.colon(q)
        assert cl.principal_unit_witness(t, q, r, 1) == \
            _unit_witness_oracle(t, q, r, 1)
        if q.order() == r.order() and cl.w_equivalent(q, r):
            searched += 1
            assert cl.principal_unit_witness(t, q, r) == \
                _unit_witness_oracle(t, q, r)
    assert (len(pairs), searched) == (78, 15)
    # no element of the transporter has the norm 1/2 that u*source == target needs
    quad, _ = algebra_for_poly(up.from_string("t^2+5"))
    source = span(quad, [(1, 0), (0, 1)])
    target = span(quad, [(1, 0), (0, H)])
    t = target.colon(source)
    assert cl.principal_unit_witness(t, source, target) is None
    assert _unit_witness_oracle(t, source, target) is None
