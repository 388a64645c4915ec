import time
from fractions import Fraction
from math import isqrt
from random import Random

import pytest

from _helpers import random_unimodular
from latclass import conjugacy as cj
from latclass import exactnum as xn
from latclass import quadform as qf
from latclass.errors import DomainError, ResourceError
from latclass.quadform import QuadForm


def test_form_matrix_correspondence():
    assert qf.form_of_matrix(((0, 7), (1, 0))) == QuadForm(1, 0, -7)
    assert qf.form_of_matrix(((0, -5), (1, 0))) == QuadForm(1, 0, 5)
    assert qf.matrix_of_form(QuadForm(1, 0, -7), 0) == ((0, 7), (1, 0))
    # conjugation by an SL2 generator maps to proper equivalence of forms
    m = ((2, 3), (5, -2))
    for conj in (qf._conj_s(m), qf._conj_t(m, 2)):
        assert qf.form_of_matrix(conj).four_disc() == qf.form_of_matrix(m).four_disc()


def test_legendre_reduce_examples():
    m = ((0, -5), (1, 0))
    assert qf.legendre_reduce(m) == m
    base = ((1, -3), (2, -1))
    shifted = base
    for k in (1, -2, 3):
        shifted = qf._conj_t(shifted, -k)
        assert qf.legendre_reduce(shifted) == base
    red = qf.legendre_reduce(((7, -6), (7, -7)))
    assert red in qf.enumerate_m(0, -7)
    assert qf.proper_class_equal(qf.form_of_matrix(red), QuadForm(-1, 0, 7))
    with pytest.raises(DomainError):
        qf.legendre_reduce(((2, 0), (0, 3)))


def test_legendre_reduce_lands_in_window():
    rng = Random(41)
    count = 0
    while count < 60:
        m = ((rng.randint(-6, 6), rng.randint(-6, 6)),
             (rng.randint(-6, 6), rng.randint(-6, 6)))
        (a, b), (c, d) = m
        if qf.is_square((a - d) ** 2 + 4 * b * c) or c == 0 or b == 0:
            continue
        count += 1
        red = qf.legendre_reduce(m)
        r, s = a + d, a * d - b * c
        assert red in qf.enumerate_m(r, s)


def test_enumerate_m_examples():
    m05 = qf.enumerate_m(0, 5)
    assert sorted(m05) == sorted([
        ((0, -5), (1, 0)), ((0, 5), (-1, 0)),
        ((1, -3), (2, -1)), ((1, 3), (-2, -1)),
    ])
    assert len(qf.enumerate_m(0, 20)) == 12
    assert len(qf.enumerate_m(0, -7)) == 4
    assert len(qf.enumerate_m(0, -7, wide=True)) == 6
    assert sorted(qf.enumerate_m(0, -7)) == sorted([
        ((0, 7), (1, 0)), ((0, -7), (-1, 0)),
        ((1, 3), (2, -1)), ((1, -3), (-2, -1)),
    ])
    wide_extra = set(qf.enumerate_m(0, -7, wide=True)) - set(qf.enumerate_m(0, -7))
    assert wide_extra == {((-1, 3), (2, 1)), ((-1, -3), (-2, 1))}
    with pytest.raises(DomainError):
        qf.enumerate_m(1, -2)   # (t-2)(t+1): square discriminant
    with pytest.raises(ResourceError):
        qf.enumerate_m(0, 10**7)   # c up to 3651: 26.7 million candidates


def test_river_period_t2_minus_7():
    cyc = qf.river(QuadForm(1, 0, -7))
    assert len(cyc.period) == 7
    assert qf.classify_types(QuadForm(1, 0, -7))[2] == {
        QuadForm(1, 4, -3), QuadForm(2, -2, -3), QuadForm(2, 2, -3), QuadForm(1, -4, -3)}
    # three-neighbour relation at every vertex of the period
    for st in cyc.period:
        nxt, _ = qf._river_step(st)
        assert (st.a + st.b + st.h) + (st.a + st.b - st.h) == 2 * (st.a + st.b)
    # the automorph fixes the seed matrix and has determinant 1
    from latclass import exactnum as xn
    p, seed = cyc.automorph, cyc.seed_matrix
    assert xn.det(p) == 1
    assert xn.mat_mul(p, seed) == xn.mat_mul(seed, p)
    assert cyc.delta == 7
    assert cyc.unit_omega == (8, 3)      # 8 + 3*sqrt(7), the norm-1 Pell unit


def test_least_rotation_matches_brute_force():
    rng = Random(12)
    for _ in range(3000):
        seq = [rng.randint(0, rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 10))]
        if rng.random() < 0.3:
            seq = seq[:max(1, len(seq) // 3)] * 3      # periodic: tied rotations
        brute = min(range(len(seq)), key=lambda i: seq[i:] + seq[:i])
        assert qf._least_rotation(seq) == brute, seq


def test_river_long_period_is_linear():
    # period 23,256: the rotation search and the walk are linear in it
    start = time.process_time()
    cyc = qf.river(QuadForm(1, 0, -4000037))
    a, b, c = qf.classify_types(QuadForm(1, 0, -4000037))
    assert time.process_time() - start < 5
    assert len(cyc.period) == 23256
    assert cyc.period[0] == min(cyc.period)    # the least rotation starts there
    assert QuadForm(1, 0, -4000037) in a
    assert all(f.four_disc() == 4 * 4000037 for f in a | b | c)


def test_river_cap(monkeypatch):
    # x^2 - 1000000007 y^2 has a period beyond the cap: an error, not a hang
    start = time.process_time()
    with pytest.raises(ResourceError):
        qf.river(QuadForm(1, 0, -1000000007))
    assert time.process_time() - start < 20
    monkeypatch.setattr(qf, "RIVER_CAP", 6)
    with pytest.raises(ResourceError):
        qf.river(QuadForm(1, 0, -7))      # period 7
    monkeypatch.setattr(qf, "RIVER_CAP", 7)
    assert len(qf.river(QuadForm(1, 0, -7)).period) == 7


def test_pell_oracle():
    # independent brute-force Pell oracle for x^2 - 7y^2 = 1
    sols = [(x, y) for y in range(1, 50) for x in range(1, 200)
            if x * x - 7 * y * y == 1]
    assert sols[0] == (8, 3)
    assert qf.cf_pell(7) == (8, 3, 1)
    sols2 = [(x, y) for y in range(1, 50) for x in range(1, 200)
             if x * x - 2 * y * y == -1]
    assert sols2[0] == (1, 1)
    assert qf.cf_pell(2) == (1, 1, -1)


def test_pell_cap(monkeypatch):
    # sqrt(94) needs 16 continued-fraction steps; one cap fewer is an error
    monkeypatch.setattr(qf, "PELL_CAP", 16)
    assert qf.cf_pell(94) == (2143295, 221064, 1)
    monkeypatch.setattr(qf, "PELL_CAP", 15)
    with pytest.raises(ResourceError):
        qf.cf_pell(94)
    with pytest.raises(ResourceError):
        qf.fundamental_unit(94)
    assert qf.cf_pell(61) == (29718, 3805, -1)     # 11 steps


def test_classify_types_tables():
    a, b, c = qf.classify_types(QuadForm(1, 0, -7))
    assert a == {QuadForm(2, -2, -3), QuadForm(2, 2, -3), QuadForm(1, 0, -7)}
    assert b == {QuadForm(1, 6, 2), QuadForm(2, 6, 1)}
    assert c == {QuadForm(1, 4, -3), QuadForm(2, -2, -3),
                 QuadForm(2, 2, -3), QuadForm(1, -4, -3)}
    a2, b2, c2 = qf.classify_types(QuadForm(-1, 0, 7))
    assert a2 == {QuadForm(-2, -2, 3), QuadForm(-2, 2, 3), QuadForm(-1, 0, 7)}
    assert b2 == {QuadForm(3, 8, 3), QuadForm(3, 10, 6), QuadForm(6, 14, 7),
                  QuadForm(7, 14, 6), QuadForm(6, 10, 3)}
    # the mirror class has four distinct riverbends: both sign variants of
    # the (3,4,-1) bend occur, matching the reflection of the first class
    assert c2 == {QuadForm(3, 4, -1), QuadForm(3, -4, -1),
                  QuadForm(3, 2, -2), QuadForm(3, -2, -2)}


def test_type_a_forms_match_wide_window():
    # the wide-window matrices carry exactly the type-A forms of all classes
    a1 = qf.classify_types(QuadForm(1, 0, -7))[0]
    a2 = qf.classify_types(QuadForm(-1, 0, 7))[0]
    wide_forms = {qf.form_of_matrix(m) for m in qf.enumerate_m(0, -7, wide=True)}
    assert wide_forms == a1 | a2


def test_proper_class_equal():
    assert qf.proper_class_equal(QuadForm(1, 0, -7), QuadForm(2, 6, 1))
    assert not qf.proper_class_equal(QuadForm(1, 0, -7), QuadForm(-1, 0, 7))
    assert qf.proper_class_equal(QuadForm(1, 0, -7), QuadForm(1, 0, -7))
    with pytest.raises(DomainError):
        qf.proper_class_equal(QuadForm(1, 0, -7), QuadForm(1, 0, -11))


def test_reflection_relates_the_two_periods():
    # reflection construction: negated values, reversed orientation
    per = qf.river(QuadForm(1, 0, -7)).period
    mirrored = {QuadForm(-f.b, f.h, -f.a) for f in per}
    per2 = set(qf.river(QuadForm(-1, 0, 7)).period)
    assert mirrored == per2


def test_gl2_splits():
    assert qf.gl2_splits(QuadForm(1, 0, -7))          # unit 8+3*sqrt(7), norm 1
    assert qf.gl2_splits(QuadForm(1, 0, 7))           # definite: always
    assert not qf.gl2_splits((2, 1))                  # 1+sqrt(2) has norm -1
    assert qf.gl2_splits((7, 1))


def test_fundamental_units():
    assert qf.fundamental_unit(7) == ((8, 3), 1)
    assert qf.fundamental_unit(2) == ((1, 1), -1)
    # delta = 5: omega = (1+sqrt 5)/2, fundamental unit omega itself, norm -1
    assert qf.fundamental_unit(5) == ((0, 1), -1)
    # delta = 13: (3+sqrt 13)/2 = 1 + omega
    assert qf.fundamental_unit(13) == ((1, 1), -1)
    for delta in range(5, 240, 4):
        if xn.squarefree_split(delta)[1] != 1:
            continue
        (c0, c1), nrm = qf.fundamental_unit(delta)
        alg, omega = qf.quad_algebra(delta)
        assert alg.norm(alg.element([c0, c1])) == nrm
        assert ((c0, c1), nrm) == _least_half_integer_unit(delta)
    # units of 10^8 and more, which a search linear in their size cannot reach
    start = time.process_time()
    assert qf.fundamental_unit(241) == ((66436843, 9148450), -1)
    assert qf.fundamental_unit(337) == ((960491695, 110671282), -1)
    assert qf.fundamental_unit(393) == ((44094699, 4684888), 1)
    assert time.process_time() - start < 0.5


def _least_half_integer_unit(delta):
    """Reference for delta = 1 mod 4: the least q >= 1 with
    p^2 - delta*q^2 = +-4 gives the fundamental unit (p + q sqrt(delta))/2,
    returned in the basis (1, omega) with its norm."""
    q = 1
    while True:
        for nrm in (-1, 1):
            p2 = delta * q * q + 4 * nrm
            if qf.is_square(p2):
                p = isqrt(p2)
                return ((p - q) // 2, q), nrm
        q += 1


def test_unit_in_order():
    # delta=5: omega has norm -1; Lambda_2 = <1, 2 omega>
    k, coords, nrm = qf.unit_in_order(5, 2)
    alg, _ = qf.quad_algebra(5)
    assert alg.norm(alg.element(list(coords))) == nrm
    assert coords[1] % 2 == 0


def test_gl2_classes_t2_plus_5():
    classes = qf.gl2_classes(0, 5)
    assert len(classes) == 2
    reps = {c["representative"] for c in classes}
    assert reps == {((0, -5), (1, 0)), ((1, -3), (2, -1))}
    assert all(c["sl2_classes"] == 2 for c in classes)


def test_gl2_classes_t2_minus_7():
    classes = qf.gl2_classes(0, -7)
    assert len(classes) == 1
    assert classes[0]["sl2_classes"] == 2


# ---------------------------------------------------------------------------
# oracles: the two-call GL2 decision and the SL2-first class grouping, with
# each SL2 key taken from the full river walk

def _flip(m):
    (a, b), (c, d) = m
    return ((a, -b), (-c, d))


def _oracle_sl2_key(m):
    f = qf.form_of_matrix(m)
    if f.four_disc() < 0:
        return ("v", qf.legendre_reduce(m))
    return ("iv", qf.river(f).period)


def _oracle_gl2_conjugate(m1, m2):
    k1 = _oracle_sl2_key(m1)
    return k1 == _oracle_sl2_key(m2) or k1 == _oracle_sl2_key(_flip(m2))


def _oracle_gl2_classes(r, s):
    sl2_groups = {}
    for m in qf.enumerate_m(r, s):
        sl2_groups.setdefault(_oracle_sl2_key(m), []).append(m)
    merged, used = [], set()
    for key, group in sl2_groups.items():
        if key in used:
            continue
        used.add(key)
        mirror_key = _oracle_sl2_key(_flip(group[0]))
        sl2_count, members = 1, list(group)
        if mirror_key != key:
            used.add(mirror_key)
            sl2_count = 2
            members += sl2_groups.get(mirror_key, [])
        rep = sorted(members, key=lambda m: (m[1][0] <= 0, m))[0]
        merged.append({"representative": rep, "sl2_classes": sl2_count,
                       "members": sorted(members)})
    merged.sort(key=lambda rec: rec["representative"])
    return merged


def test_gl2_invariant_matches_the_two_call_oracle():
    rng = Random(2027)
    seen = {}
    pairs = 0
    while pairs < 2000:
        m = tuple(tuple(rng.randint(-7, 7) for _ in range(2)) for _ in range(2))
        (a, b), (c, d) = m
        four_d = (a - d) ** 2 + 4 * b * c
        if qf.is_square(four_d):
            continue
        kind = rng.choice(("unimodular", "companion", "window"))
        if kind == "unimodular":
            u = random_unimodular(2, rng)
            other = xn.mat_mul(xn.mat_mul(xn.unimodular_inverse(u), m), u)
        elif kind == "companion":
            other = ((0, -(a * d - b * c)), (1, a + d))
        else:
            window = qf.enumerate_m(a + d, a * d - b * c)
            if not window:
                continue
            other = rng.choice(window)
        pairs += 1
        expected = _oracle_gl2_conjugate(m, other)
        assert (qf.gl2_invariant(m) == qf.gl2_invariant(other)) == expected
        assert (qf.sl2_key(m) == qf.sl2_key(other)) == \
            (_oracle_sl2_key(m) == _oracle_sl2_key(other))
        assert cj.same_class(m, other) is expected
        assert cj.analyse(m).invariant == qf.gl2_invariant(m)
        key = (kind, four_d > 0, expected)
        seen[key] = seen.get(key, 0) + 1
    # unimodular partners are always conjugate; the other two kinds give
    # both answers, for definite and for indefinite forms
    assert not any(k[0] == "unimodular" and not k[2] for k in seen)
    for kind in ("companion", "window"):
        for indefinite in (False, True):
            for expected in (False, True):
                assert seen.get((kind, indefinite, expected), 0) >= 20, seen
    for indefinite in (False, True):
        assert seen.get(("unimodular", indefinite, True), 0) >= 100, seen


def test_gl2_classes_match_the_sl2_first_grouping():
    count = 0
    for r in range(-6, 7):
        for s in range(-40, 41):
            if qf.is_square(r * r - 4 * s):
                continue
            count += 1
            assert qf.gl2_classes(r, s) == _oracle_gl2_classes(r, s), (r, s)
    assert count == 962


def test_gauss_form_rebuild_formula():
    # rebuild the form from the row-eigenvector lattice data
    rng = Random(42)
    from latclass.lattice import index as lat_index
    count = 0
    while count < 25:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        four_d = (a - d) ** 2 + 4 * b * c
        if c == 0 or qf.is_square(four_d):
            continue
        count += 1
        m = ((a, b), (c, d))
        lat = qf.matrix_lattice(m)
        alg, omega = qf.quad_algebra(xn.squarefree_split(four_d)[0])
        lam0, lam1 = qf._lambda_in_omega(a + d, four_d)
        alpha = alg.element([c, 0])
        beta = alg.element([lam0 - a, lam1])

        def conj(x):
            # conjugation: fixes 1, sends omega to trace(omega) - omega
            tr = -qf.omega_poly(xn.squarefree_split(four_d)[0])[1]
            return alg.element([x[0] + tr * x[1], -x[1]])

        lam_f_basis = [(1, 0), (lam0, lam1)]
        from latclass.lattice import FullLattice
        zlam = FullLattice(alg, lam_f_basis)
        idx = lat_index(zlam, lat)
        assert idx == abs(c)
        sgn = 1 if c > 0 else -1
        aa = alg.mul(alpha, conj(alpha))[0]
        bb = alg.mul(beta, conj(beta))[0]
        ab = alg.add(alg.mul(alpha, conj(beta)), alg.mul(conj(alpha), beta))[0]
        rebuilt = (Fraction(sgn, idx) * aa, Fraction(sgn, idx) * ab,
                   Fraction(sgn, idx) * bb)
        assert rebuilt == (c, d - a, -b)


def test_primitivity_criterion():
    from math import gcd
    rng = Random(43)
    count = 0
    while count < 25:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        four_d = (a - d) ** 2 + 4 * b * c
        if c == 0 or qf.is_square(four_d):
            continue
        count += 1
        delta, n = qf.order_index_of_matrix(((a, b), (c, d)))
        primitive = gcd(gcd(c, b), a - d) == 1
        # O(L) = Z[lambda1] = Lambda_{lam1}  iff  the form is primitive
        lam0, lam1 = qf._lambda_in_omega(a + d, four_d)
        assert lam1.denominator == 1
        assert (n == int(lam1)) == primitive


def test_svg_output():
    cyc = qf.river(QuadForm(1, 0, -7))
    svg = qf.svg_river(cyc)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<line") >= len(cyc.period)


def test_quad_order_tables_delta_minus_5():
    recs = qf.quad_order_tables(-5, 2)
    assert recs[0]["class_number_max"] == 2          # class number of Q(sqrt -5)
    assert recs[0]["group_size"] == 2
    assert recs[1]["group_size"] == 4                # cyclic of order four
    assert recs[1]["units_small"] == 1               # phi(2)
    assert recs[1]["units_big"] == 2
    recs = qf.quad_order_tables(-1, 1)
    assert recs[0]["unit_group_size"] == 4           # {1, -1, i, -i}
    recs = qf.quad_order_tables(-3, 1)
    assert recs[0]["unit_group_size"] == 6


def test_normal_form_uniqueness_definite_case():
    # no two distinct window members with the same c-sign share a lattice class;
    # opposite c-signs pair up into one GL2 class (checked via lattices)
    from latclass.classes import epsilon_equivalent_bounded
    for r, s in ((0, 5), (0, 20), (1, 5)):
        members = qf.enumerate_m(r, s)
        for i, m1 in enumerate(members):
            for m2 in members[i + 1:]:
                l1, l2 = qf.matrix_lattice(m1), qf.matrix_lattice(m2)
                eps = epsilon_equivalent_bounded(l1, l2)
                same_gl2 = qf.gl2_invariant(m1) == qf.gl2_invariant(m2)
                assert same_gl2 == (eps is True)
                assert qf.sl2_key(m1) != qf.sl2_key(m2)


def test_gl2_splits_non_maximal_order():
    # [1,0,-28] is primitive of discriminant 112, so its order is
    # <1, 2 omega> in Q(sqrt 7); the fundamental unit of that suborder is
    # the square of 8+3*sqrt(7), still of norm +1
    assert qf.order_index_of_matrix(qf.matrix_of_form(QuadForm(1, 0, -28), 0)) \
        == (7, 2)
    k, coords, nrm = qf.unit_in_order(7, 2)
    assert (k, nrm) == (2, 1)
    assert qf.gl2_splits(QuadForm(1, 0, -28))
    # an imprimitive variant scales to the maximal order instead
    assert qf.order_index_of_matrix(qf.matrix_of_form(QuadForm(2, 0, -14), 0)) \
        == (7, 1)
