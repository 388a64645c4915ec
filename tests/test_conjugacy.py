import gc
from random import Random

import pytest

from _helpers import random_unimodular, twin_algebra
from latclass import conjugacy as cj
from latclass import exactnum as xn
from latclass import poly as up
from latclass.errors import DomainError
from latclass.lattice import FullLattice, span


def test_is_regular():
    comp = ((0, 0, -16), (1, 0, -8), (0, 1, -4))
    assert cj.analyse(comp).regular
    assert not cj.analyse(((2, 0), (0, 2))).regular
    assert cj.analyse(((0, 4), (1, 0))).regular


def _seeded_regularity_cases():
    """Random integer matrices of dimension 1..5 and non-regular ones: scalar
    matrices, diag(a, a, b) and block matrices with a repeated block, each
    conjugated by a random unimodular matrix."""
    rng = Random(91)
    out = []
    for n in range(1, 6):
        for _ in range(12):
            out.append(tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                             for _ in range(n)))
    for _ in range(12):
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        c = rng.randint(-3, 3)
        blk = ((a, c), (1, b))
        shapes = [xn.add_scalar(xn.mat([[0] * 2] * 2), a),
                  xn.mat([[a, 0, 0], [0, a, 0], [0, 0, b]]),
                  xn.mat([[blk[0][0], blk[0][1], 0, 0], [blk[1][0], blk[1][1], 0, 0],
                          [0, 0, blk[0][0], blk[0][1]], [0, 0, blk[1][0], blk[1][1]]]),
                  xn.mat([[a, 1, 0, 0], [0, a, 0, 0], [0, 0, a, 0], [0, 0, 0, b]])]
        for s in shapes:
            u = random_unimodular(len(s), rng)
            out.append(xn.mat_mul(xn.mat_mul(xn.unimodular_inverse(u), s), u))
    return out


def test_is_regular_matches_char_min_poly():
    regular = 0
    cases = _seeded_regularity_cases()
    for m in cases:
        cp, mp = up.char_min_poly(m)
        assert cj.analyse(m).regular == (cp == mp), m
        regular += cp == mp
    assert 0 < regular < len(cases)


def test_matrix_to_lattice_companion_gives_standard_order():
    f = up.poly([16, 8, 4, 1])
    comp = ((0, 0, -16), (1, 0, -8), (0, 1, -4))
    lat = cj.matrix_to_lattice(comp)
    alg, _ = cj.algebra_for_poly(f)
    assert lat == span(alg, xn.columns(xn.identity(3)))
    with pytest.raises(DomainError):
        cj.matrix_to_lattice(((2, 0), (0, 2)))


def test_matrix_to_lattice_shifted_type_iii():
    # [[2,2],[0,-2]] corresponds (up to units) to <2, -2 + t> in Q[t]/(t^2-4)
    lat = cj.matrix_to_lattice(((2, 2), (0, -2)))
    alg, _ = cj.algebra_for_poly(up.poly([-4, 0, 1]))
    target = span(alg, [(2, 0), (-2, 1)])
    from latclass.classes import epsilon_equivalent_bounded
    assert epsilon_equivalent_bounded(lat, target) is True


def test_lattice_to_matrix_round_trips():
    rng = Random(70)
    seen = 0
    while seen < 60:
        n = rng.choice((2, 3))
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        cp = up.charpoly(m)
        if any(c.denominator != 1 for c in cp) or not cj.analyse(m).regular:
            continue
        seen += 1
        lat = cj.matrix_to_lattice(m)
        back = cj.lattice_to_matrix(lat)
        assert up.charpoly(back) == cp
        # the order invariant is preserved: read off back's own powers, and
        # as L : L computed afresh in a twin algebra
        assert cj.matrix_to_lattice(back).order() == lat.order()
        assert cj.centralizer_order(lat.algebra, cj.analyse(back).powers) == lat.order()
        twin = FullLattice(twin_algebra(lat.algebra), lat.generators())
        assert twin.colon(twin).basis == lat.order().basis


def test_same_class_conjugates_and_distinct():
    rng = Random(71)
    # dim-2 irreducible: the two classes of t^2 + 5
    m1 = ((0, -5), (1, 0))
    m2 = ((1, -3), (2, -1))
    assert cj.same_class(m1, m2) is False
    u = random_unimodular(2, rng)
    conj = xn.mat_mul(xn.mat_mul(xn.unimodular_inverse(u), m1), u)
    assert cj.same_class(m1, conj) is True
    with pytest.raises(DomainError):
        cj.same_class(m1, ((0, -7), (1, 0)))


def test_same_class_families():
    rng = Random(72)
    cases = [
        ((2, 1), (0, -2)),       # type III
        ((3, 4), (-1, 7)),       # type II (double eigenvalue 5)
        ((0, 4, -1), (0, 0, 6), (0, 0, 0)),          # jordan 3
        ((0, 0, 0), (1, 2, 0), (0, 0, -2)),          # split 3
        ((0, 0, 2), (0, 4, 0), (0, 0, 0)),           # mixed
    ]
    for m in cases:
        n = len(m)
        u = random_unimodular(n, rng)
        conj = xn.mat_mul(xn.mat_mul(xn.unimodular_inverse(u), m), u)
        assert cj.same_class(m, conj) is True
    # distinct split-family classes
    assert cj.same_class(((0, 4, 0), (1, 0, 0), (0, 0, 0)),
                         ((2, 2, 0), (0, -2, 0), (0, 0, 0))) is False
    # distinct jordan classes
    assert cj.same_class(((0, 1, 0), (0, 0, 6), (0, 0, 0)),
                         ((0, 2, 0), (0, 0, 3), (0, 0, 0))) is False


def test_same_class_cubic_field_fixture():
    from latclass.families import cubic_suite
    suite = cubic_suite()
    mats = suite["matrices"]
    names = list(mats)
    for i, n1 in enumerate(names):
        for n2 in names[i:]:
            got = cj.same_class(mats[n1], mats[n2])
            if n1 == n2:
                assert got is True, (n1, n2)
            elif {n1, n2} == {"L4", "I4"}:
                # same order, both invertible, no bounded witness: the cubic
                # case has no complete decision procedure, so undecided
                assert got is None
            else:
                assert got is False, (n1, n2)


def test_same_class_round_trip_through_lattice():
    suite_m = ((0, -1, -2), (2, 0, -3), (0, 2, -4))   # an irreducible cubic rep
    lat = cj.matrix_to_lattice(suite_m)
    back = cj.lattice_to_matrix(lat)
    assert cj.same_class(suite_m, back) is True


def test_class_product_examples():
    # unit class: product with the companion matrix preserves the class
    comp = ((0, -20), (1, 0))
    m = ((1, -7), (3, -1))
    prod = cj.class_product(comp, m)
    assert cj.same_class(prod, m) is True
    # L1 * L3 for t^2+20 lands in the class of Lambda_2 (the companion)
    l1m = ((1, -7), (3, -1))
    l3m = ((-1, -7), (3, 1))
    prod = cj.class_product(l1m, l3m)
    assert cj.same_class(prod, comp) is True
    with pytest.raises(DomainError):
        cj.class_product(comp, ((0, -5), (1, 0)))


def test_class_tags():
    # the class invariants of the matrix: its charpoly and the order basis
    a = cj.analyse(((0, -5), (1, 0)))
    assert a.charpoly == up.poly([5, 0, 1])
    assert a.lattice.order().basis == ((1, 0), (0, 1))


def test_cyclic_generator_randomized_fallback():
    # a matrix whose standard basis vectors are not cyclic generators
    m = ((2, 0, 0), (0, 0, -1), (0, 1, 0))   # block diag(2, rotation)
    assert cj.analyse(m).regular
    v = cj.cyclic_generator(m)
    k = cj._krylov(xn.mat_fractions(m), v)
    assert xn.det(k) != 0


def test_lattices_of_conjugates_are_w_equivalent():
    # unit-class equality is not decidable in general, but w-equivalence is
    # directly computable and is implied by it
    from latclass.classes import w_equivalent
    rng = Random(73)
    done = 0
    while done < 15:
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        cp = up.charpoly(m)
        if any(c.denominator != 1 for c in cp) or not cj.analyse(m).regular:
            continue
        done += 1
        u = random_unimodular(3, rng)
        conj = xn.mat_mul(xn.mat_mul(xn.unimodular_inverse(u), m), u)
        assert w_equivalent(cj.matrix_to_lattice(m), cj.matrix_to_lattice(conj))


def test_algebra_registry_frees_unheld_algebras():
    gc.collect()
    start = len(cj._ALGEBRAS)
    lattices = []
    for k in range(300):
        alg, t = cj.algebra_for_poly([k + 2, -k, 1])      # t^2 - k t + k + 2
        lat = span(alg, [(1, 0), (0, 2)])
        if k % 3 == 0:
            lat.dual()      # keeps the canonical metric, which points back
        lattices.append(lat)
    assert len(cj._ALGEBRAS) == start + 300
    # while a lattice lives, its algebra is the one the registry hands out
    for lat in lattices[::50]:
        f = lat.algebra.defining_poly
        first, _ = cj.algebra_for_poly(f)
        second, _ = cj.algebra_for_poly(list(f))
        assert first is second is lat.algebra
    del lattices, lat, alg, t, first, second
    gc.collect()
    assert len(cj._ALGEBRAS) == start


def test_analysis_is_shared_and_same_class_accepts_it():
    m = ((1, 2, 0), (0, -1, 1), (0, 0, 2))      # eigenvalues 1, -1, 2
    a = cj.analyse(m)
    assert cj.analyse(a) is a
    assert a.charpoly == up.charpoly(m) and a.regular
    assert a.lattice is a.lattice
    assert a.lattice == cj.matrix_to_lattice(m)
    u = random_unimodular(3, Random(5))
    conj = xn.mat_mul(xn.mat_mul(xn.unimodular_inverse(u), m), u)
    assert cj.same_class(a, conj) is True
    assert cj.same_class(m, cj.analyse(conj)) is True
    with pytest.raises(DomainError):
        cj.analyse(((2, 0), (0, 2))).lattice
