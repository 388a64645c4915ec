from random import Random

import pytest

from latclass import exactnum as xn
from latclass import poly as up
from latclass.algebra import (MultMetric, canonical_metric, cyclic_algebra,
                              decompose, flat3_algebra, mixed_algebra,
                              split_algebra)
from latclass.errors import UnsupportedError


def test_cyclic_algebra_relations():
    a2, g = cyclic_algebra(up.poly([0, 0, 1]))          # t^2
    assert a2.mul(g, g) == a2.element([0, 0])
    a5, g = cyclic_algebra(up.poly([5, 0, 1]))          # t^2 + 5
    assert a5.mul(g, g) == a5.element([-5, 0])
    f = up.mul(up.mul(up.poly([-2, 1]), up.poly([0, 1])), up.poly([2, 1]))
    asp, g = cyclic_algebra(f)
    g3 = asp.elem_power(g, 3)
    assert g3 == asp.smul(4, g)                          # t^3 = 4t mod f


def test_constructed_algebras_validate():
    for alg in (cyclic_algebra(up.poly([16, 8, 4, 1]))[0],
                cyclic_algebra(up.poly([0, 0, 0, 1]))[0],
                split_algebra(3), mixed_algebra(), flat3_algebra()):
        alg.validate()


def test_inverse_and_units():
    alg, a = cyclic_algebra(up.poly([0, 0, 0, 1]))      # Q[a]/(a^3)
    assert alg.inv(alg.unit) == alg.unit
    one_plus_a = alg.add(alg.unit, a)
    inv = alg.inv(one_plus_a)
    assert inv == alg.element([1, -1, 1])                # 1 - a + a^2
    assert alg.mul(one_plus_a, inv) == alg.unit
    assert not alg.is_unit(a)
    assert alg.inv(a) is None


def test_norms_imaginary_quadratic():
    alg, s = cyclic_algebra(up.poly([5, 0, 1]))          # s = sqrt(-5)
    assert alg.norm(alg.add(alg.unit, s)) == 6
    assert alg.norm(alg.add(alg.scalar(2), s)) == 9
    assert alg.norm(alg.unit) == 1


def test_norm_sign_is_signed():
    # 1 + sqrt(2) has norm -1; the raw determinant keeps the sign
    alg, s = cyclic_algebra(up.poly([-2, 0, 1]))
    assert alg.norm(alg.add(alg.unit, s)) == -1


def _check_decomposition(alg, dec):
    # idempotents are orthogonal and sum to 1
    total = alg.scalar(0)
    for idem, _ in dec.components:
        total = alg.add(total, idem)
        assert alg.mul(idem, idem) == idem
    assert total == alg.unit
    for i, (e1, _) in enumerate(dec.components):
        for e2, _ in dec.components[i + 1:]:
            assert alg.mul(e1, e2) == alg.scalar(0)
    for r in dec.radical_basis:
        assert alg.is_nilpotent(r)
    # pr_F is idempotent and a ring homomorphism on sampled pairs
    rng = Random(21)
    p = dec.projection
    assert xn.mat_mul(p, p) == p
    for _ in range(20):
        x = alg.element([rng.randint(-3, 3) for _ in range(alg.dim)])
        y = alg.element([rng.randint(-3, 3) for _ in range(alg.dim)])
        assert dec.project(alg.mul(x, y)) == alg.mul(dec.project(x), dec.project(y))
        assert dec.project(alg.add(x, y)) == alg.add(dec.project(x), dec.project(y))


def test_decompose_separable_split():
    f = up.mul(up.mul(up.poly([-2, 1]), up.poly([0, 1])), up.poly([2, 1]))
    alg, _ = cyclic_algebra(f)
    dec = decompose(alg)
    assert len(dec.components) == 3
    assert all(len(basis) == 1 for _, basis in dec.components)
    assert dec.radical_basis == ()
    _check_decomposition(alg, dec)


def test_decompose_nilpotent():
    alg, _ = cyclic_algebra(up.poly([0, 0, 0, 1]))      # t^3
    dec = decompose(alg)
    assert len(dec.components) == 1
    assert len(dec.separable_basis) == 1
    assert len(dec.radical_basis) == 2
    _check_decomposition(alg, dec)


def test_decompose_mixed_algebra():
    alg = mixed_algebra()
    dec = decompose(alg)
    dims = sorted(len(basis) for _, basis in dec.components)
    assert dims == [1, 2]
    assert len(dec.radical_basis) == 1
    _check_decomposition(alg, dec)


def test_decompose_mixed_repeated_root_cyclic():
    # (t-1)^2 (t+2): one 2-dim component with radical, one 1-dim
    f = up.mul(up.mul(up.poly([-1, 1]), up.poly([-1, 1])), up.poly([2, 1]))
    alg, _ = cyclic_algebra(f)
    dec = decompose(alg)
    assert sorted(len(b) for _, b in dec.components) == [1, 2]
    assert len(dec.radical_basis) == 1
    _check_decomposition(alg, dec)


def test_decompose_unsupported():
    alg = split_algebra(2)
    # split algebras are supported; a handcrafted generic one is not
    generic = split_algebra(2)
    generic.family = "generic"
    with pytest.raises(UnsupportedError):
        decompose(generic)
    decompose(alg)


def test_canonical_metric_examples():
    alg, _ = cyclic_algebra(up.poly([0, 0, 1]))
    assert canonical_metric(alg).gram == ((0, 1), (1, 0))
    alg, _ = cyclic_algebra(up.poly([5, 0, 1]))
    assert canonical_metric(alg).gram == ((0, 1), (1, 0))
    alg, _ = cyclic_algebra(up.poly([0, 0, 0, 1]))
    assert canonical_metric(alg).gram == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    with pytest.raises(UnsupportedError):
        canonical_metric(split_algebra(2))


def test_canonical_metric_is_multiplicative():
    for coeffs in ([5, 0, 1], [16, 8, 4, 1], [0, 0, 0, 1], [0, -4, 0, 1]):
        alg, _ = cyclic_algebra(up.poly(coeffs))
        m = canonical_metric(alg)
        m.validate()


def test_mult_metric_validation_catches_bad_gram():
    alg, _ = cyclic_algebra(up.poly([5, 0, 1]))
    from latclass.errors import DomainError
    bad = MultMetric(alg, ((1, 0), (0, 0)))
    with pytest.raises(DomainError):
        bad.validate()
    for gram in (((1, 0), (1, 1)), ((1, 0), (0,)), ((1, 0, 0),)):
        with pytest.raises(DomainError):     # not symmetric, misshapen
            MultMetric(alg, gram).validate()


def test_algebra_json_round_trip():
    from latclass.algebra import algebra_from_json, algebra_to_json
    alg, _ = cyclic_algebra(up.poly([16, 8, 4, 1]))
    data = algebra_to_json(alg)
    back = algebra_from_json(data)
    assert back.dim == alg.dim
    assert back.structure == alg.structure
    assert back.unit == alg.unit
    import json
    assert json.loads(json.dumps(data)) == data
