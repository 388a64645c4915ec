"""GL_n(Z)-conjugacy of regular integer matrices via the lattice correspondence.

A regular matrix B with characteristic polynomial f corresponds to a full
lattice L in Q[t]/(f) whose order contains Z[t]/(f); conjugacy classes map to
unit-scaling classes of such lattices, and class multiplication is lattice
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import exactnum as xn
from . import poly as up
from .algebra import Algebra, cyclic_algebra
from .classes import epsilon_equivalent_bounded
from .errors import DomainError
from .lattice import FullLattice

_ALGEBRA_CACHE: dict[tuple, tuple[Algebra, tuple]] = {}


def algebra_for_poly(f) -> tuple[Algebra, tuple]:
    """Shared cyclic algebra Q[t]/(f) so that lattices are comparable."""
    f = up.poly(f)
    key = tuple(f)
    if key not in _ALGEBRA_CACHE:
        _ALGEBRA_CACHE[key] = cyclic_algebra(f)
    return _ALGEBRA_CACHE[key]


def is_regular(m) -> bool:
    """True iff the minimal polynomial equals the characteristic polynomial."""
    cp, mp = up.char_min_poly(m)
    return cp == mp


def integer_charpoly(m) -> up.Poly:
    cp = up.charpoly(m)
    if any(c.denominator != 1 for c in cp):
        raise DomainError("matrix has a non-integer characteristic polynomial")
    return cp


def cyclic_generator(m, seed: int = 0) -> tuple:
    """A vector whose Krylov orbit under m is a basis (exists iff m is regular)."""
    n = len(m)
    mf = xn.mat_fractions(m)
    candidates = [tuple(Fraction(1 if i == j else 0) for i in range(n))
                  for j in range(n)]
    rng = Random(seed)
    for _ in range(200):
        for v in candidates:
            k = _krylov(mf, v)
            if xn.det(k) != 0:
                return v
        candidates = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))]
    raise DomainError("no cyclic generator found; matrix is not regular")


def _krylov(mf, v) -> xn.Mat:
    n = len(mf)
    cols = [v]
    for _ in range(n - 1):
        cols.append(xn.mat_vec(mf, cols[-1]))
    return xn.from_columns(cols)


def matrix_to_lattice(m) -> FullLattice:
    """The full lattice of a regular integer matrix, inside Q[t]/(charpoly)."""
    if not is_regular(m):
        raise DomainError("matrix_to_lattice: matrix is not regular")
    f = integer_charpoly(m)
    alg, _ = algebra_for_poly(f)
    v = cyclic_generator(m)
    k = _krylov(xn.mat_fractions(m), v)
    lat = FullLattice.from_basis_matrix(alg, xn.rmat_inv(k))
    lam_f = FullLattice(alg, xn.columns(xn.identity(alg.dim)))
    if not lat.order().contains_lattice(lam_f):  # pragma: no cover - theorem
        raise AssertionError("constructed lattice is not stable under t")
    return lat


def matrix_for(lat: FullLattice, x, basis=None) -> xn.Mat:
    """Integer matrix of multiplication by x on a basis of the lattice.

    ``basis`` defaults to the canonical basis; a DomainError names a witness
    generator when the lattice is not stable under x.
    """
    alg = lat.algebra
    b = xn.mat_fractions(basis) if basis is not None else lat.basis
    if basis is not None and FullLattice.from_basis_matrix(alg, b) != lat:
        raise DomainError("matrix_for: given basis does not span the lattice")
    xb = xn.mat_mul(alg.mult_matrix(x), b)
    out = lat.in_basis(xb) if basis is None else xn.mat_mul(xn.rmat_inv(b), xb)
    if not xn.mat_is_integral(out):
        for g in xn.columns(b):
            if alg.mul(x, g) not in lat:
                raise DomainError(
                    f"lattice is not stable under the element: witness generator {g}")
        raise DomainError("lattice is not stable under the element")
    return xn.mat_int(out)


def lattice_to_matrix(lat: FullLattice, basis=None) -> xn.Mat:
    """Integer matrix of multiplication by the algebra generator (Eq. of the
    correspondence); requires the order of the lattice to contain Z[t]."""
    if lat.algebra.generator is None:
        raise DomainError("lattice_to_matrix: algebra has no distinguished generator")
    return matrix_for(lat, lat.algebra.generator, basis)


@dataclass(frozen=True)
class ConjugacyClassTag:
    """Invariant bundle: characteristic polynomial, canonical order basis and
    a canonical representative lattice basis."""
    charpoly: up.Poly
    order_basis: xn.Mat
    representative_basis: xn.Mat


def class_tag(m) -> ConjugacyClassTag:
    lat = matrix_to_lattice(m)
    return ConjugacyClassTag(integer_charpoly(m), lat.order().basis, lat.basis)


def same_class(m1, m2, bound: int = 3):
    """Decide GL_n(Z)-conjugacy where a procedure exists.

    Returns True / False, or None when undecided (the bounded transporter
    search is sound but incomplete outside the classified families).
    """
    from .families import spectrum_family

    f1 = integer_charpoly(m1)
    f2 = integer_charpoly(m2)
    if f1 != f2:
        raise DomainError("same_class: characteristic polynomials differ")
    if not (is_regular(m1) and is_regular(m2)):
        raise DomainError("same_class: matrices must be regular")
    decide = FAMILY_DECIDERS.get(spectrum_family(f1).tag)
    if decide is not None:
        return decide(m1, m2)
    l1 = matrix_to_lattice(m1)
    l2 = matrix_to_lattice(m2)
    return epsilon_equivalent_bounded(l1, l2, bound)


def _decide_quadratic(m1, m2) -> bool:
    from .quadform import matrices_conjugate

    return matrices_conjugate(m1, m2)


def _same_invariant(name: str):
    """Decide by equality of the complete invariant ``families.<name>``."""
    def decide(m1, m2) -> bool:
        from . import families

        invariant = getattr(families, name)
        return invariant(m1) == invariant(m2)
    return decide


# complete decisions in dimension 2 and for the split/jordan/mixed families of
# dimension 3, keyed by families.spectrum_family tag
FAMILY_DECIDERS = {
    "quadratic": _decide_quadratic,                           # types IV and V
    "split2": _same_invariant("split2_normal_matrix"),        # type III
    "jordan2": _same_invariant("jordan2_normal_matrix"),      # type II
    "split3": _same_invariant("split3_normal_form_of_matrix"),
    "jordan3": _same_invariant("jordan3_normal_form_of_matrix"),
    "mixed": _same_invariant("mixed_normal_form_of_matrix"),
}


def class_product(m1, m2) -> xn.Mat:
    """A representative of the product conjugacy class, via lattice product."""
    f1 = integer_charpoly(m1)
    if f1 != integer_charpoly(m2):
        raise DomainError("class_product: characteristic polynomials differ")
    l1 = matrix_to_lattice(m1)
    l2 = matrix_to_lattice(m2)
    return lattice_to_matrix(l1 * l2)


def random_unimodular(n: int, rng: Random, length: int = 6) -> xn.Mat:
    """A random product of at most `length` elementary generators of GL_n(Z)."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, length)):
        kind = rng.randint(0, 2)
        if kind == 0:      # add +-1 times one row to another
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            u[i] = [x + s * y for x, y in zip(u[i], u[j])]
        elif kind == 1:    # swap two rows
            i, j = rng.sample(range(n), 2)
            u[i], u[j] = u[j], u[i]
        else:              # negate a row
            i = rng.randrange(n)
            u[i] = [-x for x in u[i]]
    return xn.mat(u)
