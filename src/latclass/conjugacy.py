"""GL_n(Z)-conjugacy of regular integer matrices via the lattice correspondence.

A regular matrix B with characteristic polynomial f corresponds to a full
lattice L in Q[t]/(f) whose order contains Z[t]/(f); conjugacy classes map to
unit-scaling classes of such lattices, and class multiplication is lattice
multiplication.
"""

from __future__ import annotations

import weakref
from functools import cached_property, partial
from math import prod
from random import Random

from . import exactnum as xn
from . import poly as up
from .algebra import Algebra, cyclic_algebra
from .classes import epsilon_equivalent_bounded
from .errors import DomainError
from .lattice import FullLattice

# f -> Q[t]/(f).  An algebra stays registered exactly as long as something
# (a lattice, a caller) holds it, so lattices over one f share one Algebra.
_ALGEBRAS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def algebra_for_poly(f) -> tuple[Algebra, tuple]:
    """Shared cyclic algebra Q[t]/(f) so that lattices are comparable."""
    f = up.poly(f)
    key = tuple(f)
    alg = _ALGEBRAS.get(key)
    if alg is None:
        alg, _ = cyclic_algebra(f)
        _ALGEBRAS[key] = alg
    return alg, alg.generator


def _flat_powers(m) -> list[list]:
    """I, m, ..., m^(n-1), each flattened row by row to a vector of n^2 entries."""
    n = len(m)
    power = xn.identity(n)
    vecs = [[x for row in power for x in row]]
    for _ in range(n - 1):
        power = xn.mat_mul(power, m)
        vecs.append([x for row in power for x in row])
    return vecs


def _independent(vecs) -> bool:
    return xn.det(xn.mat_mul(vecs, xn.transpose(vecs))) != 0


def _integral(f: up.Poly) -> up.Poly:
    if any(c.denominator != 1 for c in f):
        raise DomainError("matrix has a non-integer characteristic polynomial")
    return f


class MatrixAnalysis:
    """What the correspondence reads off one square matrix, each computed
    once: the characteristic polynomial f, the flattened powers I, m, ...,
    m^(n-1) and regularity, and on first use the spectrum family of f (a
    families.Spectrum), the full lattice in Q[t]/(f) and the complete
    invariant of a closed-form family."""

    def __init__(self, m):
        self.matrix = m
        self.charpoly = up.charpoly(m)
        self.powers = _flat_powers(m)
        self.regular = _independent(self.powers)
        self._memo = {}

    def memo(self, fn):
        """fn(matrix), computed at most once per analysis: family data that
        both the invariant and the classify output read."""
        if fn not in self._memo:
            self._memo[fn] = fn(self.matrix)
        return self._memo[fn]

    @cached_property
    def spectrum(self):
        from .families import spectrum_family

        return spectrum_family(self.charpoly)

    @cached_property
    def lattice(self) -> FullLattice:
        return matrix_to_lattice(self)

    @cached_property
    def invariant(self):
        """families.INVARIANTS of the spectrum's family, or None outside them."""
        from .families import INVARIANTS

        invariant = INVARIANTS.get(self.spectrum.tag)
        return None if invariant is None else invariant(self)


def analyse(m) -> MatrixAnalysis:
    """The analysis of the matrix m, or m itself if it already is one."""
    return m if isinstance(m, MatrixAnalysis) else MatrixAnalysis(m)


def cyclic_generator(m, seed: int = 0) -> tuple:
    """An integer vector whose Krylov orbit under the integer matrix m is a
    basis (exists iff m is regular)."""
    n = len(m)
    candidates = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rng = Random(seed)
    for _ in range(200):
        for v in candidates:
            if xn.det(_krylov(m, v)) != 0:
                return v
        candidates = [tuple(rng.randint(-3, 3) for _ in range(n))]
    raise DomainError("no cyclic generator found; matrix is not regular")


def _krylov(m, v) -> xn.Mat:
    """The matrix with columns v, m v, ..., m^(n-1) v."""
    cols = [v]
    for _ in range(len(m) - 1):
        cols.append(xn.mat_vec(m, cols[-1]))
    return xn.from_columns(cols)


def matrix_to_lattice(m) -> FullLattice:
    """The full lattice of a regular integer matrix, inside Q[t]/(charpoly);
    m may be a MatrixAnalysis, whose f, powers and regularity are then
    reused.

    With K the Krylov matrix of a cyclic generator, p(t) -> p(m) v maps
    Q[t]/(f) onto Q^n and t to m, so the lattice is K^-1 Z^n.  K^-1 is the
    adjugate over det K by Cayley-Hamilton: with det(x I - K) = x^n +
    c_(n-1) x^(n-1) + ... + c_0, K^-1 = -(K^(n-1) + c_(n-1) K^(n-2) + ... +
    c_1 I) / c_0.  The order of the lattice is read off m on first use
    (centralizer_order).
    """
    a = analyse(m)
    if not a.regular:
        raise DomainError("matrix_to_lattice: matrix is not regular")
    alg, t = algebra_for_poly(_integral(a.charpoly))
    mi = xn.mat_int(a.matrix)
    k = _krylov(mi, cyclic_generator(mi))
    c = [int(x) for x in up.charpoly(k)]
    adj = xn.identity(len(k))
    for ci in reversed(c[1:-1]):
        adj = xn.add_scalar(xn.mat_mul(k, adj), ci)
    # K^-1 = adj / -c_0 spans the lattice of adj / |c_0|: a sign is a unit
    lat = FullLattice.from_key(alg, xn.int_key(adj, abs(c[0])))
    # the order of lat contains Z[t] iff t*lat lies in lat
    if _on_canonical_basis(lat, t) is None:  # pragma: no cover - theorem
        raise AssertionError("constructed lattice is not stable under t")
    lat.defer_order(partial(centralizer_order, alg, a.powers))
    return lat


def centralizer_order(alg: Algebra, powers) -> FullLattice:
    """The order {sum c_i t^i : sum c_i m^i integral} of the lattice of a
    regular integer matrix m in alg = Q[t]/(f) (Latimer-MacDuffee), from the
    flattened powers I, m, ..., m^(n-1).

    Those c are the vectors with an integral dot product with each of the
    n^2 rows (I[r][s], m[r][s], ..., m^(n-1)[r][s]) of the power matrix: the
    standard dual of the lattice those rows span.  With H its upper
    triangular HNF basis, that dual is spanned by the rows of H^-1 =
    adj(H) / det H, that is by the columns of adj(H)^T / det H, and adj(H)
    solves H y = det(H) I by back-substitution.
    """
    n = len(powers)
    h = xn.hnf(tuple(tuple(int(x) for x in vec) for vec in powers))
    d = prod(h[i][i] for i in range(n))
    adj = xn.solve_upper(h, xn.identity(n, d))
    return FullLattice.from_key(alg, xn.int_key(xn.transpose(adj), d))


def _on_canonical_basis(lat: FullLattice, x) -> xn.Mat | None:
    """The integer matrix of multiplication by x on the canonical basis of
    lat, or None when it is not integral.  With (H, d) the key, x = y/k for
    an integer y and D the algebra's denominator, x times the basis column
    H_j/d is int_mul(y, H_j) / (D k d), so the matrix is the integer
    coordinates of those products."""
    alg = lat.algebra
    h, d = lat.key
    (y,), k = xn.clear_denominators([x])
    prods = [alg.int_mul(y, col) for col in zip(*h)]
    return lat.int_coords(xn.from_columns(prods), alg.den * k * d)


def matrix_for(lat: FullLattice, x, basis=None) -> xn.Mat:
    """Integer matrix of multiplication by x on a basis of the lattice.

    ``basis`` defaults to the canonical basis; a DomainError names a witness
    generator when the lattice is not stable under x.
    """
    alg = lat.algebra
    if basis is None:
        b = lat.basis
        out = _on_canonical_basis(lat, x)
    else:
        b = xn.mat_fractions(basis)
        if FullLattice.from_basis_matrix(alg, b) != lat:
            raise DomainError("matrix_for: given basis does not span the lattice")
        out = xn.mat_mul(xn.rmat_inv(b), xn.mat_mul(alg.mult_matrix(x), b))
        out = xn.mat_int(out) if xn.mat_is_integral(out) else None
    if out is None:
        for g in xn.columns(b):
            if alg.mul(x, g) not in lat:
                raise DomainError(
                    f"lattice is not stable under the element: witness generator {g}")
        raise DomainError("lattice is not stable under the element")
    return out


def lattice_to_matrix(lat: FullLattice, basis=None) -> xn.Mat:
    """Integer matrix of multiplication by the algebra generator (Eq. of the
    correspondence); requires the order of the lattice to contain Z[t]."""
    if lat.algebra.generator is None:
        raise DomainError("lattice_to_matrix: algebra has no distinguished generator")
    return matrix_for(lat, lat.algebra.generator, basis)


def same_class(m1, m2, bound: int = 3):
    """Decide GL_n(Z)-conjugacy where a procedure exists; either matrix may be
    given as its MatrixAnalysis.

    Returns True / False, or None when undecided.  A family with a complete
    invariant (families.INVARIANTS) is decided by comparing it; any other
    pair goes to the bounded transporter search, which is sound but
    incomplete.
    """
    a1, a2 = analyse(m1), analyse(m2)
    if _integral(a1.charpoly) != _integral(a2.charpoly):
        raise DomainError("same_class: characteristic polynomials differ")
    if not (a1.regular and a2.regular):
        raise DomainError("same_class: matrices must be regular")
    a2.spectrum = a1.spectrum   # one f, so one spectrum for the pair
    if a1.invariant is not None:
        return a1.invariant == a2.invariant
    return epsilon_equivalent_bounded(a1.lattice, a2.lattice, bound)


def class_product(m1, m2) -> xn.Mat:
    """A representative of the product conjugacy class, via lattice product."""
    a1, a2 = analyse(m1), analyse(m2)
    if _integral(a1.charpoly) != _integral(a2.charpoly):
        raise DomainError("class_product: characteristic polynomials differ")
    return lattice_to_matrix(a1.lattice * a2.lattice)
