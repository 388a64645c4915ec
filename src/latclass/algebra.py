"""Finite dimensional commutative Q-algebras with unit.

An algebra is given by structure constants C with e_i*e_j = sum_k C[i][j][k] e_k;
elements are coefficient tuples of Fractions with respect to that basis.

The constants are kept once in integers, worked out on first use: D > 0
(`den`) is the least integer that makes D*C integral, and rows[i][j] lists
the pairs (k, D*C[i][j][k]) with a nonzero entry, so e_i*e_j = (1/D) sum
s e_k over (k, s) in rows[i][j].
These rows are the only multiplication kernel: mul takes Fraction
coefficients through them and divides by D, and int_mul takes integer
coefficients and returns the integer D*(x*y), which is what the lattice
products and order checks of the lattice module run on.  `structure` is the
public Fraction view of the same constants.  unit_key is the unit in the
same spirit: (u, du) with u integral and unit = u/du.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple
from weakref import WeakValueDictionary

from . import exactnum as xn
from . import poly as up
from .errors import DomainError, RankError, UnsupportedError

Element = tuple[Fraction, ...]


class Algebra:
    """Commutative Q-algebra with unit, defined by structure constants."""

    def __init__(self, structure, unit, label=None, family="generic",
                 defining_poly=None, generator=None, validate=True):
        self.structure = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in structure
        )
        self.dim = len(self.structure)
        self.unit = tuple(Fraction(x) for x in unit)
        self.label = label
        self.family = family
        self.defining_poly = defining_poly
        self.generator = tuple(Fraction(x) for x in generator) if generator else None
        self._metric = None   # the canonical metric, built on first use
        self._lattices = WeakValueDictionary()   # lattice key -> live FullLattice
        if validate:
            self.validate()

    # -- the integer kernel, worked out on first use -------------------------
    @cached_property
    def den(self) -> int:
        """D, the least integer > 0 that makes D * structure integral."""
        return lcm(*(x.denominator for plane in self.structure
                     for row in plane for x in row))

    @cached_property
    def rows(self) -> tuple:
        """rows[i][j] lists the pairs (k, D * C[i][j][k]) with a nonzero entry."""
        d = self.den
        return tuple(tuple(tuple((k, x.numerator * (d // x.denominator))
                                 for k, x in enumerate(row) if x) for row in plane)
                     for plane in self.structure)

    @cached_property
    def unit_key(self) -> tuple[tuple[int, ...], int]:
        """(u, du) with u integral and unit = u / du."""
        du = lcm(*(c.denominator for c in self.unit))
        return tuple(c.numerator * (du // c.denominator) for c in self.unit), du

    # -- construction checks -------------------------------------------------
    def validate(self):
        n = self.dim
        basis = [self.basis_element(i) for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                if self.structure[i][j] != self.structure[j][i]:
                    raise DomainError("structure constants are not commutative")
        for i in range(n):
            if self.mul(self.unit, basis[i]) != basis[i]:
                raise DomainError("unit element does not act as identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self.mul(self.mul(basis[i], basis[j]), basis[k])
                    right = self.mul(basis[i], self.mul(basis[j], basis[k]))
                    if left != right:
                        raise DomainError("structure constants are not associative")

    # -- element arithmetic ---------------------------------------------------
    def basis_element(self, i) -> Element:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def element(self, coeffs) -> Element:
        v = tuple(map(xn.rational, coeffs))
        if len(v) != self.dim:
            raise DomainError("element has wrong length")
        return v

    def scalar(self, q) -> Element:
        q = xn.rational(q)
        return tuple(q * c for c in self.unit)

    def int_mul(self, x, y) -> list:
        """D * (x*y) for coefficient vectors x and y, through the integer
        rows: a list of ints when x and y are integral."""
        out = [0] * self.dim
        for xi, plane in zip(x, self.rows):
            if xi:
                for yj, row in zip(y, plane):
                    if yj:
                        c = xi * yj
                        for k, s in row:
                            out[k] += c * s
        return out

    def mul(self, x, y) -> Element:
        d = self.den
        # an entry stays an int where no term was added to it
        return tuple(Fraction(c, d) if type(c) is int else c / d if d > 1 else c
                     for c in self.int_mul(x, y))

    def add(self, x, y) -> Element:
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y) -> Element:
        return tuple(a - b for a, b in zip(x, y))

    def smul(self, q, x) -> Element:
        q = xn.rational(q)
        return tuple(q * a for a in x)

    def mult_matrix(self, x) -> xn.Mat:
        """Matrix of multiplication by x with respect to the algebra basis."""
        n = self.dim
        cols = [self.mul(x, [int(i == j) for i in range(n)]) for j in range(n)]
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

    def is_unit(self, x) -> bool:
        return xn.det(self.mult_matrix(x)) != 0

    def inv(self, x) -> Element | None:
        """x^-1, or None when x is a zero divisor."""
        return xn.solve(self.mult_matrix(x), self.unit)

    def norm(self, x) -> Fraction:
        return xn.det(self.mult_matrix(x))

    def eval_poly(self, p, x) -> Element:
        out = self.scalar(0)
        for c in reversed(p):
            out = self.add(self.mul(out, x), self.scalar(c))
        return out

    def __repr__(self):
        tag = self.label or self.family
        return f"Algebra(dim={self.dim}, {tag})"


# ---------------------------------------------------------------------------
# constructors

def cyclic_algebra(f) -> tuple[Algebra, Element]:
    """The algebra Q[t]/(f) with basis (1, g, ..., g^{n-1}); returns (A, g)."""
    f = up.poly(f)
    if not up.is_monic(f) or up.degree(f) < 1:
        raise DomainError("cyclic_algebra: polynomial must be monic of degree >= 1")
    n = up.degree(f)
    # t^k mod f for k < 2n - 1: t times p is p shifted up one place, less
    # its top coefficient times the monic f
    powers = [tuple(Fraction(int(i == k)) for i in range(n)) for k in range(n)]
    for _ in range(n - 1):
        p = powers[-1]
        powers.append(tuple((p[i - 1] if i else 0) - p[-1] * f[i] for i in range(n)))
    structure = [[powers[i + j] for j in range(n)] for i in range(n)]
    unit = [1] + [0] * (n - 1)
    gen = [0, 1] + [0] * (n - 2) if n >= 2 else [-f[0]]
    alg = Algebra(structure, unit, label=f"Q[t]/({up.to_string(f)})", family="cyclic",
                  defining_poly=f, generator=gen, validate=False)
    return alg, alg.generator


def split_algebra(n: int) -> Algebra:
    """Q e_1 + ... + Q e_n with e_i e_j = delta_ij e_i."""
    structure = [[[Fraction(1) if i == j == k else Fraction(0) for k in range(n)]
                  for j in range(n)] for i in range(n)]
    return Algebra(structure, [1] * n, label=f"Q^{n}", family="split", validate=False)


def mixed_algebra() -> Algebra:
    """Q e1 + Q e2 + Q a with e_i e_j = delta_ij e_i, e1 a = 0, e2 a = a, a^2 = 0."""
    z = Fraction(0)
    o = Fraction(1)
    e1e1 = (o, z, z)
    e2e2 = (z, o, z)
    zero = (z, z, z)
    a_ = (z, z, o)
    structure = (
        (e1e1, zero, zero),   # e1*e1, e1*e2, e1*a
        (zero, e2e2, a_),     # e2*e1, e2*e2, e2*a
        (zero, a_, zero),     # a*e1, a*e2, a*a
    )
    return Algebra(structure, (1, 1, 0), label="Q e1 + Q e2 + Q a", family="mixed",
                   validate=False)


def flat3_algebra() -> Algebra:
    """Q 1 + Q a + Q b with a^2 = ab = b^2 = 0 (the non-cyclic 3-dim algebra)."""
    z = Fraction(0)
    o = Fraction(1)
    one = (o, z, z)
    a_ = (z, o, z)
    b_ = (z, z, o)
    zero = (z, z, z)
    structure = (
        (one, a_, b_),
        (a_, zero, zero),
        (b_, zero, zero),
    )
    return Algebra(structure, (1, 0, 0), label="Q[x,y]/(x^2,xy,y^2)", family="flat3",
                   validate=False)


# ---------------------------------------------------------------------------
# multiplicative metrics

class MultMetric:
    """A nondegenerate multiplication-invariant symmetric bilinear form.

    Its inverse Gram matrix and symmetry are worked out once, on first use.
    Two metrics are equal when their algebras and Gram matrices are.
    """
    __slots__ = ("algebra", "gram", "_gram_inv", "_symmetric")

    def __init__(self, algebra: Algebra, gram: xn.Mat):
        self.algebra, self.gram = algebra, gram
        self._gram_inv = self._symmetric = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.algebra, self.gram) == (other.algebra, other.gram)

    def __hash__(self):
        return hash((self.algebra, self.gram))

    def __repr__(self):
        return f"MultMetric(algebra={self.algebra!r}, gram={self.gram!r})"

    def pairing(self, x, y) -> Fraction:
        return sum(Fraction(xi) * g for xi, g in zip(x, xn.mat_vec(self.gram, y)))

    @property
    def gram_inv(self) -> xn.Mat:
        """The inverse Gram matrix, computed once per metric; raises
        DomainError while the metric is degenerate."""
        if self._gram_inv is None:
            n = self.algebra.dim
            if len(self.gram) != n or any(len(row) != n for row in self.gram):
                raise DomainError("metric: the Gram matrix must be dim x dim")
            try:
                self._gram_inv = xn.rmat_inv(self.gram)
            except RankError:
                raise DomainError("metric is degenerate") from None
        return self._gram_inv

    @property
    def symmetric(self) -> bool:
        """Whether the Gram matrix equals its transpose."""
        if self._symmetric is None:
            g = self.gram
            self._symmetric = all(g[i][j] == g[j][i]
                                  for i in range(len(g)) for j in range(i))
        return self._symmetric

    def validate(self):
        n = self.algebra.dim
        self.gram_inv    # raises DomainError for a misshapen or degenerate metric
        if not self.symmetric:
            raise DomainError("metric is not symmetric")
        basis = [self.algebra.basis_element(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ab = self.algebra.mul(basis[i], basis[j])
                    bc = self.algebra.mul(basis[j], basis[k])
                    if self.pairing(ab, basis[k]) != self.pairing(basis[i], bc):
                        raise DomainError("metric is not multiplication invariant")


def canonical_metric(alg: Algebra) -> MultMetric:
    """Gram matrix G_ij = l(g^{i+j}) where l vanishes on 1, g, ..., g^{n-2}
    and takes value 1 on g^{n-1}; requires a cyclic power-basis presentation.
    Built once per algebra and kept on it."""
    if alg.family != "cyclic" or alg.defining_poly is None:
        raise UnsupportedError("canonical_metric: algebra is not in cyclic presentation")
    if alg._metric is None:
        # g^i g^j = g^(i+j) mod f is the structure row (i, j)
        n = alg.dim
        gram = tuple(tuple(alg.structure[i][j][n - 1] for j in range(n))
                     for i in range(n))
        alg._metric = MultMetric(alg, gram)
    return alg._metric


# ---------------------------------------------------------------------------
# structure decomposition

class Decomposition(NamedTuple):
    """Orthogonal idempotents, component bases, separable part and radical."""
    algebra: Algebra
    components: tuple  # tuple of (idempotent, tuple of component basis vectors)
    separable_basis: tuple
    radical_basis: tuple
    projection: xn.Mat  # matrix of pr_F : A -> A (image spans separable part)

    def project(self, x) -> Element:
        return xn.mat_vec(self.projection, x)

    def coords(self, x) -> tuple:
        """The coordinates of pr_F(x) in the separable basis."""
        rows = [[v[i] for v in self.separable_basis] for i in range(self.algebra.dim)]
        return xn.solve(rows, self.project(x))


def _semisimple_part(alg: Algebra) -> Element:
    """Jordan-Chevalley semisimple part of the generator, by Newton iteration
    on the squarefree part of the defining polynomial."""
    f = alg.defining_poly
    radical = up.divexact(f, up.gcd(f, up.derivative(f)))
    s = alg.generator
    gp = up.derivative(radical)
    for _ in range(alg.dim + 1):
        val = alg.eval_poly(radical, s)
        if all(c == 0 for c in val):
            return s
        dinv = alg.inv(alg.eval_poly(gp, s))
        s = alg.sub(s, alg.mul(val, dinv))
    raise DomainError("semisimple part iteration did not converge")  # pragma: no cover


def decompose(alg: Algebra) -> Decomposition:
    """Canonical decomposition into components, separable part and radical."""
    n = alg.dim
    if alg.family == "cyclic":
        f = alg.defining_poly
        factors = up.factor_rationals(f)
        idems = []
        for fj, mult in factors:
            pj = up.power(fj, mult)
            qj = up.divexact(f, pj)
            g, u, _ = up.xgcd(qj, pj)
            if up.degree(g) != 0:  # pragma: no cover - factors are coprime
                raise DomainError("idempotent computation failed")
            idem = alg.eval_poly(up.mod(up.mul(u, qj), f), alg.generator)
            idems.append(idem)
        s = _semisimple_part(alg)
        proj_cols = [alg.unit]
        acc = alg.unit
        for _ in range(n - 1):
            acc = alg.mul(acc, s)
            proj_cols.append(acc)
        projection = tuple(tuple(proj_cols[j][i] for j in range(n)) for i in range(n))
    elif alg.family == "split":
        idems = [alg.basis_element(i) for i in range(n)]
        projection = xn.identity(n, Fraction(1))
    elif alg.family == "mixed":
        idems = [alg.basis_element(0), alg.basis_element(1)]
        projection = xn.mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    elif alg.family == "flat3":
        idems = [alg.unit]
        projection = xn.mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    else:
        raise UnsupportedError(f"decompose: unsupported algebra family {alg.family!r}")

    components = []
    for idem in idems:
        comp_basis = xn.column_space_basis(alg.mult_matrix(idem))
        components.append((tuple(idem), tuple(comp_basis)))
    separable = xn.column_space_basis(xn.mat_fractions(projection))
    radical = xn.nullspace(xn.mat_fractions(projection))
    return Decomposition(alg, tuple(components), tuple(separable), tuple(radical),
                         xn.mat_fractions(projection))
