"""Full lattices in a commutative Q-algebra and their semigroup operations.

A lattice is identified by an integer key (H, d): d > 0 is the least
integer that makes the generators integral and H the column Hermite normal
form of d times them.  H/d is the canonical basis, and as d is least, H and
d share no common factor, so the key is unique.  Each algebra keeps its live
lattices in a table keyed weakly by (H, d), and constructing a lattice
returns the object already in the table when there is one: there is one
object per value, and equality and hashing compare keys.

Products and product coordinates run on the key, in integers.  With the
algebra's integer rows over D (see the algebra module), the products of
the basis columns of keys (H1, d1) and (H2, d2) are P/(D d1 d2) for the
integer products P of the columns of H1 and H2; key_product takes one HNF
of P and divides it and D d1 d2 by their common factor, and
key_product_coords back-substitutes P (with 1) on H.  No generator list and
no Fraction arithmetic is involved.

A lattice is immutable, so what it computes about itself is kept and shared
by every construction of it: the inverse of its basis (duals, intersections,
the stacked colon; membership and containment back-substitute on H), the
coordinates of its basis products (is_order), its order and its dual under
the canonical metric, the columns of G^-1 (B^-1)^T, from the basis inverse
B^-1 and the inverse Gram matrix G^-1 that each MultMetric computes once.
L1 * L2 and L1.colon(L2) remember the key of their result on the operands,
in a table keyed weakly by the partner lattice and made on first use, so a
lattice keeps nothing for partners that have died.  A cached dual or product
is kept as a key and looked up in the table again, and an order keeps no
reference to itself, so lattices form no reference cycles and die as soon as
they are dropped.  Two threads building the same lattice at once may make
two equal objects, which is harmless: equality is by value.
"""

from __future__ import annotations

from math import gcd, lcm
from weakref import WeakKeyDictionary

from . import exactnum as xn
from .algebra import Algebra, MultMetric, canonical_metric
from .errors import DomainError, ResourceError

# the largest exponent FullLattice.power takes while the powers still grow
POWER_CAP = 64


class FullLattice:
    """Rank-n Z-lattice spanning the algebra over Q, one object per value."""

    __slots__ = ("algebra", "key", "basis", "_inv", "_dual", "_order", "_products",
                 "_memo", "__weakref__")

    def __new__(cls, algebra: Algebra, generators):
        gens = [tuple(map(xn.rational, g)) for g in generators]
        if not gens or any(len(g) != algebra.dim for g in gens):
            raise DomainError("generators must be coefficient vectors of full length")
        return cls.from_key(algebra, xn.hnf_key(gens))

    def __init__(self, algebra: Algebra, generators):
        """Construction runs in __new__, which may return a lattice already
        built."""

    @classmethod
    def from_key(cls, algebra: Algebra, key) -> "FullLattice":
        """The live lattice of the algebra with the canonical key (H, d), or
        a new one."""
        lat = algebra._lattices.get(key)
        if lat is None:
            lat = object.__new__(cls)
            lat.algebra = algebra
            lat.key = key
            lat.basis = xn.key_basis(*key)
            lat._inv = None
            lat._dual = None      # (metric, key of the dual under it)
            lat._order = None     # O(L), True when L is an order, or defer_order's function
            lat._products = None  # product_coords(), or False when L is no order
            lat._memo = None      # partner -> {op: key of the result}, weakly keyed
            algebra._lattices[key] = lat
        return lat

    @classmethod
    def from_basis_matrix(cls, algebra, matrix) -> "FullLattice":
        return cls(algebra, xn.columns(matrix))

    def generators(self) -> list[tuple]:
        return xn.columns(self.basis)

    # -- identity -------------------------------------------------------------
    def __eq__(self, other):
        return self is other or (isinstance(other, FullLattice)
                                 and self.algebra is other.algebra
                                 and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FullLattice({self.basis})"

    def _same_algebra(self, other):
        if self.algebra is not other.algebra:
            raise DomainError("lattices live in different algebras")

    def _recall(self, op: str, other):
        """The key of `self op other` remembered on self, or None."""
        keys = None if self._memo is None else self._memo.get(other)
        return None if keys is None else keys.get(op)

    def _remember(self, op: str, other, result: "FullLattice") -> "FullLattice":
        """Remember on self that `self op other` is result; returns result."""
        if self._memo is None:
            self._memo = WeakKeyDictionary()
        self._memo.setdefault(other, {})[op] = result.key
        return result

    # -- membership and containment -------------------------------------------
    def _inverse(self) -> xn.Mat:
        if self._inv is None:
            self._inv = xn.rmat_inv(self.basis)
        return self._inv

    def in_basis(self, m) -> xn.Mat:
        """basis^-1 * m: the coordinates of m's columns in the canonical basis."""
        return xn.mat_mul(self._inverse(), m)

    def int_coords(self, y, k: int = 1) -> xn.Mat | None:
        """The integer z with basis * z = y / k for an integer matrix y, or
        None when a column of y / k is not in L (key_coords on the key)."""
        return key_coords(self.key, y, k)

    def contains(self, x) -> bool:
        y, k = xn.clear_denominators([(c,) for c in self.algebra.element(x)])
        return self.int_coords(y, k) is not None

    def __contains__(self, x):
        return self.contains(x)

    def contains_lattice(self, other) -> bool:
        self._same_algebra(other)
        return self.int_coords(*other.key) is not None

    # -- scaling ---------------------------------------------------------------
    def scale(self, factor) -> "FullLattice":
        """Multiply by a nonzero rational or an invertible algebra element
        (a tuple or list of coefficients)."""
        if not isinstance(factor, (tuple, list)):
            factor = xn.rational(factor)
            if factor == 0:
                raise DomainError("cannot scale a lattice by zero")
            return FullLattice(self.algebra,
                               [tuple(factor * c for c in g) for g in self.generators()])
        m = self.algebra.mult_matrix(self.algebra.element(factor))
        if xn.det(m) == 0:
            raise DomainError("scaling element is not invertible")
        return FullLattice(self.algebra, xn.columns(xn.mat_mul(m, self.basis)))

    # -- semigroup operations ----------------------------------------------------
    def __add__(self, other) -> "FullLattice":
        self._same_algebra(other)
        return FullLattice(self.algebra, self.generators() + other.generators())

    def intersect(self, other) -> "FullLattice":
        # (L1 cap L2) = dual(dual L1 + dual L2) under the standard inner product
        self._same_algebra(other)
        d1 = _std_dual(self)
        d2 = _std_dual(other)
        return _std_dual(d1 + d2)

    def __and__(self, other) -> "FullLattice":
        return self.intersect(other)

    def __mul__(self, other):
        if isinstance(other, FullLattice):
            self._same_algebra(other)
            key = self._recall("*", other)
            if key is not None:
                return FullLattice.from_key(self.algebra, key)
            out = FullLattice.from_key(self.algebra,
                                       key_product(self.algebra, self.key, other.key))
            other._remember("*", self, out)
            return self._remember("*", other, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def power(self, k: int) -> "FullLattice":
        """L^k for k >= 1.

        Multiplies by L until the k-th power or until a power repeats.  When
        L^(j+1) is some earlier L^i, the powers from L^i on run through L^i,
        ..., L^j again and again, so L^k = L^(i + (k - i) mod (j + 1 - i)).
        Lattices are interned, so a repeat is found by identity.  When L
        holds 1 and lies in an order, the powers grow to an order and stay
        there (see dedekind_chain).  Raises ResourceError when k > POWER_CAP
        (64) and L^1, ..., L^64 are all distinct.
        """
        if k < 1:
            raise DomainError("power: exponent must be >= 1")
        powers = [self]           # powers[i] is L^(i+1)
        index = {id(self): 0}
        while len(powers) < min(k, POWER_CAP):
            nxt = powers[-1] * self
            i = index.get(id(nxt))
            if i is not None:
                return powers[i + (k - 1 - i) % (len(powers) - i)]
            index[id(nxt)] = len(powers)
            powers.append(nxt)
        if k > POWER_CAP:
            raise ResourceError(f"power: L^1, ..., L^{POWER_CAP} are all distinct and "
                                f"the exponent {k} is above the cap of {POWER_CAP}")
        return powers[-1]

    def __pow__(self, k: int) -> "FullLattice":
        return self.power(k)

    # -- colon quotients ----------------------------------------------------------
    def colon(self, other) -> "FullLattice":
        """{a in A | a*other subset of self}; metric route with a stacked
        fallback, remembered on self."""
        self._same_algebra(other)
        key = self._recall(":", other)
        if key is not None:
            return FullLattice.from_key(self.algebra, key)
        return self._remember(":", other, self._colon(other))

    def _colon(self, other) -> "FullLattice":
        if self.algebra.family == "cyclic":
            return self.colon_dual(other, canonical_metric(self.algebra))
        return self.colon_stacked(other)

    def colon_stacked(self, other) -> "FullLattice":
        """Colon quotient via stacked integrality conditions: x lies in
        self : other iff for every generator g of other, in_basis(g*x) is
        integral, i.e. iff x pairs integrally with every row of the matrices
        in_basis(mult_matrix(g)).  So it is the standard dual of the lattice
        those rows span."""
        self._same_algebra(other)
        rows = [row for g in other.generators()
                for row in self.in_basis(self.algebra.mult_matrix(g))]
        return _std_dual(FullLattice(self.algebra, rows))

    def colon_dual(self, other, phi: MultMetric) -> "FullLattice":
        """Colon quotient via the duality identity (self^phi * other)^phi."""
        self._same_algebra(other)
        return (self.dual(phi) * other).dual(phi)

    # -- duality ---------------------------------------------------------------
    def dual(self, phi: MultMetric | None = None) -> "FullLattice":
        """Dual lattice under a multiplicative metric (canonical by default):
        {x | phi(L, x) in Z}, spanned by the columns of (B^T G)^-1 =
        G^-1 (B^-1)^T.  Raises DomainError for a degenerate metric."""
        if phi is None:
            phi = canonical_metric(self.algebra)
        if phi.algebra is not self.algebra:
            raise DomainError("metric belongs to a different algebra")
        if self._dual is not None and self._dual[0] is phi:
            return FullLattice.from_key(self.algebra, self._dual[1])
        m = xn.mat_mul(phi.gram_inv, xn.transpose(self._inverse()))
        d = FullLattice.from_basis_matrix(self.algebra, m)
        self._dual = (phi, d.key)
        if phi.symmetric:
            d._dual = (phi, self.key)
        return d

    # -- orders -----------------------------------------------------------------
    def product_coords(self) -> xn.Mat | None:
        """The integer coordinates of 1 and of the n(n+1)/2 products b_i b_j
        (i <= j) of basis elements, in that order, or None when one of them
        is not in L."""
        if self._products is None:
            self._products = key_product_coords(self.algebra, self.key) or False
        return self._products or None

    def is_order(self) -> bool:
        """Whether 1 and the products of basis elements lie in L."""
        return self.product_coords() is not None

    def order(self) -> "FullLattice":
        """The order of this lattice, O(L) = L : L, or the lattice that
        defer_order named, computed and validated on first use.  A lattice
        known to be an order is its own order (1 in L makes L : L lie in L)
        and keeps no reference to itself, which would be a cycle."""
        o = self._order
        if isinstance(o, FullLattice):
            return o
        if o is True or self._products:
            self._order = True
            return self
        o = self._colon(self) if o is None else o()
        if not o.is_order():  # pragma: no cover - would be an internal bug
            raise AssertionError("the order of a lattice failed validation")
        self._order = True if o is self else o
        return o

    def defer_order(self, compute):
        """Let order() take O(L) from compute() in place of L : L, for a
        lattice whose order another route reads off more cheaply."""
        if self._order is None:
            self._order = compute

    def is_invertible(self) -> bool:
        """Whether L * (O(L) : L) = O(L), which holds when O(L) is Gorenstein
        (Bass, 1963): always in rank 2, where O(L) = Z[x] for any x completing
        1 to a basis, and in rank 3 when its cubic_form is primitive
        (Gan-Gross-Savin, Duke 2002).  Otherwise the product decides."""
        if self.algebra.dim <= 2:
            return True
        o = self.order()
        if self.algebra.dim == 3 and gcd(*cubic_form(o)) == 1:
            return True
        return self * o.colon(self) == o


def key_coords(key, y, k: int = 1) -> xn.Mat | None:
    """The integer z with (H/d) * z = y / k for the key (H, d) and an
    integer matrix y, or None when a column of y / k is not in the lattice
    H/d: integer back-substitution on the triangular H z = d y / k."""
    h, d = key
    g = gcd(d, k)
    if g < d:
        y = tuple(tuple(x * (d // g) for x in row) for row in y)
    return xn.solve_upper(h, y, k // g)


def _column_products(alg: Algebra, h1, h2=None) -> list[list[int]]:
    """D times the products of the columns of the integer matrices h1 and
    h2: every pair, or the pairs i <= j of h1's columns without h2."""
    c1 = xn.columns(h1)
    if h2 is None:
        return [alg.int_mul(a, b) for i, a in enumerate(c1) for b in c1[i:]]
    c2 = xn.columns(h2)
    return [alg.int_mul(a, b) for a in c1 for b in c2]


def key_product(alg: Algebra, key1, key2):
    """The key of the product of the lattices with keys (H1, d1) and (H2, d2):
    the products of their columns are P/(D d1 d2) for the integer products P
    of the columns of H1 and H2 (of H1's pairs i <= j for a square)."""
    (h1, d1), (h2, d2) = key1, key2
    prods = _column_products(alg, h1, None if key1 == key2 else h2)
    return xn.int_key(xn.from_columns(prods), alg.den * d1 * d2)


def key_product_coords(alg: Algebra, key) -> xn.Mat | None:
    """The integer coordinates of 1 and of the n(n+1)/2 products b_i b_j
    (i <= j) of the basis H/d of the key (H, d), or None when one of them is
    not in the lattice: the products of H's columns are P/(D d^2) for the
    integer products P, and all are back-substituted on H at once."""
    h, d = key
    unit, du = alg.unit_key
    k = alg.den * d * d
    m = lcm(k, du)
    cols = [[x * (m // du) for x in unit]]
    cols += [[x * (m // k) for x in p] for p in _column_products(alg, h)]
    return key_coords(key, xn.from_columns(cols), m)


def product_table(o: FullLattice) -> tuple[tuple[int, ...], list[list[tuple[int, ...]]]]:
    """(u, p) for an order o with canonical basis b: the integer coordinates
    u of 1 and p[i][j] of b_i b_j in b, unpacked from product_coords().
    Raises DomainError unless o is an order."""
    prods = o.product_coords()
    if prods is None:
        raise DomainError("the lattice is not an order")
    one, *cols = zip(*prods)
    n = len(one)
    p = [[None] * n for _ in range(n)]
    it = iter(cols)
    for i in range(n):
        for j in range(i, n):
            p[i][j] = p[j][i] = next(it)
    return one, p


def faddeev_data(o: FullLattice) -> tuple[int, int, int, int, tuple, tuple]:
    """The multiplication data (a, b, c, d, w1, w2) of a rank-3 order o
    (Delone-Faddeev): o has the basis (1, w1, w2), given by integer
    coordinates in its canonical basis B, with w1 w2 = a d, w1^2 = -a c +
    b w1 + a w2 and w2^2 = -b d + d w1 + c w2.

    The coordinates of 1 are completed to a unimodular V, the integer product
    table is carried into the basis B V = (1, v1, v2), and v1, v2 are shifted
    by the integers that make their product a scalar.  The constants follow
    from associativity (Gan-Gross-Savin, Duke 2002), so only the w1 and w2
    coefficients are read.  Raises DomainError unless o is a rank-3 order."""
    if o.algebra.dim != 3:
        raise DomainError("the order must be 3-dimensional")
    one, p = product_table(o)
    if one == (1, 0, 0):
        v1, v2 = (0, 1, 0), (0, 0, 1)
        sq1, pr, sq2 = p[1][1], p[1][2], p[2][2]
    else:
        v = xn.complete_to_basis(one)
        _, v1, v2 = xn.columns(v)
        rows = xn.unimodular_inverse(v)

        def times(x, y):
            """The coordinates in B V of the product of x and y, given in B."""
            z = [sum(xi * yj * p[i][j][r] for i, xi in enumerate(x) if xi
                     for j, yj in enumerate(y) if yj) for r in range(3)]
            return xn.mat_vec(rows, z)

        sq1, pr, sq2 = times(v1, v1), times(v1, v2), times(v2, v2)
    k1, k2 = pr[1], pr[2]
    w1 = tuple(x - k2 * u for x, u in zip(v1, one))
    w2 = tuple(x - k1 * u for x, u in zip(v2, one))
    return sq1[2], sq1[1] - 2 * k2, sq2[2] - 2 * k1, sq2[1], w1, w2


def cubic_form(o: FullLattice) -> tuple[int, int, int, int]:
    """The binary cubic form (Delone-Faddeev) of a rank-3 order o, whose
    content decides whether o is Gorenstein: (-a, b, -c, d) for the
    multiplication data (a, b, c, d) of faddeev_data."""
    a, b, c, d, _, _ = faddeev_data(o)
    return -a, b, -c, d


def _std_dual(l: FullLattice) -> FullLattice:
    """Dual under the standard inner product (a pure Z-module operation):
    the columns of (basis^T)^-1, i.e. the rows of basis^-1."""
    return FullLattice(l.algebra, l._inverse())


def index(sup: FullLattice, sub: FullLattice) -> int:
    """[sup : sub] for nested full lattices: det of sub's coordinates in sup."""
    sup._same_algebra(sub)
    t = sup.int_coords(*sub.key)
    if t is None:
        raise DomainError("index: second lattice is not contained in the first")
    return xn.det(t)


def dedekind_chain(l: FullLattice) -> list[FullLattice]:
    """The chain L < L^2 < ... < L^m = L^{m+1}; the last entry is an order.

    Requires 1 in L; the powers must stabilize within 4*dim steps.
    """
    if not l.contains(l.algebra.unit):
        raise DomainError("dedekind_chain: lattice does not contain 1")
    chain = [l]
    for _ in range(4 * l.algebra.dim):
        nxt = chain[-1] * l
        if nxt == chain[-1]:
            return chain
        if not nxt.contains_lattice(chain[-1]):  # pragma: no cover - 1 in L forbids
            raise DomainError("dedekind_chain: powers are not increasing")
        chain.append(nxt)
    raise DomainError("dedekind_chain: powers did not stabilize, "
                      "lattice is not contained in an order")


def span(algebra: Algebra, generators) -> FullLattice:
    """Convenience constructor for the lattice generated by coefficient vectors."""
    return FullLattice(algebra, generators)
