"""Binary quadratic forms: the trace-matched matrix correspondence, Legendre
reduction, the finite semi-normal-form windows, the Conway river with its
period and automorph, quadratic-order data, and the SL2 vs GL2 split test.

The form [a,h,b] is a*x1^2 + h*x1*x2 + b*x2^2; a 2x2 matrix [[a,b],[c,d]]
with fixed trace corresponds to the form [c, d-a, -b].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from . import exactnum as xn
from . import poly as up
from .classes import QUOTIENT_CAP, finite_quotient, quotient_unit_reps, quotient_units
from .conjugacy import algebra_for_poly
from .errors import DomainError, ResourceError
from .lattice import FullLattice


class QuadForm(NamedTuple):
    a: int
    h: int
    b: int

    def four_disc(self) -> int:
        return self.h * self.h - 4 * self.a * self.b

    def reversed(self) -> "QuadForm":
        """The same unoriented edge read in the opposite direction."""
        return QuadForm(self.b, -self.h, self.a)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# matrix <-> form correspondence

def form_of_matrix(m) -> QuadForm:
    (a, b), (c, d) = m
    return QuadForm(int(c), int(d) - int(a), -int(b))


def matrix_of_form(f: QuadForm, trace: int) -> xn.Mat:
    if (trace - f.h) % 2:
        raise DomainError("matrix_of_form: trace and middle coefficient parity differ")
    a = (trace - f.h) // 2
    d = (trace + f.h) // 2
    return ((a, -f.b), (f.a, d))


def _conj_t(m, k: int) -> xn.Mat:
    """T^{-k} m T^k for T = [[1,1],[0,1]]."""
    (a, b), (c, d) = m
    return ((a - k * c, b + k * (a - d) - k * k * c), (c, d + k * c))


def _conj_s(m) -> xn.Mat:
    """S^{-1} m S for S = [[0,-1],[1,0]]."""
    (a, b), (c, d) = m
    return ((d, -c), (-b, a))


def _conj_flip(m) -> xn.Mat:
    """conjugation by diag(1,-1), the orientation-reversing generator."""
    (a, b), (c, d) = m
    return ((a, -b), (-c, d))


def legendre_reduce(m) -> xn.Mat:
    """Reduce into the window 0 < |c| <= |b|, a-d in (-|c|,|c|] with the
    boundary rule; requires an irreducible characteristic polynomial."""
    (a, b), (c, d) = (tuple(map(int, m[0])), tuple(map(int, m[1])))
    if is_square((a - d) ** 2 + 4 * b * c):
        raise DomainError("legendre_reduce: characteristic polynomial is reducible")
    m = ((a, b), (c, d))
    while True:
        (a, b), (c, d) = m
        # step 1: shift a-d into (-|c|, |c|]
        e = a - d
        ac = abs(c)
        target = ((e + ac - 1) % (2 * ac)) - ac + 1
        k = (e - target) // (2 * c)
        m = _conj_t(m, k)
        (a, b), (c, d) = m
        if abs(c) <= abs(b):
            break
        m = _conj_s(m)  # step 2: |c| strictly decreases
    (a, b), (c, d) = m
    if abs(c) == abs(b) and not 0 <= a - d <= abs(c):
        m = _conj_s(m)  # step 3 boundary rule
        (a, b), (c, d) = m
        if not 0 <= a - d <= abs(c):  # pragma: no cover - forced by the window
            raise AssertionError("legendre_reduce: boundary rule failed")
    return m


def enumerate_m(r: int, s: int, wide: bool = False) -> list[xn.Mat]:
    """The finite window M(r,s) of matrices with trace r and determinant s;
    with ``wide`` the slightly larger window with a-d in [-|c|,|c|].

    The window has |c| <= c_max, with 3c^2 <= -D for D < 0 and 4c^2 <= D for
    D > 0 (D = r^2 - 4s); raises ResourceError before the search when it
    has more than classes.QUOTIENT_CAP (c, a-d) pairs.
    """
    four_d = r * r - 4 * s
    if is_square(four_d):
        raise DomainError("enumerate_m: characteristic polynomial is reducible")
    c_max = isqrt(-four_d // 3) if four_d < 0 else isqrt(four_d // 4)
    # 2c values of a-d (2c+1 when wide) for each of cc = c and cc = -c
    count = 2 * c_max * (c_max + 1 + wide)
    if count > QUOTIENT_CAP:
        raise ResourceError(f"enumerate_m: {count} candidate matrices, "
                            f"above the cap of {QUOTIENT_CAP}")
    out = []
    for c in range(1, c_max + 1):
        for cc in (c, -c):
            emin = -c if wide else -c + 1
            for e in range(emin, c + 1):
                if (e - r) % 2:
                    continue
                bc = (four_d - e * e) // 4
                if bc % cc:
                    continue
                b = bc // cc
                if abs(cc) > abs(b):
                    continue
                if not wide and abs(cc) == abs(b) and e < 0:
                    continue
                a = (r + e) // 2
                d = (r - e) // 2
                out.append(((a, b), (cc, d)))
    return sorted(out)


# ---------------------------------------------------------------------------
# the Conway river

# the most forms one river period may hold before river() gives up
RIVER_CAP = 100_000

T_STEP = ((1, 1), (0, 1))
U_STEP = ((1, 0), (1, 1))


def _river_step(state: QuadForm) -> tuple[QuadForm, xn.Mat]:
    a, h, b = state
    c = a + b + h
    if c == 0:  # pragma: no cover - excluded by the nonsquare discriminant
        raise DomainError("river hit a zero region; discriminant is a square")
    if c > 0:
        return QuadForm(c, h + 2 * b, b), U_STEP
    return QuadForm(a, h + 2 * a, c), T_STEP


class RiverCycle(NamedTuple):
    """One period of the river: edge records (left a>0, label h, right b<0),
    the SL2 automorph of the starting edge, and the induced norm-1 unit."""
    period: tuple[QuadForm, ...]
    moves: tuple[str, ...]
    automorph: xn.Mat
    seed_matrix: xn.Mat
    delta: int
    unit_omega: tuple[int, int]


def _river_orbit(start: QuadForm) -> list[QuadForm]:
    """The forms of one river period from start; raises ResourceError once it
    holds RIVER_CAP forms without closing."""
    states = [start]
    seen = {start}
    state = start
    while True:
        state, _ = _river_step(state)
        if state == start:
            return states
        if state in seen:  # pragma: no cover - the river is a single cycle
            raise AssertionError("river walk re-entered mid-cycle")
        if len(states) == RIVER_CAP:
            raise ResourceError(f"river: the period is longer than the cap of "
                                f"{RIVER_CAP} forms")
        states.append(state)
        seen.add(state)


def _least_rotation(seq) -> int:
    """The least k with seq[k:] + seq[:k] lexicographically minimal, in linear
    time: two candidate starts i < j race over a common offset k, and a
    mismatch at offset k rules out the loser's start and the next k starts."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return i


def _river_period(f: QuadForm) -> tuple[QuadForm, ...]:
    """The forms of one river period of an indefinite nonsquare form, from
    the canonical start."""
    f = QuadForm(*map(int, f))
    four_d = f.four_disc()
    if four_d <= 0 or is_square(four_d):
        raise DomainError("river: form must be indefinite with nonsquare discriminant")
    trace = f.h & 1
    m0 = legendre_reduce(matrix_of_form(f, trace))
    f0 = form_of_matrix(m0)
    if f0.a < 0:
        f0 = f0.reversed()
    orbit = _river_orbit(f0)
    # canonical period start: lexicographically minimal rotation
    k = _least_rotation(orbit)
    return tuple(orbit[k:] + orbit[:k])


def river(f: QuadForm) -> RiverCycle:
    """Walk one period of the Conway river of an indefinite nonsquare form."""
    orbit = _river_period(f)
    moves = []
    autom = xn.identity(2)
    state = orbit[0]
    for _ in orbit:
        state, step = _river_step(state)
        moves.append("U" if step is U_STEP else "T")
        autom = xn.mat_mul(autom, step)
    if state != orbit[0]:  # pragma: no cover - period verified in _river_orbit
        raise AssertionError("automorph accumulation did not close the period")
    seed = matrix_of_form(orbit[0], orbit[0].h & 1)
    delta, unit = _unit_from_automorph(autom, seed)
    return RiverCycle(orbit, tuple(moves), autom, seed, delta, unit)


def _unit_from_automorph(p, seed) -> tuple[int, tuple[int, int]]:
    """Express the automorph as x + y*lambda1 in the (1, omega) basis."""
    (pa, pb), (pc, pd) = p
    (sa, sb), (sc, sd) = seed
    if sb == 0:  # pragma: no cover - seed forms have b != 0
        raise DomainError("seed matrix has zero upper-right entry")
    y = Fraction(pb, sb)
    x = Fraction(pa) - y * sa
    if (x + y * sd != pd) or (y * sc != pc):  # pragma: no cover
        raise AssertionError("automorph does not commute with the seed matrix")
    r = sa + sd
    four_d = (sa - sd) ** 2 + 4 * sb * sc
    delta, g = xn.squarefree_split(four_d)
    lam0, lam1 = _lambda_in_omega(r, four_d)
    c0 = x + y * lam0
    c1 = y * lam1
    if c0.denominator != 1 or c1.denominator != 1:  # pragma: no cover
        raise AssertionError("norm-1 unit has non-integral coordinates")
    return delta, (int(c0), int(c1))


def _lambda_in_omega(r: int, four_d: int) -> tuple[Fraction, Fraction]:
    """Coordinates of lambda1 = r/2 + sqrt(four_d)/2 in the basis (1, omega)."""
    delta, g = xn.squarefree_split(four_d)
    if delta % 4 == 1:
        # omega = (1 + sqrt(delta))/2, lambda1 = (r-g)/2 + g*omega
        return Fraction(r - g, 2), Fraction(g)
    # omega = sqrt(delta), lambda1 = r/2 + (g/2) omega
    return Fraction(r, 2), Fraction(g, 2)


def classify_types(f: QuadForm) -> tuple[set, set, set]:
    """Semi-normal forms of types A, B and C in the proper class of f,
    harvested from one river period and its adjacent positive-side edges."""
    cyc = river(QuadForm(*f))
    type_a: set[QuadForm] = set()
    type_b: set[QuadForm] = set()
    type_c: set[QuadForm] = set()
    for st in cyc.period:
        for cand in (st, st.reversed()):
            if abs(cand.a) <= abs(cand.b) and -abs(cand.a) <= cand.h <= abs(cand.a):
                type_a.add(cand)
        if abs(st.a + st.b) < abs(st.h):
            type_c.add(st)
        c = st.a + st.b + st.h
        if c > 0:
            type_b.add(QuadForm(st.a, st.h + 2 * st.a, c))
    return type_a, type_b, type_c


def proper_class_equal(f1: QuadForm, f2: QuadForm) -> bool:
    """True iff the river periods coincide (complete invariant for type IV)."""
    f1, f2 = QuadForm(*f1), QuadForm(*f2)
    if f1.four_disc() != f2.four_disc():
        raise DomainError("proper_class_equal: discriminants differ")
    return river(f1).period == river(f2).period


def gl2_invariant(m, key=None):
    """Complete GL2(Z)-conjugacy invariant in the irreducible quadratic case;
    key is sl2_key(m) when the caller has it already.

    The GL2 class of m is the SL2 class of m joined with that of its
    orientation flip, and distinct GL2 classes share no SL2 class, so the
    lesser of the two SL2 keys names the GL2 class.
    """
    return min(sl2_key(m) if key is None else key, sl2_key(_conj_flip(m)))


# ---------------------------------------------------------------------------
# quadratic orders Lambda_n = <1, n*omega>

def omega_poly(delta: int) -> up.Poly:
    """Minimal polynomial of the maximal-order generator omega."""
    if delta in (0, 1) or xn.squarefree_split(delta)[1] != 1:
        raise DomainError("omega_poly: delta must be squarefree and not 0 or 1")
    if delta % 4 == 1:
        return up.poly([-(delta - 1) // 4, -1, 1])   # t^2 - t - (delta-1)/4
    return up.poly([-delta, 0, 1])                   # t^2 - delta


def quad_algebra(delta: int):
    return algebra_for_poly(omega_poly(delta))


def order_lambda_n(delta: int, n: int) -> FullLattice:
    alg, _ = quad_algebra(delta)
    return FullLattice(alg, [(1, 0), (0, n)])


def matrix_lattice(m) -> FullLattice:
    """The row-eigenvector lattice <c, -a+lambda1> in the (1, omega) algebra."""
    (a, b), (c, d) = (tuple(map(int, m[0])), tuple(map(int, m[1])))
    r = a + d
    four_d = (a - d) ** 2 + 4 * b * c
    if is_square(four_d):
        raise DomainError("matrix_lattice: characteristic polynomial is reducible")
    delta, _ = xn.squarefree_split(four_d)
    alg, _ = quad_algebra(delta)
    lam0, lam1 = _lambda_in_omega(r, four_d)
    return FullLattice(alg, [(c, 0), (lam0 - a, lam1)])


def order_index_of_matrix(m) -> tuple[int, int]:
    """(delta, n) with O(L) = Lambda_n for the lattice of the matrix."""
    lat = matrix_lattice(m)
    o = lat.order()
    basis = o.basis
    if basis[0][0] != 1 or basis[0][1] != 0:  # pragma: no cover - orders contain 1
        raise AssertionError("unexpected order basis shape")
    (a, b), (c, d) = m
    delta, _ = xn.squarefree_split((a - d) ** 2 + 4 * b * c)
    n = basis[1][1]
    if n.denominator != 1:  # pragma: no cover
        raise AssertionError("order basis is not integral")
    return delta, int(n)


# ---------------------------------------------------------------------------
# fundamental units and the SL2/GL2 split

# the most continued-fraction steps cf_pell takes before it gives up
PELL_CAP = 10_000


def cf_pell(d: int) -> tuple[int, int, int]:
    """Fundamental solution of x^2 - d y^2 = +-1 by the continued fraction of
    sqrt(d); returns (x, y, norm).  Raises ResourceError when the continued
    fraction needs more than PELL_CAP steps to reach it."""
    if d <= 0 or is_square(d):
        raise DomainError("cf_pell: d must be positive and not a square")
    a0 = isqrt(d)
    m_, d_, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    for _ in range(PELL_CAP):
        nrm = h * h - d * k * k
        if abs(nrm) == 1:
            return h, k, nrm
        m_ = d_ * a - m_
        d_ = (d - m_ * m_) // d_
        a = (a0 + m_) // d_
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    raise ResourceError(f"cf_pell: no solution within the cap of {PELL_CAP} "
                        f"continued-fraction steps")


def fundamental_unit(delta: int) -> tuple[tuple[int, int], int]:
    """Fundamental unit of the maximal order, as coordinates in (1, omega),
    together with its norm."""
    if delta <= 1:
        raise DomainError("fundamental_unit: delta must be a squarefree integer > 1")
    x, y, nrm = cf_pell(delta)
    if delta % 4 != 1:
        return (x, y), nrm
    # delta = 1 mod 4: x + y sqrt(delta) is eps0 or eps0^3 for the fundamental
    # unit eps0 = (p + q sqrt(delta))/2, whose trace p solves
    # p^3 - 3*nrm*p = 2x, the trace of eps0^3
    c = xn.icbrt(2 * x)
    for p in range(max(c - 1, 1), c + 2):
        if p**3 - 3 * nrm * p == 2 * x:
            q2, rem = divmod(p * p - 4 * nrm, delta)
            q = isqrt(q2)
            if not rem and q * q == q2 and (p - q) % 2 == 0:
                return ((p - q) // 2, q), nrm
    return (x - y, 2 * y), nrm


def unit_in_order(delta: int, n: int) -> tuple[int, tuple[int, int], int]:
    """(index k, coordinates, norm) of the fundamental unit of Lambda_n,
    obtained as the least power of the maximal order's unit lying in it."""
    alg, _ = quad_algebra(delta)
    (u0, u1), nrm = fundamental_unit(delta)
    eps = alg.element([u0, u1])
    acc = eps
    for k in range(1, 10 * n + 1):
        if acc[1].denominator == 1 and int(acc[1]) % n == 0:
            return k, (int(acc[0]), int(acc[1])), nrm**k
        acc = alg.mul(acc, eps)
    raise DomainError("unit_in_order: power bound exceeded")


def gl2_splits(arg) -> bool:
    """True iff the GL2 class splits into two SL2 classes.

    Accepts an indefinite nonsquare QuadForm, or a pair (delta, n) naming the
    order Lambda_n; definite forms always split.
    """
    if isinstance(arg, tuple) and len(arg) == 2 and all(isinstance(x, int) for x in arg):
        delta, n = arg
    else:
        f = QuadForm(*arg)
        four_d = f.four_disc()
        if four_d < 0:
            return True
        if is_square(four_d):
            raise DomainError("gl2_splits: square discriminant is out of scope")
        m = matrix_of_form(f, f.h & 1)
        delta, n = order_index_of_matrix(m)
    if delta < 0:
        return True
    _, _, nrm = unit_in_order(delta, n)
    return nrm == 1


# ---------------------------------------------------------------------------
# GL2 / SL2 class enumeration for an irreducible quadratic

def sl2_key(m):
    """Complete SL2(Z)-conjugacy invariant in the irreducible quadratic case:
    the Legendre-reduced matrix when definite, the canonical river period of
    the form when indefinite."""
    f = form_of_matrix(m)
    if f.four_disc() < 0:
        return ("v", legendre_reduce(m))
    return ("iv", _river_period(f))


def gl2_classes(r: int, s: int) -> list[dict]:
    """GL2-conjugacy classes of integer matrices with trace r, det s
    (irreducible case), each with its SL2 split and window members."""
    groups: dict = {}
    for m in enumerate_m(r, s):
        # the SL2 classes of m and of its flip make up its GL2 class; the
        # lesser one is gl2_invariant(m)
        keys = (sl2_key(m), sl2_key(_conj_flip(m)))
        groups.setdefault(min(keys), (len(set(keys)), []))[1].append(m)
    merged = [{"representative": min(members, key=lambda m: (m[1][0] <= 0, m)),
               "sl2_classes": sl2_count,
               "members": sorted(members)}
              for sl2_count, members in groups.values()]
    merged.sort(key=lambda rec: rec["representative"])
    return merged


def quad_order_tables(delta: int, n_max: int) -> list[dict]:
    """Per-order data for Lambda_n, n <= n_max: conductor, quotient units,
    unit index, and the class-group ratio to the maximal order."""
    alg, omega = quad_algebra(delta)
    lam1 = order_lambda_n(delta, 1)
    f = omega_poly(delta)
    h1 = len(gl2_classes(int(-f[1]), int(f[0])))
    out = []
    for n in range(1, n_max + 1):
        lam_n = order_lambda_n(delta, n)
        rec = {"n": n, "basis": lam_n.basis, "class_number_max": h1}
        if n == 1:
            rec.update(conductor=None, unit_index=1, ratio=Fraction(1),
                       group_size=h1, units_small=1, units_big=1)
            if delta < 0:
                rec["unit_group_size"] = {-1: 4, -3: 6}.get(delta, 2)
            out.append(rec)
            continue
        cond = lam_n.colon(lam1)
        assert cond == lam1.scale(n)       # conductor is n * Lambda_1
        nb = quotient_units(big := finite_quotient(lam1, cond))
        ns = quotient_units(finite_quotient(lam_n, cond))
        assert ns == xn.euler_phi(n)      # the small quotient's unit count
        # norm-gcd criterion for the big quotient
        crit = [x for x in big.reps if gcd(int(alg.norm(x)), n) == 1]
        assert crit == quotient_unit_reps(big) and len(crit) == nb
        if delta > 0:
            unit_index = unit_in_order(delta, n)[0]
        else:
            unit_index = {-1: 2, -3: 3}.get(delta, 1)
        ratio = Fraction(nb, ns) / unit_index
        size = h1 * ratio
        assert size.denominator == 1 and size >= 1
        rec.update(conductor=cond.basis, unit_index=unit_index, ratio=ratio,
                   group_size=int(size), units_small=ns, units_big=nb)
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# simple SVG rendering of one river period

def svg_river(cycle: RiverCycle, width_per_edge: int = 90) -> str:
    """One period (plus a repeated edge) of the river as a standalone SVG."""
    period = cycle.period + (cycle.period[0],)
    w = width_per_edge
    total = w * len(period) + 40
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total}" height="160" '
        f'viewBox="0 0 {total} 160">',
        '<style>text{font-family:monospace;font-size:12px}</style>',
    ]
    y = 80
    for i, f in enumerate(period):
        x0 = 20 + i * w
        x1 = x0 + w
        lines.append(f'<line x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" '
                     'stroke="black" stroke-width="2"/>')
        arrow = "&#8594;" if f.h >= 0 else "&#8592;"
        lines.append(f'<text x="{x0 + w // 3}" y="{y - 28}" fill="darkgreen">{f.a}</text>')
        lines.append(f'<text x="{x0 + w // 3}" y="{y + 40}" fill="darkred">{f.b}</text>')
        lines.append(f'<text x="{x0 + w // 3}" y="{y - 6}">{arrow}{abs(f.h)}</text>')
        lines.append(f'<line x1="{x0}" y1="{y - 14}" x2="{x0}" y2="{y + 14}" '
                     'stroke="black" stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines)
