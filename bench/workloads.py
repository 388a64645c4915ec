"""The benchmark's workloads: inputs made from a seed, one request, and the
check of its answer.

Each workload yields its requests in rounds.  A round holds the same mix of
request kinds in every run, with fresh seeded inputs, so a run that stops at
a round boundary always times the same mix.  `run` sends one request to
latclass and returns its answer as plain data; `check` judges that answer
with the benchmark's own arithmetic (`oracles`) and the paper's values.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from functools import cache
from math import isqrt
from pathlib import Path
from random import Random

import oracles as ox



@cache
def paper() -> dict:
    """The values the paper states for the fixtures (see paper_values.json)."""
    return json.loads((Path(__file__).parent / "paper_values.json").read_text())


class RequestFailed(Exception):
    """The program gave no usable answer (an exception or a wrong exit code)."""


def _poly_str(coeffs) -> str:
    """Low-to-high integer coefficients as the CLI's "t^2+20" syntax."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = int(coeffs[k])
        if c == 0:
            continue
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        mag = str(abs(c)) if (abs(c) != 1 or k == 0) else ""
        sign = "-" if c < 0 else "+"
        terms.append(f"{sign}{mag}{mono}")
    s = "".join(terms)
    return s[1:] if s.startswith("+") else s


def _mat_json(m) -> str:
    return json.dumps([list(map(int, row)) for row in m])


# ===========================================================================
# lattice_ops: the lattice calculator in Q[t]/(f), dimensions 2..5

# monic f, coefficients low to high: separable, split and nilpotent-part cases
POLY_POOL = {
    2: [(5, 0, 1), (-7, 0, 1), (-1, -1, 1), (0, 0, 1), (-4, 0, 1), (2, -3, 1)],
    3: [(0, 0, 0, 1), (16, 8, 4, 1), (0, -4, 0, 1), (2, 2, 2, 1), (-2, 0, 0, 1),
        (0, 0, -1, 1), (0, 1, 2, 1)],
    4: [(0, 0, 0, 0, 1), (1, 0, 0, 0, 1), (6, 0, -5, 0, 1), (0, 0, 1, -2, 1),
        (4, 0, -4, 0, 1), (0, -4, 0, 0, 1)],
    5: [(0, 0, 0, 0, 0, 1), (0, 0, 0, -4, 0, 1), (-2, 0, 0, 0, 0, 1)],
}
LATTICE_OPS = ("sum", "intersect", "product", "colon", "dual", "order", "winv",
               "index")
ENTRY_BOX = 4          # operand matrix entries in [-4, 4]
DENOM_MAX = 4          # operand denominators in 1..4


class LatticeOps:
    name = "lattice_ops"
    warmup_rounds = 1

    def setup(self):
        from latclass import conjugacy, lattice
        self.lattice = lattice
        self.algebras = {f: conjugacy.algebra_for_poly(list(f))[0]
                         for pool in POLY_POOL.values() for f in pool}

    # -- inputs ----------------------------------------------------------------
    @staticmethod
    def _plain(rng, n):
        """(integer generator columns, denominator) of a random full lattice."""
        while True:
            m = [[rng.randint(-ENTRY_BOX, ENTRY_BOX) for _ in range(n)]
                 for _ in range(n)]
            if ox.det(m):
                return ox.columns(m), rng.randint(1, DENOM_MAX)

    @classmethod
    def _operand(cls, rng, f):
        """Generators of a plain lattice (half the time), a product of two
        (a quarter) or a square (a quarter): the last two grow entries."""
        kind = rng.randrange(4)
        a, da = cls._plain(rng, len(f) - 1)
        if kind < 2:
            gens, d = a, da
        else:
            b, db = (a, da) if kind == 2 else cls._plain(rng, len(f) - 1)
            gens, d = [ox.cyc_mul(f, x, y) for x in a for y in b], da * db
        return [tuple(Fraction(x, d) for x in g) for g in gens]

    def rounds(self, seed):
        rng = Random(seed)
        while True:
            reqs = []
            for n in sorted(POLY_POOL):
                for op in LATTICE_OPS:
                    f = rng.choice(POLY_POOL[n])
                    reqs.append({"kind": f"{op}/{n}", "op": op, "f": f,
                                 "gens1": self._operand(rng, f),
                                 "gens2": self._operand(rng, f)})
            rng.shuffle(reqs)
            yield reqs

    # -- the request -------------------------------------------------------------
    def run(self, req):
        lat = self.lattice
        alg = self.algebras[req["f"]]
        l1 = lat.FullLattice(alg, req["gens1"])
        l2 = lat.FullLattice(alg, req["gens2"])
        op = req["op"]
        if op == "sum":
            return (l1 + l2).basis
        if op == "intersect":
            return (l1 & l2).basis
        if op == "product":
            return (l1 * l2).basis
        if op == "colon":
            return l1.colon(l2).basis
        if op == "dual":
            return l1.dual().basis
        if op == "order":
            return l1.order().basis
        if op == "winv":
            return (l1.is_invertible(), l1.order().basis)
        return lat.index(l1 + l2, l2)

    # -- the check -----------------------------------------------------------------
    def check(self, req, ans) -> bool:
        f = req["f"]
        b1 = ox.canonical_basis(req["gens1"])
        b2 = ox.canonical_basis(req["gens2"])
        op = req["op"]
        if op == "sum":
            return ans == ox.canonical_basis(ox.columns(b1) + ox.columns(b2))
        if op == "product":
            return ans == ox.product_basis(f, b1, b2)
        if op == "intersect":
            s = ox.canonical_basis(ox.columns(b1) + ox.columns(b2))
            cols = ox.columns(ans)
            return (ox.contains_all(b1, cols) and ox.contains_all(b2, cols)
                    and ox.det(ans) * ox.det(s) == ox.det(b1) * ox.det(b2))
        if op == "colon":
            return (ox.contains_all(b1, ox.product_gens(f, ans, b2))
                    and ans == ox.colon(f, b1, b2))
        if op == "dual":
            g = ox.metric_gram(f)
            return (ox.pairs_integrally(g, b1, ans)
                    and abs(ox.det(b1) * ox.det(ans) * ox.det(g)) == 1)
        if op == "order":
            return check_order(f, ans, b1)
        if op == "winv":
            invertible, order = ans
            if not check_order(f, order, b1):
                return False
            c = ox.colon(f, order, b1)
            return invertible == (ox.product_basis(f, b1, c) == order)
        s = ox.canonical_basis(ox.columns(b1) + ox.columns(b2))
        return ans == ox.det(b2) / ox.det(s)


def check_order(f, order, basis) -> bool:
    """`order` is O(L) for the lattice with this basis: a ring holding 1 with
    O*L in L, and no larger than L : L."""
    n = len(f) - 1
    one = tuple(Fraction(int(i == 0)) for i in range(n))
    return (ox.contains_all(order, [one])
            and ox.contains_all(order, ox.product_gens(f, order, order))
            and ox.contains_all(basis, ox.product_gens(f, order, basis))
            and order == ox.colon(f, basis, basis))


# ===========================================================================
# tables: both README fixtures through the CLI

class Tables:
    name = "tables"
    warmup_rounds = 1

    def setup(self):
        from latclass import cli
        self.cli = cli

    def rounds(self, seed):
        # the fixtures take no input; the seed has nothing to vary
        while True:
            yield [{"kind": "tables"}]

    def run(self, req):
        return {fx: _cli_json(self.cli, ["tables", "--fixture", fx, "--json"], (0,))[1]
                for fx in ("cubic8", "split202m2")}

    def check(self, req, ans) -> bool:
        return check_cubic8(ans["cubic8"]) and check_split202m2(ans["split202m2"])


def _tsv(text):
    return [line.split("\t") for line in text.split("\n")]


def _grid(text):
    """A square TSV table -> (column names, {row name: row cells})."""
    rows = _tsv(text)
    return rows[0][1:], {r[0]: r[1:] for r in rows[1:]}


def _symmetric(cols, grid) -> bool:
    return all(grid[a][j] == grid[b][i]
               for i, a in enumerate(cols) for j, b in enumerate(cols))


def check_cubic8(out) -> bool:
    ref = paper()["cubic8"]
    tau = {r[0]: [int(x) for x in r[3:]] for r in _tsv(out["tau_data"])[1:]}
    cols, prods = _grid(out["products"])
    dcols, divs = _grid(out["division"])
    mats = {r[0]: json.loads(r[1]) for r in _tsv(out["matrices"])[1:]}
    return (tau == ref["tau_data"]
            and cols == dcols == ref["columns"]
            and prods == ref["products"] and _symmetric(cols, prods)
            and divs == ref["division"]
            and mats == ref["matrices"]
            and all(ox.charpoly(m) == ref["charpoly"] for m in mats.values()))


def check_split202m2(out) -> bool:
    ref = paper()["split202m2"]
    order_data = {r[0]: [int(r[1]), list(json.loads(r[2].replace("(", "[")
                                                     .replace(")", "]")))]
                  + [int(x) for x in r[3:]]
                  for r in _tsv(out["order_data"])[1:]}
    tau = {r[0]: [int(x) for x in r[1:]] for r in _tsv(out["tau_data"])[1:]}
    forms = {r[0]: json.loads(r[2]) for r in _tsv(out["normal_forms"])[1:]}
    cols, prods = _grid(out["products"])
    upper = {a: prods[a][i:] for i, a in enumerate(cols)}
    return (order_data == ref["order_data"] and tau == ref["tau_data"]
            and forms == ref["normal_forms"]
            and all(ox.charpoly(m) == ref["charpoly"] for m in forms.values())
            and cols == ref["columns"] and upper == ref["products_upper"]
            and _symmetric(cols, prods))


def _cli_json(cli, argv, ok_codes):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in ok_codes:
        raise RequestFailed(f"exit {code}: {err.getvalue().strip()}")
    return code, json.loads(out.getvalue())


# ===========================================================================
# classify: README-style CLI requests around random regular matrices

BOX2 = 6               # dim-2 matrix entries in [-6, 6]
BOX3 = 3               # dim-3 matrix entries in [-3, 3]
FORM_BOX = (6, 12)     # river/types forms [a, h, b]: a, b in [-6, 6] nonzero,
FORM_DISC_MAX = 220    # h in [-12, 12], 0 < h^2 - 4ab <= 220 and nonsquare
ROOT_BOX = 3           # dim-3 enumerate eigenvalues in [-3, 3]
ENUM_LIMIT = 3         # --limit for the infinite families
ANCHORS = {"t^2+5": (5, 0, 1), "t^2+20": (20, 0, 1), "t^3-4t": (0, -4, 0, 1)}
# one round, in kind order before shuffling; plain dim-2 `classify` requests
# are a quarter of it, so the median falls among them rather than on the gap
# between two kinds' latencies (which made it jump from run to run)
CLASSIFY_MIX = (["classify2"] * 5 + ["classify3"] * 2 + ["same2"] * 2
                + ["same3"] * 2 + ["content2", "enum2", "enum3", "reduce",
                                   "river", "types"] + list(ANCHORS))


def _regular(m) -> bool:
    """I, M, ..., M^(n-1) independent, i.e. the minimal polynomial is the
    characteristic polynomial."""
    n = len(m)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(n - 1):
        powers.append(ox.mat_mul(powers[-1], m))
    vecs = [[x for row in p for x in row] for p in powers]
    return ox.det(ox.mat_mul(vecs, list(zip(*vecs)))) != 0


def _four_disc(m) -> int:
    (a, b), (c, d) = m
    return (a - d) ** 2 + 4 * b * c


def _is_square(k) -> bool:
    return k >= 0 and isqrt(k) ** 2 == k


def _random_matrix(rng, n, box, want=lambda m: True):
    while True:
        m = tuple(tuple(rng.randint(-box, box) for _ in range(n)) for _ in range(n))
        if _regular(m) and want(m):
            return m


def _unimodular_pair(rng, n, steps=4):
    """(U, U^-1) as products of elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]
    for _ in range(rng.randint(1, steps)):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        kind = rng.randrange(3)
        if kind == 0:        # row_i += s*row_j; the inverse subtracts columns
            u[i] = [x + s * y for x, y in zip(u[i], u[j])]
            for row in v:
                row[j] -= s * row[i]
        elif kind == 1:      # swap rows i, j
            u[i], u[j] = u[j], u[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
        else:                # negate row i
            u[i] = [-x for x in u[i]]
            for row in v:
                row[i] = -row[i]
    return u, v


def _conjugate(rng, m):
    u, v = _unimodular_pair(rng, len(m))
    return tuple(map(tuple, ox.mat_mul(ox.mat_mul(v, m), u)))


def _content_pair(rng):
    """A dim-2 matrix with content gcd(b, c, a-d) >= 2 and the companion
    matrix of its charpoly (content 1): never GL2(Z)-conjugate."""
    while True:
        g = rng.randint(2, 3)
        a = rng.randint(-BOX2, BOX2)
        b, c, e = (g * rng.randint(-2, 2) for _ in range(3))
        m = ((a, b), (c, a + e))
        if b or c or e:
            tr, dt = 2 * a + e, a * (a + e) - b * c
            return m, ((0, -dt), (1, tr))


def _form(rng):
    while True:
        ab_box, h_box = FORM_BOX
        a, b = rng.randint(-ab_box, ab_box), rng.randint(-ab_box, ab_box)
        h = rng.randint(-h_box, h_box)
        disc = h * h - 4 * a * b
        if a and b and 0 < disc <= FORM_DISC_MAX and not _is_square(disc):
            return a, h, b


class Classify:
    name = "classify"
    warmup_rounds = 1

    def setup(self):
        from latclass import cli
        self.cli = cli

    def rounds(self, seed):
        rng = Random(seed)
        while True:
            reqs = [self._request(rng, kind) for kind in CLASSIFY_MIX]
            rng.shuffle(reqs)
            yield reqs

    @staticmethod
    def _request(rng, kind):
        if kind in ("classify2", "classify3"):
            n = 2 if kind == "classify2" else 3
            m = _random_matrix(rng, n, BOX2 if n == 2 else BOX3)
            return {"kind": kind, "m": m,
                    "argv": ["classify", "--matrix", _mat_json(m), "--json"]}
        if kind in ("same2", "same3"):
            n = 2 if kind == "same2" else 3
            m = _random_matrix(rng, n, BOX2 if n == 2 else BOX3)
            other = _conjugate(rng, m)
            return {"kind": kind, "m": m, "expect": "conjugate",
                    "argv": ["classify", "--matrix", _mat_json(m), "--same-class",
                             _mat_json(other), "--json"]}
        if kind == "content2":
            m, other = _content_pair(rng)
            return {"kind": kind, "m": m, "expect": "distinct",
                    "argv": ["classify", "--matrix", _mat_json(m), "--same-class",
                             _mat_json(other), "--json"]}
        if kind == "enum2":
            f = ox.charpoly(_random_matrix(rng, 2, BOX2))
            return _enum_request(kind, [int(c) for c in f])
        if kind == "enum3":
            roots = [rng.randint(-ROOT_BOX, ROOT_BOX) for _ in range(3)]
            f = [1]
            for r in roots:    # multiply by (t - r)
                f = [(f[k - 1] if k else 0) - r * (f[k] if k < len(f) else 0)
                     for k in range(len(f) + 1)]
            return _enum_request(kind, f)
        if kind in ANCHORS:
            return _enum_request(kind, list(ANCHORS[kind]),
                                 count=paper()["class_counts"][kind])
        if kind == "reduce":
            m = _random_matrix(rng, 2, BOX2,
                               lambda m: not _is_square(_four_disc(m)))
            return {"kind": kind, "m": m,
                    "argv": ["quadform", "reduce", "--matrix", _mat_json(m), "--json"]}
        a, h, b = _form(rng)
        return {"kind": kind, "form": (a, h, b),
                "argv": ["quadform", kind, "-a", str(a), "-h", str(h), "-b", str(b),
                         "--json"]}

    def run(self, req):
        ok = (0, 3) if "expect" in req else (0,)
        return _cli_json(self.cli, req["argv"], ok)

    def check(self, req, ans) -> bool:
        code, out = ans
        kind = req["kind"]
        if kind.startswith(("classify", "same", "content")):
            want = [str(c) for c in ox.charpoly(req["m"])]
            if out["charpoly_coeffs"] != want or out["regular"] is not True:
                return False
            verdict = out.get("same_class")
            if req.get("expect") == "conjugate":
                return (verdict, code) in ((True, 0), ("undecided", 3))
            if req.get("expect") == "distinct":
                return verdict is False and code == 0
            return "order_basis" in out and verdict is None
        if kind == "reduce":
            (a, b), (c, d) = red = out["matrix"]
            return (ox.charpoly(red) == ox.charpoly(req["m"])
                    and 0 < abs(c) <= abs(b))
        if kind in ("river", "types"):
            return check_form_answer(kind, req["form"], out)
        return check_enumerate(req, out)


def _enum_request(kind, f, count=None):
    argv = ["enumerate", "--poly", _poly_str(f), "--limit", str(ENUM_LIMIT), "--json"]
    return {"kind": kind, "f": f, "count": count, "argv": argv}


def check_enumerate(req, out) -> bool:
    want = [Fraction(c) for c in req["f"]]
    mats = [tuple(map(tuple, c["matrix"])) for c in out["classes"]]
    if not mats or len(set(mats)) != len(mats):
        return False
    if any(ox.charpoly(m) != want for m in mats):
        return False
    if not out.get("infinite") and out["count"] != len(mats):
        return False
    return req["count"] is None or out["count"] == req["count"]


def check_form_answer(kind, form, out) -> bool:
    a, h, b = form
    disc = h * h - 4 * a * b
    if kind == "types":
        forms = [f for key in ("type_a", "type_b", "type_c") for f in out[key]]
        return (bool(out["type_a"]) and isinstance(out["gl2_splits"], bool)
                and all(y * y - 4 * x * z == disc for x, y, z in forms))
    # river: every period edge has the discriminant, and the automorph is an
    # SL2(Z) matrix fixing the first edge's form
    period = out["period"]
    if not period or any(y * y - 4 * x * z != disc for x, y, z in period):
        return False
    (p, q), (r, s) = out["automorph"]
    x, y, z = period[0]
    gram = ((2 * x, y), (y, 2 * z))
    moved = ox.mat_mul(ox.mat_mul(((p, r), (q, s)), gram), ((p, q), (r, s)))
    return p * s - q * r == 1 and moved == gram


WORKLOADS = {w.name: w for w in (LatticeOps, Tables, Classify)}
