"""Command line front end: classify matrices, enumerate conjugacy classes,
run the lattice calculator, work with binary quadratic forms, emit the
fixture tables and draw river SVGs.

Exit codes: 0 ok, 1 usage, 2 domain error (message names the violated
precondition), 3 undecided.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from math import gcd

from . import conjugacy as cj
from . import exactnum as xn
from . import families as fam
from . import poly as up
from . import quadform as qf
from .classes import QUOTIENT_CAP
from .errors import LatClassError, ResourceError
from .lattice import FullLattice

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_UNDECIDED = 3
# the largest deg f that `lattice` sets up Q[t]/(f) for: the set-up and an
# order's products grow about as deg^2.6 (0.6 s at degree 40), and the scope
# of the package is dimensions 2 to 5
LATTICE_DEGREE_CAP = 16


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _json_rational(x) -> Fraction:
    """A JSON integer or a rational string such as "1/10" as a Fraction.  A
    float, whose binary value would be read silently, or any other JSON value
    is a usage error, and so is a string exactnum.rational_string refuses
    (one Fraction cannot read, or of more than 4,300 digits)."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        try:
            return xn.rational_string(x)
        except ValueError as exc:
            raise UsageError(f"not a rational string: {exc}") from None
    raise UsageError(f"{json.dumps(x)} is not a JSON integer or a rational string")


def _read_matrix(text: str):
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    data = json.loads(text)
    claimed = None
    if isinstance(data, dict):
        claimed = data.get("charpoly")
        data = data["matrix"]
    if not (isinstance(data, list) and data and all(
            isinstance(row, list) and len(row) == len(data) for row in data)):
        raise UsageError("a matrix must be a non-empty square JSON array of rows")
    if not all(type(x) is int for row in data for x in row):
        raise UsageError("matrix entries must be JSON integers")
    m = tuple(tuple(row) for row in data)
    if claimed is not None:
        if not isinstance(claimed, list):
            raise UsageError("a claimed charpoly must be a JSON array of coefficients")
        f = up.poly([_json_rational(c) for c in claimed])
        if up.charpoly(m) != f:
            raise LatClassError("matrix does not have the claimed "
                                "characteristic polynomial")
    return m


def _read_poly(text: str) -> up.Poly:
    text = text.strip()
    if text.startswith("["):
        return up.poly([_json_rational(c) for c in json.loads(text)])
    return up.from_string(text)


def _read_basis(text: str, dim: int):
    data = json.loads(text)
    if isinstance(data, dict):
        data = data["basis"]
    if not (isinstance(data, list) and len(data) == dim and all(
            isinstance(row, list) and row and len(row) == len(data[0])
            for row in data)):
        raise UsageError(f"a basis must be a JSON array of {dim} non-empty "
                         "rows of equal length")
    return tuple(tuple(map(_json_rational, row)) for row in data)


def _basis_json(basis) -> list:
    return [[str(x) for x in row] for row in basis]


def _matrix_json(m) -> list:
    return [[int(x) for x in row] for row in m]


def _emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        if isinstance(value, str) and "\n" in value:
            print(f"{key}:")
            print(value)
        else:
            print(f"{key}: {value}")


def _lattice_from_args(args) -> FullLattice:
    f = _read_poly(args.poly)
    # the basis is checked against deg f, and deg f against its cap, before
    # Q[t]/(f) is built, which takes time cubic in the degree
    basis = _read_basis(args.basis, up.degree(f))
    if up.degree(f) > LATTICE_DEGREE_CAP:
        raise ResourceError(f"lattice: degree {up.degree(f)} is above the cap of "
                            f"{LATTICE_DEGREE_CAP}")
    alg, _ = cj.algebra_for_poly(f)
    return FullLattice(alg, xn.columns(basis))


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args) -> int:
    a = cj.analyse(_read_matrix(args.matrix))
    cp = a.charpoly
    out = {
        "charpoly": up.to_string(cp),
        "charpoly_coeffs": [str(c) for c in cp],
        "regular": a.regular,
    }
    if a.regular:
        lat = a.lattice
        out["order_basis"] = _basis_json(lat.order().basis)
        out["lattice_basis"] = _basis_json(lat.basis)
        out["invertible"] = lat.is_invertible()
        family_info = FAMILY_INFO.get(a.spectrum.tag)
        if family_info is not None:
            out.update(family_info(a))
    if args.same_class is not None:
        # same_class raises DomainError for a non-regular pair
        verdict = cj.same_class(a, _read_matrix(args.same_class))
        out["same_class"] = "undecided" if verdict is None else verdict
        _emit(out, args.json)
        return EXIT_UNDECIDED if verdict is None else EXIT_OK
    _emit(out, args.json)
    return EXIT_OK


def _info_quadratic(a: cj.MatrixAnalysis) -> dict:
    form = qf.form_of_matrix(a.matrix)
    info = {"family": "quadratic", "form": list(form)}
    if form.four_disc() > 0:
        # the river period is the SL2 key, which the invariant reuses
        info["river_period"] = [list(f) for f in a.memo(qf.sl2_key)[1]]
    return info


def _info_split2(a: cj.MatrixAnalysis) -> dict:
    lo, hi, mu = a.invariant
    return {"family": "split", "normal_form": [[hi - lo, int(mu)], [0, 0]],
            "shift": lo}


def _info_jordan2(a: cj.MatrixAnalysis) -> dict:
    lam, g = a.invariant
    return {"family": "jordan", "normal_form": [[0, g], [0, 0]], "shift": lam}


def _info_split3(a: cj.MatrixAnalysis) -> dict:
    lams, triple = a.invariant
    return {"family": "split", "eigenvalues": list(lams),
            "normal_triple": [str(x) for x in triple]}


def _info_jordan3(a: cj.MatrixAnalysis) -> dict:
    lam, triple = a.invariant
    m = a.matrix
    info = {"family": "jordan", "shift": lam,
            "normal_triple": [str(x) for x in triple]}
    # a representative [[0, m1, -m3], [0, 0, m2], [0, 0, 0]] names its order
    if lam == 0 and all(x == 0 for x in (m[1][0], m[2][0], m[2][1]))  \
            and m[0][1] > 0 and m[1][2] > 0 and m[0][2] <= 0:
        m1, m2, m3 = m[0][1], m[1][2], -m[0][2]
        if m3 < gcd(m1, m2):
            n2, n3, n4, n1, d1 = fam.jordan_decode(m1, m2, m3)
            info["order_params"] = {"n2": n2, "n3": n3, "n4": n4}
            info["class_decomposition"] = {"n1": n1, "d1": d1}
    return info


def _info_mixed(a: cj.MatrixAnalysis) -> dict:
    lams, triple = a.invariant
    return {"family": "mixed", "eigenvalues": list(lams),
            "normal_triple": [str(x) for x in triple]}


# classify output per families.spectrum_family tag
FAMILY_INFO = {
    "quadratic": _info_quadratic,
    "split2": _info_split2,
    "jordan2": _info_jordan2,
    "split3": _info_split3,
    "jordan3": _info_jordan3,
    "mixed": _info_mixed,
}


def cmd_enumerate(args) -> int:
    if args.limit < 1:
        raise UsageError("--limit must be at least 1")
    f = _read_poly(args.poly)
    spec = fam.spectrum_family(f)
    enumerate_family = FAMILY_ENUMERATE.get(spec.tag)
    if enumerate_family is None:
        raise LatClassError(
            "enumerate supports dimension <= 2, the rank-3 families with "
            "integer eigenvalues, and the fixture cubic field")
    out = {"poly": up.to_string(f)}
    out.update(enumerate_family(f, spec.roots, args.limit))
    _emit(out, args.json)
    return EXIT_OK


def _enum_linear(f, roots, limit) -> dict:
    return {"classes": [{"matrix": [[roots[0][0]]]}], "count": 1}


def _enum_quadratic(f, roots, limit) -> dict:
    classes = qf.gl2_classes(int(-f[1]), int(f[0]))
    return {"count": len(classes),
            "sl2_count": sum(c["sl2_classes"] for c in classes),
            "classes": [{"matrix": _matrix_json(c["representative"]),
                         "sl2_classes": c["sl2_classes"]} for c in classes]}


def _enum_split2(f, roots, limit) -> dict:
    (lo, _), (hi, _) = roots
    recs = fam.split2_enumerate(hi - lo)
    return {"count": len(recs),
            "classes": [{"matrix": _matrix_json(xn.add_scalar(rec["matrix"], lo)),
                         "order_alpha": rec["order_alpha"]} for rec in recs]}


def _check_listing(count: int, name: str):
    if count > QUOTIENT_CAP:
        raise ResourceError(f"{name}: at least {count} classes, above the cap of "
                            f"{QUOTIENT_CAP}")


def _enum_jordan2(f, roots, limit) -> dict:
    _check_listing(limit, "jordan2 listing")
    lam = roots[0][0]
    return {"infinite": True,
            "classes": [{"matrix": _matrix_json(xn.add_scalar(((0, k), (0, 0)), lam))}
                        for k in range(1, limit + 1)]}


def _enum_split3(f, roots, limit) -> dict:
    lams = tuple(r for r, _ in roots)
    if lams == tuple(sorted(fam.SPLIT_FIXTURE_LAMS)):
        lams = fam.SPLIT_FIXTURE_LAMS
    recs = fam.split3_enumerate_classes(lams)
    return {"count": len(recs), "eigenvalue_order": list(lams),
            "classes": [{"matrix": _matrix_json(rec["matrix"]),
                         "triple": [str(x) for x in rec["triple"]],
                         "order": [rec["order"].a1, rec["order"].a2,
                                   rec["order"].a3]} for rec in recs]}


def _enum_jordan3(f, roots, limit) -> dict:
    # one class per (m1, m2, m3) with m3 < gcd(m1, m2): at least limit^2
    count = limit * limit
    if count <= QUOTIENT_CAP:
        count = sum(gcd(m1, m2) for m1 in range(1, limit + 1)
                    for m2 in range(1, limit + 1))
    _check_listing(count, "jordan3 listing")
    lam = roots[0][0]
    return {"infinite": True,
            "classes": [{"matrix": _matrix_json(
                xn.add_scalar(((0, m1, -m3), (0, 0, m2), (0, 0, 0)), lam))}
                for m1 in range(1, limit + 1) for m2 in range(1, limit + 1)
                for m3 in range(gcd(m1, m2))]}


def _enum_mixed(f, roots, limit) -> dict:
    root_of = {mult: r for r, mult in roots}
    double, alpha = root_of[2], root_of[1] - root_of[2]
    sign = 1 if alpha > 0 else -1
    recs = fam.mixed_enumerate(abs(alpha), max_n2=limit)
    return {"infinite": True,
            "classes": [{"matrix": _matrix_json(xn.add_scalar(
                tuple(tuple(sign * x for x in row) for row in rec["matrix"]),
                double)), "triple": [str(x) for x in rec["triple"]]}
                for rec in recs]}


def _enum_cubic_fixture(f, roots, limit) -> dict:
    suite = fam.cubic_suite()
    return {"count": 6,
            "classes": [{"name": fam.CUBIC_DISPLAY[name],
                         "matrix": _matrix_json(suite["matrices"][name])}
                        for name in fam.CUBIC_NAMES]}


# enumerate output per families.spectrum_family tag
FAMILY_ENUMERATE = {
    "linear": _enum_linear,
    "quadratic": _enum_quadratic,
    "split2": _enum_split2,
    "jordan2": _enum_jordan2,
    "split3": _enum_split3,
    "jordan3": _enum_jordan3,
    "mixed": _enum_mixed,
    "cubic_fixture": _enum_cubic_fixture,
}


def cmd_lattice(args) -> int:
    lat = _lattice_from_args(args)
    out = {}
    if args.op in ("product", "colon", "sum", "intersect"):
        if args.basis2 is None:
            raise UsageError(f"--basis2 is required for op {args.op}")
        alg = lat.algebra
        other = FullLattice(alg, xn.columns(_read_basis(args.basis2, alg.dim)))
        result = {"product": lambda: lat * other,
                  "colon": lambda: lat.colon(other),
                  "sum": lambda: lat + other,
                  "intersect": lambda: lat & other}[args.op]()
    elif args.op == "order":
        result = lat.order()
    elif args.op == "power":
        result = lat.power(args.k)
    elif args.op == "dual":
        result = lat.dual()
    elif args.op == "winv":
        out = {"invertible": lat.is_invertible(),
               "order_basis": _basis_json(lat.order().basis)}
        _emit(out, args.json)
        return EXIT_OK
    else:  # pragma: no cover - argparse chokes first
        raise UsageError(f"unknown lattice op {args.op}")
    out["basis"] = _basis_json(result.basis)
    _emit(out, args.json)
    return EXIT_OK


def cmd_quadform(args) -> int:
    if args.qf_cmd == "reduce":
        m = _read_matrix(args.matrix)
        red = qf.legendre_reduce(m)
        _emit({"matrix": _matrix_json(red),
               "form": list(qf.form_of_matrix(red))}, args.json)
        return EXIT_OK
    if args.qf_cmd == "enumerate":
        members = qf.enumerate_m(args.r, args.s, wide=args.wide)
        _emit({"count": len(members),
               "matrices": [_matrix_json(m) for m in members]}, args.json)
        return EXIT_OK
    form = qf.QuadForm(args.a, args.h, args.b)
    if args.qf_cmd == "river":
        cyc = qf.river(form)
        out = {
            "period": [list(f) for f in cyc.period],
            "moves": "".join(cyc.moves),
            "automorph": _matrix_json(cyc.automorph),
            "delta": cyc.delta,
            "unit_in_omega_basis": list(cyc.unit_omega),
        }
        if args.svg:
            with open(args.svg, "w") as fh:
                fh.write(qf.svg_river(cyc))
            out["svg"] = args.svg
        _emit(out, args.json)
        return EXIT_OK
    if args.qf_cmd == "types":
        a, b, c = qf.classify_types(form)
        _emit({"type_a": sorted(map(list, a)), "type_b": sorted(map(list, b)),
               "type_c": sorted(map(list, c)),
               "gl2_splits": qf.gl2_splits(form)}, args.json)
        return EXIT_OK
    raise UsageError(f"unknown quadform command {args.qf_cmd}")  # pragma: no cover


def cmd_tables(args) -> int:
    tables = fam.cubic_tables() if args.fixture == "cubic8" \
        else fam.split202m2_tables()
    _emit(tables, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------

@cache
def build_parser() -> Parser:
    """The parser, built on the first call and shared by every later one."""
    p = Parser(prog="latclass",
               description="Exact lattice arithmetic and integer matrix "
                           "conjugacy classification")
    p.add_argument("--json", action="store_true", help="machine readable output")
    json_flag = Parser(add_help=False)
    # also accepted after the subcommand; SUPPRESS keeps the global value
    # when the flag is absent there
    json_flag.add_argument("--json", action="store_true",
                           default=argparse.SUPPRESS,
                           help="machine readable output")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("classify", parents=[json_flag],
                       help="invariants of a regular integer matrix")
    c.add_argument("--matrix", required=True, help="JSON matrix or file path")
    c.add_argument("--same-class", help="second matrix to compare against")
    c.set_defaults(func=cmd_classify)

    e = sub.add_parser("enumerate", parents=[json_flag],
                       help="conjugacy classes for a polynomial")
    e.add_argument("--poly", required=True, help='e.g. "t^2+20" or [c0,c1,...,1]')
    e.add_argument("--limit", type=int, default=4,
                   help="bound for infinite families (default 4)")
    e.set_defaults(func=cmd_enumerate)

    l = sub.add_parser("lattice", parents=[json_flag],
                       help="lattice calculator in Q[t]/(f)")
    l.add_argument("--op", required=True,
                   choices=["product", "colon", "sum", "intersect", "order",
                            "power", "dual", "winv"])
    l.add_argument("--poly", required=True)
    l.add_argument("--basis", required=True,
                   help="JSON matrix whose columns generate the lattice")
    l.add_argument("--basis2", help="second lattice for binary operations")
    l.add_argument("--k", type=int, default=2, help="exponent for op power")
    l.set_defaults(func=cmd_lattice)

    q = sub.add_parser("quadform", help="binary quadratic form tools")
    qsub = q.add_subparsers(dest="qf_cmd", required=True)
    qr = qsub.add_parser("reduce", parents=[json_flag])
    qr.add_argument("--matrix", required=True)
    qe = qsub.add_parser("enumerate", parents=[json_flag])
    qe.add_argument("-r", type=int, required=True, help="trace")
    qe.add_argument("-s", type=int, required=True, help="determinant")
    qe.add_argument("--wide", action="store_true", help="the enlarged window")
    for name in ("river", "types"):
        qx = qsub.add_parser(name, add_help=False, parents=[json_flag])
        qx.add_argument("--help", action="help")
        qx.add_argument("-a", type=int, required=True)
        qx.add_argument("-h", type=int, required=True)
        qx.add_argument("-b", type=int, required=True)
        if name == "river":
            qx.add_argument("--svg", help="write one period as an SVG file")
    q.set_defaults(func=cmd_quadform)

    t = sub.add_parser("tables", parents=[json_flag],
                       help="golden tables for the worked fixtures")
    t.add_argument("--fixture", required=True, choices=["cubic8", "split202m2"])
    t.set_defaults(func=cmd_tables)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LatClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"usage error: cannot parse input ({exc})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
