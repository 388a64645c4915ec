import json
import time
from pathlib import Path

import pytest

from latclass import quadform as qf
from latclass.cli import main

# One classify, same-class and enumerate request per spectrum family, with the
# exit code and the --json output the program gave before its family dispatch
# was gathered into families.spectrum_family.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
# The exact stdout of `tables` for each fixture, with and without --json.
TABLES_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "tables_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, (json.loads(out) if out.strip() else None)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(capsys, case):
    want = GOLDEN[case]
    code, data = run_json(capsys, *want["argv"])
    assert (code, data) == (want["exit"], want["output"])


def test_enumerate_t2_plus_5(capsys):
    code, data = run_json(capsys, "enumerate", "--poly", "t^2+5")
    assert code == 0
    assert data["count"] == 2
    assert data["sl2_count"] == 4
    mats = [tuple(map(tuple, c["matrix"])) for c in data["classes"]]
    assert set(mats) == {((0, -5), (1, 0)), ((1, -3), (2, -1))}


def test_enumerate_eigenvalues_2_0_m2(capsys):
    code, data = run_json(capsys, "enumerate", "--poly", "t^3-4t")
    assert code == 0
    assert data["count"] == 10


def test_enumerate_cubic_fixture(capsys):
    code, data = run_json(capsys, "enumerate", "--poly", "t^3+4t^2+8t+16")
    assert code == 0
    assert data["count"] == 6


def test_enumerate_coefficient_list(capsys):
    code, data = run_json(capsys, "enumerate", "--poly", "[5, 0, 1]")
    assert code == 0
    assert data["count"] == 2


def test_enumerate_unsupported_exit_2(capsys):
    code = main(["enumerate", "--poly", "t^4+1"])
    assert code == 2


def test_classify_jordan_decode(capsys):
    code, data = run_json(capsys, "classify", "--matrix",
                          "[[0,4,-1],[0,0,6],[0,0,0]]")
    assert code == 0
    assert data["family"] == "jordan"
    assert data["order_params"] == {"n2": 2, "n3": 6, "n4": 1}
    assert data["class_decomposition"] == {"n1": 2, "d1": 3}


def test_classify_same_class_exit_codes(capsys):
    code, data = run_json(capsys, "classify", "--matrix", "[[0,-5],[1,0]]",
                          "--same-class", "[[1,-3],[2,-1]]")
    assert code == 0
    assert data["same_class"] is False
    # the undecided cubic pair exits 3
    code, data = run_json(capsys, "classify", "--matrix",
                          "[[0,0,-16],[1,0,-8],[0,1,-4]]",
                          "--same-class", "[[0,-1,-2],[2,0,-3],[0,2,-4]]")
    assert code == 3
    assert data["same_class"] == "undecided"


def test_indefinite_same_class_walks_four_rivers(capsys, monkeypatch):
    # the printed river period is the first matrix's SL2 key, so one walk
    # serves both; the flip of each matrix and the second matrix take three
    walks = []
    real = qf._river_orbit
    monkeypatch.setattr(qf, "_river_orbit", lambda f: walks.append(f) or real(f))
    code, data = run_json(capsys, "classify", "--matrix", "[[0,7],[1,0]]",
                          "--same-class", "[[3,-2],[1,-3]]")
    assert (code, data["same_class"]) == (0, True)
    assert len(walks) == 4
    assert data["river_period"] == [list(f) for f in
                                    qf.river(qf.QuadForm(1, 0, -7)).period]


def test_lattice_calculator_order_idempotent(capsys):
    basis = "[[1,0,0],[0,2,0],[0,0,4]]"
    code, data = run_json(capsys, "lattice", "--op", "order",
                          "--poly", "t^3+4t^2+8t+16", "--basis", basis)
    assert code == 0
    assert data["basis"] == [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]]


def test_lattice_calculator_colon(capsys):
    code, data = run_json(capsys, "lattice", "--op", "colon",
                          "--poly", "[2,2,2,1]",
                          "--basis", "[[1,0,0],[0,2,0],[0,0,4]]",
                          "--basis2", "[[1,0,0],[0,2,0],[0,0,2]]")
    assert code == 0
    assert data["basis"] == [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]]


def test_lattice_winv(capsys):
    code, data = run_json(capsys, "lattice", "--op", "winv",
                          "--poly", "[2,2,2,1]",
                          "--basis", "[[1,0,0],[0,1,0],[0,0,2]]")
    assert code == 0
    assert data["invertible"] is False


def test_lattice_json_round_trip(capsys):
    code, data = run_json(capsys, "lattice", "--op", "product",
                          "--poly", "[2,2,2,1]",
                          "--basis", "[[1,0,0],[0,1,0],[0,0,2]]",
                          "--basis2", "[[1,0,0],[0,1,0],[0,0,2]]")
    assert code == 0
    code2, data2 = run_json(capsys, "lattice", "--op", "order", "--poly",
                            "[2,2,2,1]", "--basis", json.dumps(data["basis"]))
    assert code2 == 0
    assert data2["basis"] == data["basis"]      # L3^2 = Lambda_1 is an order


def test_quadform_reduce(capsys):
    code, data = run_json(capsys, "quadform", "reduce", "--matrix",
                          "[[7,-6],[7,-7]]")
    assert code == 0
    m = tuple(map(tuple, data["matrix"]))
    assert m[1][0] != 0 and abs(m[1][0]) <= abs(m[0][1])


def test_quadform_enumerate(capsys):
    code, data = run_json(capsys, "quadform", "enumerate", "-r", "0", "-s", "-7")
    assert code == 0
    assert data["count"] == 4
    code, data = run_json(capsys, "quadform", "enumerate", "-r", "0", "-s", "-7",
                          "--wide")
    assert data["count"] == 6


def test_quadform_river_svg(tmp_path, capsys):
    out = tmp_path / "river.svg"
    code, data = run_json(capsys, "quadform", "river", "-a", "1", "-h", "0",
                          "-b", "-7", "--svg", str(out))
    assert code == 0
    assert data["unit_in_omega_basis"] == [8, 3]
    assert out.read_text().startswith("<svg")


def test_quadform_types(capsys):
    code, data = run_json(capsys, "quadform", "types", "-a", "1", "-h", "0",
                          "-b", "-7")
    assert code == 0
    assert sorted(data["type_b"]) == [[1, 6, 2], [2, 6, 1]]
    assert data["gl2_splits"] is True


def test_tables(capsys):
    code, data = run_json(capsys, "tables", "--fixture", "cubic8")
    assert code == 0
    assert "Lambda4\t" in data["tau_data"]
    code, data = run_json(capsys, "tables", "--fixture", "split202m2")
    assert code == 0
    assert len(data["products"].splitlines()) == 11


@pytest.mark.parametrize("fixture", sorted(TABLES_GOLDEN))
def test_tables_golden_output(capsys, fixture):
    for mode, want in sorted(TABLES_GOLDEN[fixture].items()):
        flags = ["--json"] if mode == "json" else []
        code, out = run(capsys, *flags, "tables", "--fixture", fixture)
        assert code == 0
        assert out == want, mode


def test_usage_errors_exit_1(capsys):
    assert main(["lattice", "--op", "product", "--poly", "t^2+5",
                 "--basis", "[[1,0],[0,1]]"]) == 1     # missing --basis2
    assert main(["nonsense"]) == 1
    assert main(["classify", "--matrix", "not json"]) == 1
    for bad in ("[[1,2],[3]]", "[]", "[[]]", "[[1,2,3],[4,5,6]]",
                "[[1.5,0],[0,1]]", "[[true,0],[0,1]]", '[["1",0],[0,1]]',
                # a claimed charpoly takes the same entries as --basis
                '{"matrix": [[0,1],[1,0]], "charpoly": [-1.0,0,1]}',
                '{"matrix": [[0,1],[1,0]], "charpoly": [-1,0,true]}',
                '{"matrix": [[0,1],[1,0]], "charpoly": 5}'):
        assert main(["classify", "--matrix", bad]) == 1, bad
    assert main(["classify", "--matrix", "[[0,1],[1,0]]",
                 "--same-class", "[[1,0],[0]]"]) == 1
    assert main(["enumerate", "--poly", "t/2"]) == 1
    # an empty or negative listing bound is a usage error for every family
    for poly in ("t^3", "t^2-2t+1", "t^2+5"):
        assert main(["enumerate", "--poly", poly, "--limit", "0"]) == 1, poly
    assert main(["enumerate", "--poly", "t^3", "--limit", "-3"]) == 1
    assert main(["enumerate", "--poly", "3t/4+1"]) == 1
    assert main(["enumerate", "--poly", "t^2+1e3000000"]) == 1
    # input bounds checked before any work of the size of the input: an
    # exponent above 4,300, and a basis read against deg f before Q[t]/(f)
    # is built (t^200+1 with [[1]] took 12.7 s, t^3000000+1 did not end)
    start = time.process_time()
    assert main(["enumerate", "--poly", "t^3000000+1"]) == 1
    for poly in ("t^3000000+1", "t^200+1"):
        assert main(["lattice", "--op", "order", "--poly", poly, "--basis", "[[1]]"]) == 1
    assert time.process_time() - start < 1
    assert main(["enumerate", "--poly", "1e-3000000t^2+1"]) == 1
    # exponents, signs and slashes of small rationals still read
    assert main(["lattice", "--op", "dual", "--poly", '["1e0",0,1]',
                 "--basis", '[["1e3",0],["-7/2","1/10"]]']) == 0
    for bad in ("[[1,2],[3]]", "[]", "[[]]", "[[],[]]", "[1,2]", '{"basis": 5}',
                "[[1,0,0],[0,1,0],[0,0,1]]", "[[1,0]]",
                # floats and other non-rational JSON values
                "[[0.1,0],[0,1]]", "[[1,0],[0,2.0]]", "[[1,null],[0,1]]",
                "[[1,[0]],[0,1]]", "[[false,0],[0,1]]",
                # rational strings of more than 4,300 digits (these ran
                # without bound: Fraction multiplies the exponent out)
                '[["1e3000000",0],[0,1]]', '[["1e-3000000",0],[0,1]]',
                '[["1e4300",0],[0,1]]'):
        assert main(["lattice", "--op", "order", "--poly", "t^2+5",
                     "--basis", bad]) == 1, bad
        assert main(["lattice", "--op", "sum", "--poly", "t^2+5",
                     "--basis", "[[1,0],[0,1]]", "--basis2", bad]) == 1, bad
    for bad in ("[5,0.0,1]", "[5,0,1.5]", "[5,[0],1]", "[5,null,1]",
                '["1e3000000",0,1]', '[5,"-1e-3000000",1]'):
        assert main(["lattice", "--op", "order", "--poly", bad,
                     "--basis", "[[1,0],[0,1]]"]) == 1, bad
        assert main(["enumerate", "--poly", bad]) == 1, bad


def test_domain_error_exit_2(capsys):
    assert main(["quadform", "enumerate", "-r", "1", "-s", "-2"]) == 2
    # a non-regular matrix has no class to compare
    assert main(["--json", "classify", "--matrix", "[[0,0],[0,0]]",
                 "--same-class", "[[5,1],[2,7]]"]) == 2
    assert main(["classify", "--matrix", "[[3,0],[0,3]]",
                 "--same-class", "[[3,0],[0,3]]"]) == 2
    # not monic integer polynomials
    assert main(["enumerate", "--poly", "t^2+t+3/2"]) == 2
    assert main(["enumerate", "--poly", "2t^2+1"]) == 2
    # searches above classes.QUOTIENT_CAP raise ResourceError before looping
    assert main(["enumerate", "--poly", "t^3-2000t^2"]) == 2
    # eigenvalues (0, 40, 120): 40 * 41 * 2401 split3 candidate triples
    assert main(["enumerate", "--poly", "t^3-160t^2+4800t"]) == 2
    assert main(["enumerate", "--poly", "t^2-2t+1000000000001"]) == 2
    # the jordan listings count their classes first: limit for jordan2, the
    # sum of gcd(m1, m2) for jordan3 (at least limit^2, so 2000 needs no sum)
    assert main(["enumerate", "--poly", "t^2-2t+1", "--limit", "3000000"]) == 2
    assert main(["enumerate", "--poly", "t^3", "--limit", "2000"]) == 2
    assert main(["enumerate", "--poly", "t^3-3t^2+3t-1", "--limit", "1000"]) == 2
    # a river period longer than quadform.RIVER_CAP forms
    assert main(["quadform", "types", "-a", "1", "-h", "0", "-b", "-1000000007"]) == 2
    assert main(["quadform", "river", "-a", "1", "-h", "0", "-b", "-99999999977"]) == 2
    # a constant term with no prime factor up to exactnum.FACTOR_CAP
    start = time.process_time()
    assert main(["enumerate", "--poly", "t^2+1000000000000000003"]) == 2
    assert main(["classify", "--matrix", "[[0,-1000000000000000003],[1,0]]"]) == 2
    assert time.process_time() - start < 4


def test_matrix_with_claimed_charpoly(capsys):
    code, data = run_json(capsys, "classify", "--matrix",
                          '{"matrix": [[0,-5],[1,0]], "charpoly": [5,0,1]}')
    assert code == 0
    code = main(["classify", "--matrix",
                 '{"matrix": [[0,-5],[1,0]], "charpoly": [7,0,1]}'])
    assert code == 2


def test_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"matrix": [[0,4],[1,0]]}')
    code, data = run_json(capsys, "classify", "--matrix", str(path))
    assert code == 0
    assert data["family"] == "split"


def test_enumerate_jordan2_and_mixed_families(capsys):
    code, data = run_json(capsys, "enumerate", "--poly", "t^2-2t+1", "--limit", "3")
    assert code == 0
    assert data["infinite"] is True
    assert [c["matrix"] for c in data["classes"]] == [
        [[1, 1], [0, 1]], [[1, 2], [0, 1]], [[1, 3], [0, 1]]]
    code, data = run_json(capsys, "enumerate", "--poly", "t^3-2t^2", "--limit", "1")
    assert code == 0
    assert data["infinite"] is True
    assert data["classes"]


def test_lattice_power_stabilizes(capsys):
    # L3 contains 1: L3^2 = Lambda_1 is an order, and every later power equals it
    code, data = run_json(capsys, "lattice", "--op", "power", "--k", "100000000",
                          "--poly", "[2,2,2,1]",
                          "--basis", "[[1,0,0],[0,1,0],[0,0,2]]")
    assert code == 0
    assert data["basis"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    # 2*L3 lacks 1: its powers grow without end, so a large exponent is refused
    assert main(["lattice", "--op", "power", "--k", "100000000", "--poly",
                 "[2,2,2,1]", "--basis", "[[2,0,0],[0,2,0],[0,0,4]]"]) == 2
    code, data = run_json(capsys, "lattice", "--op", "power", "--k", "3",
                          "--poly", "[2,2,2,1]",
                          "--basis", "[[2,0,0],[0,2,0],[0,0,4]]")
    assert code == 0
    assert data["basis"] == [["8", "0", "0"], ["0", "8", "0"], ["0", "0", "8"]]


def test_lattice_power_periodic(capsys):
    # in Q[t]/(t^2+5), L = <2, t> has L^2 = <1, 2t> and L^3 = L: the powers
    # alternate, so L^100 = L^2 and L^101 = L, past the cap of 64
    for k, basis in (("100", [["1", "0"], ["0", "2"]]), ("101", [["2", "0"], ["0", "1"]])):
        code, data = run_json(capsys, "lattice", "--op", "power", "--k", k,
                              "--poly", "t^2+5", "--basis", "[[2,0],[0,1]]")
        assert code == 0
        assert data["basis"] == basis


def test_lattice_degree_cap(capsys):
    # deg f above cli.LATTICE_DEGREE_CAP is refused with exit 2 before
    # Q[t]/(f) is built; at the cap the identity basis is its own order
    from latclass.cli import LATTICE_DEGREE_CAP as cap

    def identity(n):
        return json.dumps([[int(i == j) for j in range(n)] for i in range(n)])

    start = time.process_time()
    assert main(["lattice", "--op", "order", "--poly", f"t^{cap + 1}+1",
                 "--basis", identity(cap + 1)]) == 2
    assert main(["lattice", "--op", "order", "--poly", "t^80+1",
                 "--basis", identity(80)]) == 2
    assert time.process_time() - start < 1
    assert "above the cap" in capsys.readouterr().err
    code, data = run_json(capsys, "lattice", "--op", "order", "--poly", f"t^{cap}+1",
                          "--basis", identity(cap))
    assert code == 0 and len(data["basis"]) == cap


def test_lattice_dual_cli(capsys):
    code, data = run_json(capsys, "lattice", "--op", "dual",
                          "--poly", "[2,2,2,1]",
                          "--basis", "[[1,0,0],[0,1,0],[0,0,1]]")
    assert code == 0
    assert data["basis"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_json_flag_position(capsys):
    code1 = main(["--json", "enumerate", "--poly", "t^2+5"])
    out1 = capsys.readouterr().out
    code2 = main(["enumerate", "--poly", "t^2+5", "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)
