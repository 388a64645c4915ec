"""Self-tests of the benchmark: each workload passes on a tiny request count,
the traced mode reports its per-layer metrics, and every check rejects a
deliberately wrong answer."""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import oracles as ox  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wk  # noqa: E402


def _one_round(cls, seed=7):
    wl = cls()
    wl.setup()
    return wl, [(req, wl.run(req)) for req in next(wl.rounds(seed))]


@pytest.fixture(scope="module")
def lattice_round():
    return _one_round(wk.LatticeOps)


@pytest.fixture(scope="module")
def classify_round():
    return _one_round(wk.Classify)


@pytest.fixture(scope="module")
def tables_answer():
    wl, done = _one_round(wk.Tables)
    return wl, done[0]


# -- whole workloads ------------------------------------------------------------------

@pytest.fixture
def quick(monkeypatch):
    """Skip the fresh-process set-up probes (a few seconds per run) and the
    warm-up round."""
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    for cls in bench.WORKLOADS.values():
        monkeypatch.setattr(cls, "warmup_rounds", 0)


@pytest.mark.parametrize("name", ["lattice_ops", "classify"])
def test_workload_passes(name, quick):
    res = bench.run(name, seed=3, seconds=1e-3, trace=0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 10
    assert set(res["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_run_records_unscaled_timings(quick):
    res = bench.run("classify", seed=4, seconds=1e-3, trace=0)
    rec = json.loads((bench.OUT / "classify_seed4_trace0.json").read_text())
    timings = set(res["metrics"]) - {"peak_rss_mb"}
    assert set(rec["unscaled"]) == set(rec["unscaled_cpu"]) == timings
    assert all(rec["unscaled"][k] > 0 for k in timings)
    assert len(rec["speed_points_s"]) == 2
    assert all(0 < k for _, _, _, k in rec["requests"])


def test_calibration_task_is_fixed():
    assert hostspeed.task() == hostspeed.task()
    assert hostspeed.probe() > 0


def test_tables_answer_passes(tables_answer):
    wl, (req, ans) = tables_answer
    assert wl.check(req, ans)


def test_traced_run_reports_layers_and_restores_program(quick):
    import latclass.exactnum as xn
    before = xn.hnf
    res = bench.run("lattice_ops", seed=3, seconds=1e-3, trace=1)
    assert xn.hnf is before
    m = res["metrics"]
    assert set(m) == {x["name"] for x in _spec()["per_layer"]}
    assert res["correct"] and res["failed"] == 0
    assert m["exactnum.hnf.calls"]["value"] > 0
    assert m["exactnum.hnf.max_cols"]["value"] >= 2
    assert m["lattice.FullLattice.colon.calls"]["value"] > 0
    assert m["classes.principal_unit_witness.calls"]["value"] == 0
    assert m[spans.OVERHEAD]["value"] > 0


def test_self_time_excludes_children():
    tr = spans.Tracer()
    outer, inner = tr.name_id("a"), tr.name_id("b")
    i = tr.open(outer)
    j = tr.open(inner)
    tr.close(j)
    tr.close(i)
    tr.start[i], tr.end[i], tr.start[j], tr.end[j] = 0.0, 1.0, 0.25, 0.75
    st = tr.stats()
    assert st["a"]["self_s"] == 0.5 and st["b"]["self_s"] == 0.5


def test_self_time_excludes_observers():
    tr = spans.Tracer()
    i = tr.open(tr.name_id("a"))
    tr.set_aside(0.25)
    tr.close(i)
    tr.start[i], tr.end[i] = 0.0, 1.0
    assert tr.stats()["a"]["self_s"] == 0.75


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- the oracles ----------------------------------------------------------------------

def test_oracle_hnf_and_charpoly():
    assert ox.int_hnf([(2, 0), (1, 3)], 2) == ((2, 1), (0, 3))
    assert ox.int_hnf([(2, 0), (1, 3), (0, 3)], 2) == ((1, 0), (0, 3))
    assert ox.int_hnf([(4, 6), (2, 9), (0, 0)], 2) == ((8, 6), (0, 3))
    assert ox.charpoly(((0, -5), (1, 0))) == [5, 0, 1]
    assert ox.charpoly(((0, 0, -4), (2, 0, -4), (0, 2, -4))) == [16, 8, 4, 1]


# -- checks reject wrong answers -----------------------------------------------------------

def _perturb(basis):
    """The same shape of canonical basis with one entry changed."""
    rows = [list(r) for r in basis]
    rows[0][-1] += Fraction(1, 3)
    return tuple(map(tuple, rows))


def test_lattice_checks_reject_wrong_answers(lattice_round):
    wl, done = lattice_round
    seen = set()
    for req, ans in done:
        assert wl.check(req, ans), req["kind"]
        op = req["op"]
        if op == "winv":
            wrongs = [(not ans[0], ans[1]), (ans[0], _perturb(ans[1]))]
        elif op == "index":
            wrongs = [ans + 1, ans * 2]
        else:
            wrongs = [_perturb(ans)]
        for wrong in wrongs:
            assert not wl.check(req, wrong), op
        seen.add(op)
    assert seen == set(wk.LATTICE_OPS)


def test_classify_checks_reject_wrong_answers(classify_round):
    wl, done = classify_round
    kinds = set()
    for req, ans in done:
        assert wl.check(req, ans), req["kind"]
        code, out = ans
        kind = req["kind"]
        kinds.add(kind)
        bad = copy.deepcopy(out)
        if kind.startswith(("classify", "same", "content")):
            bad["charpoly_coeffs"][0] = str(int(bad["charpoly_coeffs"][0]) + 1)
            assert not wl.check(req, (code, bad))
        if kind.startswith("same"):
            assert not wl.check(req, (0, dict(out, same_class=False)))
        if kind == "content2":
            assert not wl.check(req, (0, dict(out, same_class=True)))
            assert not wl.check(req, (3, dict(out, same_class="undecided")))
        if kind.startswith("enum") or kind in wk.ANCHORS:
            bad["classes"].append(bad["classes"][0])
            assert not wl.check(req, (code, bad))
        if kind in wk.ANCHORS:
            assert not wl.check(req, (code, dict(out, count=out["count"] + 1)))
        if kind == "reduce":
            bad["matrix"][0][0] += 1
            assert not wl.check(req, (code, bad))
        if kind in ("river", "types"):
            key = "period" if kind == "river" else "type_a"
            bad[key][0][1] += 2
            assert not wl.check(req, (code, bad))
    assert kinds == set(wk.CLASSIFY_MIX)


def _wrong_cell(cell, names):
    """A plausible but wrong value for one TSV cell."""
    if cell.startswith("[["):
        m = json.loads(cell)
        m[0][0] += 1
        return json.dumps(m, separators=(",", ":"))
    if cell.startswith("("):
        return cell.replace("(", "(1", 1)
    if cell.lstrip("-").isdigit():
        return str(int(cell) + 1)
    return next(n for n in names if n not in cell)


@pytest.mark.parametrize("fixture, table, row, col", [
    ("cubic8", "products", 2, 3), ("cubic8", "division", 4, 5),
    ("cubic8", "tau_data", 1, 4), ("cubic8", "matrices", 3, 1),
    ("split202m2", "products", 5, 2), ("split202m2", "order_data", 8, 2),
    ("split202m2", "normal_forms", 6, 2), ("split202m2", "tau_data", 2, 3),
])
def test_tables_check_rejects_wrong_cells(tables_answer, fixture, table, row, col):
    wl, (req, ans) = tables_answer
    bad = copy.deepcopy(ans)
    names = bad[fixture]["products"].split("\n")[0].split("\t")[1:]
    lines = [line.split("\t") for line in bad[fixture][table].split("\n")]
    lines[row][col] = _wrong_cell(lines[row][col], names)
    bad[fixture][table] = "\n".join("\t".join(r) for r in lines)
    assert bad != ans
    assert not wl.check(req, bad)
