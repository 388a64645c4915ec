"""Steadiness check: run one workload k times, each with another seed, and
print each end-to-end metric's median, quartiles and spread.

    python3 bench/steady.py --workload tables -k 10 [--first-seed 1]

Each run lasts run_seconds of BENCHMARK.json.  The spread is (Q3 - Q1) /
median, with the quartiles of `statistics.quantiles(values, n=4)`.  Next to
it stands the metric's bound from BENCHMARK.json; a spread below a third of
its bound is marked "ok", one below the bound "near", any other "WIDE".  The
share of failed requests must be the same in every run.  For comparison the
spread of the same timings before scaling to the reference host speed is
printed too, read from each run's record under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs, unscaled = [], []
    for seed in range(args.first_seed, args.first_seed + args.k):
        cmd = list(spec["command"]) + ["--workload", args.workload, "--seed", str(seed),
                                       "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        rec = ROOT / "bench" / "out" / f"{args.workload}_seed{seed}_trace0.json"
        unscaled.append(json.loads(rec.read_text())["unscaled"])
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {vals}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s; failed share "
          f"{'steady' if len(shares) == 1 else 'VARIES'}: {sorted(shares)}")
    print(f"{'metric':16} {'Q1':>11} {'median':>11} {'Q3':>11} {'spread':>8} "
          f"{'bound':>6}      {'unscaled spread':>15}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3, sp = spread(vals)
        note = ("ok" if sp < m["bound"] / 3 else
                "near" if sp <= m["bound"] else "WIDE")
        raw = ""
        if m["name"] in unscaled[0]:
            raw = f"{spread([u[m['name']] for u in unscaled])[3]:15.4f}"
        print(f"{m['name']:16} {q1:11.5g} {med:11.5g} {q3:11.5g} {sp:8.4f} "
              f"{m['bound']:6.3f} {note:4} {raw}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
