"""Run one benchmark workload against the latclass sources of this checkout.

    python3 bench/run.py --workload lattice_ops --seed 1 --seconds 25 --trace 0

One process, one client thread, closed loop: the next request is sent when
the previous answer is back.  Inputs come from --seed.  After set-up and one
warm-up round, whole rounds of requests run until --seconds of request time
are spent; between rounds, outside the timed spans, the set-up is timed
again in fresh processes.  Each answer is checked by the benchmark's own
arithmetic right after its request, outside the request's timed span; a
request that raises, exits with an unexpected code or fails its check counts
as failed.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (ops_per_s,
latency_p50_ms, latency_p90_ms, setup_s, peak_rss_mb).  Every time among
them is put at the reference host speed of `hostspeed`: between rounds,
about every PROBE_EVERY seconds of request time, the calibration task is
timed PROBES_PER_POINT times, and a request's time is scaled by REFERENCE_S
over the median probe time of the two points around it and the next point
on either side, so that a probe caught by a brief stall of the host does
not set the scale (a set-up, by the probes taken around it in its own
process).  With --trace 1 every round is sent twice, untraced and then
traced, until half of --seconds of untraced request time is spent; the
metrics are the per-layer ones read off the spans, plus the tracing
overhead (traced request time over untraced request time of the same
requests).  Per-run records, with the unscaled times too,
and spans are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 11     # set-ups per run: this process's own, then fresh
                       # processes spread over the timed loop
PROBE_EVERY = 0.5      # seconds of request time between host-speed points
PROBES_PER_POINT = 3   # calibration probes taken back to back at a point
UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "setup_s": "s"}

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
from spans import REQUEST, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Done(NamedTuple):
    """One request sent: its wall and CPU seconds, and how it went."""
    kind: str
    wall: float
    cpu: float
    err: str | None     # failure note
    wrong: bool         # the answer was rejected by its check


def speed_point() -> list[float]:
    return [hostspeed.probe() for _ in range(PROBES_PER_POINT)]


def timed_setup(wl) -> tuple[float, float, float]:
    """(wall seconds, CPU seconds, CPU seconds at reference speed) of the
    workload's set-up: import latclass and build what it needs.  The
    calibration task runs once untimed, so that its own first-call costs
    stay out of the probes."""
    hostspeed.task()
    before = speed_point()
    t0, c0 = time.perf_counter(), time.process_time()
    wl.setup()
    c1, t1 = time.process_time(), time.perf_counter()
    probe = statistics.median(before + speed_point())
    return t1 - t0, c1 - c0, (c1 - c0) * hostspeed.REFERENCE_S / probe


def setup_probe(name: str) -> tuple[float, float, float]:
    """Time the workload's set-up in this fresh process."""
    return timed_setup(WORKLOADS[name]())


def _fresh_setup(name: str) -> tuple[float, float, float]:
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                           "--setup-probe"], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def _send(wl, rounds, tracer=None) -> list[Done]:
    """Send every request of the given rounds, timing each; after each one,
    outside its timed span, check its answer."""
    done = []
    for reqs in rounds:
        for req in reqs:
            if tracer is not None:
                tracer.request += 1
                idx = tracer.open(tracer.name_id(REQUEST))
            ans, err = None, None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                ans = wl.run(req)
            except Exception as exc:   # counted as a failed request
                err = f"{type(exc).__name__}: {exc}"
            c1, t1 = time.process_time(), time.perf_counter()
            if tracer is not None:
                tracer.close(idx)
            wrong = False
            if err is None:
                try:
                    wrong = not wl.check(req, ans)
                except Exception as exc:   # a malformed answer is a wrong one
                    wrong, err = True, f"check raised {type(exc).__name__}: {exc}"
                if wrong:
                    err = err or "answer rejected by the check"
            done.append(Done(req["kind"], t1 - t0, c1 - c0, err, wrong))
    return done


def _measure(wl, stream, seconds, between, tracer=None):
    """Whole rounds until `seconds` of untraced request wall time are spent
    (at least one round).  With a tracer every round is sent twice, untraced
    and then traced, so both copies meet the same host speed.  After each
    round `between` gets the share of `seconds` spent so far.  A host-speed
    point is taken before the first round and after the round that ends the
    run or brings PROBE_EVERY seconds of request time since the last point.
    Returns the untraced records, the scale that puts each at the reference
    host speed, the traced records and the points."""
    timed, traced, spent = [], [], 0.0
    points, windows, since = [speed_point()], [], 0.0
    while spent < seconds or not timed:
        reqs = next(stream)
        part = _send(wl, [reqs])
        timed += part
        windows += [len(points) - 1] * len(part)
        took = sum(d.wall for d in part)
        spent += took
        since += took
        if tracer is not None:
            tracer.install()
            try:
                traced += _send(wl, [reqs], tracer)
            finally:
                tracer.uninstall()
        between(spent / seconds)
        if since >= PROBE_EVERY or spent >= seconds:
            points.append(speed_point())
            since = 0.0
    scale = [hostspeed.REFERENCE_S
             / statistics.median(sum(points[max(0, j - 1):j + 3], []))
             for j in range(len(points) - 1)]
    return timed, [scale[j] for j in windows], traced, points


def _pct(values, q):
    """The q-th percentile (inclusive method); one value is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timings(lat, setups) -> dict:
    lat = sorted(lat)
    return {"ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * _pct(lat, 90),
            "setup_s": statistics.median(setups)}


def run(name, seed, seconds, trace):
    wl = WORKLOADS[name]()
    setups = [timed_setup(wl)]

    def probe(done):
        """Time fresh set-ups evenly over the timed loop, so that their
        median meets several phases of host speed."""
        fresh = SETUP_SAMPLES - 1
        while len(setups) <= fresh and len(setups) - 1 <= done * fresh:
            setups.append(_fresh_setup(name))

    stream = wl.rounds(seed)
    warm = _send(wl, [next(stream) for _ in range(wl.warmup_rounds)])
    tracer = Tracer() if trace else None
    timed, scale, traced, points = _measure(
        wl, stream, seconds / 2 if trace else seconds, probe, tracer)

    all_done = warm + timed + traced
    notes = [{"kind": d.kind, "error": d.err} for d in all_done if d.err is not None]
    if trace:
        metrics = tracer.metrics(sum(d.wall for d in traced)
                                 / sum(d.wall for d in timed))
    else:
        scaled = _timings([d.cpu * k for d, k in zip(timed, scale)],
                          [s[2] for s in setups])
        metrics = {name: {"value": val, "unit": UNITS[name]}
                   for name, val in scaled.items()}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    result = {"correct": not any(d.wrong for d in all_done),
              "attempted": len(all_done), "failed": len(notes), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{name}_seed{seed}_trace{int(bool(trace))}"
    record = dict(result, workload=name, seed=seed,
                  unscaled=_timings([d.wall for d in timed], [s[0] for s in setups]),
                  unscaled_cpu=_timings([d.cpu for d in timed], [s[1] for s in setups]),
                  setup_samples_s=setups, speed_points_s=points,
                  timed_requests=len(timed), failures=notes[:50],
                  requests=[[d.kind, round(d.wall, 7), round(d.cpu, 7), round(k, 5)]
                            for d, k in zip(timed, scale)])
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")
    if trace:
        tracer.dump(OUT / f"{stem}_spans.jsonl")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "latclass" / "__init__.py").is_file():
        print(f"bench: no latclass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
