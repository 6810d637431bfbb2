"""Measuring process of the khsing benchmark (started by ``run.py``).

One process, one thread, one closed-loop client: each pass runs the cases
of a workload back to back, in-process, through ``khsing.cli.main`` and the
public library.  The process

1. sets up (import khsing, generate, write and parse the seeded inputs)
   several times before the first pass and again after each pass, and
   keeps the median as ``setup_s``;
2. runs passes until ``--seconds`` is spent, checking every output against
   the stored reference after each pass, outside the timed region;
3. runs the oracles once on the last outputs, also outside the timed region;
4. prints one JSON object as its last line of standard output.

The host lends this process a CPU whose speed changes by up to a factor of
two for minutes at a time, in CPU time as much as in wall time, so raw
times of runs minutes apart differ more than a change to khsing would.  Every timed
step (a set-up, a case) is therefore bracketed by a fixed calibration loop
that does not use khsing, and its time is scaled by ``REFERENCE_CAL_S``
over the calibration's median time around it: the time the step takes on
a host whose calibration loop runs in ``REFERENCE_CAL_S``.  Raw medians
are reported beside the scaled metrics.

With ``--trace 1`` passes alternate untraced and traced; every traced pass
also regenerates the inputs, so set-up layers are measured, and the
untraced passes do the same so the two kinds stay comparable.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

import cases
import tracer as tr

SETUP_REPEATS = 7       # set-ups before the first pass
SETUPS_BETWEEN = 3      # untraced run: set-ups after each pass
CAL_LOOPS = 15          # calibration loops before and after a timed step
REFERENCE_CAL_S = 0.0007  # a calibration loop on an undisturbed vCPU
MIN_PASSES = 3          # untraced run: passes for a median
MIN_TRACED_PASSES = 2   # traced run: traced passes (as many untraced ones)
COVERAGE_TOLERANCE = 0.02
MODULES = ("cli", "diagram", "chain", "exactlinalg", "frobenius",
           "genusone", "invariants", "khcube")


def import_khsing():
    """Import khsing afresh; returns a namespace of its modules."""
    for name in [m for m in sys.modules
                 if m == "khsing" or m.startswith("khsing.")]:
        del sys.modules[name]
    importlib.import_module("khsing")
    mods = {m: importlib.import_module(f"khsing.{m}") for m in MODULES}
    return SimpleNamespace(**mods)


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibration_loop():
    """Seconds for fixed work shaped like khsing's but using none of it: a
    sparse mod-2 row reduction over dicts and a dense fraction-free integer
    elimination over lists."""
    t0 = time.perf_counter()
    rows = [{(i * 7 + k * 13) % 97: 1 for k in range(12)} for i in range(60)]
    for a, b in zip(rows, rows[1:]):
        for k in a:
            if k in b:
                del b[k]
            else:
                b[k] = 1
    n = 24
    m = [[(i * 31 + j * 17) % 101 - 50 for j in range(n)] for i in range(n)]
    for c in range(n - 1):
        p = m[c]
        pv = p[c] or 1
        for r in range(c + 1, n):
            f = m[r][c]
            if f:
                m[r] = [x * pv - f * y for x, y in zip(m[r], p)]
    return time.perf_counter() - t0


def calibration_loops():
    """Times of ``CAL_LOOPS`` calibration loops.  The garbage collector is
    off meanwhile, so the objects khsing left behind do not slow them."""
    gc.disable()
    try:
        return [calibration_loop() for _ in range(CAL_LOOPS)]
    finally:
        gc.enable()


def calibrated(step):
    """Run ``step``; return its wall and CPU seconds, its result and the
    factor that scales them to the reference host speed."""
    cal = calibration_loops()
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    out = step()
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    cal += calibration_loops()
    return wall, cpu, out, REFERENCE_CAL_S / statistics.median(cal)


def run_pass(K, workload, inputs, workdir, spans, calibrate=False):
    """One timed pass; returns wall, cpu, per-case times and outputs.

    With ``calibrate`` each case is bracketed by calibration loops and also
    reported scaled to the reference host speed (``case_ref``,
    ``cpu_ref``); the loops fall outside the pass's wall and CPU times.
    """
    outputs, codes, case_s, case_ref, cpu_ref = {}, {}, {}, {}, {}
    wall = cpu = 0.0
    for case in cases.WORKLOADS[workload]:
        def step(case=case):
            with spans.span("bench.case"):
                return cases.run_case(K, case, inputs, workdir)
        if calibrate:
            w, c, out, scale = calibrated(step)
        else:
            c0, t0 = cpu_seconds(), time.perf_counter()
            out = step()
            w, c, scale = time.perf_counter() - t0, cpu_seconds() - c0, 1.0
        codes[case.name], outputs[case.name] = out
        case_s[case.name] = w
        case_ref[case.name], cpu_ref[case.name] = w * scale, c * scale
        wall += w
        cpu += c
    return {"wall": wall, "cpu": cpu, "case_s": case_s,
            "case_ref": case_ref, "cpu_ref": cpu_ref,
            "outputs": outputs, "codes": codes}


class Checks:
    """Tally of output checks; ``failures`` names each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, what, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")


def check_pass(checks, workload, p, reference, inputs):
    for case in cases.WORKLOADS[workload]:
        checks.add(f"{case.name}: exit code", 1, int(p["codes"][case.name] != 0))
        want = cases.expected_output(case, reference, inputs)
        checks.add(f"{case.name}: output vs reference",
                   *cases.compare(want, p["outputs"][case.name]))
    for what, ok in cases.cross_checks(workload, p["outputs"]):
        checks.add(what, 1, int(not ok))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--reference", required=True)
    args = ap.parse_args(argv)
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def set_up(workload, seed, workdir, setups):
    """Import khsing afresh and make the inputs, calibrated.

    Appends ``(raw seconds, seconds at the reference speed)`` to
    ``setups`` and returns the modules and the inputs.
    """
    def step():
        K = import_khsing()
        return K, cases.make_inputs(K, workload, seed, workdir)
    wall, _cpu, (K, inputs), scale = calibrated(step)
    setups.append((wall, wall * scale))
    return K, inputs


def measure(args, workdir):
    workload = args.workload
    setups = []
    for _ in range(SETUP_REPEATS):
        K, inputs = set_up(workload, args.seed, workdir, setups)

    reference = json.loads(pathlib.Path(args.reference).read_text())[workload]
    checks = Checks()
    if args.trace:
        metrics, last = traced_passes(K, args, workdir, reference, checks)
        raw = {}
    else:
        metrics, raw, last = untraced_passes(K, args, workdir, inputs,
                                             reference, checks, setups)
        metrics["setup_s"] = statistics.median(ref for _, ref in setups)
        raw["setup_s"] = statistics.median(wall for wall, _ in setups)
    for what, ok in cases.run_oracles(last["K"], workload, last["inputs"],
                                      last["outputs"]):
        checks.add(what, 1, int(not ok))
    return {"attempted": checks.attempted, "failed": checks.failed,
            "failures": checks.failures, "metrics": metrics, "raw": raw,
            "passes": last["passes"]}


def _enough(start, seconds, walls, minimum):
    """Stop once the minimum is met and another pass would overrun."""
    if len(walls) < minimum:
        return False
    return time.perf_counter() - start + statistics.median(walls) > seconds


def untraced_passes(K, args, workdir, inputs, reference, checks, setups):
    """Calibrated passes; returns scaled metrics, raw medians and the last
    pass.  The set-ups after each pass spread ``setup_s`` over the run."""
    passes, rounds = [], []
    start = time.perf_counter()
    while not _enough(start, args.seconds, rounds, MIN_PASSES):
        t0 = time.perf_counter()
        p = run_pass(K, args.workload, inputs, workdir, tr.NullTracer(),
                     calibrate=True)
        check_pass(checks, args.workload, p, reference, inputs)
        passes.append(p)
        for _ in range(SETUPS_BETWEEN):
            K, inputs = set_up(args.workload, args.seed, workdir, setups)
        rounds.append(time.perf_counter() - t0)

    def median(of):
        return statistics.median(of(p) for p in passes)
    metrics = {
        "wall_s": median(lambda p: sum(p["case_ref"].values())),
        "slowest_case_s": median(lambda p: max(p["case_ref"].values())),
        "cpu_s": median(lambda p: sum(p["cpu_ref"].values())),
    }
    raw = {
        "wall_s": median(lambda p: p["wall"]),
        "slowest_case_s": median(lambda p: max(p["case_s"].values())),
        "cpu_s": median(lambda p: p["cpu"]),
    }
    last = {"K": K, "outputs": passes[-1]["outputs"], "inputs": inputs,
            "passes": len(passes)}
    return metrics, raw, last


def traced_passes(K, args, workdir, reference, checks):
    """Alternate untraced and traced iterations of set-up plus pass."""
    spans = tr.Tracer({f"khsing.{m}": getattr(K, m) for m in MODULES})
    plain, traced, per_pass_counts, per_pass_times, cover = [], [], [], [], []
    start = time.perf_counter()
    while not _enough(start, args.seconds, traced + plain,
                      2 * MIN_TRACED_PASSES):
        on = len(plain) > len(traced)
        recorder = spans if on else tr.NullTracer()
        if on:
            spans.install()
        try:
            t0 = time.perf_counter()
            with recorder.span("bench.setup"):
                inputs = cases.make_inputs(K, args.workload, args.seed,
                                           workdir)
            p = run_pass(K, args.workload, inputs, workdir, recorder)
            wall = time.perf_counter() - t0
        finally:
            spans.uninstall()
        check_pass(checks, args.workload, p, reference, inputs)
        if not on:
            plain.append(wall)
            continue
        traced.append(wall)
        recorded = spans.take()
        counts, times = tr.summarize(recorded)
        per_pass_counts.append(counts)
        per_pass_times.append(times)
        cover.append(tr.coverage(recorded, wall))

    for i, counts in enumerate(per_pass_counts[1:], start=2):
        diff = sorted(k for k in counts if counts[k] != per_pass_counts[0][k])
        checks.add(f"traced pass {i}: counts repeat ({', '.join(diff)})", 1,
                   int(bool(diff)))
    for i, c in enumerate(cover, start=1):
        checks.add(f"traced pass {i}: top-level self times cover the pass "
                   f"within {COVERAGE_TOLERANCE:.0%} (covered {c:.4f})", 1,
                   int(not 1 - COVERAGE_TOLERANCE <= c <= 1))
    metrics = dict(per_pass_counts[0])
    metrics.update(tr.median_times(per_pass_times))
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain))
    metrics["trace.self_time_coverage"] = statistics.median(cover)
    last = {"K": K, "outputs": p["outputs"], "inputs": inputs,
            "passes": len(traced) + len(plain)}
    return metrics, last


if __name__ == "__main__":
    sys.exit(main())
