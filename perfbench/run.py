"""Benchmark of khsing: run one workload, check its outputs, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload integral --seed 1 --seconds 40 --trace 0

The measuring happens in one child process (``worker.py``) that imports
khsing from ``src``; this parent only starts it, waits for it, adds the
child's peak resident memory, and prints the result.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the ``end_to_end`` ones of ``BENCHMARK.json``, with ``--trace 1`` the
``per_layer`` ones.  Lines before it give the failure ratio with its base,
every metric, and any failed check.

The reference outputs in ``reference.json`` were written by the code at
the commit that added the benchmark; every seed must reproduce them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "khsing" / "__init__.py").is_file():
        return fail(f"no khsing sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = HERE / ".work" / str(os.getpid())
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir),
           "--reference", str(HERE / "reference.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"worker exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    if child.returncode != 0:
        return fail(f"worker exited with code {child.returncode}")
    result = json.loads(child.stdout.splitlines()[-1])

    metrics = result["metrics"]
    if not args.trace:
        # ru_maxrss is in KiB on Linux: the largest child, i.e. the worker
        kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = kib / 1024
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        return fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                    f"undeclared {extra}")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['passes']} passes")
    print(f"fail_ratio = {failed}/{attempted} checks = "
          f"{failed / attempted:.4f}")
    for what in result["failures"]:
        print(f"FAILED: {what}")
    for m in declared:
        print(f"  {m['name']} = {metrics[m['name']]} {m['unit']}")
    for name, value in sorted(result["raw"].items()):
        print(f"  unscaled {name} = {value} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
