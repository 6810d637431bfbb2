"""Check that every BENCH_*.json file at the repository root covers the
benchmark that BENCHMARK.json declares.

A BENCH file records a performance claim: for each workload, the medians
of the parent commit and of the change for every end-to-end metric,
measured on alternating pairs of ``perfbench/run.py`` runs.  This script
reads the files and runs nothing.  It requires, in every BENCH file:

- ``workloads.<name>`` for each workload of BENCHMARK.json, with
  ``pairs`` at least 3;
- ``workloads.<name>.metrics.<metric>.parent.median`` and
  ``...change.median`` as numbers, for each end-to-end metric;
- ``claim.workload`` and ``claim.metric`` naming a workload and an
  end-to-end metric of BENCHMARK.json.

Run from the repository root:  python scripts/check_bench.py [ROOT]
It prints one line per problem and exits 1 if there is any, else 0.
"""

import json
import pathlib
import sys

MIN_PAIRS = 3


def _get(value, *keys):
    """``value[k1][k2]...``, or None where a level is missing or not a
    JSON object."""
    for k in keys:
        if not isinstance(value, dict):
            return None
        value = value.get(k)
    return value


def problems(root: pathlib.Path) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    out = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            bench = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            out.append(f"{path.name}: unreadable: {e}")
            continue
        workload = _get(bench, "claim", "workload")
        metric = _get(bench, "claim", "metric")
        if workload not in workloads or metric not in metrics:
            out.append(f"{path.name}: claim {workload!r} / {metric!r} is "
                       "not a workload and end-to-end metric")
        for w in workloads:
            entry = _get(bench, "workloads", w)
            if not isinstance(entry, dict):
                out.append(f"{path.name}: workload {w} missing")
                continue
            pairs = entry.get("pairs")
            if not (type(pairs) is int and pairs >= MIN_PAIRS):
                out.append(f"{path.name}: {w}: pairs {pairs!r}, "
                           f"need at least {MIN_PAIRS}")
            for m in metrics:
                for side in ("parent", "change"):
                    median = _get(entry, "metrics", m, side, "median")
                    if type(median) not in (int, float):
                        out.append(f"{path.name}: {w}: {m}: no {side} median")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0] if argv else
                        pathlib.Path(__file__).resolve().parent.parent)
    found = problems(root)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
