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
  end-to-end metric of BENCHMARK.json;
- for the claimed workload and metric, the claim rule: ``pairs`` at least
  10, ``change_better_pairs`` at least 0.9 times ``pairs``, and the
  change's median better than the parent's, in the metric's ``better``
  direction, by more than the parent's ``q3 - q1``.

Run from the repository root:  python scripts/check_bench.py [ROOT]
It prints one line per problem and exits 1 if there is any, else 0.
"""

import json
import pathlib
import sys

MIN_PAIRS = 3
CLAIM_PAIRS = 10
CLAIM_BETTER_SHARE = 0.9


def _get(value, *keys):
    """``value[k1][k2]...``, or None where a level is missing or not a
    JSON object."""
    for k in keys:
        if not isinstance(value, dict):
            return None
        value = value.get(k)
    return value


def _claim_problems(entry, metric: str, better: str) -> list:
    """How a claimed workload ``entry`` falls short of the claim rule on
    ``metric``, whose ``better`` is "lower" or "higher"."""
    pairs = entry.get("pairs")
    m = _get(entry, "metrics", metric)
    wins = _get(m, "change_better_pairs")
    median, q1, q3 = (_get(m, "parent", k) for k in ("median", "q1", "q3"))
    change = _get(m, "change", "median")
    if (type(pairs) is not int or type(wins) is not int or any(
            type(v) not in (int, float) for v in (median, q1, q3, change))):
        return ["needs pairs, change_better_pairs, the parent's median, q1 "
                "and q3, and the change's median"]
    out = []
    if pairs < CLAIM_PAIRS:
        out.append(f"pairs {pairs}, need at least {CLAIM_PAIRS}")
    if wins < CLAIM_BETTER_SHARE * pairs:
        out.append(f"change better on {wins} of {pairs} pairs, need "
                   f"{CLAIM_BETTER_SHARE:.0%}")
    gap = median - change if better == "lower" else change - median
    if not gap > q3 - q1:
        out.append(f"medians {gap:.4g} apart in the better direction, "
                   f"need more than the parent's q3 - q1 of {q3 - q1:.4g}")
    return out


def problems(root: pathlib.Path) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
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
        elif isinstance(_get(bench, "workloads", workload), dict):
            out += [f"{path.name}: claim {workload} / {metric}: {p}"
                    for p in _claim_problems(bench["workloads"][workload],
                                             metric, better[metric])]
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
