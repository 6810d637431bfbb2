import importlib.util
import json
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_bench", ROOT / "scripts" / "check_bench.py")
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _complete_bench():
    # every metric as a claim would need it: 10 pairs, all better, and
    # medians 0.1 apart against a parent q3 - q1 of 0.02
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"]: {"pairs": 10, "metrics": {
        m["name"]: {"parent": {"median": 1.0, "q1": 0.99, "q3": 1.01},
                    "change": {"median": 0.9}, "change_better_pairs": 10}
        for m in spec["end_to_end"]}} for w in spec["workloads"]}
    return {"claim": {"workload": "field", "metric": "wall_s"},
            "workloads": workloads}


def _root_with(tmp_path, bench):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "BENCH_1.json").write_text(json.dumps(bench))
    return tmp_path


def test_repository_bench_files_cover_the_benchmark():
    assert check_bench.problems(ROOT) == []


def test_complete_file_passes(tmp_path):
    assert check_bench.main([str(_root_with(tmp_path, _complete_bench()))]) == 0


def test_gaps_are_named(tmp_path, capsys):
    bench = _complete_bench()
    del bench["workloads"]["field"]
    bench["workloads"]["integral"]["pairs"] = 2
    bench["workloads"]["singular_q"]["metrics"]["wall_s"]["change"] = 0.5
    assert check_bench.main([str(_root_with(tmp_path, bench))]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "BENCH_1.json: integral: pairs 2, need at least 3",
        "BENCH_1.json: workload field missing",
        "BENCH_1.json: singular_q: wall_s: no change median",
    ]


def test_unreadable_file_named(tmp_path):
    root = _root_with(tmp_path, {})
    (root / "BENCH_1.json").write_text("{")
    assert check_bench.problems(root)[0].startswith(
        "BENCH_1.json: unreadable:")


def test_claim_must_name_a_workload_and_end_to_end_metric(tmp_path, capsys):
    for claim in ({"workload": "large", "metric": "wall_s"},
                  {"workload": "field", "metric": "chain.homology.self_s"},
                  {"workload": "field"}, None):
        bench = _complete_bench()
        bench["claim"] = claim
        assert check_bench.main([str(_root_with(tmp_path, bench))]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"BENCH_1.json: claim {workload!r} / {metric!r} is not a workload "
        "and end-to-end metric"
        for workload, metric in (("large", "wall_s"),
                                 ("field", "chain.homology.self_s"),
                                 ("field", None), (None, None))]


def test_claim_rule_violations_named(tmp_path, capsys):
    bench = _complete_bench()
    wall = bench["workloads"]["field"]["metrics"]["wall_s"]
    bench["workloads"]["field"]["pairs"] = 9
    wall["change_better_pairs"] = 8
    wall["change"]["median"] = 0.995
    assert check_bench.main([str(_root_with(tmp_path, bench))]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "BENCH_1.json: claim field / wall_s: pairs 9, need at least 10",
        "BENCH_1.json: claim field / wall_s: change better on 8 of 9 pairs, "
        "need 90%",
        "BENCH_1.json: claim field / wall_s: medians 0.005 apart in the "
        "better direction, need more than the parent's q3 - q1 of 0.02",
    ]


def test_claim_rule_only_binds_the_claimed_metric(tmp_path):
    bench = _complete_bench()
    for w, entry in bench["workloads"].items():
        entry["pairs"] = 3
        for m, metric in entry["metrics"].items():
            if (w, m) != ("field", "wall_s"):
                metric["change_better_pairs"] = 0
                metric["change"]["median"] = 1.0
    assert check_bench.main([str(_root_with(tmp_path, bench))]) == 1
    bench["workloads"]["field"]["pairs"] = 10
    assert check_bench.main([str(_root_with(tmp_path, bench))]) == 0


def test_claim_gap_follows_the_better_direction(tmp_path, capsys):
    root = _root_with(tmp_path, _complete_bench())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        if m["name"] == "wall_s":
            m["better"] = "higher"
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    assert check_bench.main([str(root)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "BENCH_1.json: claim field / wall_s: medians -0.1 apart in the "
        "better direction, need more than the parent's q3 - q1 of 0.02"]


def test_claim_without_its_quartiles_named(tmp_path, capsys):
    bench = _complete_bench()
    del bench["workloads"]["field"]["metrics"]["wall_s"]["parent"]["q3"]
    assert check_bench.main([str(_root_with(tmp_path, bench))]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "BENCH_1.json: claim field / wall_s: needs pairs, "
        "change_better_pairs, the parent's median, q1 and q3, and the "
        "change's median"]
