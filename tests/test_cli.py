import json
import os
import pathlib
import subprocess
import sys

import pytest

import khsing
from khsing.cli import corpus_dir, main
from khsing.diagram import from_braid
from khsing.exactlinalg import SparseMatrix

# the child process imports the same khsing as the tests, also when pytest
# put the source tree on sys.path itself
_SRC = str(pathlib.Path(khsing.__file__).parents[1])
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}


def run(args):
    proc = subprocess.run([sys.executable, "-m", "khsing.cli", *args],
                          capture_output=True, text=True, env=_ENV)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def corpus():
    return corpus_dir()


class TestHomologyCommand:
    def test_unknot_table(self, corpus):
        code, out, _ = run(["homology", str(corpus / "unknot.json")])
        assert code == 0
        assert "i=0, j=-1" in out and "i=0, j=1" in out

    def test_d1_rational(self, corpus):
        code, out, _ = run(["homology", str(corpus / "d1.json"),
                            "--ring", "q", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        by_i = {}
        for g in payload["groups"]:
            by_i[g["i"]] = by_i.get(g["i"], 0) + g["free"]
        assert by_i == {-3: 2, 0: 2}

    def test_deformed_point(self, corpus):
        code, out, _ = run(["homology", str(corpus / "trefoil_neg.json"),
                            "--ring", "f3", "--h", "1", "--t", "1",
                            "--format", "json"])
        assert code == 0
        json.loads(out)

    def test_malformed_file_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(["homology", str(bad)])
        assert code == 1 and "error" in err

    def test_invalid_pd_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pd": [[1, 2, 3, 4]]}))
        code, _, err = run(["homology", str(bad)])
        assert code == 1

    @pytest.mark.parametrize("bad", [
        {"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]], "free_loops": "a"},
        {"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, "x"]]},
        {"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]], "singular": [True]},
        {"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2.5]]},
        {"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]], "free_loops": True},
        {"pd": [5]},
        {"pd": [[1, 2, 4, 3], [4, 2, 1, 3]], "over_entry": [[0, 2]]},
        # a hint that contradicts the traversal
        {"pd": [[1, 2, 4, 3], [4, 2, 1, 3]], "over_entry": [[1, 3]]},
        {"pd": [[1, 2, 2, 1]], "singular": [0, 0]},
        {"pd": [[1, 2, 2, 1]], "name": 5},
    ])
    def test_mistyped_field_exit_one(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(["homology", str(path), "--format", "json"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_null_name_is_the_file_stem(self, tmp_path):
        path = tmp_path / "kink.json"
        path.write_text(json.dumps({"pd": [[1, 2, 2, 1]], "name": None}))
        code, out, _ = run(["homology", str(path), "--format", "json"])
        assert code == 0 and json.loads(out)["diagram"] == "kink"

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"pd": []}',                    # not UTF-8
        b"[" * 100000 + b"]" * 100000,             # nested past the limit
    ], ids=["not_utf8", "too_deep"])
    def test_unreadable_json_exit_one(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(["homology", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [
        [], 3, None,
        json.dumps({"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]]}),
    ], ids=["list", "number", "null", "string"])
    def test_not_an_object_exit_one(self, tmp_path, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(value))
        code, out, err = run(["homology", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'pd' field" in err

    @pytest.mark.parametrize("pd", [[[4, 3, 2, 1], [2, 1, 4, 3]],
                                    [[1, 2, 1, 2]]])
    def test_non_planar_exit_one(self, tmp_path, pd):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pd": pd}))
        code, out, err = run(["homology", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not planar" in err and "Traceback" not in err

    def test_too_large_refused_before_any_matrix(self, tmp_path, monkeypatch,
                                                 capsys):
        # 2^1000000 generators: refused before a q-degree table or a
        # matrix is built, with one line and no traceback
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"pd": [], "free_loops": 1000000}))
        built = []
        init, unchecked = SparseMatrix.__init__, SparseMatrix._unchecked

        def counting_init(self, *args, **kwargs):
            built.append("checked")
            init(self, *args, **kwargs)

        def counting_unchecked(*args):
            built.append("unchecked")
            return unchecked(*args)

        monkeypatch.setattr(SparseMatrix, "__init__", counting_init)
        monkeypatch.setattr(SparseMatrix, "_unchecked", counting_unchecked)
        code = main(["homology", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: diagram too large")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert built == []

    def test_missing_file_exit_one(self):
        code, _, _ = run(["homology", "/nonexistent/d.json"])
        assert code == 1

    def test_deterministic_bytes(self, corpus):
        a = run(["homology", str(corpus / "figure8.json"), "--format", "json"])
        b = run(["homology", str(corpus / "figure8.json"), "--format", "json"])
        assert a == b


class TestJonesCommand:
    def test_unknot(self, corpus):
        code, out, _ = run(["jones", str(corpus / "unknot.json")])
        assert code == 0
        assert json.loads(out) == {"1": 1, "-1": 1}

    def test_trefoil_matches_oracle(self, corpus):
        from khsing.diagram import parse
        from khsing.invariants import kauffman_bracket_oracle
        code, out, _ = run(["jones", str(corpus / "trefoil_pos.json")])
        assert code == 0
        d = parse((corpus / "trefoil_pos.json").read_text())
        assert json.loads(out) == kauffman_bracket_oracle(d).to_json_dict()

    def test_singular_skein(self, corpus):
        code, out, _ = run(["jones", str(corpus / "d1.json")])
        assert code == 0
        from khsing.diagram import parse
        from khsing.invariants import jones_polynomial
        d = parse((corpus / "d1.json").read_text())
        want = (jones_polynomial(d.resolve_double_point(0, 1))
                - jones_polynomial(d.resolve_double_point(0, -1)))
        assert json.loads(out) == want.to_json_dict()


class TestSkeinCheckCommand:
    def test_hopf_triple_passes(self, corpus):
        code, out, _ = run(["skein-check", str(corpus / "d1.json"),
                            str(corpus / "d2.json"), str(corpus / "d3.json")])
        assert code == 0
        payload = json.loads(out)
        assert payload["les_ok"] and payload["chi_ok"]

    def test_trefoil_triple_passes(self, corpus):
        code, out, _ = run(["skein-check",
                            str(corpus / "tref_sing_minus.json"),
                            str(corpus / "tref_sing_plus.json"),
                            str(corpus / "tref_sing.json")])
        assert code == 0

    def test_mismatched_triple_exit_one(self, corpus):
        code, _, err = run(["skein-check", str(corpus / "d2.json"),
                            str(corpus / "d1.json"), str(corpus / "d3.json")])
        assert code == 1
        assert "site" in err

    def test_wrong_singular_file_exit_one(self, corpus):
        code, _, _ = run(["skein-check", str(corpus / "d1.json"),
                          str(corpus / "d2.json"),
                          str(corpus / "fi_unknot.json")])
        assert code == 1

    @staticmethod
    def write_triple(tmp_path, keep_over_entry):
        # the component over at both crossings is oriented against the
        # parser's convention in the minus diagram, which only the
        # over_entry field records
        d = from_braid([(0, 0), (0, 1)], 2)
        paths = []
        for name, x in (("minus", d.resolve_double_point(0, -1)),
                        ("plus", d.resolve_double_point(0, +1)),
                        ("sing", d)):
            obj = x.to_dict()
            if not keep_over_entry:
                obj.pop("over_entry", None)
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(obj))
        return list(map(str, paths))

    def test_json_triple_passes(self, tmp_path):
        paths = self.write_triple(tmp_path, keep_over_entry=True)
        assert "over_entry" in pathlib.Path(paths[0]).read_text()
        code, out, _ = run(["skein-check", *paths])
        assert code == 0
        assert json.loads(out)["les_ok"]

    def test_minus_positive_without_over_entry_exit_one(self, tmp_path):
        # without the field the minus diagram reads back positive at the
        # site
        code, out, err = run(["skein-check",
                              *self.write_triple(tmp_path,
                                                 keep_over_entry=False)])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "must be negative" in err

    def test_unknot_family_triple_passes(self, corpus):
        code, out, _ = run(["skein-check",
                            str(corpus / "unknot_kink_neg.json"),
                            str(corpus / "unknot_kink_pos.json"),
                            str(corpus / "fi_unknot.json")])
        assert code == 0
        assert json.loads(out)["les_ok"]


class TestInvarianceCommand:
    def test_bundled_corpus_passes(self):
        code, out, _ = run(["invariance"])
        assert code == 0
        assert "MISMATCH" not in out

    def test_deformed_points_pass(self):
        # (1, 1) is Naot's universal point (arXiv:math/0603347): h and t
        # are both live in every table, the genus-one one included
        for ring, h, t in (("q", 0, 1), ("f2", 1, 0), ("z", 1, 1),
                           ("f3", 1, 1)):
            code, out, _ = run(["invariance", "--ring", ring,
                                "--h", str(h), "--t", str(t)])
            assert code == 0, out

    def test_mixed_group_reports_mismatch(self, corpus, tmp_path):
        for name in ("trefoil_pos", "unknot"):
            (tmp_path / f"{name}.json").write_text(
                (corpus / f"{name}.json").read_text())
        (tmp_path / "groups.json").write_text(json.dumps(
            {"groups": [{"name": "bogus",
                         "files": ["trefoil_pos", "unknot"]}]}))
        code, out, _ = run(["invariance", "--corpus", str(tmp_path)])
        assert code == 1
        assert "MISMATCH" in out

    @pytest.mark.parametrize("groups", [
        None,                              # no groups.json at all
        "{broken",
        json.dumps({"groups": 3}),
        json.dumps({"groups": [{"name": "x"}]}),
        json.dumps({"groups": [{"name": "x", "files": []}]}),
        "[" * 100000 + "]" * 100000,       # nested past the limit
        b'\xff\xfe{"groups": []}',          # not UTF-8
    ], ids=["missing", "invalid_json", "not_a_list", "no_files",
            "empty_files", "too_deep", "not_utf8"])
    def test_bad_groups_file_exit_one(self, tmp_path, groups):
        if groups is not None:
            (tmp_path / "groups.json").write_bytes(
                groups if isinstance(groups, bytes) else groups.encode())
        code, out, err = run(["invariance", "--corpus", str(tmp_path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestInProcessMain:
    def test_main_returns_zero(self, corpus, capsys):
        assert main(["jones", str(corpus / "unknot.json")]) == 0
        capsys.readouterr()

    def test_corpus_command(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out.strip()
        assert (json.loads((corpus_dir() / "groups.json").read_text())
                ["groups"])
        assert out.endswith("corpus")


class TestPublicNames:
    def test_all_is_pinned(self):
        # the public API changes only on purpose
        assert sorted(khsing.__all__) == [
            "ChainComplex", "ChainMap", "CubeComplex", "Diagram",
            "FrobeniusAlgebra", "GenusOneMap", "HomologySummary", "Homotopy",
            "LaurentPoly", "QQ", "Ring", "SmithDecomposition", "SparseMatrix",
            "ZZ", "build_cube", "cone", "cone_cocone_homotopy", "cone_factor",
            "cone_functorial_map", "cone_hfunc_homotopy", "from_braid",
            "genus_one_map", "homology_at", "homology_signature",
            "is_chain_map", "jones_by_skein", "jones_polynomial",
            "kauffman_bracket_oracle", "parse", "rank", "singular_complex",
            "singular_complex_iterated", "skein_triangle_report",
            "smith_normal_form"]

    def test_all_resolves(self):
        for name in khsing.__all__:
            assert getattr(khsing, name) is not None, name

    def test_star_import(self):
        scope = {}
        exec("from khsing import *", scope)
        assert set(khsing.__all__) <= set(scope)
