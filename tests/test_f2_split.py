"""Graded F2 homology from half the cube (``invariants.homology_signature``).

Over F2 at (0, 0) the signature is read off the subcomplex XC, on which
circle 0, the one through the lowest-labelled PD edge, carries x:
H(i, j) = H_XC(i, j) + H_XC(i, j - 2).  The full F2 cube,
``singular_complex(d, F2)``, is the oracle, and the universal coefficient
theorem ties F2 and F3 to integral homology without either F_p kernel.
"""

import ast
import pathlib
import random

import pytest

from util import random_singular_closures, uct_field_dims

from khsing import khcube
from khsing.cli import corpus_dir
from khsing.diagram import from_braid, parse
from khsing.errors import ParseError
from khsing.exactlinalg import Ring, SparseMatrix, ZZ
from khsing.frobenius import FrobeniusAlgebra
from khsing.genusone import singular_complex
from khsing.invariants import homology_signature

F2, F3 = Ring.prime_field(2), Ring.prime_field(3)
A = FrobeniusAlgebra(F2)

CASES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "cases.py"


def _bench_braids():
    """The braid closures of the benchmark's workloads, by name: the
    ``BRAIDS`` table of its source, whose expression alone is evaluated."""
    table = next(node.value for node in ast.parse(CASES.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "BRAIDS")
    braids = eval(compile(ast.Expression(table), str(CASES), "eval"), {})
    return {name: from_braid(word, strands)
            for name, (word, strands) in braids.items()}


BENCH = _bench_braids()


def load(name):
    return parse((corpus_dir() / f"{name}.json").read_text())


def full(d):
    """The oracle: graded F2 homology of the full cube."""
    return singular_complex(d, A).homology()


def half(d):
    """Graded F2 homology of the half cube XC."""
    return singular_complex(d, A, None, True).homology()


def relabeled(d, first):
    """``d`` with its PD edge labels rotated so that ``first`` is the
    lowest, which moves circle 0 onto the circle through ``first``."""
    labels = sorted({e for c in d.crossings for e in c})
    k = labels.index(first)
    new = {e: 1 + (i - k) % len(labels) for i, e in enumerate(labels)}
    return parse({**d.to_dict(),
                  "pd": [[new[e] for e in c] for c in d.crossings]})


def groups(summary):
    return {k: free for k, free, _ in summary.groups}


class TestSplitAgainstFullCube:
    @pytest.mark.parametrize("name", sorted(
        p.stem for p in corpus_dir().glob("*.json") if p.stem != "groups"))
    def test_corpus(self, name):
        d = load(name)
        assert homology_signature(d, F2) == full(d)

    @pytest.mark.parametrize("name", sorted(BENCH))
    def test_benchmark_braids(self, name):
        assert homology_signature(BENCH[name], F2) == full(BENCH[name])

    def test_random_singular_closures(self):
        ds = random_singular_closures(random.Random(7), 60, (3, 7))
        assert sum(d.n_singular > 0 for d in ds) > 40
        for d in ds:
            assert homology_signature(d, F2) == full(d), d

    def test_half_cube_is_half(self):
        # the layout drops the marked bit: each vertex keeps half its
        # generators, with the q-degrees of the full generators they are
        d = BENCH["s6_2dp"]
        S, X = singular_complex(d, A), singular_complex(d, A, None, True)
        assert 2 * X.complex.total_rank() == S.complex.total_rank()
        assert X.offsets.keys() == S.offsets.keys()
        for i in S.complex.degrees():
            assert all(j in S.complex.q[i] for j in X.complex.q[i])

    @pytest.mark.parametrize("name", ["trefoil_pos", "figure8", "d1",
                                      "hopf_pos", "unlink2_clasp"])
    def test_every_marked_edge_gives_one_half(self, name):
        # H(i, j) = H_XC(i, j) + H_XC(i, j - 2) fixes H_XC, whichever
        # circle is marked, on any component: relabeling the edges marks
        # each in turn, and a block restricted at the wrong circle breaks
        # this
        d = load(name)
        labels = sorted({e for c in d.crossings for e in c})
        halves = set()
        for e in labels:
            r = relabeled(d, e)
            assert (r.n_plus, r.n_minus, r.kinds) == (d.n_plus, d.n_minus,
                                                      d.kinds)
            halves.add(half(r))
        assert len(halves) == 1


class TestEdgeCases:
    def test_empty_diagram(self):
        # no circle to mark: the full cube, one generator at (0, 0)
        d = parse('{"pd": []}')
        assert groups(homology_signature(d, F2)) == {(0, 0): 1}
        assert homology_signature(d, F2) == full(d)

    @pytest.mark.parametrize("loops", [1, 2, 3])
    def test_free_loops(self, loops):
        # crossingless: the first free loop is marked
        d = parse(f'{{"pd": [], "free_loops": {loops}}}')
        assert homology_signature(d, F2) == full(d)
        assert sum(groups(full(d)).values()) == 2 ** loops

    def test_free_loop_beside_crossings(self):
        d = load("trefoil_pos").disjoint_union(parse('{"pd": [], '
                                                     '"free_loops": 1}'))
        assert homology_signature(d, F2) == full(d)

    @pytest.mark.parametrize("first,second", [("trefoil_pos", "d1"),
                                              ("d1", "trefoil_pos"),
                                              ("hopf_neg", "figure8")])
    def test_disjoint_union(self, first, second):
        # the marked circle lies in the first component only
        d = load(first).disjoint_union(load(second))
        assert homology_signature(d, F2) == full(d)

    @pytest.mark.parametrize("word,strands", [([(0, 0)] * 3, 2),
                                              ([(0, 0), (1, 0)] * 2, 3)])
    def test_all_double_points(self, word, strands):
        d = from_braid(word, strands)
        assert d.n_singular == d.n_crossings
        assert homology_signature(d, F2) == full(d)

    @pytest.mark.parametrize("name,h_xc,h", [
        ("unknot", {(0, -1): 1}, {(0, -1): 1, (0, 1): 1}),
        ("trefoil_pos", {(0, 1): 1, (2, 5): 1, (3, 7): 1},
         {(0, 1): 1, (0, 3): 1, (2, 5): 1, (2, 7): 1, (3, 7): 1,
          (3, 9): 1}),
        ("trefoil_neg", {(-3, -9): 1, (-2, -7): 1, (0, -3): 1},
         {(-3, -9): 1, (-3, -7): 1, (-2, -7): 1, (-2, -5): 1, (0, -3): 1,
          (0, -1): 1}),
    ])
    def test_q_shift_pinned(self, name, h_xc, h):
        # XC holds the lower class of each pair: H(i, j) gets H_XC(i, j)
        # and H_XC(i, j - 2)
        d = load(name)
        assert groups(half(d)) == h_xc
        assert groups(homology_signature(d, F2)) == h == groups(full(d))

    def test_too_large_refused_on_the_full_cube(self):
        # 2^23 generators in the full cube, 2^22 in the half: refused over
        # every ring, before anything is resolved
        d = parse('{"pd": [], "free_loops": 23}')
        for ring in (F2, ZZ):
            with pytest.raises(ParseError, match="too large"):
                homology_signature(d, ring)

    def test_route_of_each_point(self, monkeypatch):
        # F2 at (1, 0) is read off the states, with no cube; F2 at (0, 1)
        # translates to (0, 0), so half a cube; other rings at (0, 0) and
        # Z at (0, 1) build the full one
        marks = []
        bracket_cube = khcube._bracket_cube

        def recording_cube(d, F, shift, sites, half):
            marks.append((str(F.ring), F.h, F.t, half))
            return bracket_cube(d, F, shift, sites, half)

        monkeypatch.setattr(khcube, "_bracket_cube", recording_cube)
        d = load("trefoil_pos")
        for ring, h, t in ((F2, 1, 0), (F2, 0, 1), (F3, 0, 0), (ZZ, 0, 0),
                           (ZZ, 0, 1), (F2, 0, 0)):
            homology_signature(d, ring, h, t)
        assert marks == [("F2", 0, 0, True), ("F3", 0, 0, False),
                         ("Z", 0, 0, False), ("Z", 0, 1, False),
                         ("F2", 0, 0, True)]


def test_each_square_checked_once_on_the_half_cube(monkeypatch):
    # the F2 twin of the check in test_invariants: d^2 = 0 is checked once,
    # on the half cube that is built, one product per pair of consecutive
    # nonzero differentials
    d = from_braid([(0, 1)] * 5, 2)
    cx = singular_complex(d, A, None, True).complex
    pairs = sum(1 for i in cx.diffs if i + 1 in cx.diffs)
    calls = []
    mul = SparseMatrix.__mul__

    def counted(a, b):
        calls.append((a.cols, b.rows, b.cols))
        return mul(a, b)

    monkeypatch.setattr(SparseMatrix, "__mul__", counted)
    homology_signature(d, F2)
    assert pairs > 0
    assert len(calls) == pairs
    # the products are those of the half cube's differentials
    assert sorted(calls) == sorted((cx.diffs[i + 1].cols, cx.diffs[i].rows,
                                    cx.diffs[i].cols)
                                   for i in cx.diffs if i + 1 in cx.diffs)


class TestUniversalCoefficients:
    """dim H^(i,j)(C (x) F_p) = free^(i,j) + #{p | torsion at (i, j)} +
    #{p | torsion at (i + 1, j)}: an oracle for F2 and F3 that reads only
    the integral homology."""

    DIAGRAMS = (list(BENCH.values())
                + random_singular_closures(random.Random(26), 20, (2, 6)))

    @pytest.mark.parametrize("ix", range(len(DIAGRAMS)))
    def test_f2_and_f3_from_z(self, ix):
        d = self.DIAGRAMS[ix]
        h_z = homology_signature(d, ZZ)
        for p, ring in ((2, F2), (3, F3)):
            assert groups(homology_signature(d, ring)) == \
                uct_field_dims(h_z, p), (d, p)

    def test_torsion_reached(self):
        # the set exercises the Tor terms, not only the free ranks
        assert sum(any(t for _, _, t in homology_signature(d, ZZ).groups)
                   for d in self.DIAGRAMS[len(BENCH):]) >= 3
