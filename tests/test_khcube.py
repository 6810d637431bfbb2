import random
from itertools import combinations

import pytest

from khsing.chain import cone, is_chain_map
from khsing.diagram import Diagram, from_braid, parse
from khsing.errors import ContractViolation
from khsing.exactlinalg import QQ, Ring, SparseMatrix, ZZ
from khsing.frobenius import FrobeniusAlgebra
from khsing.genusone import (genus_one_map, singular_complex,
                             singular_complex_iterated)
from khsing import khcube
from khsing.errors import ParseError
from khsing.khcube import build_cube, split_ranks

from util import (SignModule, bracket_cube, check_sign, cone_pieces, dual,
                  reference_bracket_differentials, reference_labels,
                  shuffle_sign, wedge_sign)

F2 = Ring.prime_field(2)
F3 = Ring.prime_field(3)
F5 = Ring.prime_field(5)
TREFOIL_PD = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
HOPF_PD = [[1, 3, 2, 4], [3, 1, 4, 2]]


def sm(universe, subset):
    return SignModule(tuple(universe), frozenset(subset))


class TestSignModules:
    def test_left_wedge(self):
        sign, tgt = wedge_sign(sm("ab", "a"), "b")
        assert sign == -1 and tgt.subset == {"a", "b"}
        assert wedge_sign(sm("ab", ""), "a") == (1, sm("ab", "a"))
        assert wedge_sign(sm("ab", "a"), "a")[0] == 0

    def test_right_wedge(self):
        sign, _ = wedge_sign(sm("ab", "b"), "a", side="right")
        assert sign == -1
        assert wedge_sign(sm("ab", ""), "a", side="right")[0] == 1

    def test_check(self):
        assert check_sign(sm("ab", "ab"), "a") == (1, sm("ab", "b"))
        assert check_sign(sm("ab", "ab"), "b")[0] == -1
        assert check_sign(sm("abc", "ab"), "c")[0] == 0

    def test_universe_contract(self):
        with pytest.raises(ContractViolation):
            wedge_sign(sm("ab", "a"), "z")

    def test_shuffle(self):
        assert shuffle_sign(sm("abc", "")) == 1
        assert shuffle_sign(sm("abc", "abc")) == 1
        assert shuffle_sign(sm("ab", "b")) == -1

    def test_shuffle_brute_force(self):
        universe = tuple("abcde")
        order = {c: i for i, c in enumerate(universe)}

        def perm_sign(p):
            s = 1
            for i in range(len(p)):
                for j in range(i + 1, len(p)):
                    if p[i] > p[j]:
                        s = -s
            return s

        for k in range(6):
            for subset in combinations(universe, k):
                rest = [c for c in universe if c not in subset]
                word = [order[c] for c in subset] + [order[c] for c in rest]
                assert shuffle_sign(sm(universe, subset)) == perm_sign(word)

    def test_duality_square(self):
        # shuffle-transport of the check map: eps_A after removing c equals
        # (-1)^(n-1) times adjoining c by the right wedge after eps_(A u c);
        # this is the square used by the mirror-duality bookkeeping (the
        # left-wedge version fails already on a 2-element universe)
        for universe in (tuple("ab"), tuple("abcd"), tuple("abcde")):
            n = len(universe)
            for k in range(n):
                for sub in combinations(universe, k):
                    for c in universe:
                        if c in sub:
                            continue
                        big = sm(universe, set(sub) | {c})
                        sgn_check, _ = check_sign(big, c)
                        lhs = shuffle_sign(sm(universe, sub)) * sgn_check
                        comp_small = sm(universe,
                                        set(universe) - set(sub) - {c})
                        sgn_wedge, _ = wedge_sign(comp_small, c, side="right")
                        rhs = ((-1) ** (n - 1)) * sgn_wedge * shuffle_sign(big)
                        assert lhs == rhs

    def test_anticommutation(self):
        # two length-2 paths in the cube carry opposite total signs
        from khsing.khcube import _sign_bits
        for mask in range(1 << 5):
            for c1 in range(5):
                for c2 in range(5):
                    if c1 == c2 or mask >> c1 & 1 or mask >> c2 & 1:
                        continue
                    p1 = (_sign_bits(mask, c1)
                          * _sign_bits(mask | 1 << c1, c2))
                    p2 = (_sign_bits(mask, c2)
                          * _sign_bits(mask | 1 << c2, c1))
                    assert p1 == -p2


class TestStateOrder:
    @pytest.mark.parametrize("n", range(11))
    def test_doubling_is_the_bit_tuple_sort(self, n):
        assert khcube._state_order(n) == sorted(
            range(1 << n), key=lambda m: f"{m:0{n}b}"[::-1])


class TestBuildCube:
    def test_unknot(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cube = build_cube(parse({"pd": [], "free_loops": 1}), F)
        h = cube.homology()
        assert h.groups == (((0, -1), 1, ()), ((0, 1), 1, ()))

    def test_hopf_state_layout(self):
        # 1, 2, 1 states by weight with circle counts 2, 1, 1, 2
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cube = bracket_cube(parse({"pd": HOPF_PD}), F)
        assert [cube.configs[m].n_circles
                for m in (0, 1, 2, 3)] == [2, 1, 1, 2]
        assert sorted(m.bit_count() for _r, m in cube.offsets) == [0, 1, 1, 2]
        assert [cube.complex.rank(w) for w in (0, 1, 2)] == [4, 4, 4]

    def test_generator_order_is_lexicographic(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cube = bracket_cube(parse({"pd": HOPF_PD}), F)
        # weight-1 states in bit-tuple order: (0, 1) sorts before (1, 0);
        # the bit order within a state is pinned by the golden matrices
        assert cube.offsets[(0, 0b10)] == 0 and cube.offsets[(0, 0b01)] == 2

    def test_d_squared_zero_trefoil(self):
        for F in (FrobeniusAlgebra(ZZ, 0, 0), FrobeniusAlgebra(ZZ, 1, 0),
                  FrobeniusAlgebra(QQ, 0, 1), FrobeniusAlgebra(F2, 1, 1)):
            cube = build_cube(parse({"pd": TREFOIL_PD}), F)
            for i in cube.complex.degrees():
                assert (cube.complex.diff(i + 1) * cube.complex.diff(i)).is_zero()

    def test_d_squared_random_diagrams(self):
        rng = random.Random(17)
        for _ in range(10):
            word = [(rng.randrange(2), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 8))]
            d = from_braid(word, 3)
            F = FrobeniusAlgebra(ZZ, rng.randint(-2, 2), rng.randint(-2, 2))
            build_cube(d, F).complex.validate()

    def test_grading_disabled_off_origin(self):
        d = parse({"pd": HOPF_PD})
        assert build_cube(d, FrobeniusAlgebra(ZZ, 0, 1)).complex.q is None
        assert build_cube(d, FrobeniusAlgebra(ZZ, 0, 0)).complex.q is not None

    def test_bidegree_at_zero(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        for pd in (TREFOIL_PD, HOPF_PD):
            build_cube(parse({"pd": pd}), F).complex.validate()

    @pytest.mark.parametrize("d", [
        parse({"pd": HOPF_PD, "singular": [0]}),
        from_braid([(0, 0), (0, 1), (0, 0)], 2),
        from_braid([(0, 0), (1, -1), (0, 0), (1, 0)], 3)],
        ids=["hopf", "2-braid", "3-braid"])
    def test_singular_diagram_is_its_iterated_cone(self, d):
        # a singular diagram's cube is the iterated mapping cone over its
        # double points, flattened: the same degrees, ranks, q-degrees and
        # homology as the literal cone
        m = d.n_singular
        assert m
        for F in (FrobeniusAlgebra(ZZ, 0, 0), FrobeniusAlgebra(F2, 1, 0)):
            cube = build_cube(d, F)
            assert cube.sites == d.singular_indices
            assert cube.shift == -d.n_minus - 2 * m
            cone_cx = singular_complex_iterated(d, F)
            assert cube.complex.ranks == cone_cx.ranks
            if F.graded:
                assert ({i: sorted(q) for i, q in cube.complex.q.items()}
                        == {i: sorted(q) for i, q in cone_cx.q.items()})
            assert cube.homology().groups == cone_cx.homology().groups

    def test_trefoil_homology_torsion(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        h = build_cube(parse({"pd": TREFOIL_PD}), F).homology()
        assert h.group((-2, -7)) == (0, (2,))
        assert h.group((-3, -9)) == (1, ())
        assert h.total_dimension() == 4


class TestDualize:
    def test_involution_on_shapes(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cube = build_cube(parse({"pd": HOPF_PD}), F)
        dd = dual(dual(cube.complex))
        assert dd.ranks == cube.complex.ranks
        assert {i: m.data for i, m in dd.diffs.items()} == \
            {i: m.data for i, m in cube.complex.diffs.items()}

    def test_unknot_shape(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cube = build_cube(parse({"pd": [], "free_loops": 1}), F)
        assert dual(cube.complex).ranks == {0: 2}

    def test_dual_matches_mirror_trefoil(self):
        F = FrobeniusAlgebra(QQ, 0, 0)
        d = parse({"pd": TREFOIL_PD})
        h_dual = dual(build_cube(d, F).complex).homology()
        h_mirror = build_cube(d.mirror(), F).homology()
        assert h_dual.groups == h_mirror.groups


class TestConeVsBracket:
    def test_hopf_both_crossings(self):
        # the bracket complex splits as a shifted cone over either crossing
        F = FrobeniusAlgebra(ZZ, 0, 0)
        d = parse({"pd": HOPF_PD})
        cube = bracket_cube(d, F)
        h_bracket = cube.complex.homology(graded=False)
        for c in (0, 1):
            X, Y, g = cone_pieces(cube, c)
            assert is_chain_map(g).ok
            h_cone = cone(g).shift(1).homology(graded=False)
            assert h_cone.groups == h_bracket.groups

    def test_trefoil_at_deformed_point(self):
        F = FrobeniusAlgebra(QQ, 1, 1)
        cube = bracket_cube(parse({"pd": TREFOIL_PD}), F)
        X, Y, g = cone_pieces(cube, 1)
        assert is_chain_map(g).ok
        assert cone(g).shift(1).homology(graded=False).groups == \
            cube.complex.homology(graded=False).groups

    @pytest.mark.parametrize("ring,h,t", [(ZZ, 0, 0), (QQ, 1, 1)],
                             ids=["Z00", "Q11"])
    @pytest.mark.parametrize("pd", [HOPF_PD, TREFOIL_PD],
                             ids=["hopf", "trefoil"])
    def test_split_is_the_cube_permuted(self, pd, ring, h, t):
        # degree w of Cone(g)[1] is Y^(w-1) (+) X^w: the cube's generators
        # of degree w whose state 1-smooths c, then those that 0-smooth it
        d = parse({"pd": pd})
        cube = bracket_cube(d, FrobeniusAlgebra(ring, h, t))
        labels = reference_labels(d)
        for c in range(d.n_crossings):
            P = {w: [i for i, (m, _) in enumerate(lbls) if m >> c & 1]
                 + [i for i, (m, _) in enumerate(lbls) if not m >> c & 1]
                 for w, lbls in labels.items()}
            split = cone(cone_pieces(cube, c)[2]).shift(1)
            assert split.ranks == cube.complex.ranks
            for w in labels:
                assert (cube.complex.diff(w).submatrix(P.get(w + 1, []), P[w])
                        == split.diff(w)), (c, w)


class TestSizeGuard:
    @pytest.mark.parametrize("word", [[(0, 1)] * 5,
                                      [(0, 0), (0, -1), (0, 0), (0, 1)]])
    def test_limit_is_the_exact_count(self, word, monkeypatch):
        # 2^m * sum over s of 2^k(s) generators: built at that limit,
        # refused one below it
        d = from_braid(word, 2)
        F = FrobeniusAlgebra(ZZ, 0, 0)
        size = singular_complex(d, F).complex.total_rank()
        monkeypatch.setattr(khcube, "MAX_GENERATORS", size)
        assert singular_complex(d, F).complex.total_rank() == size
        monkeypatch.setattr(khcube, "MAX_GENERATORS", size - 1)
        with pytest.raises(ParseError, match="too large"):
            singular_complex(d, F)

    @pytest.mark.parametrize("word", [[(0, 1)] * 5,
                                      [(0, 0), (0, -1), (0, 0), (0, 1)]])
    def test_scan_limit_is_the_full_cube_count(self, word, monkeypatch):
        # the state scan builds no cube, but it refuses what the cube
        # would: read at the full cube's size, refused one below it
        d = from_braid(word, 2)
        size = singular_complex(d, FrobeniusAlgebra(ZZ)).complex.total_rank()
        ranks = split_ranks(d)
        monkeypatch.setattr(khcube, "MAX_GENERATORS", size)
        assert split_ranks(d) == ranks
        monkeypatch.setattr(khcube, "MAX_GENERATORS", size - 1)
        with pytest.raises(ParseError, match="too large"):
            split_ranks(d)

    def test_scan_resolves_only_the_smoothings_it_reads(self, monkeypatch):
        # two double points among 6 crossings: the scan reads the 2^4
        # smoothings that 0-smooth both, and 3^2 times their generators is
        # within the limit, so it resolves no other
        d = from_braid([(0, 0), (1, 1), (0, 1), (1, 0), (0, 1), (1, 1)], 3)
        assert (d.n_crossings, d.n_singular) == (6, 2)
        ranks = split_ranks(d)
        calls = []
        resolve_bits = Diagram.resolve_bits
        monkeypatch.setattr(Diagram, "resolve_bits",
                            lambda self, s: calls.append(s)
                            or resolve_bits(self, s))
        assert split_ranks(d) == ranks
        assert len(calls) == 1 << 4
        sites = sum(1 << b for b in d.singular_indices)
        assert not any(s & sites for s in calls)

    def test_refused_before_resolving(self, monkeypatch):
        # 3 crossings and 20 free loops: every state has 2^21 generators or
        # more, 2^24 in all, so no state is resolved
        calls = []
        monkeypatch.setattr(Diagram, "resolve_bits",
                            lambda self, s: calls.append(s))
        d = parse({"pd": TREFOIL_PD, "free_loops": 20})
        with pytest.raises(ParseError, match="too large"):
            build_cube(d, FrobeniusAlgebra(F2, 0, 0))
        assert calls == []


class TestGoldenMatrices:
    def test_hopf_bracket_differentials(self):
        # frozen matrices; hand-derived from the generator order: weight-0
        # circles ({1,3},{2,4}); both saddles merge; at weight 1 the splits
        # carry wedge signs +1 and -1
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cube = bracket_cube(parse({"pd": HOPF_PD}), F)
        d0 = cube.complex.diff(0)
        d1 = cube.complex.diff(1)
        assert sorted(d0.data.items()) == [
            ((0, 0), 1), ((1, 1), 1), ((1, 2), 1),
            ((2, 0), 1), ((3, 1), 1), ((3, 2), 1)]
        assert sorted(d1.data.items()) == [
            ((1, 0), 1), ((1, 2), -1), ((2, 0), 1),
            ((2, 2), -1), ((3, 1), 1), ((3, 3), -1)]

    def test_deformed_entries(self):
        # x*x = t + h*x shows up in the merge columns
        F = FrobeniusAlgebra(ZZ, 5, 7)
        cube = bracket_cube(parse({"pd": HOPF_PD}), F)
        d0 = cube.complex.diff(0)
        assert d0.data[(0, 3)] == 7 and d0.data[(1, 3)] == 5
        assert d0.data[(2, 3)] == 7 and d0.data[(3, 3)] == 5


class TestAssemblyAgainstReference:
    # saddle blocks are built once per circle pattern; the reference redoes
    # the circle bookkeeping for every column of every edge
    DIAGRAMS = {
        "T(3,4)": ([(0, 1), (1, 1)] * 4, 3),
        "T(2,4) link": ([(0, 1)] * 4, 2),
        "trefoil and a free loop": ([(0, 1), (0, -1), (0, 1), (0, 1)], 3),
    }

    @pytest.mark.parametrize("name", sorted(DIAGRAMS))
    @pytest.mark.parametrize("ring,h,t", [(ZZ, 0, 0), (QQ, 0, 1), (F3, 1, 1)],
                             ids=["Z00", "Q01", "F3_11"])
    def test_bracket_cube_matches_reference(self, name, ring, h, t):
        d = from_braid(*self.DIAGRAMS[name])
        cube = bracket_cube(d, FrobeniusAlgebra(ring, h, t))
        ref = reference_bracket_differentials(cube)
        assert set(ref) == set(cube.complex.diffs)
        for w, m in ref.items():
            assert cube.complex.diff(w) == m, w

    @pytest.mark.parametrize("name", sorted(DIAGRAMS))
    @pytest.mark.parametrize("ring,h,t", [(F2, 1, 0), (F5, 2, 3)],
                             ids=["F2_10", "F5_23"])
    def test_bracket_cube_matches_reference_mod_p(self, name, ring, h, t):
        # the points above all have -1 != 1; over F2 -1 = 1, and over F5
        # at (2, 3) the entries h and t and their negatives all reduce
        d = from_braid(*self.DIAGRAMS[name])
        cube = bracket_cube(d, FrobeniusAlgebra(ring, h, t))
        ref = reference_bracket_differentials(cube)
        assert set(ref) == set(cube.complex.diffs)
        for w, m in ref.items():
            assert cube.complex.diff(w) == m, w


class TestBuilderGuarantee:
    # the builders reduce each block into the ring once and store its rows
    # unchecked: every matrix must be what the checked constructor makes of
    # its own rows, with no zero, no empty row and, over Z/p, no value
    # outside [0, p)
    POINTS = [(ring, h, t) for ring in (ZZ, QQ, F2, F3, F5)
              for h, t in ((0, 0), (1, 0), (0, 1), (1, 1))]
    POINTS += [(F3, 2, 0), (F5, 3, 4)]  # -h or t needs reducing

    @staticmethod
    def assert_stored_reduced(m):
        rows = {r: dict(row) for r, row in m.row_items()}
        assert m == SparseMatrix(m.rows, m.cols, m.ring, rows)
        for row in rows.values():
            assert row and all(row.values())
            if m.ring.p:
                assert all(0 <= v < m.ring.p for v in row.values())

    @pytest.mark.parametrize("ring,h,t", POINTS,
                             ids=[f"{r}_{h}{t}" for r, h, t in POINTS])
    @pytest.mark.parametrize("word,c", [
        ([(0, -1), (1, 1), (0, -1), (1, 1)], 2),  # no double point
        ([(0, -1), (1, 0), (0, 1), (1, -1)], 0),
        ([(0, 0), (1, -1), (0, 0), (1, 1), (0, 1)], 1),
    ], ids=["plain", "one_site", "two_sites"])
    def test_rows_are_what_the_checked_constructor_makes(self, word, c,
                                                         ring, h, t):
        g = genus_one_map(from_braid(word, 3), c, FrobeniusAlgebra(ring, h, t))
        matrices = [*g.source.complex.diffs.values(),
                    *g.target.complex.diffs.values(),
                    *g.map.components.values()]
        assert g.map.components and all(m.nnz() for m in matrices)
        for m in matrices:
            self.assert_stored_reduced(m)


class TestBracketDuality:
    def test_dual_bracket_matches_mirror_shifted(self):
        # transpose-dual of the bracket complex has the homology of the
        # mirror's bracket complex shifted down by the crossing count
        F = FrobeniusAlgebra(QQ, 0, 0)
        for pd in (TREFOIL_PD, HOPF_PD):
            d = parse({"pd": pd})
            lhs = dual(bracket_cube(d, F).complex).homology(graded=False)
            rhs = bracket_cube(d.mirror(), F).complex.shift(
                -d.n_crossings).homology(graded=False)
            assert lhs.groups == rhs.groups
