import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from khsing import chain, exactlinalg, genusone, khcube
from khsing.chain import (ChainComplex, ChainMap, _block_homology, cone,
                          homology_functor_ranks,
                          is_chain_map)
from khsing.diagram import ORDINARY, Diagram, from_braid, parse
from khsing.errors import ContractViolation
from khsing.exactlinalg import (QQ, HomologySummary, Ring, SparseMatrix, ZZ,
                                _rank_torsion)
from khsing.frobenius import FrobeniusAlgebra
from khsing.genusone import (genus_one_map, singular_complex,
                             singular_complex_iterated, skein_site,
                             skein_triangle_report)
from khsing.invariants import LaurentPoly, kauffman_bracket_oracle
from khsing.khcube import _bracket_cube, _edge_block, _phi_map, build_cube

from util import (_resolved_pieces, bracket_cube, circles, cone_pieces,
                  crossing_arcs, dense_functor_ranks,
                  reference_genus_one_components,
                  reference_labels, reference_reduced_blocks,
                  reference_singular_differentials, reference_singular_labels,
                  field_summary_via_dense_rank, random_singular_closures,
                  summary_via_dense_oracle, transpose, whole_block,
                  with_eliminated_rows)

F2 = Ring.prime_field(2)
F3 = Ring.prime_field(3)
HOPF_NEG_PD = [[3, 2, 4, 1], [1, 4, 2, 3]]


def phi_matrix(F):
    """The local map a(x)b -> a(x)xb - ax(x)b on basis (1x1, 1xx, x1, xx)."""
    ring = F.ring
    h, t = F.h, F.t
    cols = {
        (0, 0): {(0, 1): 1, (1, 0): -1},
        (0, 1): {(0, 0): t, (0, 1): h, (1, 1): -1},
        (1, 0): {(1, 1): 1, (0, 0): -t, (1, 0): -h},
        (1, 1): {(1, 0): t, (0, 1): -t},
    }
    order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    data = {}
    for c, col in enumerate(order):
        for row_bits, v in cols[col].items():
            if ring.coerce(v) != 0:
                data.setdefault(order.index(row_bits), {})[c] = v
    return SparseMatrix(4, 4, ring, data)


def phi_block(cfg, c, F):
    """The crossing-change block out of state ``cfg`` at crossing c, as the
    cube builder makes it (sign +1), as a matrix on the state's module."""
    rows = {}
    for r, col, v in _edge_block(F, {}, cfg, cfg, c, 1):
        rows.setdefault(r, {})[col] = v
    n = 1 << cfg.n_circles
    return SparseMatrix(n, n, F.ring, rows)


def algebra_points():
    return [FrobeniusAlgebra(ZZ, 0, 0), FrobeniusAlgebra(ZZ, 0, 1),
            FrobeniusAlgebra(ZZ, 1, 0), FrobeniusAlgebra(QQ, 2, 3),
            FrobeniusAlgebra(F2, 1, 1)]


class TestPhiLocal:
    def test_two_circles_on_unit(self):
        # 1(x)1 -> 1(x)x - x(x)1
        d = parse({"pd": HOPF_NEG_PD})
        for F in algebra_points():
            cfg = d.resolve_bits(0b01)  # crossing 0 one-smoothed: 2 circles?
            if crossing_arcs(cfg)[0][0] == crossing_arcs(cfg)[0][1]:
                cfg = d.resolve_bits(0b11)
            m = phi_block(cfg, 0, F)
            assert m == phi_matrix(F)

    def test_x_squared_expansion(self):
        # x(x)x -> t*(x(x)1 - 1(x)x)
        d = parse({"pd": HOPF_NEG_PD})
        F = FrobeniusAlgebra(ZZ, 5, 7)
        m = phi_block(d.resolve_bits(0b11), 0, F)
        col = {(r, c): v for (r, c), v in m.data.items() if c == 3}
        assert col == {(2, 3): 7, (1, 3): -7}

    def test_same_circle_zero(self):
        d = parse({"pd": HOPF_NEG_PD})
        cfg = d.resolve_bits(0b01)
        if crossing_arcs(cfg)[0][0] != crossing_arcs(cfg)[0][1]:
            cfg = d.resolve_bits(0b11)
        assert crossing_arcs(cfg)[0][0] == crossing_arcs(cfg)[0][1]
        for F in algebra_points():
            assert phi_block(cfg, 0, F).is_zero()

    def test_naturality_oracle_for_same_circle(self):
        # a distant merge saddle m relates the two-circle and one-circle
        # pictures; m is surjective and m o phi_two = 0 forces phi_same = 0
        for F in algebra_points():
            phi2 = phi_matrix(F)
            order = [(0, 0), (0, 1), (1, 0), (1, 1)]
            ring = F.ring
            for col, bits in enumerate(order):
                merged = {}
                for (r, c), v in phi2.data.items():
                    if c != col:
                        continue
                    bl, br = order[r]
                    for bit, coef in F.mult_bits(bl, br):
                        merged[bit] = ring.coerce(merged.get(bit, 0) + v * coef)
                assert all(v == 0 for v in merged.values())

    def test_delta_phi_compositions_vanish(self):
        # phi after a split into the two-strand picture, and a merge out of
        # it after phi, are both zero at every (h, t): the local form of the
        # chain-map statement
        for F in algebra_points():
            ring = F.ring
            phi = phi_matrix(F)
            order = [(0, 0), (0, 1), (1, 0), (1, 1)]
            # split: C -> C(x)C by comultiplication
            for a in (0, 1):
                img = {}
                for bl, br, coef in F.comult_bits(a):
                    col = order.index((bl, br))
                    for (r, c), v in phi.data.items():
                        if c == col:
                            img[r] = ring.coerce(img.get(r, 0) + coef * v)
                assert all(v == 0 for v in img.values()), (F.h, F.t, a)
            # merge: C(x)C -> C by multiplication
            for col, bits in enumerate(order):
                out = {}
                for (r, c), v in phi.data.items():
                    if c != col:
                        continue
                    for bit, coef in F.mult_bits(*order[r]):
                        out[bit] = ring.coerce(out.get(bit, 0) + v * coef)
                assert all(v == 0 for v in out.values())


class TestGenusOneMap:
    def test_chain_map_on_negative_hopf(self):
        d = parse({"pd": HOPF_NEG_PD})
        for F in algebra_points():
            for c in (0, 1):
                g = genus_one_map(d, c, F)
                assert g.is_chain_map().ok

    def test_positive_crossing_rejected(self):
        d = from_braid([(0, 1)] * 2, 2)
        with pytest.raises(ContractViolation):
            genus_one_map(d, 0, FrobeniusAlgebra(ZZ, 0, 0))

    def test_double_point_rejected(self):
        d = parse({"pd": HOPF_NEG_PD, "singular": [0]})
        with pytest.raises(ContractViolation):
            genus_one_map(d, 0, FrobeniusAlgebra(ZZ, 0, 0))

    @pytest.mark.parametrize("other", ["unrelated", "relabeled"])
    def test_cubes_that_disagree_are_refused(self, other):
        # the target cube has the right shift but not the diagram with the
        # crossing changed: another diagram on the same labels, or the
        # right one with every label moved, whose states have the same
        # circle of each edge but other circles
        F = FrobeniusAlgebra(ZZ, 0, 0)
        d = from_braid([(0, -1)] * 3, 2)
        plus = d.crossing_change(0)
        src = _bracket_cube(d, F, 0)
        assert is_chain_map(_phi_map(src, _bracket_cube(plus, F, 1), 0)).ok
        if other == "unrelated":
            wrong = from_braid([(0, 1), (0, -1), (0, 1)], 2)
            assert wrong._labels == plus._labels
        else:
            wrong = parse({"pd": [[e + 100 for e in c]
                                  for c in plus.crossings]})
        with pytest.raises(ContractViolation, match="disagree"):
            _phi_map(src, _bracket_cube(wrong, F, 1), 0)

    def test_vanishes_off_one_smoothed_states(self):
        d = parse({"pd": HOPF_NEG_PD})
        F = FrobeniusAlgebra(ZZ, 0, 0)
        g = genus_one_map(d, 0, F)
        bit = 1 << 0
        src_labels = reference_singular_labels(g.source)
        for i, mtx in g.map.components.items():
            labels = src_labels[i]
            for (_r, c) in mtx.data:
                _rm, mask, _bits = labels[c]
                assert mask & bit

    def test_middle_column_matrix(self):
        # on the negative Hopf link the only nonzero component is the local
        # map on the two-circle state, up to the global sign convention
        d = parse({"pd": HOPF_NEG_PD})
        for F in algebra_points():
            g = genus_one_map(d, 0, F)
            nonzero = [m for m in g.map.components.values() if not m.is_zero()]
            assert len(nonzero) == 1
            m = nonzero[0]
            blk = {}
            for (r, c), v in m.data.items():
                blk[(r % 4, c % 4)] = v
            want = phi_matrix(F)
            neg = -want
            assert blk in (want.data, neg.data)

    def test_bidegree_zero_zero(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        for word, n in (([(0, -1)] * 2, 2), ([(0, -1)] * 3, 2),
                        ([(0, 1), (1, -1), (0, 1), (1, -1)], 3)):
            d = from_braid(word, n)
            for c in range(d.n_crossings):
                if d.crossing_sign(c) > 0:
                    continue
                g = genus_one_map(d, c, F)
                qs = g.source.complex.q
                qt = g.target.complex.q
                for i, mtx in g.map.components.items():
                    for (r, col) in mtx.data:
                        assert qt[i][r] == qs[i][col]

    def test_z2_specialization_sign_free(self):
        # over Z the matrices have unit entries at (0, 0), and reduce mod 2
        # to the map built directly over F2: the sign-free construction
        d = parse({"pd": HOPF_NEG_PD})
        gz = genus_one_map(d, 0, FrobeniusAlgebra(ZZ, 0, 0))
        g2 = genus_one_map(d, 0, FrobeniusAlgebra(F2, 0, 0))
        for i in set(gz.map.components) | set(g2.map.components):
            mz = gz.map.component(i)
            assert set(mz.data.values()) <= {1, -1}
            assert mz.change_ring(F2) == g2.map.component(i)

    def test_sign_flip_preserves_cone_homology(self):
        # Cone(f) and Cone(-f) are isomorphic complexes
        d = parse({"pd": HOPF_NEG_PD})
        F = FrobeniusAlgebra(ZZ, 0, 0)
        g = genus_one_map(d, 0, F)
        neg = ChainMap(g.map.source, g.map.target,
                       {i: -m for i, m in g.map.components.items()})
        assert cone(g.map).homology().groups == cone(neg).homology().groups

    @pytest.mark.parametrize("ring", [ZZ, F3], ids=str)
    def test_matrices_match_reference_at_h1_t1(self, ring):
        # at h != 0 the x-terms on the two circles collide on the diagonal;
        # the reference sums them term by term, column by column
        F = FrobeniusAlgebra(ring, 1, 1)
        for word, c in (([(0, -1), (1, 1), (0, -1), (1, 1)], 2),
                        ([(0, -1), (1, 0), (0, 1), (1, -1)], 0),
                        ([(0, -1), (0, -1), (0, 1)], 1),
                        # states that pair a circle i1 with different
                        # circles i2, and a circle i2 with different i1
                        ([(0, -1), (1, -1), (0, -1), (0, -1), (1, 1)], 1)):
            g = genus_one_map(from_braid(word, 3), c, F)
            ref = reference_genus_one_components(g)
            for i in set(ref) | set(g.map.components):
                assert g.map.component(i) == ref.get(i), (word, i)

    def test_mirror_naturality_ranks(self):
        # rank of H(phi) at (i, j) on the pair equals the rank at (-i, -j)
        # on the mirror pair
        from khsing.chain import homology_functor_ranks
        F = FrobeniusAlgebra(QQ, 0, 0)
        d_minus = from_braid([(0, -1)] * 3, 2)  # negative trefoil
        c = 0
        g = genus_one_map(d_minus, c, F)
        d_plus = d_minus.crossing_change(c)
        mir_minus = d_plus.mirror()     # c is negative here
        g_mir = genus_one_map(mir_minus, c, F)
        ranks = homology_functor_ranks(g.map, graded=True)
        ranks_mir = homology_functor_ranks(g_mir.map, graded=True)
        flipped = {(-i, -j): v for (i, j), v in ranks_mir.items() if v[2]}
        direct = {(i, j): v for (i, j), v in ranks.items() if v[2]}
        assert {k: v[2] for k, v in direct.items()} == \
            {k: v[2] for k, v in flipped.items()}


class TestSingularComplex:
    def test_no_double_points_matches_cube(self):
        d = from_braid([(0, -1)] * 3, 2)
        F = FrobeniusAlgebra(ZZ, 0, 0)
        S = singular_complex(d, F)
        cx = build_cube(d, F).complex
        assert S.complex.ranks == cx.ranks
        assert {i: m.data for i, m in S.complex.diffs.items()} == \
            {i: m.data for i, m in cx.diffs.items()}

    def test_d_squared_on_two_double_points(self):
        d = from_braid([(0, 0), (0, 0)], 2)
        for F in algebra_points():
            singular_complex(d, F).complex.validate()

    def test_bidegree_on_singular(self):
        d = from_braid([(0, 0), (0, 1), (0, 1)], 2)
        S = singular_complex(d, FrobeniusAlgebra(ZZ, 0, 0))
        S.complex.validate()

    def test_order_independence(self):
        d = from_braid([(0, 0), (0, 0)], 2)
        for F in (FrobeniusAlgebra(QQ, 0, 0), FrobeniusAlgebra(ZZ, 1, 0)):
            h01 = singular_complex(d, F, site_order=(0, 1)).homology(
                graded=False)
            h10 = singular_complex(d, F, site_order=(1, 0)).homology(
                graded=False)
            assert h01.groups == h10.groups
            i01 = singular_complex_iterated(d, F, site_order=(0, 1))
            i10 = singular_complex_iterated(d, F, site_order=(1, 0))
            assert i01.homology(graded=False).groups == h01.groups
            assert i10.homology(graded=False).groups == h01.groups

    def test_iterated_matches_flattened_bookkeeping(self):
        # the iterated-cone construction and the direct flattened one with
        # the [-n_minus - 2 n_double] shift agree in homology
        d = from_braid([(0, 0), (0, 0)], 2)
        F = FrobeniusAlgebra(ZZ, 0, 0)
        flat = singular_complex(d, F).homology()
        iterated = singular_complex_iterated(d, F).homology()
        assert flat.groups == iterated.groups

    def test_fi_trefoil_contractible(self):
        d = parse({"pd": [[1, 4, 2, 5], [3, 8, 4, 1], [5, 2, 6, 3],
                          [6, 7, 7, 8]], "singular": [3]})
        for F in algebra_points():
            h = singular_complex(d, F).homology(graded=False)
            assert h.groups == ()


S6_3DP = [(0, 0), (1, 1), (0, 1), (1, 0), (0, 1), (1, 0)]


class TestIteratedAssemblyCounts:
    def test_each_cube_map_and_cone_built_once_per_call(self, monkeypatch):
        # 3 double points: 8 resolutions, so 8 cubes, each validated once
        # when built (the parent built 32 cubes for the 16 leaf maps of the
        # recursion and checked the d^2 of 11 cones instead).  A cone runs
        # no d^2 check, and the chain condition is computed once for each
        # of the 12 leaf maps, the edges of the cube of resolutions: the
        # induced cone maps take their verdict from their legs and squares
        calls = {"cube": 0}
        cubes, validated, computed = [], [], []
        bracket_cube, validate = khcube._bracket_cube, ChainComplex.validate

        def counting_cube(*args):
            calls["cube"] += 1
            cubes.append(bracket_cube(*args))
            return cubes[-1]

        def counting_validate(self):
            validated.append(self)
            return validate(self)

        def counting_is_chain_map(f):
            if f._check is None:
                computed.append(f)
            return is_chain_map(f)

        monkeypatch.setattr(khcube, "_bracket_cube", counting_cube)
        monkeypatch.setattr(ChainComplex, "validate", counting_validate)
        monkeypatch.setattr(chain, "is_chain_map", counting_is_chain_map)
        d = from_braid(S6_3DP, 3)
        F = FrobeniusAlgebra(QQ, 0, 0)
        singular_complex_iterated(d, F)
        assert calls["cube"] == 8
        leaves = {id(c.complex) for c in cubes}
        assert [id(cx) for cx in validated] == [id(c.complex) for c in cubes]
        assert len(computed) == 12 == len({id(f) for f in computed})
        assert all({id(f.source), id(f.target)} <= leaves for f in computed)
        # nothing is kept from one call to the next
        singular_complex_iterated(d, F)
        assert calls["cube"] == 16

    def test_leaf_cube_with_nonzero_square_refused(self, monkeypatch):
        # the check of a leaf cube is its own: with it gone, a broken cube
        # is caught only as a map that is not a chain map, if at all
        bracket_cube = khcube._bracket_cube
        broken = []

        def corrupting_cube(*args):
            cube = bracket_cube(*args)
            if not broken:
                diffs = cube.complex.diffs
                i = min(i for i in diffs if i + 1 in diffs)
                r = next(iter(transpose(diffs[i + 1]).row_items()))[0]
                m = diffs[i]
                diffs[i] = m + SparseMatrix(m.rows, m.cols, m.ring,
                                            {r: {0: 1}})
                broken.append(cube)
            return cube

        monkeypatch.setattr(khcube, "_bracket_cube", corrupting_cube)
        with pytest.raises(ContractViolation, match="d\\^2 != 0"):
            singular_complex_iterated(from_braid(S6_3DP, 3),
                                      FrobeniusAlgebra(QQ, 0, 0))
        assert broken


class TestEdgeBlockTable:
    """One edge-block table per top-level call: each block is made once per
    call, and nothing is kept for the next call."""

    def counted_keys(self, monkeypatch):
        keys = []
        edge_entries = khcube._edge_entries

        def counting(F, *key):
            keys.append(key)
            return edge_entries(F, *key)

        monkeypatch.setattr(khcube, "_edge_entries", counting)
        return keys

    def test_iterated_cone_makes_each_block_once_per_call(self, monkeypatch):
        keys = self.counted_keys(monkeypatch)
        d = from_braid(S6_3DP, 3)
        F = FrobeniusAlgebra(QQ, 0, 0)
        singular_complex_iterated(d, F)
        first = list(keys)
        assert first and len(first) == len(set(first))
        # the 8 cubes and 12 leaf maps share the blocks, and the next call
        # makes them again
        singular_complex_iterated(d, F)
        assert keys == first + first

    def test_skein_report_makes_each_block_once_per_call(self, monkeypatch):
        keys = self.counted_keys(monkeypatch)
        d = from_braid([(0, 0), (1, 1), (0, 1), (1, -1), (0, 1), (1, 1),
                        (0, 1)], 3)
        triple = (d.resolve_double_point(0, -1),
                  d.resolve_double_point(0, +1), d)
        F = FrobeniusAlgebra(QQ, 0, 0)
        assert skein_triangle_report(*triple, F).ok
        first = list(keys)
        assert first and len(first) == len(set(first))
        assert skein_triangle_report(*triple, F).ok
        assert keys == first + first


class TestNoCopyWithoutDoublePoint:
    @pytest.mark.parametrize("ring", [ZZ, F2], ids=str)
    def test_cube_differentials_taken_as_is(self, ring, monkeypatch):
        # an ordinary diagram's singular complex is its cube as built
        calls = {"cube": 0, "validate": 0}
        bracket_cube, validate = khcube._bracket_cube, ChainComplex.validate

        def counting_cube(*args):
            calls["cube"] += 1
            return bracket_cube(*args)

        def counting_validate(self):
            calls["validate"] += 1
            return validate(self)

        monkeypatch.setattr(khcube, "_bracket_cube", counting_cube)
        monkeypatch.setattr(ChainComplex, "validate", counting_validate)
        # T(2,5) and its mirror: an even and an odd normalization shift
        for kind, n_minus in ((1, 0), (-1, 5)):
            calls.update(cube=0, validate=0)
            d = from_braid([(0, kind)] * 5, 2)
            assert d.n_minus == n_minus and not d.n_singular
            S = singular_complex(d, FrobeniusAlgebra(ring, 0, 0))
            assert calls == {"cube": 1, "validate": 1}
            assert S.sites == () and S.shift == -n_minus


class TestSharedSmoothings:
    def test_each_planar_smoothing_resolved_once(self, monkeypatch):
        # 2^n smoothings for the whole cube, not 2^n per resolution scheme
        calls = []
        resolve_bits = Diagram.resolve_bits

        def counting_resolve_bits(self, smoothing):
            calls.append(smoothing)
            return resolve_bits(self, smoothing)

        monkeypatch.setattr(Diagram, "resolve_bits", counting_resolve_bits)
        d = from_braid(S6_3DP, 3)
        assert (d.n_crossings, d.n_singular) == (6, 3)
        S = singular_complex(d, FrobeniusAlgebra(ZZ, 0, 0))
        assert sorted(calls) == list(range(1 << 6))
        assert len(S.configs) == 1 << 6


class TestBuiltInPlace:
    def test_no_complex_shifted_after_it_is_built(self, monkeypatch):
        # every cube is built in its final degrees, odd shifts included
        calls = []
        shift = ChainComplex.shift

        def counting_shift(self, k):
            calls.append(k)
            return shift(self, k)

        monkeypatch.setattr(ChainComplex, "shift", counting_shift)
        F = FrobeniusAlgebra(QQ, 0, 0)
        build_cube(from_braid([(0, -1)] * 5, 2), F)
        assert calls == []
        singular_complex(from_braid([(0, 0), (0, -1), (0, 0)], 2), F)
        assert calls == []
        singular_complex_iterated(from_braid(S6_3DP, 3), F)
        assert calls == []


def _skein_state_sum(d):
    """Kauffman state sum, extended to double points by the skein rule
    value(double point) = value(positive) - value(negative)."""
    if not d.n_singular:
        return kauffman_bracket_oracle(d)
    b = d.singular_indices[0]
    return (_skein_state_sum(d.resolve_double_point(b, +1))
            - _skein_state_sum(d.resolve_double_point(b, -1)))


@st.composite
def singular_closures(draw, max_letters=6):
    """Closures of braids on 2-3 strands with at most ``max_letters``
    letters, at most 3 of them double points."""
    strands = draw(st.integers(2, 3))
    word = draw(st.lists(st.tuples(st.integers(0, strands - 2),
                                   st.sampled_from((1, -1, 0))),
                         max_size=max_letters)
                .filter(lambda w: sum(kind == 0 for _, kind in w) <= 3))
    return from_braid(word, strands)


class TestRandomSingularClosures:
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(singular_closures())
    def test_iterated_matches_flattened(self, d):
        for ring, h, t in ((ZZ, 0, 0), (F2, 1, 0), (QQ, 0, 1)):
            F = FrobeniusAlgebra(ring, h, t)
            flat = singular_complex(d, F).homology()
            iterated = singular_complex_iterated(d, F).homology()
            assert iterated.groups == flat.groups, (str(ring), h, t)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(singular_closures())
    def test_euler_characteristic_is_skein_state_sum(self, d):
        S = singular_complex(d, FrobeniusAlgebra(ZZ, 0, 0))
        chi = S.complex.graded_euler_characteristic()
        assert LaurentPoly(chi) == _skein_state_sum(d)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(singular_closures())
    def test_vertex_is_a_shared_planar_smoothing(self, d):
        # vertex (r, s) is smoothing s ^ flip of the negative resolution,
        # flip the sites that r resolves positively: the circles of the
        # piece's own smoothing s and its arcs, but reversed at a flipped
        # site that s 0-smooths
        S = singular_complex(d, FrobeniusAlgebra(ZZ, 0, 0))
        for r, piece in _resolved_pieces(S).items():
            flip = sum(1 << b for k, b in enumerate(S.sites) if r >> k & 1)
            for s in range(1 << d.n_crossings):
                own = piece.resolve_bits(s)
                cfg = S.configs[s ^ flip]
                assert circles(cfg) == circles(own), (r, s)
                assert list(crossing_arcs(cfg)) == [
                    arcs[::-1] if flip >> c & 1 and not s >> c & 1 else arcs
                    for c, arcs in enumerate(crossing_arcs(own))], (r, s)

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(singular_closures())
    def test_matrices_match_reference(self, d):
        # the reference rebuilds every column from the diagram alone: the
        # saddles within each piece and the crossing changes across pieces,
        # each with its own sign
        for ring, h, t in ((ZZ, 0, 0), (QQ, 0, 1), (F3, 1, 1)):
            S = singular_complex(d, FrobeniusAlgebra(ring, h, t))
            ref = reference_singular_differentials(S)
            assert set(S.complex.diffs) <= set(ref)
            for w, m in ref.items():
                assert S.complex.diff(w) == m, (str(ring), h, t, w)

    @pytest.mark.parametrize("word", [
        [(0, 0), (1, 1), (0, 1), (1, 0), (0, 1), (1, 0)],
        [(0, 1), (1, -1), (0, 0), (1, 1), (0, -1)],
        [(0, 0), (0, -1), (1, 0), (1, 1)],
    ])
    def test_matrices_match_reference_over_f2(self, word):
        # over F2 -1 = 1 and at h = 1 the x-terms of a crossing change
        # cancel on the diagonal: the points above see neither
        S = singular_complex(from_braid(word, 3),
                             FrobeniusAlgebra(F2, 1, 0))
        ref = reference_singular_differentials(S)
        assert set(S.complex.diffs) <= set(ref)
        for w, m in ref.items():
            assert S.complex.diff(w) == m, w

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(singular_closures())
    def test_forward_pass_matches_blockwise_reduction(self, d):
        # the reference reduces each block whole and on its own
        for ring, h, t in ((ZZ, 0, 0), (QQ, 0, 1), (F2, 1, 0), (F3, 1, 1)):
            cx = singular_complex(d, FrobeniusAlgebra(ring, h, t)).complex
            graded = cx.q is not None
            blocks = cx._reduced_blocks(graded)[0]
            reduced = {(i, j): _rank_torsion(whole_block(cx, blocks, i, j),
                                             ring)[:2]
                       for i in cx.diffs for j in blocks.get(i, ())}
            want = {(i, j) if graded else i:
                    _block_homology(blocks, reduced, i, j)
                    for i, by_q in blocks.items() for j in by_q}
            assert cx.homology() == HomologySummary.build(ring, want), (
                str(ring), h, t)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(singular_closures())
    def test_column_map_matches_submatrix_cut(self, d):
        # the reference cuts each q-block as a matrix of its kept columns;
        # through the column map the elimination must get the same rows,
        # each with the same local columns in the same order, graded or not
        integral = singular_complex(d, FrobeniusAlgebra(ZZ, 0, 0)).complex
        for ring in (ZZ, QQ, F2, F3):
            cx = integral.change_ring(ring)
            for graded in (True, False):
                got, got_rows = with_eliminated_rows(
                    lambda: cx._reduced_blocks(graded))
                want, want_rows = with_eliminated_rows(
                    lambda: reference_reduced_blocks(cx, graded))
                assert got[:2] == want[:2], (str(ring), graded)
                assert got_rows == want_rows, (str(ring), graded)

    def test_column_map_drops_cancelled_columns(self):
        # blocks that leave out columns the block below cancelled, in each
        # ring and grading: the case the property above must cover
        integral = singular_complex(from_braid(S6_3DP, 3),
                                    FrobeniusAlgebra(ZZ, 0, 0)).complex
        for ring in (ZZ, QQ, F2, F3):
            cx = integral.change_ring(ring)
            for graded in (True, False):
                blocks, reduced, dropped = reference_reduced_blocks(cx, graded)
                assert any(dropped.values()), (str(ring), graded)
                assert cx._reduced_blocks(graded)[:2] == (blocks, reduced)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(singular_closures())
    def test_integral_homology_matches_dense_oracle(self, d):
        S = singular_complex(d, FrobeniusAlgebra(ZZ, 0, 0))
        got = {k[0]: (free, torsion)
               for k, free, torsion in S.homology(graded=False).groups}
        assert got == summary_via_dense_oracle(S.complex)

    # ungraded, the dense ranks of a 6-letter closure with three double
    # points take seconds, so these closures have at most 5 letters
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(singular_closures(max_letters=5))
    def test_field_homology_matches_dense_rank(self, d):
        # over F2 the ranks come from xor-ed bit masks; the oracle row
        # reduces dense lists mod 2, graded at (0, 0), ungraded at (1, 0)
        for h, graded in ((0, True), (1, False)):
            cx = singular_complex(d, FrobeniusAlgebra(F2, h, 0)).complex
            got = {(k if graded else k[0]): free
                   for k, free, _ in cx.homology().groups}
            assert got == field_summary_via_dense_rank(cx, graded), h


class TestSkeinTriangle:
    def _kink_triple(self):
        d_sing = parse({"pd": [[1, 2, 2, 1]], "singular": [0]})
        return (d_sing.resolve_double_point(0, -1),
                d_sing.resolve_double_point(0, +1), d_sing)

    def test_fi_triple(self):
        d_minus, d_plus, d_sing = self._kink_triple()
        rep = skein_triangle_report(d_minus, d_plus, d_sing,
                                    FrobeniusAlgebra(QQ, 0, 0))
        assert rep.ok
        assert rep.h_sing.groups == ()
        # the induced map on homology is an isomorphism in every degree
        for (_i, dim_sing, coker, ker) in rep.les_rows:
            assert dim_sing == 0 and coker == 0 and ker == 0

    def test_hopf_triple(self):
        d3 = from_braid([(0, 0), (0, 0)], 2)
        d1 = d3.resolve_double_point(1, -1)
        d2 = d3.resolve_double_point(1, +1)
        for F in (FrobeniusAlgebra(QQ, 0, 0), FrobeniusAlgebra(QQ, 0, 1)):
            rep = skein_triangle_report(d1, d2, d3, F)
            assert rep.les_ok
            if F.graded:
                assert rep.chi_ok

    def _braid_triple(self):
        d_sing = from_braid([(0, 1), (0, 0), (0, -1), (0, 1)], 2)
        return (d_sing.resolve_double_point(1, -1),
                d_sing.resolve_double_point(1, +1), d_sing)

    @pytest.mark.parametrize("ring,h,t", [(QQ, 0, 0), (F2, 1, 0), (QQ, 0, 1)],
                             ids=["Q00", "F2_10", "Q01"])
    def test_source_and_target_homology(self, ring, h, t):
        d_minus, d_plus, d_sing = self._braid_triple()
        F = FrobeniusAlgebra(ring, h, t)
        rep = skein_triangle_report(d_minus, d_plus, d_sing, F)
        g1 = genus_one_map(d_minus, 1, F)
        assert rep.h_minus == g1.source.homology(graded=False)
        assert rep.h_plus == g1.target.homology(graded=False)

    def test_each_differential_reduced_once(self, monkeypatch):
        # at (0, 0) H(f) is taken by q-blocks: the 4 differentials of X and
        # Y have 14 and 13 nonzero q-blocks, each reduced once, and S_sing's
        # 6 differentials are reduced ungraded; H(f) can be nonzero in two
        # (degree, q) blocks, which adds the rank of two bordered matrices.
        # Reducing X and Y again for h_minus and h_plus would add 27.
        calls = []
        eliminate = exactlinalg._eliminate

        def counting_eliminate(m, track=False):
            calls.append(1)
            return eliminate(m, track)

        monkeypatch.setattr(exactlinalg, "_eliminate", counting_eliminate)
        skein_triangle_report(*self._braid_triple(),
                              FrobeniusAlgebra(QQ, 0, 0))
        assert len(calls) == 35

    def test_no_bordered_block_cut_as_a_matrix(self, monkeypatch):
        # the twin of TestHomology.test_no_block_cut_as_a_matrix: H(f) reads
        # the blocks of its bordered matrices through the forward pass's
        # column maps, and its ranks are those the whole blocks give
        def refused(*args):
            raise AssertionError("a block was cut by submatrix")

        ranks = []

        def recorded(*args):
            ranks.append(homology_functor_ranks(*args))
            return ranks[-1]

        monkeypatch.setattr(SparseMatrix, "submatrix", refused)
        monkeypatch.setattr(genusone, "homology_functor_ranks", recorded)
        rep = skein_triangle_report(*self._braid_triple(),
                                    FrobeniusAlgebra(QQ, 0, 0))
        assert rep.les_rows == ((-3, 0, 0, 0), (-2, 0, 0, 0), (-1, 2, 0, 2),
                                (0, 0, 0, 0), (1, 0, 0, 0), (2, 2, 2, 0),
                                (3, 0, 0, 0))
        assert {k: v for k, v in ranks[0].items() if v[2]} == {
            (0, 0): (2, 1, 1), (0, 2): (1, 1, 1)}

    def test_site_mismatch_rejected(self):
        d_minus, d_plus, d_sing = self._kink_triple()
        with pytest.raises(ContractViolation):
            skein_triangle_report(d_plus, d_minus, d_sing,
                                  FrobeniusAlgebra(QQ, 0, 0))
        other = parse({"pd": HOPF_NEG_PD, "singular": [0]})
        with pytest.raises(ContractViolation):
            skein_triangle_report(d_minus, d_plus, other,
                                  FrobeniusAlgebra(QQ, 0, 0))

    def test_site_detection(self):
        d3 = from_braid([(0, 0), (0, 0)], 2)
        d1 = d3.resolve_double_point(1, -1)
        d2 = d3.resolve_double_point(1, +1)
        assert skein_site(d1, d2, d3) == 1

    def test_field_required(self):
        d_minus, d_plus, d_sing = self._kink_triple()
        with pytest.raises(ContractViolation):
            skein_triangle_report(d_minus, d_plus, d_sing,
                                  FrobeniusAlgebra(ZZ, 0, 0))


class TestFunctorRanksDenseOracle:
    """H(f) of crossing-change maps against dense ranks of the whole
    bordered q-blocks, which owe nothing to the column maps."""

    @staticmethod
    def _closures_with_nonzero_map(ds):
        """Check every closure at 12 settings; the indices of those with a
        nonzero H(f) somewhere."""
        nonzero = set()
        for k, d in enumerate(ds):
            c = _negative_crossings(d)[0]
            for ring, (h, t) in product((QQ, F2, F3),
                                        ((0, 0), (1, 0), (0, 1))):
                f = genus_one_map(d, c, FrobeniusAlgebra(ring, h, t)).map
                for graded in (True, False) if (h, t) == (0, 0) else (False,):
                    got = homology_functor_ranks(f, graded)
                    assert got == dense_functor_ranks(f, graded), (
                        k, str(ring), h, t, graded)
                    if any(r for _, _, r in got.values()):
                        nonzero.add(k)
        return nonzero

    def test_random_closures(self):
        # 2 or 3 letters: 28 have a negative crossing, and 17 of them a
        # nonzero H(f) somewhere
        ds = [d for d in random_singular_closures(random.Random(28), 40,
                                                  (2, 3))
              if _negative_crossings(d)]
        nonzero = self._closures_with_nonzero_map(ds)
        assert (len(ds), len(nonzero)) == (28, 17)

    def test_four_letter_closures(self):
        # 4 letters, whose ungraded bordered matrices at (1, 0) reach 76
        # rows (56 for 2 or 3 letters): 7 have a negative crossing, and 4
        # of them a nonzero H(f)
        ds = [d for d in random_singular_closures(random.Random(28), 10,
                                                  (4, 4))
              if _negative_crossings(d)]
        nonzero = self._closures_with_nonzero_map(ds)
        assert (len(ds), len(nonzero)) == (7, 4)


def _negative_crossings(d):
    return [c for c in range(d.n_crossings)
            if d.kinds[c] == ORDINARY and d.crossing_sign(c) == -1]


class TestConeFactorGenusOne:
    def test_factorization_through_the_saddle_cone(self):
        # the evaluated form of the defining construction: on the bracket
        # cube of the negative Hopf link, the local crossing-change map on
        # the one-smoothed half kills the saddle block strictly, so it
        # factors through the cone with zero homotopy
        from khsing.chain import cone_factor
        d = parse({"pd": HOPF_NEG_PD})
        for F in algebra_points():
            cube = bracket_cube(d, F)
            labels_by_deg = reference_labels(d)
            for c in (0, 1):
                X, Y, g = cone_pieces(cube, c)
                # phi on the c-smoothed half, state by state; Y^i holds the
                # states of degree i + 1 that 1-smooth c
                comps = {}
                for i in Y.degrees():
                    entries = {}
                    labels = [lbl for lbl in labels_by_deg[i + 1]
                              if lbl[0] >> c & 1]
                    offset = {}
                    for ix, (mask, _bits) in enumerate(labels):
                        offset.setdefault(mask, ix)
                    for mask, start in offset.items():
                        cfg = cube.configs[mask]
                        blk = phi_block(cfg, c, F)
                        for (r, col), v in blk.data.items():
                            entries.setdefault(start + r, {})[start + col] = v
                    comps[i] = SparseMatrix(Y.rank(i), Y.rank(i), F.ring,
                                            entries)
                phi = ChainMap(Y, Y, comps)
                assert is_chain_map(phi).ok
                assert phi.compose(g).is_zero()
                ghat = cone_factor(g, phi)
                assert is_chain_map(ghat).ok


class TestSiteOrder:
    def test_genus_one_with_extra_double_point_and_order(self):
        # site order only permutes the bookkeeping, not the invariant
        d3 = from_braid([(0, 0), (0, 0)], 2)
        dm = d3.resolve_double_point(0, -1)  # one double point left
        F = FrobeniusAlgebra(QQ, 0, 0)
        g = genus_one_map(dm, 0, F, site_order=(1,))
        assert g.is_chain_map().ok
        h_cone = cone(g.map).homology(graded=False)
        h_direct = singular_complex(d3, F).homology(graded=False)
        assert h_cone.groups == h_direct.groups

    @pytest.mark.parametrize("order", [(0, 0), (1,), (0, 2)],
                             ids=["repeated", "missing", "ordinary"])
    def test_order_that_is_not_the_double_points_refused(self, order):
        # double points 0 and 1, crossing 2 ordinary and negative: an
        # order that repeats a site, leaves one out or names an ordinary
        # crossing is refused by every builder that takes one
        d = from_braid([(0, 0), (0, 0), (0, -1)], 2)
        assert d.singular_indices == (0, 1) and d.crossing_sign(2) == -1
        F = FrobeniusAlgebra(QQ, 0, 0)
        msg = "site order must enumerate the double points"
        for build in (build_cube, singular_complex_iterated,
                      lambda d, F, order: genus_one_map(d, 2, F, order)):
            with pytest.raises(ContractViolation, match=msg):
                build(d, F, order)


class TestR1Commutation:
    """The crossing-change map commutes strictly with the Reidemeister-I
    equivalences: composing the kink-insertion map into the negative kink
    with the crossing change gives exactly the kink-insertion map into the
    positive kink.  This strict square is what makes the nugatory double
    point contractible."""

    def _r1_maps(self, F):
        ring = F.ring
        unknot = parse({"pd": [], "free_loops": 1})
        kink_neg = parse({"pd": [[1, 2, 2, 1]]})
        cu = build_cube(unknot, F).complex
        g = genus_one_map(kink_neg, 0, F)
        km, kp = g.source.complex, g.target.complex

        # insertion into the negative kink: v |-> v (x) 1 on the kink loop,
        # landing on the 1-smoothed state; circle order puts the strand
        # (through slots 0/3) first and the loop (slots 1/2) second
        into_neg = {0: SparseMatrix(km.rank(0), 2, ring,
                                    {0: {0: 1}, 2: {1: 1}})}
        r1_neg = ChainMap(cu, km, into_neg)

        # insertion into the positive kink: v |-> v (x) x - (x v) (x) 1
        data = {1: {0: 1}, 2: {0: -1}}          # 1 |-> 1(x)x - x(x)1
        data[3] = {1: 1}                         # x |-> x(x)x - x^2(x)1
        if F.t != 0:
            data[0] = {1: -F.t}
        if F.h != 0:
            data[2][1] = -F.h
        into_pos = {0: SparseMatrix(kp.rank(0), 2, ring, data)}
        r1_pos = ChainMap(cu, kp, into_pos)
        return g, r1_neg, r1_pos

    def test_strict_commutation(self):
        for F in algebra_points():
            g, r1_neg, r1_pos = self._r1_maps(F)
            assert is_chain_map(r1_neg).ok
            assert is_chain_map(r1_pos).ok
            comp = g.map.compose(r1_neg)
            for i in set(comp.components) | set(r1_pos.components):
                assert comp.component(i) == r1_pos.component(i), (F.h, F.t, i)

    def test_insertions_induce_isomorphisms(self):
        from khsing.chain import homology_functor_ranks
        for F in (FrobeniusAlgebra(QQ, 0, 0), FrobeniusAlgebra(QQ, 1, 0)):
            g, r1_neg, r1_pos = self._r1_maps(F)
            for f in (r1_neg, r1_pos):
                for i, (hx, hy, r) in homology_functor_ranks(f).items():
                    assert hx == hy == r, (F.h, F.t, i)
