import dataclasses
import io
import itertools
import random

import pytest

from khsing.cli import corpus_dir
from khsing.diagram import (CircleConfiguration, Diagram, ORDINARY, SINGULAR,
                            from_braid, parse)
from khsing.errors import ContractViolation, ParseError

from util import circles, crossing_arcs, union_find_circles

TREFOIL_PD = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
HOPF_PD = [[1, 3, 2, 4], [3, 1, 4, 2]]


class TestParse:
    def test_trefoil(self):
        d = parse({"pd": TREFOIL_PD})
        assert d.n_crossings == 3
        assert d.n_components == 1
        assert d.n_singular == 0

    def test_unknot_free_loop(self):
        d = parse({"pd": [], "free_loops": 1})
        assert d.n_components == 1 and d.n_crossings == 0

    def test_label_multiplicity_error(self):
        with pytest.raises(ParseError):
            parse({"pd": [[1, 2, 3, 7], [3, 1, 2, 4]]})

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse("{not json")

    @pytest.mark.parametrize("raw", [b"\xff{", b"[" * 100000],
                             ids=["not_utf8", "too_deep"])
    @pytest.mark.parametrize("source", [bytes, io.BytesIO],
                             ids=["bytes", "file"])
    def test_unreadable_json(self, raw, source):
        with pytest.raises(ParseError):
            parse(source(raw))

    def test_missing_pd(self):
        with pytest.raises(ParseError):
            parse({"singular": []})

    def test_bad_singular_index(self):
        with pytest.raises(ParseError):
            parse({"pd": HOPF_PD, "singular": [5]})

    def test_repeated_singular_index(self):
        with pytest.raises(ParseError, match="index 0 is listed twice"):
            parse({"pd": [[1, 2, 2, 1]], "singular": [0, 0]})

    @pytest.mark.parametrize("name", [5, True, ["x"]])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ParseError, match="is not a string"):
            parse({"pd": [[1, 2, 2, 1]], "name": name})

    def test_null_name_is_no_name(self):
        assert parse({"pd": [[1, 2, 2, 1]], "name": None}).name is None

    def test_non_closing_traversal(self):
        # edge 2 leaves both crossings through slot 2
        with pytest.raises(ParseError):
            parse({"pd": [[1, 3, 2, 4], [1, 4, 2, 3]]})

    @pytest.mark.parametrize("pd", [[[4, 3, 2, 1], [2, 1, 4, 3]],
                                    [[1, 2, 1, 2]]])
    def test_non_planar_refused(self, pd):
        # each passes the traversal; Euler's formula fails (2 faces, not
        # 4; 1, not 3)
        with pytest.raises(ParseError, match="not planar"):
            parse({"pd": pd})

    @pytest.mark.parametrize("hint", [0, 2, 4, 5, -1])
    def test_over_hint_must_be_an_over_slot(self, hint):
        # the component of edges 2 and 3 passes over at both crossings, so
        # its orientation comes from a hint, which names slot 1 or 3
        with pytest.raises(ContractViolation, match="slot 1 or 3"):
            Diagram([[1, 2, 4, 3], [4, 2, 1, 3]], over_hints={0: hint})

    @pytest.mark.parametrize("ci", [2, -1])
    def test_over_hint_must_be_at_a_crossing(self, ci):
        with pytest.raises(ContractViolation, match="crossing index"):
            Diagram([[1, 2, 4, 3], [4, 2, 1, 3]], over_hints={ci: 3})

    def test_json_roundtrip(self):
        for pd, singular in ((TREFOIL_PD, []), (HOPF_PD, [0])):
            d = parse({"pd": pd, "singular": singular, "name": "x"})
            assert parse(d.to_json()) == d

    def test_json_roundtrip_keeps_over_everywhere_orientation(self):
        # the component of edges 2 and 3 passes over at both crossings; the
        # minus diagram orients it against the convention, and only the
        # over_entry field carries that
        d = from_braid([(0, 0), (0, 1)], 2)
        minus = d.resolve_double_point(0, -1)
        plus = d.resolve_double_point(0, 1)
        assert minus.to_dict()["over_entry"] == [[0, 1]]
        for x in (minus, plus, d):
            back = parse(x.to_json())
            assert back == x and back.over_entry == x.over_entry
        without = {k: v for k, v in minus.to_dict().items()
                   if k != "over_entry"}
        assert parse(without).over_entry != minus.over_entry

    def test_without_over_entry_reads_as_before(self):
        # no field: the traversal's own convention, as if no hint were given
        for pd in (TREFOIL_PD, HOPF_PD, [[1, 2, 4, 3], [4, 2, 1, 3]]):
            assert parse({"pd": pd}).over_entry == Diagram(pd).over_entry
            assert "over_entry" not in parse({"pd": pd}).to_dict()

    @pytest.mark.parametrize("field", [
        "x", [1, 3], [[0]], [[0, 1, 3]], [[0, True]], [[0, 1.0]], [[2, 1]],
        [[-1, 3]], [[0, 1], [0, 1]], [[0, 2]], [[0, 0]]])
    def test_malformed_over_entry(self, field):
        with pytest.raises(ParseError, match="over_entry"):
            parse({"pd": [[1, 2, 4, 3], [4, 2, 1, 3]], "over_entry": field})

    @pytest.mark.parametrize("field", [[[0, 1], [1, 1]], [[1, 3]]],
                             ids=["against_the_start", "not_the_start"])
    def test_over_entry_contradicting_the_traversal(self, field):
        # the walk of the over-everywhere component starts at crossing 0:
        # entering there at slot 1 it enters crossing 1 at slot 3, and at
        # slot 3 (no hint) it enters crossing 1 at slot 1
        pd = [[1, 2, 4, 3], [4, 2, 1, 3]]
        with pytest.raises(ParseError, match="traversal"):
            parse({"pd": pd, "over_entry": field})

    @pytest.mark.parametrize("pd,hints", [
        ([[1, 2, 4, 3], [4, 2, 1, 3]], {1: 3}), (TREFOIL_PD, {0: 3})],
        ids=["not_the_start", "oriented_crossing"])
    def test_constructor_refuses_a_contradicting_hint(self, pd, hints):
        # the hint is not at the start of an over-everywhere walk, so the
        # traversal ignores it: over_entry would read (3, 1) and (1, 1, 1)
        with pytest.raises(ParseError, match="traversal"):
            Diagram(pd, over_hints=hints)

    def test_over_entry_at_an_oriented_crossing(self):
        # the trefoil has no over-everywhere component: a hint can only
        # agree with the traversal, or be refused
        d = parse({"pd": TREFOIL_PD})
        slot = d.over_entry[0]
        assert parse({"pd": TREFOIL_PD, "over_entry": [[0, slot]]}) == d
        with pytest.raises(ParseError, match="traversal"):
            parse({"pd": TREFOIL_PD, "over_entry": [[0, 4 - slot]]})


class TestCrossingSign:
    def test_trefoil_all_same_sign(self):
        d = parse({"pd": TREFOIL_PD})
        assert [d.crossing_sign(i) for i in range(3)] == [-1, -1, -1]

    def test_mirror_negates(self):
        for pd in (TREFOIL_PD, HOPF_PD):
            d = parse({"pd": pd})
            m = d.mirror()
            for i in range(d.n_crossings):
                assert m.crossing_sign(i) == -d.crossing_sign(i)
            assert m.n_plus - m.n_minus == -(d.n_plus - d.n_minus)

    def test_positive_kink(self):
        d = from_braid([(0, 1)], 2)
        assert d.crossing_sign(0) == 1
        assert from_braid([(0, -1)], 2).crossing_sign(0) == -1

    def test_singular_contract(self):
        d = parse({"pd": HOPF_PD, "singular": [0]})
        with pytest.raises(ContractViolation):
            d.crossing_sign(0)


class TestResolve:
    def test_unknot(self):
        d = parse({"pd": [], "free_loops": 1})
        assert d.resolve_bits(0).n_circles == 1

    def test_trefoil_zero_state(self):
        d = parse({"pd": TREFOIL_PD})
        # hand edge-following: 0-smoothing joins {1,4}, {2,5}, {3,6}
        cfg = d.resolve_bits(0)
        assert circles(cfg) == ((1, 4), (2, 5), (3, 6))

    def test_hopf_circles(self):
        d = parse({"pd": HOPF_PD})
        assert [d.resolve_bits(m).n_circles for m in (0, 3, 1, 2)] == \
            [2, 2, 1, 1]

    def test_canonical_under_crossing_permutation(self):
        d = parse({"pd": TREFOIL_PD})
        for perm in itertools.permutations(range(3)):
            d2 = Diagram([TREFOIL_PD[i] for i in perm])
            for mask in range(8):
                pmask = 0
                for new_pos, old in enumerate(perm):
                    if mask >> old & 1:
                        pmask |= 1 << new_pos
                assert (set(circles(d.resolve_bits(mask)))
                        == set(circles(d2.resolve_bits(pmask))))

    def test_toggle_changes_count_by_one(self):
        rng = random.Random(13)
        diagrams = [parse({"pd": TREFOIL_PD}), parse({"pd": HOPF_PD}),
                    from_braid([(0, 1), (1, -1), (0, 1), (1, -1)], 3)]
        for d in diagrams:
            for mask in range(1 << d.n_crossings):
                for c in range(d.n_crossings):
                    a = d.resolve_bits(mask).n_circles
                    b = d.resolve_bits(mask ^ (1 << c)).n_circles
                    assert abs(a - b) == 1


class TestResolveAgainstUnionFind:
    # the walk of resolve_bits against circles found by union-find from the
    # PD tuples alone; double points are resolved negatively first, as the
    # cube resolves its smoothings
    @staticmethod
    def assert_matches(d):
        for b in d.singular_indices:
            d = d.resolve_double_point(b, -1)
        for mask in range(1 << d.n_crossings):
            cfg = d.resolve_bits(mask)
            expected = union_find_circles(d, mask)
            assert circles(cfg) == expected, mask
            assert cfg.n_circles == len(expected), mask
            where = {e: k for k, circ in enumerate(expected)
                     if circ[0] != "loop" for e in circ}
            assert crossing_arcs(cfg) == tuple(
                (where[c[0]], where[c[2]]) for c in d.crossings), mask

    def test_corpus(self):
        paths = sorted(p for p in corpus_dir().glob("*.json")
                       if p.name != "groups.json")
        assert len(paths) > 20
        for path in paths:
            self.assert_matches(parse(path.read_text()))

    def test_random_braid_closures(self):
        rng = random.Random(2021)
        with_loops = 0
        for _ in range(200):
            strands = rng.randint(1, 4)
            word = [(rng.randrange(strands - 1), rng.choice((1, -1, 0)))
                    for _ in range(rng.randint(0, 7) if strands > 1 else 0)]
            d = from_braid(word, strands)
            with_loops += d.free_loops > 0
            self.assert_matches(d)
        assert with_loops >= 20

    def test_circles_equal_exactly_when_their_walk_data_are(self):
        # what _phi_map compares instead of circles: the edge labels, the
        # circle of each edge and the circle count
        diagrams = [parse({"pd": TREFOIL_PD}), parse({"pd": HOPF_PD}),
                    parse({"pd": HOPF_PD, "free_loops": 1}),
                    parse({"pd": [[e + 10 for e in c] for c in HOPF_PD]}),
                    Diagram([TREFOIL_PD[i] for i in (1, 0, 2)])]
        cfgs = [d.resolve_bits(mask) for d in diagrams
                for mask in range(1 << d.n_crossings)]
        for a in cfgs:
            for b in cfgs:
                assert (circles(a) == circles(b)) == (
                    (a.labels, a.edge_circles, a.n_circles)
                    == (b.labels, b.edge_circles, b.n_circles))

    def test_a_state_stores_its_walk_only(self):
        # no per-crossing tuple is stored: the cube reads a crossing's
        # circles from the walk's edge circles, and the label and end
        # tables are the diagram's own, shared by all its states
        fields = ("n_circles", "edge_circles", "labels", "ends")
        assert tuple(f.name for f in dataclasses.fields(
            CircleConfiguration)) == fields
        assert CircleConfiguration.__slots__ == fields
        d = from_braid([(0, 1), (1, -1)] * 3, 3)
        a, b = d.resolve_bits(0), d.resolve_bits(0b101101)
        assert a.labels is b.labels and a.ends is b.ends
        assert not hasattr(CircleConfiguration, "crossing_arcs")

    def test_crossing_arcs_on_random_singular_closures(self):
        # each double point resolved either way, so that the slot-0 and
        # slot-2 edges of a positive resolution come rotated
        rng = random.Random(2024)
        for _ in range(50):
            strands = rng.randint(2, 4)
            word = [(rng.randrange(strands - 1), rng.choice((1, -1, 0)))
                    for _ in range(rng.randint(1, 7))]
            word[rng.randrange(len(word))] = (rng.randrange(strands - 1), 0)
            d = from_braid(word, strands)
            for b in d.singular_indices:
                d = d.resolve_double_point(b, rng.choice((1, -1)))
            for mask in range(1 << d.n_crossings):
                expected = union_find_circles(d, mask)
                where = {e: k for k, circ in enumerate(expected)
                         if circ[0] != "loop" for e in circ}
                assert crossing_arcs(d.resolve_bits(mask)) == tuple(
                    (where[c[0]], where[c[2]]) for c in d.crossings), mask


class TestMirror:
    def test_involution(self):
        for pd, singular in ((TREFOIL_PD, []), (HOPF_PD, []), (HOPF_PD, [1])):
            d = parse({"pd": pd, "singular": singular})
            assert d.mirror().mirror() == d

    def test_purely_singular_fixed(self):
        d = parse({"pd": HOPF_PD, "singular": [0, 1]})
        assert d.mirror() == d

    def test_trefoil_mirror_signs(self):
        d = parse({"pd": TREFOIL_PD}).mirror()
        assert [d.crossing_sign(i) for i in range(3)] == [1, 1, 1]


class TestDisjointUnion:
    def test_loop_counts(self):
        u = parse({"pd": [], "free_loops": 1})
        assert u.disjoint_union(u).free_loops == 2

    def test_trefoil_plus_unknot(self):
        t = parse({"pd": TREFOIL_PD})
        u = parse({"pd": [], "free_loops": 1})
        du = t.disjoint_union(u)
        assert du.n_crossings == 3 and du.free_loops == 1

    def test_component_additivity(self):
        a = parse({"pd": TREFOIL_PD})
        b = parse({"pd": HOPF_PD})
        assert a.disjoint_union(b).n_components == \
            a.n_components + b.n_components

    def test_label_disjointness(self):
        a = parse({"pd": HOPF_PD})
        du = a.disjoint_union(a)
        assert du.n_crossings == 4
        du.crossing_sign(3)


class TestDoublePoints:
    def test_resolution_signs(self):
        d = parse({"pd": HOPF_PD, "singular": [0]})
        assert d.resolve_double_point(0, 1).crossing_sign(0) == 1
        assert d.resolve_double_point(0, -1).crossing_sign(0) == -1

    def test_resolution_keeps_other_crossings(self):
        d = parse({"pd": HOPF_PD, "singular": [0]})
        r = d.resolve_double_point(0, -1)
        assert r.crossings[1] == d.crossings[1]
        assert r.kinds == (ORDINARY, ORDINARY)

    def test_ordinary_contract(self):
        d = parse({"pd": HOPF_PD})
        with pytest.raises(ContractViolation):
            d.resolve_double_point(0, 1)

    def test_crossing_change_involution(self):
        d = parse({"pd": TREFOIL_PD})
        assert d.crossing_change(0).crossing_change(0) == d


class TestBraidClosure:
    def test_markov_unknots(self):
        assert from_braid([(0, 1)], 2).n_components == 1
        assert from_braid([], 2).free_loops == 2

    def test_writhe_matches_letters(self):
        w = [(0, 1), (1, -1), (0, 1), (1, -1)]
        d = from_braid(w, 3)
        assert d.n_plus == 2 and d.n_minus == 2

    def test_singular_letters(self):
        d = from_braid([(0, 0), (0, 1)], 2)
        assert d.kinds == (SINGULAR, ORDINARY)

    def test_orientation_stable_on_derived(self):
        # resolving a double point twice in either order gives equal diagrams
        d = from_braid([(0, 0), (0, 0)], 2)
        a = d.resolve_double_point(0, -1).resolve_double_point(1, 1)
        b = d.resolve_double_point(1, 1).resolve_double_point(0, -1)
        assert a == b
        assert (a.n_plus, a.n_minus) == (1, 1)


class TestNonConsecutiveLabels:
    def test_sparse_labels_parse(self):
        # traversal numbering need not be consecutive
        d = parse({"pd": [[10, 40, 20, 50], [30, 60, 40, 10],
                          [50, 20, 60, 30]]})
        assert d.n_components == 1
        assert [d.crossing_sign(i) for i in range(3)] == [-1, -1, -1]
