import json
import random

import pytest

from khsing.cli import corpus_dir
from khsing.diagram import from_braid, parse
from khsing.errors import ContractViolation
from khsing.exactlinalg import QQ, Ring, SparseMatrix, ZZ
from khsing.frobenius import FrobeniusAlgebra
from khsing.genusone import singular_complex
from khsing.invariants import (LaurentPoly, homology_signature,
                               jones_by_skein, jones_polynomial,
                               kauffman_bracket_oracle)

Q_UNKNOT = LaurentPoly({1: 1, -1: 1})


def load(name):
    return parse((corpus_dir() / f"{name}.json").read_text())


class TestLaurentPoly:
    def test_arithmetic(self):
        p = LaurentPoly({1: 1, -1: 1})
        assert p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
        assert p - p == LaurentPoly.zero()

    def test_sums_match_term_by_term(self):
        def nonzero(t):
            return {e: c for e, c in t.items() if c}

        rng = random.Random(25)
        for _ in range(200):
            p, q = ({rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(4)}
                    for _ in range(2))
            added, subtracted, product = {}, {}, {}
            for e, c in p.items():
                added[e] = subtracted[e] = c
                for f, d in q.items():
                    product[e + f] = product.get(e + f, 0) + c * d
            for e, c in q.items():
                added[e] = added.get(e, 0) + c
                subtracted[e] = subtracted.get(e, 0) - c
            P, Q = LaurentPoly(p), LaurentPoly(q)
            assert (P + Q).coeffs == nonzero(added)
            assert (P - Q).coeffs == nonzero(subtracted)
            assert (P * Q).coeffs == nonzero(product)

    @pytest.mark.parametrize("coeffs", [{0.5: 1}, {0: 1.9}, {"1": 1},
                                        {0: None}], ids=repr)
    def test_non_integral_refused(self, coeffs):
        # not truncated: {0.5: 1} is not the polynomial 1
        with pytest.raises(ContractViolation):
            LaurentPoly(coeffs)

    def test_json_dict(self):
        assert Q_UNKNOT.to_json_dict() == {"-1": 1, "1": 1}


class TestJones:
    def test_unknot(self):
        assert jones_polynomial(load("unknot")) == Q_UNKNOT

    def test_empty_diagram(self):
        assert kauffman_bracket_oracle(parse({"pd": []})) == LaurentPoly.one()
        assert jones_polynomial(parse({"pd": []})) == LaurentPoly.one()

    def test_oracle_on_unknot(self):
        assert kauffman_bracket_oracle(load("unknot")) == Q_UNKNOT
        for name in ("unknot_kink_pos", "unknot_kink_neg", "unknot_r2"):
            assert kauffman_bracket_oracle(load(name)) == Q_UNKNOT

    def test_trefoil_matches_oracle(self):
        d = load("trefoil_neg")
        assert jones_polynomial(d) == kauffman_bracket_oracle(d)

    def test_all_corpus_diagrams_match_oracle(self):
        root = corpus_dir()
        for path in sorted(root.glob("*.json")):
            if path.name == "groups.json":
                continue
            d = parse(path.read_text())
            if d.n_singular or d.n_crossings > 8:
                continue
            assert jones_polynomial(d) == kauffman_bracket_oracle(d), path.name

    def test_disjoint_union_multiplies(self):
        t = load("trefoil_pos")
        h = load("hopf_neg")
        du = t.disjoint_union(h)
        assert jones_polynomial(du) == \
            jones_polynomial(t) * jones_polynomial(h)

    def test_singular_rejected(self):
        with pytest.raises(ContractViolation):
            jones_polynomial(load("d1"))


class TestSkeinJones:
    def test_matches_resolutions(self):
        d1 = load("d1")
        plus = jones_polynomial(d1.resolve_double_point(0, 1))
        minus = jones_polynomial(d1.resolve_double_point(0, -1))
        assert jones_by_skein(d1) == plus - minus

    def test_order_independence(self):
        d3 = load("d3")
        # resolve in both orders by hand
        def full(first, second):
            out = LaurentPoly.zero()
            for s1 in (1, -1):
                for s2 in (1, -1):
                    r = d3.resolve_double_point(first, s1)
                    r = r.resolve_double_point(second, s2)
                    term = jones_polynomial(r)
                    out = out + term if s1 * s2 > 0 else out - term
            return out
        assert jones_by_skein(d3) == full(0, 1) == full(1, 0)

    def test_nugatory_double_point_vanishes(self):
        assert jones_by_skein(load("fi_unknot")) == LaurentPoly.zero()


class TestHomologySignature:
    def test_d1_dimensions(self):
        for h, t in ((0, 0), (1, 0), (0, 1)):
            s = homology_signature(load("d1"), QQ, h, t)
            assert s.ungraded().groups == (((-3,), 2, ()), ((0,), 2, ()))

    def test_d2_dimensions(self):
        s = homology_signature(load("d2"), QQ)
        assert s.ungraded().groups == (((-1,), 2, ()), ((2,), 2, ()))

    def test_d3_dimensions(self):
        s = homology_signature(load("d3"), QQ)
        assert s.ungraded().groups == \
            (((-4,), 2, ()), ((-1,), 4, ()), ((2,), 2, ()))

    def test_kauffman_euler_characteristic(self):
        # graded Euler characteristic of the integral homology equals the
        # state-sum polynomial
        for name in ("trefoil_pos", "figure8", "hopf_neg"):
            d = load(name)
            s = homology_signature(d, QQ)
            chi = {}
            for (i, j), free, _ in s.groups:
                chi[j] = chi.get(j, 0) + (-free if i % 2 else free)
            assert LaurentPoly(chi) == kauffman_bracket_oracle(d)

    def test_lee_total_dimension(self):
        # at (h, t) = (0, 1) over Q the total dimension is 2^components
        for name, comps in (("unknot", 1), ("hopf_pos", 2), ("trefoil_neg", 1),
                            ("figure8", 1), ("unlink2_clasp", 2)):
            s = homology_signature(load(name), QQ, 0, 1)
            assert s.total_dimension() == 2 ** comps, name

    def test_mirror_duality_ranks(self):
        for name in ("trefoil_pos", "figure8", "hopf_pos", "unknot_r2"):
            d = load(name)
            s = homology_signature(d, QQ)
            m = homology_signature(d.mirror(), QQ)
            flipped = tuple(sorted(((-i, -j), free, ())
                                   for (i, j), free, _ in m.groups))
            assert flipped == s.groups, name

    def test_invariance_across_corpus_groups(self):
        root = corpus_dir()
        spec = json.loads((root / "groups.json").read_text())
        rings = [(ZZ, 0, 0), (QQ, 0, 1), (Ring.prime_field(2), 1, 0)]
        for group in spec["groups"]:
            diagrams = [load(n) for n in group["files"]]
            for ring, h, t in rings:
                sigs = [homology_signature(d, ring, h, t) for d in diagrams]
                assert all(s.groups == sigs[0].groups for s in sigs), \
                    (group["name"], str(ring), h, t)

    def test_distinguishes_trefoil_from_unknot(self):
        a = homology_signature(load("trefoil_pos"), ZZ)
        b = homology_signature(load("unknot"), ZZ)
        assert a.groups != b.groups

    def test_each_square_checked_once(self, monkeypatch):
        # d^2 = 0 is checked once, on the complex that is built: one product
        # per pair of consecutive nonzero differentials, no recheck
        d = from_braid([(0, 1)] * 5, 2)
        cx = singular_complex(d, FrobeniusAlgebra(ZZ, 0, 0)).complex
        pairs = sum(1 for i in cx.diffs if i + 1 in cx.diffs)
        calls = []
        mul = SparseMatrix.__mul__

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(SparseMatrix, "__mul__", counted)
        homology_signature(d, ZZ)
        assert pairs > 0
        assert len(calls) == pairs

    def test_kunneth_rank_convolution(self):
        # disjoint union of a singular and an ordinary diagram: rational
        # ranks convolve degreewise
        d = load("d1")
        u = load("trefoil_pos")
        du = d.disjoint_union(u)
        hs = homology_signature(du, QQ).ungraded()
        ha = homology_signature(d, QQ).ungraded()
        hb = homology_signature(u, QQ).ungraded()
        out = {}
        for ka in ha.keys():
            for kb in hb.keys():
                out[ka + kb] = (out.get(ka + kb, 0)
                                + ha.free_rank(ka) * hb.free_rank(kb))
        assert {k[0]: f for k, f, _ in hs.groups} == out


class TestRandomizedCrossChecks:
    def test_random_braid_closures(self):
        # both polynomial pipelines, mirror duality, and Lee dimensions on
        # diagrams outside the curated corpus
        import random
        from khsing.diagram import from_braid
        rng = random.Random(4242)
        for _ in range(12):
            n_strands = rng.choice((2, 3))
            word = [(rng.randrange(n_strands - 1), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 5))]
            d = from_braid(word, n_strands)
            assert jones_polynomial(d) == kauffman_bracket_oracle(d), word
            s = homology_signature(d, QQ)
            m = homology_signature(d.mirror(), QQ)
            assert tuple(sorted(((-i, -j), f, ())
                                for (i, j), f, _ in m.groups)) == s.groups
            lee = homology_signature(d, QQ, 0, 1)
            assert lee.total_dimension() == 2 ** d.n_components, word

    def test_random_singular_closures(self):
        import random
        from util import les_cone_check
        from khsing.diagram import from_braid
        from khsing.frobenius import FrobeniusAlgebra
        from khsing.genusone import (genus_one_map, singular_complex,
                                     singular_complex_iterated)
        rng = random.Random(77)
        for _ in range(6):
            n_strands = rng.choice((2, 3))
            length = rng.randint(2, 4)
            word = [(rng.randrange(n_strands - 1), rng.choice((1, -1)))
                    for _ in range(length)]
            word[rng.randrange(length)] = (rng.randrange(n_strands - 1), 0)
            d = from_braid(word, n_strands)
            F = FrobeniusAlgebra(QQ, 0, 0)
            S = singular_complex(d, F)
            hi = singular_complex_iterated(d, F).homology(graded=False)
            assert S.homology(graded=False).groups == hi.groups, word
            b = d.singular_indices[0]
            g = genus_one_map(d.resolve_double_point(b, -1), b, F)
            assert g.is_chain_map().ok
            assert les_cone_check(g.map), word
