"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  All tolerances are exact (integer/rational arithmetic); the only
numeric bounds are the stated runtime ceilings.
"""

import json
import random
import time
from contextlib import contextmanager

from khsing.chain import (ChainMap, Homotopy, cone, cone_cocone_homotopy,
                          cone_factor, cone_functorial_map,
                          cone_hfunc_homotopy, homology_functor_ranks,
                          is_chain_map)
from khsing.cli import corpus_dir
from khsing.diagram import parse
from khsing.exactlinalg import QQ, Ring, SparseMatrix, ZZ
from khsing.frobenius import FrobeniusAlgebra
from khsing.genusone import (genus_one_map, singular_complex,
                             singular_complex_iterated,
                             skein_triangle_report)
from khsing.invariants import (LaurentPoly, homology_signature,
                               jones_polynomial, kauffman_bracket_oracle)

from test_chain import defect, make_square, make_three_columns
from util import (commutator_perturbation, compose_family, homotopy_sum,
                  identity_map, random_complex, random_family,
                  summary_via_dense_oracle)

F2 = Ring.prime_field(2)
HT_POINTS = ((0, 0), (1, 0), (0, 1))


def load(name):
    return parse((corpus_dir() / f"{name}.json").read_text())


def corpus_names():
    return sorted(p.stem for p in corpus_dir().glob("*.json")
                  if p.name != "groups.json")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_section_five_five_reproduction():
    expected = {
        "d1": {-3: 2, 0: 2},
        "d2": {-1: 2, 2: 2},
        "d3": {-4: 2, -1: 4, 2: 2},
    }
    with criterion(1, "singular Hopf family homology reproduced at all "
                      "three (h, t) points, with integral torsion matching "
                      "the dense oracle"):
        for name, dims in expected.items():
            d = load(name)
            start = time.perf_counter()
            for h, t in HT_POINTS:
                s = homology_signature(d, QQ, h, t).ungraded()
                assert {k: f for (k,), f, _ in s.groups} == dims, (name, h, t)
            # over Z at (0, 0): same ranks, torsion checked against the
            # independent dense Smith oracle on the same complex
            S = singular_complex(d, FrobeniusAlgebra(ZZ, 0, 0))
            sz = S.homology(graded=False)
            assert {k[0]: f for k, f, _ in sz.groups} == dims
            oracle = summary_via_dense_oracle(S.complex)
            got = {k[0]: (f, tor) for k, f, tor in sz.groups}
            assert got == oracle, name
            graded = S.homology()
            assert graded.ungraded().groups == sz.groups
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, (name, elapsed)


def test_criterion_2_fi_relation():
    fi_names = [n for n in corpus_names() if n.startswith("fi_")]
    assert len(fi_names) >= 3
    with criterion(2, "every bundled FI configuration has identically "
                      "vanishing homology over Z, Q, and F2 at the three "
                      "(h, t) points"):
        for name in fi_names:
            d = load(name)
            start = time.perf_counter()
            for ring in (ZZ, QQ, F2):
                for h, t in HT_POINTS:
                    s = homology_signature(d, ring, h, t)
                    assert s.groups == (), (name, str(ring), h, t)
            assert time.perf_counter() - start < 1.0, name


def test_criterion_3_chain_map_and_bidegree():
    with criterion(3, "the crossing-change map is an exact chain map on "
                      "every corpus diagram with a negative crossing and "
                      "preserves (i, j) at (0, 0)"):
        checked = 0
        for name in corpus_names():
            d = load(name)
            negatives = [i for i in d.ordinary_indices
                         if d.crossing_sign(i) < 0]
            for c in negatives:
                for F in (FrobeniusAlgebra(ZZ, 0, 0),
                          FrobeniusAlgebra(QQ, 0, 1),
                          FrobeniusAlgebra(F2, 1, 0)):
                    g = genus_one_map(d, c, F)
                    chk = g.is_chain_map()
                    assert chk.ok, (name, c, str(F.ring))
                    if F.graded:
                        qs, qt = g.source.complex.q, g.target.complex.q
                        for i, mtx in g.map.components.items():
                            for (r, col) in mtx.data:
                                assert qt[i][r] == qs[i][col], (name, c)
                checked += 1
        assert checked >= 10


def test_criterion_4_vassiliev_skein():
    triples = [("d1", "d2", "d3"),
               ("tref_sing_minus", "tref_sing_plus", "tref_sing")]
    with criterion(4, "long-exact-sequence rank identity and graded Euler "
                      "characteristic identity hold for the Hopf and "
                      "trefoil singular triples"):
        for minus, plus, sing in triples:
            rep = skein_triangle_report(load(minus), load(plus), load(sing),
                                        FrobeniusAlgebra(QQ, 0, 0))
            assert rep.les_ok, (sing, rep.les_rows)
            assert rep.chi_ok is True, sing
            # the chi identity restated through the polynomial layer
            d_sing = load(sing)
            if d_sing.n_singular == 1:
                from khsing.invariants import jones_by_skein
                assert jones_by_skein(d_sing) == \
                    (jones_polynomial(load(plus))
                     - jones_polynomial(load(minus)))


def test_criterion_5_invariance_suite():
    spec = json.loads((corpus_dir() / "groups.json").read_text())
    rings = [(ring, h, t) for ring in (ZZ, QQ, F2) for h, t in HT_POINTS]
    move_cover = {"ms1", "ms2", "ms3"}
    reidemeister_cover = {"unknot", "unlink2", "trefoil_pos", "r3_link"}
    with criterion(5, "homology signatures agree within every isotopy "
                      "group (all three singular moves and R1-R3 covered) "
                      "in under 30 s"):
        start = time.perf_counter()
        pairs = 0
        names = set()
        for group in spec["groups"]:
            names.add(group["name"])
            diagrams = [load(n) for n in group["files"]]
            for d in diagrams:
                assert d.n_crossings - d.n_singular <= 10
                assert d.n_singular <= 2
            for ring, h, t in rings:
                sigs = [homology_signature(d, ring, h, t) for d in diagrams]
                for other in sigs[1:]:
                    assert other.groups == sigs[0].groups, \
                        (group["name"], str(ring), h, t)
            pairs += len(diagrams) - 1
        elapsed = time.perf_counter() - start
        assert pairs >= 8, pairs
        assert move_cover <= names and reidemeister_cover <= names
        assert elapsed < 30.0, elapsed


def test_criterion_6_jones_oracle():
    with criterion(6, "graded Euler characteristic equals the state-sum "
                      "oracle on every ordinary corpus diagram; the unknot "
                      "gives q + 1/q"):
        assert jones_polynomial(load("unknot")) == LaurentPoly({1: 1, -1: 1})
        count = 0
        for name in corpus_names():
            d = load(name)
            if d.n_singular or d.n_crossings > 8:
                continue
            assert jones_polynomial(d) == kauffman_bracket_oracle(d), name
            count += 1
        assert count >= 15


def test_criterion_7_duality():
    with criterion(7, "mirror duality of graded ranks over Q on all "
                      "ordinary corpus diagrams, and rank-naturality of the "
                      "induced crossing-change map on a mirror pair"):
        for name in corpus_names():
            d = load(name)
            if d.n_singular:
                continue
            s = homology_signature(d, QQ)
            m = homology_signature(d.mirror(), QQ)
            flipped = tuple(sorted(((-i, -j), free, ())
                                   for (i, j), free, _ in m.groups))
            assert flipped == s.groups, name
        # Prop Mir on the trefoil pair
        F = FrobeniusAlgebra(QQ, 0, 0)
        d_minus = load("trefoil_neg")
        g = genus_one_map(d_minus, 0, F)
        mirror_minus = d_minus.crossing_change(0).mirror()
        g_mir = genus_one_map(mirror_minus, 0, F)
        direct = {k: v[2] for k, v in
                  homology_functor_ranks(g.map, graded=True).items() if v[2]}
        mirrored = {(-i, -j): v[2] for (i, j), v in
                    homology_functor_ranks(g_mir.map, graded=True).items()
                    if v[2]}
        assert direct == mirrored


def test_criterion_8_homotopy_combinators():
    rng = random.Random(2026)
    instances = 0
    with criterion(8, "exact matrix identities of the four cone "
                      "combinators on 208 random instances (total rank "
                      "<= 30); cone(identity) is always acyclic"):
        for k in range(52):
            ring = ZZ if k % 2 else QQ
            # induced map on cones (blocks [[v, -F], [0, u]])
            f, f_prime, u, v, F = make_square(rng, ring)
            assert max(f.source.total_rank(), f.target.total_rank()) <= 30
            out = cone_functorial_map(f, f_prime, u, v, F)
            for i in out.source.degrees():
                want = SparseMatrix.block(
                    [[v.component(i), -F.component(i + 1)],
                     [None, u.component(i + 1)]],
                    [f.target.rank(i), f.source.rank(i + 1)],
                    [f_prime.target.rank(i), f_prime.source.rank(i + 1)],
                    ring)
                assert out.component(i) == want
            # a fresh map: ``out`` keeps the verdict its legs and square gave
            assert is_chain_map(ChainMap(out.source, out.target,
                                         out.components)).ok
            instances += 1

            # factorization through the cone (components (g, -H))
            X = random_complex(rng, ring, span=3)
            Y = random_complex(rng, ring, span=3)
            Z = random_complex(rng, ring, span=3)
            K = random_family(rng, X, Y, -1, 0.4)
            f2 = ChainMap(X, Y, defect(K, +1))
            g2 = ChainMap(Y, Z, defect(random_family(rng, Y, Z, -1, 0.4), +1))
            H = homotopy_sum(
                Homotopy(X, Z, {i: -m for i, m in
                                compose_family(g2, K).components.items()}),
                commutator_perturbation(rng, X, Z, -1))
            ghat = cone_factor(f2, g2, H)
            for i in ghat.source.degrees():
                want = SparseMatrix.block(
                    [[g2.component(i), -H.component(i + 1)]],
                    [Z.rank(i)], [Y.rank(i), X.rank(i + 1)], ring)
                assert ghat.component(i) == want
            assert is_chain_map(ghat).ok
            instances += 1

            # homotopy between induced maps (components (G, -Psi))
            (A, AB, BC, C, fa, ga, ha, ua, va, wa, xa, Fa, Ga, Ha, Psi, Xi,
             Gamma) = make_three_columns(rng, ring)
            assert max(A.total_rank(), AB.total_rank(), BC.total_rank(),
                       C.total_rank()) <= 30
            Ghat = cone_hfunc_homotopy(fa, ga, fa, ga, ua, va, wa, Fa, Ga,
                                       Psi)
            for i in Ghat.source.degrees():
                want = SparseMatrix.block(
                    [[Ga.component(i), -Psi.component(i + 1)]],
                    [BC.rank(i - 1)], [AB.rank(i), A.rank(i + 1)], ring)
                assert Ghat.component(i) == want
            instances += 1

            # 2x2 block homotopy between cone-to-cone maps
            Gstar = cone_cocone_homotopy(fa, ga, ha, fa, ga, ha, ua, va, wa,
                                         xa, Fa, Ga, Ha, Psi, Xi, Gamma)
            for i in Gstar.source.degrees():
                want = SparseMatrix.block(
                    [[-Xi.component(i), Gamma.component(i + 1)],
                     [Ga.component(i), -Psi.component(i + 1)]],
                    [C.rank(i - 2), BC.rank(i - 1)],
                    [AB.rank(i), A.rank(i + 1)], ring)
                assert Gstar.component(i) == want
            instances += 1

            if k % 4 == 0:
                cx = random_complex(rng, ring, torsion=(ring is ZZ))
                assert cone(identity_map(cx)).homology(
                    graded=False).groups == ()
        assert instances >= 200, instances


def test_criterion_9_bookkeeping_consistency():
    with criterion(9, "iterated-cone and flattened constructions give "
                      "identical homology on a two-double-point diagram"):
        d = load("d3")
        for ring, h, t in ((ZZ, 0, 0), (QQ, 1, 0), (F2, 0, 1)):
            F = FrobeniusAlgebra(ring, h, t)
            flat = singular_complex(d, F)
            iterated = singular_complex_iterated(d, F)
            assert flat.homology(graded=False).groups == \
                iterated.homology(graded=False).groups, (str(ring), h, t)
            if F.graded:
                assert flat.homology().groups == iterated.homology().groups
