import random

import pytest

from khsing.chain import (ChainMap, Homotopy, cone,
                          cone_cocone_homotopy, cone_factor,
                          cone_functorial_map, cone_hfunc_homotopy,
                          cone_inclusion, cone_projection,
                          homology_functor_ranks, is_chain_map,
                          les_cone_check)
from khsing.diagram import parse
from khsing.errors import ContractViolation
from khsing.exactlinalg import QQ, SparseMatrix, ZZ
from khsing.frobenius import FrobeniusAlgebra
from khsing.khcube import build_cube

from util import (anticommutator_perturbation, commutator_perturbation,
                  compose_family, direct_sum,
                  family_after_map, family_anticommutator, family_commutator,
                  homotopy_sum, identity_map, map_sum, null_homotopic_map,
                  random_complex, random_family, scale_map)

HOPF_PD = [[1, 3, 2, 4], [3, 1, 4, 2]]
TREFOIL_PD = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]


def defect(H, sign):
    X, Y = H.source, H.target
    out = {}
    for i in set(X.degrees()) | set(H.components):
        m = Y.diff(i + H.degree) * H.component(i)
        n = H.component(i + 1) * X.diff(i)
        out[i] = m + n if sign > 0 else m - n
    return out


class TestShift:
    def test_zero_is_identity(self):
        rng = random.Random(0)
        cx = random_complex(rng, ZZ)
        s = cx.shift(0)
        assert s.ranks == cx.ranks
        assert {i: m.data for i, m in s.diffs.items()} == \
            {i: m.data for i, m in cx.diffs.items()}

    def test_twice_one_equals_two(self):
        rng = random.Random(1)
        cx = random_complex(rng, ZZ)
        a = cx.shift(1).shift(1)
        b = cx.shift(2)
        assert a.ranks == b.ranks
        assert {i: m.data for i, m in a.diffs.items()} == \
            {i: m.data for i, m in b.diffs.items()}

    def test_odd_shift_negates(self):
        rng = random.Random(2)
        cx = random_complex(rng, ZZ)
        s = cx.shift(-1)
        for i, m in cx.diffs.items():
            assert s.diff(i - 1) == -m

    def test_normalization_shift_on_cube(self):
        # Kh = bracket[-n_minus], realized through the shift operator
        F = FrobeniusAlgebra(ZZ, 0, 0)
        d = parse({"pd": TREFOIL_PD})
        bracket = build_cube(d, F, normalize=False).complex
        normalized = build_cube(d, F).complex
        shifted = bracket.shift(-d.n_minus)
        assert shifted.ranks == normalized.ranks
        assert {i: m.data for i, m in shifted.diffs.items()} == \
            {i: m.data for i, m in normalized.diffs.items()}


class TestIsChainMap:
    def test_identity(self):
        rng = random.Random(3)
        cx = random_complex(rng, ZZ)
        assert is_chain_map(identity_map(cx)).ok

    def test_differential_into_shift(self):
        # d: C -> C[1] satisfies the shifted chain condition (d^2 = 0)
        rng = random.Random(4)
        cx = random_complex(rng, ZZ)
        comps = {i: cx.diff(i) for i in cx.degrees()}
        f = ChainMap(cx, cx, comps, shift=-1)
        assert is_chain_map(f).ok

    def test_random_failure_certificate(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cube = build_cube(parse({"pd": TREFOIL_PD}), F).complex
        rng = random.Random(5)
        bad = random_family(rng, cube, cube, 0, density=0.7)
        f = ChainMap(cube, cube, bad.components)
        chk = is_chain_map(f)
        assert not chk.ok
        assert chk.residual is not None and not chk.residual.is_zero()
        i = chk.degree
        lhs = cube.diff(i) * f.component(i)
        rhs = f.component(i + 1) * cube.diff(i)
        assert chk.residual == lhs - rhs


class TestCone:
    def test_cone_of_identity_contractible(self):
        rng = random.Random(6)
        for ring in (ZZ, QQ):
            for _ in range(10):
                cx = random_complex(rng, ring, torsion=(ring is ZZ))
                h = cone(identity_map(cx)).homology(graded=False)
                assert h.groups == ()

    def test_cone_of_zero_map(self):
        rng = random.Random(7)
        X = random_complex(rng, ZZ)
        Y = random_complex(rng, ZZ)
        z = ChainMap(X, Y, {})
        C = cone(z)
        for i in C.degrees():
            assert C.rank(i) == Y.rank(i) + X.rank(i + 1)
        hx = X.shift(-1).homology(graded=False)
        hy = Y.homology(graded=False)
        hc = C.homology(graded=False)
        for i in set(hx.keys()) | set(hy.keys()):
            fx, tx = hx.group(i)
            fy, ty = hy.group(i)
            assert hc.group(i) == (fx + fy, tuple(sorted(tx + ty)))

    def test_non_chain_map_rejected(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cube = build_cube(parse({"pd": HOPF_PD}), F).complex
        rng = random.Random(8)
        bad = ChainMap(cube, cube,
                       random_family(rng, cube, cube, 0, 0.8).components)
        with pytest.raises(ContractViolation):
            cone(bad)

    def test_canonical_triangle_maps(self):
        rng = random.Random(9)
        for _ in range(10):
            X = random_complex(rng, ZZ)
            Y = random_complex(rng, ZZ)
            f = null_homotopic_map(rng, X, Y)
            assert is_chain_map(cone_inclusion(f)).ok
            assert is_chain_map(cone_projection(f)).ok

    def test_long_exact_sequence(self):
        rng = random.Random(10)
        count = 0
        while count < 30:
            X = random_complex(rng, QQ, span=3)
            Y = random_complex(rng, QQ, span=3)
            if X.total_rank() == 0 or Y.total_rank() == 0:
                continue
            f = null_homotopic_map(rng, X, Y)
            assert les_cone_check(f)
            count += 1


class TestHomology:
    def test_unknot_complex(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        h = build_cube(parse({"pd": [], "free_loops": 1}), F).homology()
        assert h.groups == (((0, -1), 1, ()), ((0, 1), 1, ()))

    def test_ring_override(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cx = build_cube(parse({"pd": TREFOIL_PD}), F).complex
        from khsing.exactlinalg import Ring
        h2 = cx.homology(ring=Ring.prime_field(2), graded=False)
        # universal coefficients: the Z/2 class thickens the F2 dimensions
        assert h2.total_dimension() == 6


def make_square(rng, ring):
    """Random homotopy-commutative square with hypotheses by construction."""
    X = random_complex(rng, ring, span=3)
    Y = random_complex(rng, ring, span=3)
    lam = rng.choice((-1, 1, 2))
    f_prime = null_homotopic_map(rng, X, Y)
    K2 = random_family(rng, X, Y, -1, 0.4)
    f = map_sum(f_prime, ChainMap(X, Y, defect(K2, +1)))
    M = random_family(rng, X, X, -1, 0.4)
    N = random_family(rng, Y, Y, -1, 0.4)
    u = map_sum(scale_map(X, lam), ChainMap(X, X, defect(M, +1)))
    v = map_sum(scale_map(Y, lam), ChainMap(Y, Y, defect(N, +1)))
    # dF + Fd = fu - vf' with F = lam*K2 + fM - Nf' + commutator noise
    F = homotopy_sum(
        Homotopy(X, Y, {i: m.scale(lam) for i, m in K2.components.items()}),
        compose_family(f, M),
        Homotopy(X, Y, {i: -m for i, m in
                        family_after_map(N, f_prime).components.items()}),
        commutator_perturbation(rng, X, Y, -1))
    return f, f_prime, u, v, F


class TestConeFunctorialMap:
    def test_identity_square(self):
        rng = random.Random(11)
        X = random_complex(rng, ZZ)
        Y = random_complex(rng, ZZ)
        f = null_homotopic_map(rng, X, Y)
        out = cone_functorial_map(f, f, identity_map(X), identity_map(Y))
        C = cone(f)
        for i in C.degrees():
            assert out.component(i) == SparseMatrix.identity(C.rank(i), ZZ)

    def test_zero_maps_block_diagonal(self):
        rng = random.Random(12)
        X = random_complex(rng, ZZ)
        Y = random_complex(rng, ZZ)
        z = ChainMap(X, Y, {})
        u = null_homotopic_map(rng, X, X)
        v = null_homotopic_map(rng, Y, Y)
        out = cone_functorial_map(z, z, u, v)
        for i in out.source.degrees():
            blk = out.component(i)
            for (r, c) in blk.data:
                assert (r < Y.rank(i)) == (c < Y.rank(i))

    def test_random_instances(self):
        rng = random.Random(13)
        for k in range(60):
            ring = ZZ if k % 2 else QQ
            f, f_prime, u, v, F = make_square(rng, ring)
            out = cone_functorial_map(f, f_prime, u, v, F)
            assert is_chain_map(out).ok
            # exact matrix identity: blocks are [[v, -F], [0, u]]
            for i in out.source.degrees():
                blk = out.component(i)
                want = SparseMatrix.block(
                    [[v.component(i), -F.component(i + 1)],
                     [None, u.component(i + 1)]],
                    [f.target.rank(i), f.source.rank(i + 1)],
                    [f_prime.target.rank(i), f_prime.source.rank(i + 1)],
                    ring)
                assert blk == want

    def test_bad_homotopy_rejected(self):
        rng = random.Random(14)
        f, f_prime, u, v, F = make_square(rng, ZZ)
        noise = random_family(rng, f_prime.source, f.target, -1, 0.8)
        if all(m.is_zero() for m in noise.components.values()):
            return
        bad = homotopy_sum(F, noise)
        with pytest.raises(ContractViolation):
            cone_functorial_map(f, f_prime, u, v, bad)

    def test_homotopy_equivalence_legs_preserve_homology(self):
        # with invertible legs the induced map is a homology isomorphism
        rng = random.Random(15)
        hits = 0
        while hits < 12:
            X = random_complex(rng, QQ, span=3)
            Y = random_complex(rng, QQ, span=3)
            if X.total_rank() == 0 or Y.total_rank() == 0:
                continue
            f, f_prime, u, v, F = make_square(rng, QQ)
            if not (abs(u.component(u.source.degrees()[0]).entry(0, 0) or 1)):
                continue
            lam_unit = True
            out = cone_functorial_map(f, f_prime, u, v, F)
            data = homology_functor_ranks(out)
            for i, (hx, hy, r) in data.items():
                if hx != hy or r != hx:
                    lam_unit = False
            assert lam_unit
            hits += 1


def make_three_columns(rng, ring, with_noise=True):
    """A -> A+B -> B+C -> C ladder with strict zero composites plus homotopy
    data whose hypotheses hold by construction.

    The vertical legs are lambda * id deformed by null homotopies; F, G, H
    are the square homotopies, Psi, Xi, Gamma the higher coherences.  With
    ``with_noise`` off, Psi and Xi are the bare coherences and Gamma = 0
    satisfies its relation strictly (the configuration used to glue the two
    halves of a slide move).
    """
    A = random_complex(rng, ring, span=3, max_rank=2)
    B = random_complex(rng, ring, span=3, max_rank=2)
    C = random_complex(rng, ring, span=3, max_rank=2)
    AB, inc_a, inc_b, pr_a, pr_b = direct_sum(A, B)
    BC, inc_b2, inc_c, pr_b2, pr_c = direct_sum(B, C)
    f = inc_a                       # A -> A+B
    g = inc_b2.compose(pr_b)        # A+B -> B+C (through B)
    h = pr_c                        # B+C -> C
    lam = rng.choice((1, -1, 2))
    M1 = random_family(rng, A, A, -1, 0.35)
    M2 = random_family(rng, AB, AB, -1, 0.35)
    M3 = random_family(rng, BC, BC, -1, 0.35)
    M4 = random_family(rng, C, C, -1, 0.35)
    u = map_sum(scale_map(A, lam), ChainMap(A, A, defect(M1, +1)))
    v = map_sum(scale_map(AB, lam), ChainMap(AB, AB, defect(M2, +1)))
    w = map_sum(scale_map(BC, lam), ChainMap(BC, BC, defect(M3, +1)))
    x = map_sum(scale_map(C, lam), ChainMap(C, C, defect(M4, +1)))
    # commutator noise enters F, G, H through degree -2 generators, whose
    # composites then build the higher coherences exactly
    R1g = random_family(rng, A, AB, -2, 0.4)
    R2g = random_family(rng, AB, BC, -2, 0.4)
    R3g = random_family(rng, BC, C, -2, 0.4)
    F = homotopy_sum(compose_family(f, M1),
                     Homotopy(A, AB, {i: -m for i, m in
                                      family_after_map(M2, f).components.items()}),
                     family_commutator(R1g))
    G = homotopy_sum(compose_family(g, M2),
                     Homotopy(AB, BC, {i: -m for i, m in
                                       family_after_map(M3, g).components.items()}),
                     family_commutator(R2g))
    H = homotopy_sum(compose_family(h, M3),
                     Homotopy(BC, C, {i: -m for i, m in
                                      family_after_map(M4, h).components.items()}),
                     family_commutator(R3g))
    # bare coherences: Psi0 = g R1g + R2g f and Xi0 = h R2g + R3g g satisfy
    # the commutator relations, and h Psi0 - Xi0 f = 0 strictly
    Psi = homotopy_sum(compose_family(g, R1g), family_after_map(R2g, f))
    Xi = homotopy_sum(compose_family(h, R2g), family_after_map(R3g, g))
    Gamma = Homotopy.zero(A, C, degree=-3)
    if with_noise:
        S1g = random_family(rng, A, BC, -3, 0.4)
        S2g = random_family(rng, AB, C, -3, 0.4)
        Psi = homotopy_sum(Psi, family_anticommutator(S1g))
        Xi = homotopy_sum(Xi, family_anticommutator(S2g))
        # d Gamma + Gamma d = h (dS1g + S1g d) - (dS2g + S2g d) f
        Gamma = homotopy_sum(
            compose_family(h, S1g),
            Homotopy(A, C, {i: -m for i, m in
                            family_after_map(S2g, f).components.items()},
                     degree=-3),
            commutator_perturbation(rng, A, C, -3))
    return A, AB, BC, C, f, g, h, u, v, w, x, F, G, H, Psi, Xi, Gamma


class TestConeFactor:
    def test_strict_vanishing_case(self):
        rng = random.Random(16)
        (A, AB, BC, C, f, g, h, *_rest) = make_three_columns(rng, ZZ)
        ghat = cone_factor(f, g)
        assert is_chain_map(ghat).ok
        # restricts to g along Y -> Cone(f)
        inc = cone_inclusion(f)
        comp = ghat.compose(inc)
        for i in AB.degrees():
            assert comp.component(i) == g.component(i)

    def test_zero_map(self):
        rng = random.Random(17)
        X = random_complex(rng, ZZ)
        Y = random_complex(rng, ZZ)
        f = null_homotopic_map(rng, X, Y)
        Z = random_complex(rng, ZZ)
        zero = ChainMap(Y, Z, {})
        out = cone_factor(f, zero)
        assert out.is_zero()

    def test_null_homotopy_case(self):
        # gf null-homotopic but not zero: ghat = (g, -H)
        rng = random.Random(18)
        done = 0
        while done < 20:
            X = random_complex(rng, ZZ, span=3)
            Y = random_complex(rng, ZZ, span=3)
            Z = random_complex(rng, ZZ, span=3)
            f = null_homotopic_map(rng, X, Y)
            g = null_homotopic_map(rng, Y, Z)
            # gf = d(g K) + (g K) d for f = dK + Kd, so H = -g K works
            K = random_family(rng, X, Y, -1, 0.4)
            f = ChainMap(X, Y, defect(K, +1))
            H = homotopy_sum(
                Homotopy(X, Z, {i: -m for i, m in
                                compose_family(g, K).components.items()}),
                commutator_perturbation(rng, X, Z, -1))
            ghat = cone_factor(f, g, H)
            assert is_chain_map(ghat).ok
            for i in ghat.source.degrees():
                want = SparseMatrix.block(
                    [[g.component(i), -H.component(i + 1)]],
                    [Z.rank(i)], [Y.rank(i), X.rank(i + 1)], ZZ)
                assert ghat.component(i) == want
            done += 1

    def test_bad_homotopy_rejected(self):
        rng = random.Random(19)
        (A, AB, BC, C, f, g, *_rest) = make_three_columns(rng, ZZ)
        noise = random_family(rng, A, BC, -1, 0.9)
        if all(m.is_zero() for m in noise.components.values()):
            return
        with pytest.raises(ContractViolation):
            cone_factor(f, g, noise)


class TestConeHfunc:
    def test_all_zero(self):
        rng = random.Random(20)
        (A, AB, BC, C, f, g, h, u, v, w, x, F, G, H, Psi, Xi,
         Gamma) = make_three_columns(rng, ZZ)
        zF = Homotopy.zero(A, AB)
        zG = Homotopy.zero(AB, BC)
        zPsi = Homotopy.zero(A, BC, degree=-2)
        out = cone_hfunc_homotopy(f, g, f, g, identity_map(A),
                                  identity_map(AB), identity_map(BC),
                                  zF, zG, zPsi)
        assert all(m.is_zero() for m in out.components.values())

    def test_random_instances(self):
        rng = random.Random(21)
        for k in range(60):
            ring = ZZ if k % 2 else QQ
            (A, AB, BC, C, f, g, h, u, v, w, x, F, G, H, Psi, Xi,
             Gamma) = make_three_columns(rng, ring)
            out = cone_hfunc_homotopy(f, g, f, g, u, v, w, F, G, Psi)
            # exact matrix identity: components are (G, -Psi)
            for i in out.source.degrees():
                want = SparseMatrix.block(
                    [[G.component(i), -Psi.component(i + 1)]],
                    [BC.rank(i - 1)], [AB.rank(i), A.rank(i + 1)], ring)
                assert out.component(i) == want

    def test_cycle_commuting_family(self):
        # F = G = 0 forces d Psi = Psi d; anticommutators dS + Sd qualify
        rng = random.Random(22)
        for _ in range(15):
            (A, AB, BC, C, f, g, h, *_rest) = make_three_columns(rng, ZZ)
            Psi = anticommutator_perturbation(rng, A, BC, -2)
            out = cone_hfunc_homotopy(
                f, g, f, g, identity_map(A), identity_map(AB),
                identity_map(BC), Homotopy.zero(A, AB),
                Homotopy.zero(AB, BC), Psi)
            for i in out.source.degrees():
                assert out.component(i) == SparseMatrix.block(
                    [[None, -Psi.component(i + 1)]],
                    [BC.rank(i - 1)], [AB.rank(i), A.rank(i + 1)], ZZ)

    def test_hypothesis_violation_rejected(self):
        rng = random.Random(23)
        (A, AB, BC, C, f, g, h, u, v, w, x, F, G, H, Psi, Xi,
         Gamma) = make_three_columns(rng, ZZ)
        noise = random_family(rng, A, BC, -2, 0.9)
        if all(m.is_zero() for m in noise.components.values()):
            return
        with pytest.raises(ContractViolation):
            cone_hfunc_homotopy(f, g, f, g, u, v, w, F, G,
                                homotopy_sum(Psi, noise))


class TestConeCocone:
    def test_all_zero(self):
        rng = random.Random(24)
        (A, AB, BC, C, f, g, h, *_rest) = make_three_columns(rng, ZZ)
        out = cone_cocone_homotopy(
            f, g, h, f, g, h, identity_map(A), identity_map(AB),
            identity_map(BC), identity_map(C),
            Homotopy.zero(A, AB), Homotopy.zero(AB, BC),
            Homotopy.zero(BC, C), Homotopy.zero(A, BC, degree=-2),
            Homotopy.zero(AB, C, degree=-2), Homotopy.zero(A, C, degree=-3))
        assert all(m.is_zero() for m in out.components.values())

    def test_gamma_zero_configuration(self):
        # nonzero Psi, Xi satisfying their relations with Gamma = 0: the
        # configuration the slide-move gluing uses
        rng = random.Random(25)
        seen_nonzero = 0
        for _ in range(20):
            (A, AB, BC, C, f, g, h, u, v, w, x, F, G, H, Psi, Xi,
             Gamma) = make_three_columns(rng, ZZ, with_noise=False)
            assert all(m.is_zero() for m in Gamma.components.values())
            out = cone_cocone_homotopy(f, g, h, f, g, h, u, v, w, x,
                                       F, G, H, Psi, Xi, Gamma)
            if any(not m.is_zero() for m in Psi.components.values()):
                seen_nonzero += 1
        assert seen_nonzero >= 5

    def test_random_instances(self):
        rng = random.Random(26)
        for k in range(60):
            ring = ZZ if k % 2 else QQ
            (A, AB, BC, C, f, g, h, u, v, w, x, F, G, H, Psi, Xi,
             Gamma) = make_three_columns(rng, ring)
            out = cone_cocone_homotopy(f, g, h, f, g, h, u, v, w, x,
                                       F, G, H, Psi, Xi, Gamma)
            # exact 2x2 block identity
            for i in out.source.degrees():
                want = SparseMatrix.block(
                    [[-Xi.component(i), Gamma.component(i + 1)],
                     [G.component(i), -Psi.component(i + 1)]],
                    [C.rank(i - 2), BC.rank(i - 1)],
                    [AB.rank(i), A.rank(i + 1)], ring)
                assert out.component(i) == want

    def test_hypothesis_violation_named(self):
        rng = random.Random(27)
        (A, AB, BC, C, f, g, h, u, v, w, x, F, G, H, Psi, Xi,
         Gamma) = make_three_columns(rng, ZZ)
        noise = random_family(rng, A, C, -3, 0.9)
        if all(m.is_zero() for m in noise.components.values()):
            return
        with pytest.raises(ContractViolation) as err:
            cone_cocone_homotopy(f, g, h, f, g, h, u, v, w, x, F, G, H,
                                 Psi, Xi, homotopy_sum(Gamma, noise))
        assert "Gamma" in str(err.value)



class TestTriangleComposite:
    def test_projection_after_inclusion_vanishes(self):
        rng = random.Random(30)
        for _ in range(10):
            X = random_complex(rng, ZZ)
            Y = random_complex(rng, ZZ)
            f = null_homotopic_map(rng, X, Y)
            assert cone_projection(f).compose(cone_inclusion(f)).is_zero()

    def test_les_on_a_crossing_change_cone(self):
        # a cone whose map induces a nonzero map on homology
        from khsing.diagram import parse
        from khsing.frobenius import FrobeniusAlgebra
        from khsing.genusone import genus_one_map
        from khsing.exactlinalg import QQ
        d = parse({"pd": [[3, 2, 4, 1], [1, 4, 2, 3]]})
        for h, t in ((0, 0), (0, 1)):
            g = genus_one_map(d, 0, FrobeniusAlgebra(QQ, h, t))
            data = homology_functor_ranks(g.map)
            assert any(r for (_hx, _hy, r) in data.values())
            assert les_cone_check(g.map)
