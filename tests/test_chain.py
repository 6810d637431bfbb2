import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from khsing.chain import (ChainComplex, ChainMap, Homotopy, _block_homology,
                          cone, cone_cocone_homotopy, cone_factor,
                          cone_functorial_map, cone_hfunc_homotopy,
                          cone_inclusion, cone_projection,
                          homology_functor_ranks, is_chain_map)
from khsing import chain, exactlinalg
from khsing.diagram import from_braid, parse
from khsing.errors import ContractViolation
from khsing.exactlinalg import HomologySummary, QQ, Ring, SparseMatrix, ZZ
from khsing.frobenius import FrobeniusAlgebra
from khsing.khcube import build_cube

from util import (_apply_ops, anticommutator_perturbation, bracket_cube,
                  les_cone_check, matrix_from_dense,
                  commutator_perturbation, compose_family, direct_sum,
                  family_after_map, family_anticommutator, family_commutator,
                  homotopy_sum, identity_map, map_sum, null_homotopic_map,
                  random_complex, random_family, random_unimodular_ops,
                  reference_reduced_blocks, scale_map)

HOPF_PD = [[1, 3, 2, 4], [3, 1, 4, 2]]
TREFOIL_PD = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]


def place_blocks(grid, row_sizes, col_sizes, ring):
    """The block matrix with blocks ``grid`` (None for zero), each entry
    placed at its block's row and column offsets."""
    data = {}
    for bi, row in enumerate(grid):
        for bj, m in enumerate(row):
            for (r, c), v in (m.data.items() if m is not None else ()):
                data.setdefault(sum(row_sizes[:bi]) + r, {})[
                    sum(col_sizes[:bj]) + c] = v
    return SparseMatrix(sum(row_sizes), sum(col_sizes), ring, data)


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
        bracket = bracket_cube(d, F).complex
        normalized = build_cube(d, F).complex
        shifted = bracket.shift(-d.n_minus)
        assert shifted.ranks == normalized.ranks
        assert {i: m.data for i, m in shifted.diffs.items()} == \
            {i: m.data for i, m in normalized.diffs.items()}


class TestConstruction:
    def test_nonzero_square_refused(self):
        one = SparseMatrix.identity(1, ZZ)
        with pytest.raises(ContractViolation, match="d\\^2 != 0 at degree 0"):
            ChainComplex(ZZ, {0: 1, 1: 1, 2: 1}, {0: one, 1: one})

    def test_differential_that_moves_q_refused(self):
        # the bidegree (1, 0) is checked where the complex is built
        one = SparseMatrix.identity(1, ZZ)
        with pytest.raises(ContractViolation,
                           match=r"entry \(0,0\) at degree 0 shifts q by 2"):
            ChainComplex(ZZ, {0: 1, 1: 1}, {0: one}, q={0: (1,), 1: (3,)})

    def test_q_missing_at_a_degree_refused(self):
        with pytest.raises(ContractViolation,
                           match="quantum degrees length mismatch at 1"):
            ChainComplex(ZZ, {0: 1, 1: 1}, {}, q={0: (1,)})


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

    def test_cone_of_a_map_that_shifts_q_is_ungraded(self):
        X = ChainComplex(QQ, {0: 2}, {}, q={0: (1, 3)})
        C = cone(ChainMap(X, X, {0: SparseMatrix(2, 2, QQ, {1: {0: 1}})}))
        assert C.q is None
        assert C.homology() == C.homology(graded=False)
        assert cone(identity_map(X)).q == {-1: (1, 3), 0: (1, 3)}

    def test_canonical_triangle_maps(self):
        rng = random.Random(9)
        for _ in range(10):
            X = random_complex(rng, ZZ)
            Y = random_complex(rng, ZZ)
            f = null_homotopic_map(rng, X, Y)
            assert is_chain_map(cone_inclusion(f)).ok
            assert is_chain_map(cone_projection(f)).ok

    def test_layout_pinned_by_matrices(self):
        # Cone(f)^i = Y^i (+) X^(i+1), Y first: each differential is
        # [[d_Y, f], [0, -d_X]], the inclusion [I; 0], the projection [0 I];
        # the blocks are placed entry by entry, not by SparseMatrix.block
        rng = random.Random(17)
        maps = [make_square(rng, ring)[0] for ring in (ZZ, QQ, ZZ, QQ)]
        for ring in (ZZ, QQ):
            X, Y = random_complex(rng, ring), random_complex(rng, ring)
            maps.append(null_homotopic_map(rng, X, Y))
        for f in maps:
            X, Y, C, ring = f.source, f.target, cone(f), f.source.ring
            inc, proj = cone_inclusion(f), cone_projection(f)
            degs = set(C.degrees())
            assert set(C.diffs) <= degs
            for i in range(min(degs) - 1, max(degs) + 1):
                cols, rows = [Y.rank(i), X.rank(i + 1)], [Y.rank(i + 1),
                                                          X.rank(i + 2)]
                assert C.diff(i) == place_blocks(
                    [[Y.diff(i), f.component(i + 1)],
                     [None, -X.diff(i + 1)]], rows, cols, ring)
                assert inc.component(i) == place_blocks(
                    [[SparseMatrix.identity(cols[0], ring)], [None]], cols,
                    cols[:1], ring)
                assert proj.component(i) == place_blocks(
                    [[None, SparseMatrix.identity(cols[1], ring)]], cols[1:],
                    cols, ring)

    def test_block_of_wrong_degree_refused(self):
        # a block of a map between cones must map its source summand into
        # its target summand at the degree its place asks for
        f, f_prime, u, v, F = make_square(random.Random(18), ZZ)
        Cp, C = chain._cone_summands(f_prime), chain._cone_summands(f)
        assert chain._block_map([[v, -F], [None, u]], Cp, C)
        with pytest.raises(ContractViolation,
                           match="block of shift 0 where 1 fits"):
            chain._block_map([[v, u], [None, -F]], Cp, C)

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
        h2 = cx.change_ring(Ring.prime_field(2)).homology(graded=False)
        # universal coefficients: the Z/2 class thickens the F2 dimensions
        assert h2.total_dimension() == 6

    def test_grading_refused_without_q(self):
        X = ChainComplex(QQ, {0: 1, 1: 1},
                         {0: SparseMatrix.identity(1, QQ)})
        with pytest.raises(ContractViolation,
                           match="complex carries no quantum grading"):
            X.homology(graded=True)
        with pytest.raises(ContractViolation,
                           match="complex carries no quantum grading"):
            homology_functor_ranks(identity_map(X), graded=True)

    @pytest.mark.parametrize("divisors", [(2, 3), (2, 4)])
    def test_ungraded_summary_is_the_ungraded_homology(self, divisors):
        # torsion in two q-blocks of one degree: Z/2 + Z/3 is Z/6, written
        # as one divisor chain either way
        d = SparseMatrix(2, 2, ZZ, {0: {0: divisors[0]}, 1: {1: divisors[1]}})
        cx = ChainComplex(ZZ, {0: 2, 1: 2}, {0: d}, q={0: (1, 3), 1: (1, 3)})
        assert cx.homology().ungraded() == cx.homology(graded=False)

    @pytest.mark.parametrize("target", [Ring.prime_field(2), ZZ, QQ], ids=str)
    def test_ring_change_out_of_fp_refused(self, target):
        # residues mod 3 do not lift to another ring
        cx = build_cube(from_braid([(0, 1)] * 3, 2),
                        FrobeniusAlgebra(Ring.prime_field(3), 0, 0)).complex
        with pytest.raises(ContractViolation, match=f"from F3 to {target}$"):
            cx.change_ring(target).homology()

    @pytest.mark.parametrize("ring", [ZZ, Ring.prime_field(2)], ids=str)
    def test_each_block_reduced_once(self, ring, monkeypatch):
        cx = build_cube(from_braid([(0, 1)] * 5, 2),
                        FrobeniusAlgebra(ring, 0, 0)).complex
        # the differentials preserve q, so an entry's block is (i, q of its
        # source generator)
        blocks = {(i, cx.q[i][c]) for i, m in cx.diffs.items()
                  for (_, c) in m.data}
        calls = []
        eliminate = exactlinalg._eliminate

        def counted(*args, **kwargs):
            calls.append(1)
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(exactlinalg, "_eliminate", counted)
        h = cx.homology(graded=True)
        assert len(calls) == len(blocks)
        if ring == ZZ:
            assert h.group((3, 9)) == (0, (2,))

    @pytest.mark.parametrize("ring", [ZZ, Ring.prime_field(2)], ids=str)
    def test_no_entry_coerced_again(self, ring, monkeypatch):
        # the q-blocks and products homology forms derive from checked
        # matrices, so no entry goes through Ring.coerce a second time (the
        # summary then checks its own ranks and divisors through ZZ.coerce)
        cube = build_cube(from_braid([(0, 1)] * 5, 2),
                          FrobeniusAlgebra(ring, 0, 0))
        calls = []
        coerce = Ring.coerce

        def counted(self, v):
            calls.append(v)
            return coerce(self, v)

        monkeypatch.setattr(Ring, "coerce", counted)
        cube.complex._reduced_blocks(True)
        assert len(calls) == 0

    @pytest.mark.parametrize("ring", [ZZ, QQ, Ring.prime_field(2)], ids=str)
    def test_no_block_cut_as_a_matrix(self, ring, monkeypatch):
        # each q-block is read from the rows of its differential through
        # the column map of its degree; no submatrix is built for it
        cx = build_cube(from_braid([(0, 1)] * 5, 2),
                        FrobeniusAlgebra(ring, 0, 0)).complex
        blocks, reduced, _ = reference_reduced_blocks(cx, True)
        want = HomologySummary.build(ring, {
            (i, j): _block_homology(blocks, reduced, i, j)
            for i, by_q in blocks.items() for j in by_q})

        def refused(*args):
            raise AssertionError("a q-block was cut by submatrix")

        monkeypatch.setattr(SparseMatrix, "submatrix", refused)
        assert cx.homology(graded=True) == want
        if ring == ZZ:
            assert want.group((3, 9)) == (0, (2,))


@st.composite
def elementary_sums(draw):
    """``(complex, pieces)``: a direct sum over Z of pieces ``(i, k, j)``,
    free Z in degree i when k is 0, else Z --k--> Z from degree i to i + 1,
    all in quantum degree j, with each (degree, q) block of generators
    conjugated by a random product of elementary row operations."""
    pieces = draw(st.lists(st.tuples(st.integers(-1, 2),
                                     st.sampled_from((0, 1, 2, 3, 6)),
                                     st.integers(-1, 1)),
                           min_size=1, max_size=12))
    rng = draw(st.randoms(use_true_random=False))
    qs, entries = {}, []
    for i, k, j in pieces:
        qs.setdefault(i, []).append(j)
        if k:
            qs.setdefault(i + 1, []).append(j)
            entries.append((i, len(qs[i + 1]) - 1, len(qs[i]) - 1, k))
    ops = {}
    for i, gens in qs.items():
        ops[i] = []
        for j in set(gens):
            ix = [g for g, q in enumerate(gens) if q == j]
            ops[i] += [(ix[a], ix[b], c) for a, b, c in random_unimodular_ops(
                rng, len(ix), rng.randint(0, 3 * len(ix)))]
    dense = {i: [[0] * len(qs[i]) for _ in qs[i + 1]]
             for i, _, _, _ in entries}
    for i, r, c, k in entries:
        dense[i][r][c] = k
    diffs = {}
    for i, rows in dense.items():
        # d' = T_(i+1) d inv(T_i), inv(T_i) by the inverse column operations
        rows = _apply_ops(rows, ops[i + 1])
        for a, b, c in ops[i]:
            for row in rows:
                row[b] -= c * row[a]
        diffs[i] = matrix_from_dense(rows, ZZ)
    cx = ChainComplex(ZZ, {i: len(g) for i, g in qs.items()}, diffs,
                      q={i: tuple(g) for i, g in qs.items()})
    return cx, pieces


def _primary(n: int) -> list:
    """The prime powers whose product is n."""
    out, d = [], 2
    while n > 1:
        e = 1
        while n % d == 0:
            n //= d
            e *= d
        if e > 1:
            out.append(e)
        d += 1
    return out


def _primary_groups(h) -> dict:
    return {k: (free, Counter(e for t in torsion for e in _primary(t)))
            for k, free, torsion in h.groups}


def _known_groups(pieces, ring: Ring, graded: bool) -> dict:
    """The homology of ``elementary_sums`` pieces over ``ring``, in the
    form of ``_primary_groups``: Z --k--> Z carries Z/k at its target over
    Z, nothing over Q, and one class at each end over F_p when p | k."""
    out = {}

    def add(i, j, free=0, torsion=()):
        g = out.setdefault((i, j) if graded else (i,), [0, Counter()])
        g[0] += free
        g[1].update(torsion)

    for i, k, j in pieces:
        if k == 0:
            add(i, j, free=1)
        elif ring.p and k % ring.p == 0:
            add(i, j, free=1)
            add(i + 1, j, free=1)
        elif ring == ZZ:
            add(i + 1, j, torsion=_primary(k))
    return {k: tuple(g) for k, g in out.items() if g[0] or g[1]}


class TestKnownHomology:
    # no Smith normal form computes the expectation: the homology of each
    # piece is known, and conjugation by unimodular blocks keeps it
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(elementary_sums())
    def test_conjugated_elementary_sum(self, case):
        cx, pieces = case
        for ring in (ZZ, QQ, Ring.prime_field(2), Ring.prime_field(3)):
            for graded in (True, False):
                got = _primary_groups(
                    cx.change_ring(ring).homology(graded=graded))
                assert got == _known_groups(pieces, ring, graded), (
                    str(ring), graded)


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

    def test_non_chain_map_leg_rejected(self):
        # f = f' = 0 makes the square commute for any legs, so only the
        # check of the induced map sees that u is not a chain map
        F = FrobeniusAlgebra(ZZ, 0, 0)
        cube = build_cube(parse({"pd": HOPF_PD}), F).complex
        rng = random.Random(8)
        u = ChainMap(cube, cube,
                     random_family(rng, cube, cube, 0, 0.8).components)
        assert not is_chain_map(u).ok
        z = ChainMap(cube, cube, {})
        with pytest.raises(ContractViolation, match="induced cone map"):
            cone_functorial_map(z, z, u, identity_map(cube))
        with pytest.raises(ContractViolation, match="induced cone map"):
            cone_functorial_map(z, z, identity_map(cube), u)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([ZZ, QQ]),
           broken=st.sampled_from(["none", "u", "v", "F", "f"]))
    def test_verdicts_match_from_scratch_checks(self, seed, ring, broken):
        # cone(f) checks only f, and cone_functorial_map only its legs and
        # its square; each verdict must be that of the full check: d^2 of
        # the whole block differential, and the chain condition of a fresh
        # map with the induced map's components
        rng = random.Random(seed)
        f, f_prime, u, v, F = make_square(rng, ring)
        X, Y, Xp = f.source, f.target, f_prime.source

        def noisy(m):
            noise = random_family(rng, m.source, m.target, 0, 0.5)
            return map_sum(m, ChainMap(m.source, m.target, noise.components))

        if broken == "u":
            u = noisy(u)
        elif broken == "v":
            v = noisy(v)
        elif broken == "F":
            F = homotopy_sum(F, random_family(rng, Xp, Y, -1, 0.6))
        elif broken == "f":
            f = noisy(f)
        degs = sorted(set(Y.degrees()) | {i - 1 for i in X.degrees()})
        full = {i: SparseMatrix.block(
            [[Y.diff(i), f.component(i + 1)], [None, -X.diff(i + 1)]],
            [Y.rank(i + 1), X.rank(i + 2)], [Y.rank(i), X.rank(i + 1)], ring)
            for i in degs}
        ranks = {i: Y.rank(i) + X.rank(i + 1) for i in degs}
        try:
            ChainComplex(ring, ranks, full)
            full_ok = True
        except ContractViolation:
            full_ok = False
        try:
            C = cone(f)
        except ContractViolation:
            assert not full_ok
            return
        assert full_ok
        assert all(C.diff(i) == full[i] for i in degs)
        Cp = cone(f_prime)
        comps = {i: SparseMatrix.block(
            [[v.component(i), -F.component(i + 1)],
             [None, u.component(i + 1)]],
            [Y.rank(i), X.rank(i + 1)],
            [f_prime.target.rank(i), Xp.rank(i + 1)], ring)
            for i in Cp.degrees()}
        scratch = is_chain_map(ChainMap(Cp, C, comps)).ok
        try:
            out = cone_functorial_map(f, f_prime, u, v, F)
        except ContractViolation:
            assert not scratch
            return
        assert scratch and is_chain_map(out).ok
        assert all(out.component(i) == comps[i] for i in Cp.degrees())

    def test_legs_must_run_between_the_cones_complexes(self):
        # a leg's chain condition and the square are checked against their
        # own complexes, so a leg or homotopy out of an equal but distinct
        # complex is refused, as is a homotopy of another degree
        rng = random.Random(16)
        f, f_prime, u, v, F = make_square(rng, ZZ)
        X = f.source
        twin = ChainComplex(X.ring, X.ranks, X.diffs)
        with pytest.raises(ContractViolation, match="legs must"):
            cone_functorial_map(f, f_prime, identity_map(twin), v, F)
        with pytest.raises(ContractViolation, match="legs must"):
            cone_functorial_map(f, f_prime, u,
                                ChainMap(v.source, v.target, {}, shift=1), F)
        # the same components from the twin pass the square relation
        F_twin = Homotopy(twin, F.target, F.components)
        assert (chain._family_defect(F_twin, +1)
                == chain._family_defect(F, +1))
        with pytest.raises(ContractViolation, match="legs must"):
            cone_functorial_map(f, f_prime, u, v, F_twin)
        with pytest.raises(ContractViolation, match="legs must"):
            cone_functorial_map(f, f_prime, u, v,
                                Homotopy(X, F.target, {}, degree=1))

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


def same_family(got, want):
    """``got`` (a graded map) equals ``want`` (a family built in util)
    component by component, over the same complexes and degree."""
    degs = (set(want.source.degrees()) | set(got.components)
            | set(want.components))
    return ((got.source, got.target, got.shift)
            == (want.source, want.target, -want.degree)
            and all(got.component(i) == want.component(i) for i in degs))


class TestHomotopyIsAGradedMap:
    def test_sum_of_maps_between_other_complexes_refused(self):
        # ChainComplex has no __eq__: an equal but distinct complex is
        # another complex, and a sum needs both maps between the same two
        X = ChainComplex(ZZ, {0: 1}, {})
        twin = ChainComplex(ZZ, {0: 1}, {})
        one = {0: SparseMatrix.identity(1, ZZ)}
        f = ChainMap(X, X, one)
        assert (f + f).component(0) == SparseMatrix.identity(1, ZZ).scale(2)
        for other in (ChainMap(twin, X, one), ChainMap(X, twin, one)):
            with pytest.raises(ContractViolation, match="different complexes"):
                f + other
            with pytest.raises(ContractViolation, match="different complexes"):
                f - other

    def test_wrong_shape_refused(self):
        X = ChainComplex(ZZ, {0: 1}, {})
        Y = ChainComplex(ZZ, {-1: 2, -2: 1}, {})
        one = SparseMatrix.zero(1, 1, ZZ)
        with pytest.raises(ContractViolation, match="shape 1x1, expected 2x1"):
            Homotopy(X, Y, {0: one})
        assert Homotopy(X, Y, {0: one}, degree=-2).degree == -2

    def test_algebra_matches_the_util_families(self):
        # compose, + and - of ChainMap against util's own loops
        rng = random.Random(30)
        for k in range(12):
            ring = ZZ if k % 2 else QQ
            (A, AB, BC, C, f, g, h, u, v, w, x, F, G, H, Psi, Xi,
             Gamma) = make_three_columns(rng, ring)
            F2 = random_family(rng, A, AB, -1, 0.5)
            assert same_family(g.compose(F), compose_family(g, F))
            assert same_family(h.compose(Psi), compose_family(h, Psi))
            assert same_family(G.compose(f), family_after_map(G, f))
            assert same_family(Xi.compose(f), family_after_map(Xi, f))
            assert same_family(F + F2, homotopy_sum(F, F2))
            minus_F2 = Homotopy(A, AB,
                                {i: -m for i, m in F2.components.items()})
            assert same_family(-F2, minus_F2)
            assert same_family(F - F2, homotopy_sum(F, minus_F2))


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

    def test_graded_ranks_sum_to_ungraded(self):
        # H(f) of a map that keeps q splits by q, so the graded data summed
        # per degree are the ungraded data, key for key
        from khsing.chain import _by_degree
        from khsing.genusone import genus_one_map
        for pd in (HOPF_PD, TREFOIL_PD):
            d = parse({"pd": pd})
            d = d if d.crossing_sign(0) < 0 else d.mirror()
            for ring in (QQ, Ring.prime_field(2)):
                g = genus_one_map(d, 0, FrobeniusAlgebra(ring, 0, 0))
                assert _by_degree(homology_functor_ranks(g.map, True)) == \
                    homology_functor_ranks(g.map)

    def test_map_that_shifts_q_refused_graded(self):
        X = ChainComplex(QQ, {0: 2}, {}, q={0: (1, 3)})
        f = ChainMap(X, X, {0: SparseMatrix(2, 2, QQ, {1: {0: 1}})})
        with pytest.raises(ContractViolation, match="shifts q"):
            homology_functor_ranks(f, graded=True)
        homology_functor_ranks(f)

    def test_non_chain_map_refused(self):
        # H(f) is undefined when f is not a chain map
        F = FrobeniusAlgebra(QQ, 0, 0)
        cx = build_cube(parse({"pd": TREFOIL_PD}), F).complex
        i = next(i for i in cx.degrees() if len(set(cx.q[i])) > 1)
        c = cx.q[i].index(min(cx.q[i]))
        r = cx.q[i].index(max(cx.q[i]))
        f = ChainMap(cx, cx, {i: SparseMatrix(cx.rank(i), cx.rank(i), QQ,
                                              {r: {c: 1}})})
        assert not is_chain_map(f).ok
        with pytest.raises(ContractViolation, match="not a chain map"):
            homology_functor_ranks(f)

    def test_les_of_a_chain_map_that_shifts_q(self):
        # les_cone_check takes H(f) ungraded: a chain map between q-graded
        # complexes that shifts q is valid input
        X = ChainComplex(QQ, {0: 2}, {}, q={0: (1, 3)})
        f = ChainMap(X, X, {0: SparseMatrix(2, 2, QQ, {1: {0: 1}})})
        assert les_cone_check(f)
