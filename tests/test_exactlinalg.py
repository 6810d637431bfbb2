import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from khsing.errors import ContractViolation
from khsing.exactlinalg import (HomologySummary, QQ, Ring, SparseMatrix, ZZ,
                                homology_at, kernel_basis, rank,
                                smith_normal_form)

from util import (dense_homology, dense_rank_rational, dense_smith_divisors,
                  random_complex)

F2 = Ring.prime_field(2)
F5 = Ring.prime_field(5)


def M(rows, ring=ZZ):
    return SparseMatrix.from_rows(rows, ring)


class TestRing:
    def test_prime_validation(self):
        with pytest.raises(ContractViolation):
            Ring.prime_field(6)
        assert Ring.prime_field(7).p == 7

    def test_coercion(self):
        assert F5.coerce(-3) == 2
        assert ZZ.coerce(4) == 4
        assert QQ.inv(QQ.coerce(3)) * 3 == 1

    def test_fp_inverse(self):
        for a in range(1, 5):
            assert F5.mul(F5.inv(a), a) == 1


class TestSparseMatrix:
    def test_no_zero_entries_stored(self):
        m = SparseMatrix(2, 2, ZZ, {(0, 0): 1, (0, 1): 0})
        assert m.nnz() == 1

    def test_out_of_range_entry(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(2, 2, ZZ, {(2, 0): 1})

    def test_product_matches_dense(self):
        rng = random.Random(0)
        for _ in range(25):
            a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)]
            b = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
            prod = (M(a) * M(b)).to_rows()
            expect = [[sum(a[i][k] * b[k][j] for k in range(3))
                       for j in range(2)] for i in range(4)]
            assert prod == expect

    def test_block_assembly(self):
        a = M([[1]])
        m = SparseMatrix.block([[a, None], [None, a]], [1, 1], [1, 1], ZZ)
        assert m == SparseMatrix.identity(2, ZZ)


class TestSmith:
    def test_identity(self):
        s = smith_normal_form(SparseMatrix.identity(2, ZZ))
        assert s.diagonal == (1, 1) and s.rank == 2

    def test_zero_matrix(self):
        s = smith_normal_form(SparseMatrix.zero(3, 2, ZZ))
        assert s.diagonal == () and s.rank == 0

    def test_two_by_two(self):
        s = smith_normal_form(M([[2, 4], [6, 8]]))
        assert s.diagonal == (2, 4)

    def test_ring_contract(self):
        with pytest.raises(ContractViolation):
            smith_normal_form(M([[1]], QQ))

    def test_transforms_reconstruct(self):
        rng = random.Random(1)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
                    for _ in range(rng.randint(1, 5))]
            rows = [r + [0] * (max(map(len, rows)) - len(r)) for r in rows]
            m = M(rows)
            s = smith_normal_form(m, transforms=True)
            assert (s.left * m * s.right) == s.diagonal_matrix()
            assert list(s.diagonal) == dense_smith_divisors(rows)
            # unimodularity: the transforms have full divisor chains of ones
            assert set(smith_normal_form(s.left).diagonal) <= {1}
            assert set(smith_normal_form(s.right).diagonal) <= {1}

    def test_divisor_chain_divides(self):
        rng = random.Random(2)
        for _ in range(40):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            diag = smith_normal_form(M(rows)).diagonal
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 and a > 0

    def test_sparse_path_agrees_with_dense_oracle(self):
        rng = random.Random(3)
        # large enough to hit the sparse engine (> 64 * 64 entries)
        rows = [[0] * 70 for _ in range(70)]
        for _ in range(160):
            rows[rng.randrange(70)][rng.randrange(70)] = rng.randint(-3, 3)
        m = M(rows)
        assert m.rows * m.cols > 64 * 64
        assert list(smith_normal_form(m).diagonal) == dense_smith_divisors(rows)

    def test_sparse_transforms_reconstruct(self):
        rng = random.Random(4)
        rows = [[0] * 66 for _ in range(66)]
        for _ in range(120):
            rows[rng.randrange(66)][rng.randrange(66)] = rng.randint(-2, 2)
        m = M(rows)
        s = smith_normal_form(m, transforms=True)
        assert (s.left * m * s.right) == s.diagonal_matrix()


class TestRank:
    def test_identity(self):
        assert rank(SparseMatrix.identity(5, ZZ)) == 5

    def test_two_by_two(self):
        assert rank(M([[2, 4], [6, 8]], QQ)) == 2

    def test_mod_two(self):
        assert rank(M([[2]], F2)) == 0

    def test_rank_equals_divisor_count(self):
        rng = random.Random(5)
        for _ in range(30):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
            m = M(rows)
            assert rank(m) == smith_normal_form(m).rank
            assert rank(m) == dense_rank_rational(rows)

    def test_rational_denominators(self):
        from fractions import Fraction
        m = SparseMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                    [Fraction(1, 4), Fraction(1, 6)]], QQ)
        assert rank(m) == 1


class TestKernelBasis:
    def test_kernel_is_killed(self):
        rng = random.Random(6)
        for ring in (QQ, F5):
            for _ in range(25):
                rows = [[ring.coerce(rng.randint(-3, 3)) for _ in range(4)]
                        for _ in range(3)]
                m = SparseMatrix.from_rows(rows, ring)
                k = kernel_basis(m)
                assert (m * k).is_zero()
                assert k.cols == 4 - rank(m)
                assert rank(k) == k.cols


@st.composite
def sparse_int_matrices(draw):
    """Random sparse integer matrices, small or around 64 x 64 (both sides
    of 4096 entries), with entries beyond +-1."""
    lo, hi = draw(st.sampled_from([(1, 9), (60, 72)]))
    rows, cols = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
    nnz = draw(st.integers(0, 3 * max(rows, cols)))
    rng = draw(st.randoms(use_true_random=False))
    data = {(rng.randrange(rows), rng.randrange(cols)):
            rng.choice((-12, -4, -3, -2, -1, -1, 1, 1, 2, 3, 6, 9))
            for _ in range(nnz)}
    return SparseMatrix(rows, cols, ZZ, data)


class TestEliminationProperties:
    """The one elimination kernel against the dense oracles."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices())
    def test_smith_divisors_match_oracle(self, m):
        assert list(smith_normal_form(m).diagonal) == \
            dense_smith_divisors(m.to_rows())

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(sparse_int_matrices())
    def test_transforms_unimodular(self, m):
        s = smith_normal_form(m, transforms=True)
        assert s.left * m * s.right == s.diagonal_matrix()
        for t in (s.left, s.right):
            assert dense_smith_divisors(t.to_rows()) == [1] * t.rows

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices(), st.integers(1, 6))
    def test_rational_rank_matches_oracle(self, m, den):
        rows = [[Fraction(v, 1 + (r + c) % den) for c, v in enumerate(row)]
                for r, row in enumerate(m.to_rows())]
        assert rank(SparseMatrix.from_rows(rows, QQ)) == \
            dense_rank_rational(rows)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices(), st.sampled_from([2, 3, 5]))
    def test_prime_field_rank_counts_coprime_divisors(self, m, p):
        divisors = dense_smith_divisors(m.to_rows())
        assert rank(m.change_ring(Ring.prime_field(p))) == \
            sum(1 for d in divisors if d % p)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices(), st.sampled_from([QQ, F2, F5]))
    def test_kernel_basis_spans_null_space(self, m, ring):
        m = m.change_ring(ring)
        k = kernel_basis(m)
        assert (m * k).is_zero()
        assert k.cols == m.cols - rank(m)
        assert rank(k) == k.cols


class TestHomologyAt:
    def test_multiplication_by_two(self):
        d_in = M([[2]])
        d_out = SparseMatrix.zero(0, 1, ZZ)
        assert homology_at(d_in, d_out, ZZ) == (0, (2,))

    def test_zero_differentials(self):
        z = SparseMatrix.zero(3, 3, ZZ)
        assert homology_at(SparseMatrix.zero(3, 3, ZZ), z, ZZ) == (3, ())

    def test_exactness(self):
        d_in = SparseMatrix.identity(2, ZZ)
        d_out = SparseMatrix.zero(0, 2, ZZ)
        assert homology_at(d_in, d_out, ZZ) == (0, ())

    def test_composability_contract(self):
        with pytest.raises(ContractViolation):
            homology_at(M([[1, 0]]), M([[1, 0]]), ZZ)

    def test_nonzero_composite_contract(self):
        with pytest.raises(ContractViolation):
            homology_at(M([[1]]), M([[1]]), ZZ)

    def test_universal_coefficients_mod_p(self):
        # over F_p the dimension equals the free rank plus the number of
        # integral torsion divisors divisible by p, in this and the next
        # degree
        rng = random.Random(7)
        for _ in range(25):
            cx = random_complex(rng, ZZ, torsion=True)
            for p in (2, 3):
                fp = Ring.prime_field(p)
                hz = {}
                for i in cx.degrees():
                    hz[i] = homology_at(cx.diff(i - 1), cx.diff(i), ZZ)
                for i in cx.degrees():
                    free, _ = homology_at(cx.diff(i - 1).change_ring(fp),
                                          cx.diff(i).change_ring(fp), fp)
                    f0, tor0 = hz.get(i, (0, ()))
                    _, tor1 = hz.get(i + 1, (0, ()))
                    expect = (f0 + sum(1 for t in tor0 if t % p == 0)
                              + sum(1 for t in tor1 if t % p == 0))
                    assert free == expect

    def test_matches_dense_oracle(self):
        rng = random.Random(8)
        for _ in range(20):
            cx = random_complex(rng, ZZ, torsion=True)
            for i in cx.degrees():
                got = homology_at(cx.diff(i - 1), cx.diff(i), ZZ)
                want = dense_homology(cx.diff(i - 1).to_rows(),
                                      cx.diff(i).to_rows(), cx.rank(i))
                assert (got[0], tuple(got[1])) == want


class TestHomologySummary:
    def test_zero_groups_dropped(self):
        s = HomologySummary.build(ZZ, {0: (0, ()), 1: (2, (2,))})
        assert s.keys() == [1]
        assert s.group(1) == (2, (2,))
        assert s.group(0) == (0, ())

    def test_torsion_contract(self):
        with pytest.raises(ContractViolation):
            HomologySummary.build(ZZ, {0: (1, (1,))})
        with pytest.raises(ContractViolation):
            HomologySummary.build(QQ, {0: (1, (2,))})

    def test_ungraded_collapse(self):
        s = HomologySummary.build(ZZ, {(0, 1): (1, ()), (0, 3): (2, (2,))})
        assert s.ungraded().group(0) == (3, (2,))
