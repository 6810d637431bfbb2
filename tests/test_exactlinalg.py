import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from khsing.errors import ContractViolation
from khsing.exactlinalg import (HomologySummary, QQ, Ring, SparseMatrix, ZZ,
                                _cut, _eliminate, homology_at, kernel_basis,
                                rank, smith_normal_form)
from khsing.frobenius import FrobeniusAlgebra

from util import (dense_homology, dense_rank_mod_p, dense_rank_rational,
                  dense_rows, dense_smith_divisors, matrix_from_dense,
                  random_complex, transpose)

F2 = Ring.prime_field(2)
F3 = Ring.prime_field(3)
F5 = Ring.prime_field(5)


def M(rows, ring=ZZ):
    return matrix_from_dense(rows, ring)


def eliminate(m, track=False):
    """``_eliminate`` on a copy of all rows of ``m``, in ascending order as
    ``_cut`` gives them."""
    rows = ({r: dict(row) for r, row in sorted(m.row_items())} if track
            else _cut(m))
    return _eliminate(rows, m.ring.p, track)


class TestRing:
    def test_prime_validation(self):
        with pytest.raises(ContractViolation):
            Ring.prime_field(6)
        assert Ring.prime_field(7).p == 7

    def test_coercion(self):
        assert F5.coerce(-3) == 2
        assert ZZ.coerce(4) == 4


@pytest.mark.parametrize("ring", [ZZ, QQ, F5], ids=str)
@pytest.mark.parametrize("value", [2.5, Fraction(1, 2), "3", None],
                         ids=repr)
class TestNonIntegralRefused:
    """Every ring stores ints; nothing is truncated or parsed."""

    def test_ring_coerce(self, ring, value):
        with pytest.raises(ContractViolation):
            ring.coerce(value)

    def test_matrix_entry(self, ring, value):
        with pytest.raises(ContractViolation):
            SparseMatrix(1, 1, ring, {0: {0: value}})

    def test_frobenius_parameter(self, ring, value):
        with pytest.raises(ContractViolation):
            FrobeniusAlgebra(ring, value, 0)
        with pytest.raises(ContractViolation):
            FrobeniusAlgebra(ring, 0, value)

    def test_homology_summary(self, ring, value):
        with pytest.raises(ContractViolation):
            HomologySummary.build(ring, {0: (value, ())})
        with pytest.raises(ContractViolation):
            HomologySummary.build(ring, {0: (0, (value,))})


class TestSparseMatrix:
    def test_no_zero_entries_stored(self):
        m = SparseMatrix(2, 2, ZZ, {0: {0: 1, 1: 0}})
        assert m.nnz() == 1

    def test_out_of_range_entry(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(2, 2, ZZ, {2: {0: 1}})

    @pytest.mark.parametrize("index", [0.5, True, "0"], ids=repr)
    @pytest.mark.parametrize("where", ["row", "col"])
    def test_non_integer_index_refused(self, index, where):
        data = {index: {0: 1}} if where == "row" else {0: {index: 1}}
        with pytest.raises(ContractViolation):
            SparseMatrix(2, 2, ZZ, data)

    def test_product_matches_dense(self):
        rng = random.Random(0)
        for _ in range(25):
            a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)]
            b = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
            prod = dense_rows(M(a) * M(b))
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

    def test_small_divisors_match_oracle(self):
        rng = random.Random(1)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
                    for _ in range(rng.randint(1, 5))]
            rows = [r + [0] * (max(map(len, rows)) - len(r)) for r in rows]
            assert list(smith_normal_form(M(rows)).diagonal) == \
                dense_smith_divisors(rows)

    def test_divisor_chain_divides(self):
        rng = random.Random(2)
        for _ in range(40):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            diag = smith_normal_form(M(rows)).diagonal
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 and a > 0

    def test_sparse_path_agrees_with_dense_oracle(self):
        rng = random.Random(3)
        # a sparse 70 x 70 matrix, larger than the small random ones above
        rows = [[0] * 70 for _ in range(70)]
        for _ in range(160):
            rows[rng.randrange(70)][rng.randrange(70)] = rng.randint(-3, 3)
        m = M(rows)
        assert m.rows * m.cols > 64 * 64
        assert list(smith_normal_form(m).diagonal) == dense_smith_divisors(rows)


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


class TestKernelBasis:
    def test_kernel_is_killed(self):
        rng = random.Random(6)
        for ring in (QQ, F5):
            for _ in range(25):
                rows = [[ring.coerce(rng.randint(-3, 3)) for _ in range(4)]
                        for _ in range(3)]
                m = matrix_from_dense(rows, ring)
                k = kernel_basis(m)
                assert (m * k).is_zero()
                assert k.cols == 4 - rank(m)
                assert rank(k) == k.cols


@st.composite
def sparse_int_matrices(draw):
    """Random sparse integer matrices, small (up to 9 x 9) or around
    64 x 64, with entries beyond +-1."""
    lo, hi = draw(st.sampled_from([(1, 9), (60, 72)]))
    rows, cols = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
    nnz = draw(st.integers(0, 3 * max(rows, cols)))
    rng = draw(st.randoms(use_true_random=False))
    data = {}
    for _ in range(nnz):
        r, c = rng.randrange(rows), rng.randrange(cols)
        data.setdefault(r, {})[c] = rng.choice(
            (-12, -4, -3, -2, -1, -1, 1, 1, 2, 3, 6, 9))
    return SparseMatrix(rows, cols, ZZ, data)


@st.composite
def signed_graph_matrices(draw):
    """Incidence matrices of signed graphs: a row is an edge, one or two
    entries of +-1 (one for a half-edge), so the unit peel takes nearly
    every pivot."""
    n = draw(st.integers(1, 12))
    vertex, sign = st.integers(0, n - 1), st.sampled_from((1, -1))
    edges = draw(st.lists(st.tuples(vertex, vertex, sign, sign),
                          max_size=2 * n))
    return SparseMatrix(len(edges), n, ZZ, {
        r: {i: a} if i == j else {i: a, j: b}
        for r, (i, j, a, b) in enumerate(edges)})


class TestEliminationProperties:
    """The one elimination kernel against the dense oracles."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices())
    def test_smith_divisors_match_oracle(self, m):
        assert list(smith_normal_form(m).diagonal) == \
            dense_smith_divisors(dense_rows(m))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices(), st.sampled_from([2, 3, 5]))
    def test_prime_field_rank_counts_coprime_divisors(self, m, p):
        divisors = dense_smith_divisors(dense_rows(m))
        assert rank(m.change_ring(Ring.prime_field(p))) == \
            sum(1 for d in divisors if d % p)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices(), st.sampled_from([QQ, F2, F3, F5]))
    def test_kernel_basis_spans_null_space(self, m, ring):
        m = m.change_ring(ring)
        k = kernel_basis(m)
        assert (m * k).is_zero()
        assert k.cols == m.cols - rank(m)
        assert rank(k) == k.cols

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices())
    def test_f2_pivot_rows_are_a_row_basis(self, m):
        # untracked over F2 the rows are xor-ed bit masks; tracked runs
        # take the general path
        m = m.change_ring(F2)
        pivots, left, units = eliminate(m)
        rows = [r for r, _, _ in pivots]
        assert (left, units) == (None, len(pivots))
        assert len(pivots) == len(eliminate(m, track=True)[0])
        dense = dense_rows(m)
        assert len(set(rows)) == len(rows)
        assert dense_rank_mod_p([dense[r] for r in rows], 2) == len(rows)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices(), st.sampled_from([ZZ, F2, F3, F5]))
    def test_tracking_takes_the_same_pivots(self, m, ring):
        # untracked runs over F2 take the bit-mask path, which picks its
        # own pivots, so only their number can agree
        m = m.change_ring(ring)
        tracked, untracked = eliminate(m, track=True)[0], eliminate(m)[0]
        if ring == F2:
            assert len(tracked) == len(untracked)
        else:
            assert tracked == untracked

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sparse_int_matrices(), st.sampled_from([ZZ, F3, F5]),
           st.booleans())
    def test_unit_prefix_is_an_invertible_minor(self, m, ring, track):
        # the forward pass cancels the unit prefix's rows and columns, so
        # they must carry a minor that is invertible over the ring
        m = m.change_ring(ring)
        pivots, _, units = eliminate(m, track=track)
        dense = dense_rows(m)
        minor = [[dense[r][c] for _, c, _ in pivots[:units]]
                 for r, _, _ in pivots[:units]]
        divisors = dense_smith_divisors(minor)
        assert len(divisors) == units
        if ring.p:
            assert all(d % ring.p for d in divisors)
        else:
            assert all(d == 1 for d in divisors)

    def test_non_unit_singleton_is_not_cancelled(self):
        # 2 is alone in its row but no unit: deleting its column would
        # give the divisor 2
        m = M([[2], [3]])
        assert smith_normal_form(m).diagonal == (1,)
        assert eliminate(m)[2] == 0

    def test_two_entry_row_pivots_at_its_unit(self):
        # row 0 is [1, 2]; the 2 sits in the shorter column, but only the
        # 1 is a unit
        m = M([[1, 2, 0, 0], [3, 0, 5, 7]])
        pivots, _, units = eliminate(m)
        assert pivots[0] == [0, 0, 1] and units == 1
        assert smith_normal_form(m).diagonal == (1, 1)

    def test_non_unit_two_entry_row_is_not_cancelled(self):
        # [2, 2] holds no unit: cancelling it at a 2 would give the
        # divisor 2
        m = M([[2, 2], [3, 3]])
        assert smith_normal_form(m).diagonal == (1,)
        assert eliminate(m)[2] == 0

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(signed_graph_matrices())
    def test_signed_graph_divisors_match_oracle(self, m):
        assert list(smith_normal_form(m).diagonal) == \
            dense_smith_divisors(dense_rows(m))

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_odd_unbalanced_cycle_gives_2(self, k):
        # the edges x_i + x_(i+1) around an odd cycle: the determinant
        # is 1 + 1
        m = M([[1 if c in (i, (i + 1) % k) else 0 for c in range(k)]
               for i in range(k)])
        assert smith_normal_form(m).diagonal == (1,) * (k - 1) + (2,)


ENTRIES = st.sampled_from((0, 0, 0, -2, -1, 1, 2, 3))


def dense(rows: int, cols: int):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def reduced(rows, ring):
    """Dense integer rows reduced into ``ring``."""
    return [[v % ring.p if ring.p else v for v in row] for row in rows]


def assert_stored_as(m, want):
    """``m`` equals the dense ``want`` (already reduced) and stores no zero
    entry, no empty row and nothing outside its shape."""
    assert dense_rows(m) == want
    for r, row in m.row_items():
        assert row and 0 <= r < m.rows
        for c, v in row.items():
            assert 0 <= c < m.cols and v
            assert not m.ring.p or 0 < v < m.ring.p
    assert m.is_zero() == (not any(map(any, want)))


class TestRowAlgebraProperties:
    """The row-sparse algebra against dense list arithmetic."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from([ZZ, F2, F5]), st.data())
    def test_product(self, ring, data):
        n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
        a, b = data.draw(dense(n, k)), data.draw(dense(k, m))
        # a last row that adds b's first row to its negation: it cancels
        a = [row + [0] for row in a] + [[1] + [0] * (k - 1) + [1]]
        b = b + [[-v for v in b[0]]]
        want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                for row in a]
        assert_stored_as(M(a, ring) * M(b, ring), reduced(want, ring))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from([ZZ, F2, F5]), st.data())
    def test_sum_difference_scale_equality(self, ring, data):
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        a = data.draw(dense(n, m))
        b = a if data.draw(st.booleans()) else data.draw(dense(n, m))
        f = data.draw(st.sampled_from((-2, -1, 0, 1, 3, ring.p or 7)))
        A, B = M(a, ring), M(b, ring)

        def combine(op):
            return reduced([[op(x, y) for x, y in zip(ra, rb)]
                            for ra, rb in zip(a, b)], ring)

        assert_stored_as(A + B, combine(lambda x, y: x + y))
        assert_stored_as(A - B, combine(lambda x, y: x - y))
        assert_stored_as(-A, combine(lambda x, y: -x))
        assert_stored_as(A.scale(f), combine(lambda x, y: f * x))
        assert (A == B) == (reduced(a, ring) == reduced(b, ring))
        assert A == M(reduced(a, ring), ring)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from([ZZ, F2, F5]), st.data())
    def test_transpose_submatrix_block(self, ring, data):
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        a = data.draw(dense(n, m))
        A = M(a, ring)
        assert_stored_as(transpose(A), reduced([list(c) for c in zip(*a)],
                                                ring))
        ri = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        ci = data.draw(st.lists(st.integers(0, m - 1), unique=True))
        assert_stored_as(A.submatrix(ri, ci),
                         reduced([[a[r][c] for c in ci] for r in ri], ring))
        n2, m2 = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        b, c = data.draw(dense(n2, m2)), data.draw(dense(n, m2))
        # each block is present or None; a and c share their rows
        a_on, b_on, c_on = (data.draw(st.booleans()) for _ in range(3))

        def part(x, on, rows, cols):
            return x if on else [[0] * cols for _ in range(rows)]

        grid = [[A if a_on else None, M(c, ring) if c_on else None],
                [None, M(b, ring) if b_on else None]]
        want = ([ra + rc for ra, rc in zip(part(a, a_on, n, m),
                                           part(c, c_on, n, m2))]
                + [[0] * m + rb for rb in part(b, b_on, n2, m2)])
        assert_stored_as(SparseMatrix.block(grid, [n, n2], [m, m2], ring),
                         reduced(want, ring))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.data())
    def test_change_ring_into_prime_field(self, p, data):
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        a = data.draw(dense(n, m))
        ring = Ring.prime_field(p)
        out = M(a, ZZ).change_ring(ring)
        assert out.ring == ring
        assert_stored_as(out, reduced(a, ring))
        assert out == M(a, ring)


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

    def test_storage_ring_contract(self):
        # integer entries are not residues mod 2; the caller reduces first
        with pytest.raises(ContractViolation):
            homology_at(M([[2]]), SparseMatrix.zero(0, 1, ZZ), F2)

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
                want = dense_homology(dense_rows(cx.diff(i - 1)),
                                      dense_rows(cx.diff(i)), cx.rank(i))
                assert (got[0], tuple(got[1])) == want


class TestHomologySummary:
    def test_zero_groups_dropped(self):
        s = HomologySummary.build(ZZ, {0: (0, ()), 1: (2, (2,))})
        assert s.keys() == [1]
        assert s.group(1) == (2, (2,))
        assert s.group(0) == (0, ())

    def test_non_integral_rank_refused(self):
        # not truncated to free rank 1
        with pytest.raises(ContractViolation):
            HomologySummary.build(ZZ, {0: (1.9, ())})

    def test_torsion_contract(self):
        with pytest.raises(ContractViolation):
            HomologySummary.build(ZZ, {0: (1, (1,))})
        with pytest.raises(ContractViolation):
            HomologySummary.build(QQ, {0: (1, (2,))})

    def test_ungraded_collapse(self):
        s = HomologySummary.build(ZZ, {(0, 1): (1, ()), (0, 3): (2, (2,))})
        assert s.ungraded().group(0) == (3, (2,))

    def test_torsion_written_as_a_divisor_chain(self):
        # Z/2 + Z/3 is Z/6: one group, one summary
        assert HomologySummary.build(ZZ, {0: (0, (2, 3))}) == \
            HomologySummary.build(ZZ, {0: (0, (6,))})
        s = HomologySummary.build(ZZ, {0: (1, (4, 2, 6)), 1: (0, (3, 3))})
        assert s.group(0) == (1, (2, 2, 12)) and s.group(1) == (0, (3, 3))
