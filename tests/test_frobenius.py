import random
from itertools import product

import pytest

from khsing.errors import ContractViolation
from khsing.exactlinalg import QQ, Ring, ZZ
from khsing.frobenius import FrobeniusAlgebra, TensorElement


def algebras():
    """A spread of (h, t) points over several rings."""
    rng = random.Random(11)
    out = [FrobeniusAlgebra(ZZ, 0, 0), FrobeniusAlgebra(ZZ, 0, 1),
           FrobeniusAlgebra(ZZ, 1, 0), FrobeniusAlgebra(QQ, 2, -3),
           FrobeniusAlgebra(Ring.prime_field(5), 3, 4)]
    for _ in range(5):
        out.append(FrobeniusAlgebra(ZZ, rng.randint(-4, 4), rng.randint(-4, 4)))
    return out


def basis(F):
    return [F.one(), F.x()]


class TestMultiply:
    def test_unit_law(self):
        for F in algebras():
            for e in basis(F):
                assert F.multiply(F.one(), e) == e
                assert F.multiply(e, F.one()) == e

    def test_x_squared(self):
        for F in algebras():
            assert F.multiply(F.x(), F.x()) == F.element(F.t, F.h)

    def test_expand_at_t_one(self):
        F = FrobeniusAlgebra(ZZ, 0, 1)
        a = F.element(1, 1)  # 1 + x
        assert F.multiply(a, F.x()) == F.element(1, 1)

    def test_associative_commutative(self):
        for F in algebras():
            for a, b, c in product(basis(F), repeat=3):
                assert F.multiply(F.multiply(a, b), c) == \
                    F.multiply(a, F.multiply(b, c))
                assert F.multiply(a, b) == F.multiply(b, a)


class TestComultiply:
    def test_on_unit(self):
        # comul(1) = 1(x)x + x(x)1 - h 1(x)1: the unique coproduct with
        # counit law for eps(1) = 0, eps(x) = 1
        for F in algebras():
            got = F.comultiply(F.one())
            want = {(0, 1): 1, (1, 0): 1}
            if F.h != 0:
                want[(0, 0)] = F.ring.coerce(-F.h)
            assert got.coeffs == want

    def test_on_x(self):
        for F in algebras():
            got = F.comultiply(F.x())
            want = {(1, 1): 1}
            if F.t != 0:
                want[(0, 0)] = F.t
            assert got.coeffs == want

    def test_undeformed_specialization(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        assert F.comultiply(F.one()).coeffs == {(0, 1): 1, (1, 0): 1}

    def test_counit_law(self):
        # (eps (x) id) comul = id = (id (x) eps) comul
        for F in algebras():
            for e in basis(F):
                te = F.comultiply(e)
                left = F.element()
                right = F.element()
                for (bl, br), v in te.coeffs.items():
                    lhs = F.element(v if bl == 0 else 0, 0)
                    eps_l = v if bl == 1 else 0
                    eps_r = v if br == 1 else 0
                    left = left + (F.element(eps_l, 0) if br == 0
                                   else F.element(0, eps_l))
                    right = right + (F.element(eps_r, 0) if bl == 0
                                     else F.element(0, eps_r))
                assert left == e
                assert right == e

    def test_coassociativity(self):
        for F in algebras():
            for e in basis(F):
                te = F.comultiply(e)
                lhs = te.split(0, ("a", "b"))
                rhs = te.split(1, ("b", "c"))
                assert lhs.coeffs == rhs.coeffs


class TestCounit:
    def test_values(self):
        for F in algebras():
            assert F.counit(F.one()) == 0
            assert F.counit(F.x()) == 1

    def test_linearity(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        assert F.counit(F.element(3, 2)) == 2


class TestFrobeniusCondition:
    def test_all_basis_pairs(self):
        # (mul (x) id)(id (x) comul) = comul mul = (id (x) mul)(comul (x) id)
        for F in algebras():
            for a, b in product((0, 1), repeat=2):
                start = TensorElement.basis(F, ("p", "q"), (a, b))
                middle = F.comultiply(
                    F.multiply(*(basis(F)[x] for x in (a, b))))
                lhs = start.split("q", ("m", "q2")).contract("p", "m")
                rhs = start.split("p", ("p2", "m")).contract("m", "q")
                assert lhs.coeffs == middle.coeffs
                assert rhs.coeffs == middle.coeffs


class TestHandleAndClosedSurfaces:
    def test_handle_at_zero(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        assert F.handle(F.one()) == F.element(0, 2)

    def test_handle_general(self):
        # mul(comul(1)) = 2x - h, from the counit-correct coproduct
        for F in algebras():
            assert F.handle(F.one()) == F.element(F.ring.coerce(-F.h),
                                                  F.ring.coerce(2))

    def test_sphere_is_zero(self):
        # eps(unit(1)): a 2-sphere evaluates to zero
        for F in algebras():
            assert F.counit(F.unit(1)) == 0

    def test_torus_is_two(self):
        # eps(handle(1)) = 2 at every (h, t): the torus relation
        for F in algebras():
            assert F.counit(F.handle(F.one())) == F.ring.coerce(2)


class TestQuantumDegrees:
    def test_basis_degrees(self):
        assert FrobeniusAlgebra.quantum_degree(0) == 1
        assert FrobeniusAlgebra.quantum_degree(1) == -1

    def test_structure_map_degrees_at_zero(self):
        # at (0, 0): mul and comul drop the internal degree by one, the
        # counit by one, the unit raises it by one
        F = FrobeniusAlgebra(ZZ, 0, 0)
        deg = FrobeniusAlgebra.quantum_degree
        for a, b in product((0, 1), repeat=2):
            for out, _ in F.mult_bits(a, b):
                assert deg(out) == deg(a) + deg(b) - 1
        for a in (0, 1):
            for bl, br, _ in F.comult_bits(a):
                assert deg(bl) + deg(br) == deg(a) - 1


class TestTensorElement:
    def test_zero_coefficients_dropped(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        te = TensorElement(F, ("a",), {(0,): 0, (1,): 3})
        assert te.coeffs == {(1,): 3}

    def test_length_contract(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        with pytest.raises(ContractViolation):
            TensorElement(F, ("a", "b"), {(0,): 1})

    def test_x_action(self):
        F = FrobeniusAlgebra(ZZ, 2, 3)
        te = TensorElement.basis(F, ("a", "b"), (1, 0)).apply_x("a")
        # x * x = 3 + 2x on circle a
        assert te.coeffs == {(0, 0): 3, (1, 0): 2}

    def test_same_algebra_arithmetic(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        a = TensorElement.basis(F, ("a",), (0,))
        assert (a - a).is_zero()
