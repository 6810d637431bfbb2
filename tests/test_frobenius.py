"""The Frobenius algebra's axioms, asserted on the tables the cube runs.

An element of the n-th tensor power is a dict {bit tuple: coefficient}
(bit 0 stands for 1, bit 1 for x); the structure maps act on it through
``mult_bits`` and ``comult_bits`` alone, and the counit is 0 on 1, 1 on x.
"""

import random
from itertools import product

from khsing.diagram import parse
from khsing.exactlinalg import QQ, Ring, ZZ
from khsing.frobenius import FrobeniusAlgebra

from util import bracket_cube


def algebras():
    """A spread of (h, t) points over several rings."""
    rng = random.Random(11)
    out = [FrobeniusAlgebra(ZZ, 0, 0), FrobeniusAlgebra(ZZ, 0, 1),
           FrobeniusAlgebra(ZZ, 1, 0), FrobeniusAlgebra(QQ, 2, -3),
           FrobeniusAlgebra(Ring.prime_field(5), 3, 4)]
    for _ in range(5):
        out.append(FrobeniusAlgebra(ZZ, rng.randint(-4, 4), rng.randint(-4, 4)))
    return out


def vec(F, terms):
    """``terms`` reduced into the ring, zeros dropped."""
    return {k: r for k, v in terms.items() if (r := F.ring.coerce(v))}


def _apply(F, v, i, n, table):
    """Apply ``table`` (n bits -> [(bit tuple, coefficient)]) to factors
    i, ..., i + n - 1 of every term of ``v``."""
    acc = {}
    for bits, c in v.items():
        for out, m in table(*bits[i:i + n]):
            key = bits[:i] + out + bits[i + n:]
            acc[key] = acc.get(key, 0) + c * m
    return vec(F, acc)


def mul(F, v, i=0):
    """Multiply factors i and i + 1."""
    return _apply(F, v, i, 2,
                  lambda a, b: [((o,), m) for o, m in F.mult_bits(a, b)])


def comul(F, v, i=0):
    """Comultiply factor i into two."""
    return _apply(F, v, i, 1,
                  lambda a: [((bl, br), m) for bl, br, m in F.comult_bits(a)])


def counit(F, v, i=0):
    """Apply the counit to factor i: 0 on 1, 1 on x."""
    return _apply(F, v, i, 1, lambda a: [((), 1)] if a else [])


def x_on(F, v, i):
    """Multiply factor i by x, the row ``mult_bits(1, .)``."""
    return _apply(F, v, i, 1,
                  lambda a: [((o,), m) for o, m in F.mult_bits(1, a)])


ONE, X = {(0,): 1}, {(1,): 1}


class TestMultiply:
    def test_unit_law(self):
        for F in algebras():
            for a in (0, 1):
                assert mul(F, {(0, a): 1}) == {(a,): 1}
                assert mul(F, {(a, 0): 1}) == {(a,): 1}

    def test_x_squared(self):
        for F in algebras():
            assert mul(F, {(1, 1): 1}) == vec(F, {(0,): F.t, (1,): F.h})

    def test_expand_at_t_one(self):
        F = FrobeniusAlgebra(ZZ, 0, 1)
        # (1 + x) * x = x + 1
        assert mul(F, {(0, 1): 1, (1, 1): 1}) == {(0,): 1, (1,): 1}

    def test_associative_commutative(self):
        for F in algebras():
            for a, b, c in product((0, 1), repeat=3):
                v = {(a, b, c): 1}
                assert mul(F, mul(F, v, 0)) == mul(F, mul(F, v, 1))
                assert mul(F, {(a, b): 1}) == mul(F, {(b, a): 1})


class TestComultiply:
    def test_on_unit(self):
        # comul(1) = 1(x)x + x(x)1 - h 1(x)1: the unique coproduct with
        # counit law for eps(1) = 0, eps(x) = 1
        for F in algebras():
            assert comul(F, ONE) == vec(F, {(0, 1): 1, (1, 0): 1,
                                            (0, 0): -F.h})

    def test_on_x(self):
        for F in algebras():
            assert comul(F, X) == vec(F, {(1, 1): 1, (0, 0): F.t})

    def test_undeformed_specialization(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        assert comul(F, ONE) == {(0, 1): 1, (1, 0): 1}

    def test_counit_law(self):
        # (eps (x) id) comul = id = (id (x) eps) comul
        for F in algebras():
            for e in (ONE, X):
                assert counit(F, comul(F, e), 0) == e
                assert counit(F, comul(F, e), 1) == e

    def test_coassociativity(self):
        for F in algebras():
            for e in (ONE, X):
                assert comul(F, comul(F, e), 0) == comul(F, comul(F, e), 1)


class TestCounit:
    def test_values(self):
        # the Frobenius form eps(a * b) has matrix [[0, 1], [1, h]], whose
        # determinant -1 is a unit in every ring
        for F in algebras():
            form = {(a, b): counit(F, mul(F, {(a, b): 1})).get((), 0)
                    for a, b in product((0, 1), repeat=2)}
            assert form == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): F.h}


class TestFrobeniusCondition:
    def test_all_basis_pairs(self):
        # (mul (x) id)(id (x) comul) = comul mul = (id (x) mul)(comul (x) id)
        for F in algebras():
            for a, b in product((0, 1), repeat=2):
                start = {(a, b): 1}
                middle = comul(F, mul(F, start))
                assert mul(F, comul(F, start, 1), 0) == middle
                assert mul(F, comul(F, start, 0), 1) == middle


class TestHandleAndClosedSurfaces:
    def test_handle_at_zero(self):
        F = FrobeniusAlgebra(ZZ, 0, 0)
        assert mul(F, comul(F, ONE)) == {(1,): 2}

    def test_handle_general(self):
        # mul(comul(1)) = 2x - h, from the counit-correct coproduct
        for F in algebras():
            assert mul(F, comul(F, ONE)) == vec(F, {(0,): -F.h, (1,): 2})

    def test_sphere_is_zero(self):
        # eps(unit(1)): a 2-sphere evaluates to zero
        for F in algebras():
            assert counit(F, ONE) == {}

    def test_torus_is_two(self):
        # eps(handle(1)) = 2 at every (h, t): the torus relation
        for F in algebras():
            assert counit(F, mul(F, comul(F, ONE))) == vec(F, {(): 2})


def deg(bit):
    return 1 if bit == 0 else -1


class TestQuantumDegrees:
    def test_basis_degrees(self):
        # the cube of one circle lists its generators 1, x at q = 1, -1
        cube = bracket_cube(parse({"pd": [], "free_loops": 1}),
                            FrobeniusAlgebra(ZZ, 0, 0))
        assert cube.complex.q == {0: [deg(0), deg(1)]}

    def test_structure_map_degrees_at_zero(self):
        # at (0, 0): mul and comul drop the internal degree by one
        F = FrobeniusAlgebra(ZZ, 0, 0)
        for a, b in product((0, 1), repeat=2):
            for out, _ in F.mult_bits(a, b):
                assert deg(out) == deg(a) + deg(b) - 1
        for a in (0, 1):
            for bl, br, _ in F.comult_bits(a):
                assert deg(bl) + deg(br) == deg(a) - 1


class TestTensorElement:
    def test_x_action(self):
        F = FrobeniusAlgebra(ZZ, 2, 3)
        # x * x = 3 + 2x on the first circle, the second untouched
        assert x_on(F, {(1, 0): 1}, 0) == {(0, 0): 3, (1, 0): 2}
