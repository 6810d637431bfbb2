"""The deformed points (h, t) as oracles of each other.

``invariants.homology_signature`` routes a point by its discriminant
D = h^2 + 4t (``FrobeniusAlgebra.point_class``): a double root (D = 0)
translates to (0, 0); a split point (D a nonzero field element, or 1
over Z) is read off the states by ``khcube.split_ranks``; any other point
builds the cube.  The full cube at the point itself,
``build_cube(d, F).homology()``, is the oracle of every route, and
translation x -> x + c ties the points to each other through the cube
alone: H(h, t) = H(h + 2c, t - c^2 - h*c).
"""

import random

import pytest

from util import random_singular_closures

from khsing.cli import corpus_dir
from khsing.diagram import parse
from khsing.exactlinalg import HomologySummary, QQ, Ring, ZZ
from khsing.frobenius import FrobeniusAlgebra
from khsing.invariants import homology_signature
from khsing.khcube import build_cube, split_ranks

F2, F3, F5 = (Ring.prime_field(p) for p in (2, 3, 5))

CORPUS = [parse(p.read_text()) for p in sorted(corpus_dir().glob("*.json"))
          if p.stem != "groups"]
CLOSURES = random_singular_closures(random.Random(29), 16, (2, 5))

# (ring, h, t) by class; the split points over F2 and F3 at (1, 1), and
# over Q at (1, 1), have their roots only in a field extension
SPLIT = [(F2, 1, 0), (ZZ, 1, 0), (ZZ, -1, 0), (ZZ, 3, -2), (QQ, 0, 1),
         (QQ, 1, 1), (F2, 1, 1), (F3, 1, 1), (F3, 0, 1)]
DOUBLE = [(F2, 0, 1), (F3, 1, 2), (F5, 1, 1), (ZZ, 2, -1), (QQ, 2, -1)]
CUBE = [(ZZ, 0, 1), (ZZ, 1, 1), (ZZ, 0, -1)]
# points where the state formula fails on some closure
CONTROLS = [(F5, 1, 1), (F2, 0, 1), (ZZ, 0, 1)]
# every split point, and one point of each other route per ring
ROUTED = SPLIT + [(F2, 0, 1), (F3, 1, 2), (ZZ, 2, -1), (ZZ, 0, 1)]


def ids(points):
    return [f"{ring}({h},{t})" for ring, h, t in points]


def cube(d, ring, h, t):
    """The oracle: the ungraded homology of the full cube at (h, t)."""
    return build_cube(d, FrobeniusAlgebra(ring, h, t)).homology(graded=False)


def state_formula(d, ring):
    """What the split route reports, whatever the point."""
    return HomologySummary.build(ring, {i: (free, ()) for i, free
                                        in split_ranks(d).items()})


def translated(h, t, c):
    return h + 2 * c, t - c * c - h * c


class TestClassRule:
    @pytest.mark.parametrize("kind,points", [("split", SPLIT),
                                             ("double", DOUBLE),
                                             ("cube", CUBE)])
    def test_each_point_in_its_class(self, kind, points):
        for ring, h, t in points:
            assert FrobeniusAlgebra(ring, h, t).point_class()[0] == kind

    @pytest.mark.parametrize("ring,h,t", DOUBLE, ids=ids(DOUBLE))
    def test_double_root_translates_to_zero(self, ring, h, t):
        kind, c = FrobeniusAlgebra(ring, h, t).point_class()
        assert kind == "double"
        assert FrobeniusAlgebra(ring, *translated(h, t, c)).graded

    @pytest.mark.parametrize("c", [-1, 1, 2])
    def test_translation_keeps_the_class(self, c):
        for ring, h, t in SPLIT + DOUBLE + CUBE:
            assert FrobeniusAlgebra(ring, h, t).point_class()[0] == \
                FrobeniusAlgebra(ring, *translated(h, t, c)) \
                .point_class()[0]


class TestRoutesAgainstTheCube:
    @pytest.mark.parametrize("ring,h,t", ROUTED, ids=ids(ROUTED))
    def test_corpus_and_random_closures(self, ring, h, t):
        for d in CORPUS + CLOSURES:
            assert homology_signature(d, ring, h, t) == cube(d, ring, h, t), d

    def test_closures_reach_every_kind_of_state(self):
        # double points, free loops and homology beyond the two Lee
        # generators are all in the set
        assert sum(d.n_singular > 0 for d in CLOSURES) > 8
        assert any(d.free_loops for d in CLOSURES)
        assert max(state_formula(d, QQ).total_dimension()
                   for d in CLOSURES) > 4


class TestTranslation:
    @pytest.mark.parametrize("ring", [ZZ, QQ, F2, F3], ids=str)
    @pytest.mark.parametrize("c", [-1, 1, 2])
    def test_cube_at_translated_points(self, ring, c):
        # H(h, t) = H(h + 2c, t - c^2 - h*c), each side its own cube
        for h, t in ((0, 0), (1, 1)):
            for d in CLOSURES[:4]:
                assert cube(d, ring, h, t) == \
                    cube(d, ring, *translated(h, t, c)), (d, h, t)


class TestNegativeControls:
    @pytest.mark.parametrize("ring,h,t", CONTROLS, ids=ids(CONTROLS))
    def test_formula_not_applied_where_it_fails(self, ring, h, t):
        assert FrobeniusAlgebra(ring, h, t).point_class()[0] != "split"
        wrong = [d for d in CLOSURES
                 if state_formula(d, ring) != cube(d, ring, h, t)]
        assert wrong
        for d in wrong:
            assert homology_signature(d, ring, h, t) == cube(d, ring, h, t)

    def test_lee_over_z_has_two_torsion(self):
        # at (0, 1) over Z, D = 4, and the formula misses a Z/2
        torsion = {t for d in CLOSURES
                   for _, _, ts in cube(d, ZZ, 0, 1).groups for t in ts}
        assert torsion == {2}
