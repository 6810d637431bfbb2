"""The evaluated crossing-change morphism and singular-link complexes.

Crossing change from a negative to a positive crossing is realized by a
degree-(0,0) chain map whose only nonzero components sit on states that
1-smooth the distinguished crossing: there the local picture is a pair of
parallel strands, and the map acts as

    v  |->  (x on the circle through slot 1) v - (x on the circle through slot 0) v

when the two strands lie on distinct circles, and as zero when they lie on
one circle.  Tensored with the alternating sign that removes the crossing
from the state, this assembles into a chain map between the two Khovanov
complexes.

A diagram with double points is evaluated on one cube of resolutions by
``khcube.build_cube``, the one validated cube builder, which this module
also names ``singular_complex``, after the paper: each vertex resolves
every double point one way or the other and smooths every crossing, and
its edges are the saddles and the crossing changes at the double points.
This is the iterated mapping cone over the double points in flattened
form.  Here it is compared with what the cone is made of: the
crossing-change map between two such cubes (``genus_one_map``, assembled
by ``khcube._phi_map``), the literal iterated cone
(``singular_complex_iterated``) and the exact triangle of one crossing
change (``skein_triangle_report``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import (ChainComplex, ChainMap, _by_degree, _les_rows,
                    _require_chain_map, cone, cone_functorial_map,
                    homology_functor_ranks, is_chain_map)
from .diagram import Diagram, ORDINARY
from .errors import ContractViolation
from .exactlinalg import HomologySummary
from .frobenius import FrobeniusAlgebra
from .khcube import CubeComplex, _phi_map, _sites, build_cube

# the paper's name for the complex of a (singular) diagram, its cube; tools
# that wrap it look it up here and in ``invariants`` too
singular_complex = build_cube


# ---------------------------------------------------------------------------
# The crossing-change chain map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenusOneMap:
    """Crossing-change chain map between two (singular) Khovanov complexes.

    The map is degree (0, 0) after normalization; its components vanish on
    every generator whose state 0-smooths the distinguished crossing.
    """

    source: CubeComplex
    target: CubeComplex
    map: ChainMap
    crossing: int

    def is_chain_map(self):
        return is_chain_map(self.map)


def genus_one_map(d_minus: Diagram, c: int, F: FrobeniusAlgebra,
                  site_order=None) -> GenusOneMap:
    """Crossing-change map out of a diagram with a negative crossing at c.

    The target diagram is ``d_minus`` with crossing c made positive; other
    double points are allowed and are carried along as sites of both
    cubes.  The construction is verified to be a chain map.
    """
    if d_minus.kinds[c] != ORDINARY:
        raise ContractViolation(f"crossing {c} is a double point")
    if d_minus.crossing_sign(c) != -1:
        raise ContractViolation(f"crossing {c} is positive; the "
                                "crossing-change map starts at a negative one")
    d_plus = d_minus.crossing_change(c)
    S_minus = build_cube(d_minus, F, site_order)
    S_plus = build_cube(d_plus, F, site_order)

    f = _phi_map(S_minus, S_plus, c)
    _require_chain_map(f, "crossing-change map")
    return GenusOneMap(S_minus, S_plus, f, c)


# ---------------------------------------------------------------------------
# Iterated-cone construction
# ---------------------------------------------------------------------------


def singular_complex_iterated(d: Diagram, F: FrobeniusAlgebra,
                              site_order=None) -> ChainComplex:
    """Literal iterated mapping cone over the double points.

    Splits off the first double point in ``site_order``, recursively builds
    the complexes of its two resolutions and the crossing-change map between
    them, and takes the cone.  Isomorphic (up to basis signs) to the
    flattened construction; homology agrees degreewise.

    The 2^m resolutions share their cubes and maps, so one dict, made here
    and dropped on return, holds each crossing-change map under (diagram
    key, crossing, remaining sites) and each bracket cube under its diagram
    key: every cube and every map is built once per call, and since
    ``cone`` keeps its result on the map, every cone is built once.  A cube
    serves the m leaf maps along its edges of the cube of resolutions, one
    per double point, and is dropped after the m-th.  Each cube's d^2, leaf
    map's chain condition and square is checked once, where it is built.
    """
    sites = _sites(d, site_order)
    if not sites:
        return build_cube(d, F).complex
    b = sites[0]
    return cone(_iterated_phi(d.resolve_double_point(b, -1), b, F, sites[1:],
                              {}, len(sites)))


def _diagram_key(d: Diagram) -> tuple:
    """What a bracket cube depends on.  ``Diagram.__eq__`` ignores the
    orientation, which sets the crossing signs and so the gradings."""
    return (d.crossings, d.free_loops, d.over_entry)


def _iterated_phi(d_minus: Diagram, c: int, F: FrobeniusAlgebra,
                  sites, built: dict, m: int) -> ChainMap:
    """Crossing-change map between iterated-cone complexes, looked up in or
    added to ``built`` (see ``singular_complex_iterated``; ``m`` counts all
    its double points).  The remaining ``sites`` are exactly the double
    points of ``d_minus``, so the key (diagram key, c, sites) fixes the
    map."""
    key = (_diagram_key(d_minus), c, sites)
    if key in built:
        return built[key]
    d_plus = d_minus.crossing_change(c)
    if not sites:
        # checked where it is coned or used as a leg
        phi = _phi_map(_cached_cube(d_minus, F, built, m),
                       _cached_cube(d_plus, F, built, m), c)
    else:
        b, rest = sites[0], sites[1:]
        x_minus = d_minus.resolve_double_point(b, -1)
        f_prime = _iterated_phi(x_minus, b, F, rest, built, m)
        f = _iterated_phi(d_plus.resolve_double_point(b, -1), b, F, rest,
                          built, m)
        u = _iterated_phi(x_minus, c, F, rest, built, m)
        v = _iterated_phi(d_minus.resolve_double_point(b, +1), c, F, rest,
                          built, m)
        # crossing-change maps at distinct sites anticommute (check signs),
        # so the square commutes strictly once the X-leg is negated
        phi = cone_functorial_map(f, f_prime, -u, v)
    built[key] = phi
    return phi


def _cached_cube(d: Diagram, F: FrobeniusAlgebra, built: dict,
                 uses: int) -> CubeComplex:
    """``build_cube(d, F)``, looked up in or added to ``built`` and dropped
    from it at its ``uses``-th lookup."""
    key = _diagram_key(d)
    entry = built.get(key)
    if entry is None:
        entry = built[key] = [build_cube(d, F), uses]
    entry[1] -= 1
    if not entry[1]:
        del built[key]
    return entry[0]


# ---------------------------------------------------------------------------
# Skein triangle report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkeinReport:
    """Verification record for a (negative, positive, singular) triple."""

    site: int
    ring: str
    les_rows: tuple      # (degree, dim_sing, dim_coker, dim_ker_next)
    les_ok: bool
    chi_ok: bool | None  # None when no quantum grading is available
    h_minus: HomologySummary
    h_plus: HomologySummary
    h_sing: HomologySummary

    @property
    def ok(self) -> bool:
        return self.les_ok and self.chi_ok is not False

    def to_json_dict(self) -> dict:
        return {
            "site": self.site,
            "ring": self.ring,
            "les_ok": self.les_ok,
            "chi_ok": self.chi_ok,
            "rows": [{"i": i, "dim_sing": a, "coker": b, "ker_next": k}
                     for (i, a, b, k) in self.les_rows],
        }


def skein_site(d_minus: Diagram, d_plus: Diagram, d_sing: Diagram) -> int:
    """The unique site where the three diagrams differ; contract error
    otherwise."""
    extra = [i for i in d_sing.singular_indices
             if i not in d_minus.singular_indices]
    if len(extra) != 1:
        raise ContractViolation("the singular diagram must have exactly one "
                                "extra double point")
    b = extra[0]
    if (d_sing.resolve_double_point(b, -1) != d_minus
            or d_sing.resolve_double_point(b, +1) != d_plus):
        raise ContractViolation(
            "diagrams do not match the resolutions of the double point")
    return b


def skein_triangle_report(d_minus: Diagram, d_plus: Diagram, d_sing: Diagram,
                          F: FrobeniusAlgebra) -> SkeinReport:
    """Verify the long-exact-sequence rank identity and the graded Euler
    characteristic identity for a crossing-change triple.

    Field coefficients are required for the rank bookkeeping.  The singular
    side is computed independently (flattened construction), so exactness
    genuinely tests the pipeline.
    """
    if not F.ring.is_field:
        raise ContractViolation("the rank identity needs field coefficients")
    b = skein_site(d_minus, d_plus, d_sing)
    g1 = genus_one_map(d_minus, b, F)
    S_sing = build_cube(d_sing, F)
    h_sing = S_sing.homology(graded=False)
    data = _by_degree(homology_functor_ranks(g1.map, F.graded))
    # over a field the homology of the source and target is their dimension
    h_minus = HomologySummary.build(
        F.ring, {i: (hx, ()) for i, (hx, _, _) in data.items()})
    h_plus = HomologySummary.build(
        F.ring, {i: (hy, ()) for i, (_, hy, _) in data.items()})
    rows, ok = _les_rows(data, h_sing)

    chi_ok = None
    if F.graded:
        chi_s = S_sing.complex.graded_euler_characteristic()
        chi_p = g1.target.complex.graded_euler_characteristic()
        chi_m = g1.source.complex.graded_euler_characteristic()
        diff = dict(chi_p)
        for j, cc in chi_m.items():
            diff[j] = diff.get(j, 0) - cc
        chi_ok = {j: cc for j, cc in diff.items() if cc} == chi_s
    return SkeinReport(b, str(F.ring), rows, ok, chi_ok,
                       h_minus, h_plus, h_sing)
