"""Derived invariants: Jones polynomial, Kauffman-bracket state sum,
homology signatures.

The Jones polynomial here is the unnormalized one (the unknot evaluates to
q + 1/q), computed as the graded Euler characteristic of the rational cube
at (h, t) = (0, 0), which is that of its homology.  A singular diagram's
cube is the cone of a crossing-change map f: X -> Y, and chi(Cone f) =
chi(Y) - chi(X) is the skein relation.  An independent state-sum oracle
computes the same polynomial without any homological machinery.  The
Euler characteristic of a complex does not depend on its differentials,
so their agreement checks the degree and q shifts and the circle counts,
not the signs.

A homology signature at (h, t) routes by ``FrobeniusAlgebra.point_class``:
split roots, as at (1, 0), or (0, 1) over a field, are read off the
states; a double root, as F2 at (0, 1), is the (0, 0) signature
translated, ungraded; any other point, as Z at (0, 1), builds the cube.
"""

from __future__ import annotations

from .diagram import Diagram
from .errors import ContractViolation
from .exactlinalg import HomologySummary, QQ, Ring, ZZ
from .frobenius import FrobeniusAlgebra
# singular_complex is re-exported: tools that wrap it look it up here too
from .genusone import singular_complex  # noqa: F401
from .khcube import build_cube, split_ranks


class LaurentPoly:
    """Laurent polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        """``coeffs`` is {exponent: coefficient} or an iterable of
        (exponent, coefficient) terms; repeated exponents are summed, and
        ``ZZ.coerce`` refuses a value that is not an integer."""
        terms = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        out = {}
        for e, c in terms:
            e = ZZ.coerce(e)
            out[e] = out.get(e, 0) + ZZ.coerce(c)
        self.coeffs = {e: c for e, c in out.items() if c}

    @classmethod
    def monomial(cls, e: int, c: int = 1) -> "LaurentPoly":
        return cls({e: c})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly([*self.coeffs.items(), *other.coeffs.items()])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + LaurentPoly((e, -c) for e, c in other.coeffs.items())

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly((e1 + e2, c1 * c2)
                           for e1, c1 in self.coeffs.items()
                           for e2, c2 in other.coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def to_json_dict(self) -> dict:
        return {str(e): self.coeffs[e] for e in sorted(self.coeffs)}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mono = "1" if e == 0 else ("q" if e == 1 else f"q^{e}")
            if e != 0 and c == 1:
                parts.append(mono)
            elif e != 0 and c == -1:
                parts.append(f"-{mono}")
            elif e == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s


_Q_UNKNOT = LaurentPoly({1: 1, -1: 1})


def jones_polynomial(d: Diagram) -> LaurentPoly:
    """Graded Euler characteristic of rational Khovanov homology at
    (h, t) = (0, 0) of a diagram without double points; the unknot gives
    q + 1/q."""
    if d.n_singular:
        raise ContractViolation(
            "Jones polynomial of a singular diagram is defined by skein "
            "resolution; use jones_by_skein")
    return jones_by_skein(d)


def kauffman_bracket_oracle(d: Diagram) -> LaurentPoly:
    """Pure state-sum evaluation of the same polynomial (no homology).

    Sums (-1)^(|s| - n_minus) * q^(|s| + n_plus - 2 n_minus) * (q + 1/q)^circles
    over all states; the (-1)^(-n_minus) factor matches the homological
    grading i = |s| - n_minus of the graded Euler characteristic.
    """
    if d.n_singular:
        raise ContractViolation("state sum is defined for ordinary diagrams")
    n = d.n_crossings
    n_plus, n_minus = d.n_plus, d.n_minus
    powers = [LaurentPoly.one()]
    for _ in range(n + d.free_loops + d.n_components + 2):
        powers.append(powers[-1] * _Q_UNKNOT)
    acc = LaurentPoly.zero()
    for mask in range(1 << n):
        w = mask.bit_count()
        circles = d.resolve_bits(mask).n_circles
        sign = -1 if (w - n_minus) % 2 else 1
        term = powers[circles] * LaurentPoly.monomial(w + n_plus - 2 * n_minus,
                                                      sign)
        acc = acc + term
    return acc


def jones_by_skein(d: Diagram) -> LaurentPoly:
    """Jones polynomial of a (singular) diagram: the graded Euler
    characteristic of its cube over Q at (h, t) = (0, 0), which satisfies
    the skein relation value(double point) = value(positive) -
    value(negative) (see the module docstring)."""
    return LaurentPoly(build_cube(d, FrobeniusAlgebra(QQ)).complex
                       .graded_euler_characteristic())


def homology_signature(d: Diagram, ring: Ring, h=0, t=0) -> HomologySummary:
    """Full homology report of the (singular) Khovanov complex.

    Graded by (i, j) at (h, t) = (0, 0), by homological degree otherwise;
    the summary is canonical and directly comparable across isotopic
    diagrams.  Each point takes its class's route (module docstring).

    Over F2 at (0, 0) half the cube is built and reduced (Shumakovitch,
    arXiv:math/0405474): H(i, j) = H_XC(i, j) + H_XC(i, j - 2).  Mark
    circle 0 (see ``khcube``) and let X be x on it.  X commutes with every
    edge: saddles are A-module maps, the genus-one map multiplies by
    x_i1 + x_i2, and every sign is 1 mod 2.  So XC = X(C), the generators
    where the marked circle carries x, is a subcomplex, and X maps C/XC
    onto it isomorphically, lowering q by 2.  Let nu = sum_c d_c, with
    d_c(1) = 0 and d_c(x) = 1 on circle c.  As x^2 = 0 = 2x, d_c is a
    derivation of A, so nu commutes with merges and splits; it commutes
    with x_i1 + x_i2, as d_c x_c + x_c d_c = id gives id + id = 0.  So nu is
    a chain map and nu X + X nu = id.  Then X nu fixes XC (X^2 = 0), so it
    splits C = XC (+) C/XC as complexes.  Over Z or Q, 2x is not 0.  The
    empty diagram, with no circle to mark, takes the full cube.
    """
    F = FrobeniusAlgebra(ring, h, t)
    kind, _ = F.point_class()
    if kind == "split":
        return HomologySummary.build(ring, {
            i: (free, ()) for i, free in split_ranks(d).items()})
    if kind == "double" and not F.graded:
        return homology_signature(d, ring, 0, 0).ungraded()
    if ring.p != 2 or not F.graded or d.n_crossings + d.free_loops == 0:
        return build_cube(d, F).homology()
    groups = {}
    half = build_cube(d, F, None, True).homology()
    for (i, j), free, _ in half.groups:
        for q in (j, j + 2):
            groups[i, q] = groups.get((i, q), 0) + free
    return HomologySummary.build(ring, {k: (f, ()) for k, f in groups.items()})
