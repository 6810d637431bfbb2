"""Derived invariants: Jones polynomial, Kauffman-bracket state sum,
homology signatures.

The Jones polynomial here is the unnormalized one (the unknot evaluates to
q + 1/q), computed as the graded Euler characteristic of rational homology.
An independent state-sum oracle computes the same polynomial without any
homological machinery; their agreement is an end-to-end check of the sign
and grading conventions.
"""

from __future__ import annotations

from .diagram import Diagram
from .errors import ContractViolation
from .exactlinalg import HomologySummary, QQ, Ring
from .frobenius import FrobeniusAlgebra
from .genusone import singular_complex
from .khcube import build_cube


class LaurentPoly:
    """Laurent polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for e, c in (coeffs or {}).items():
            if c:
                self.coeffs[int(e)] = self.coeffs.get(int(e), 0) + int(c)
        self.coeffs = {e: c for e, c in self.coeffs.items() if c}

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
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

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
    (h, t) = (0, 0); the unknot gives q + 1/q."""
    if d.n_singular:
        raise ContractViolation(
            "Jones polynomial of a singular diagram is defined by skein "
            "resolution; resolve the double points first")
    F = FrobeniusAlgebra(QQ, 0, 0)
    h = build_cube(d, F).homology(graded=True)
    out = {}
    for (i, j), free, _tors in h.groups:
        out[j] = out.get(j, 0) + (-free if i % 2 else free)
    return LaurentPoly(out)


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
    """Jones polynomial of a singular diagram via the skein relation
    value(double point) = value(positive) - value(negative)."""
    if not d.n_singular:
        return jones_polynomial(d)
    b = d.singular_indices[0]
    return (jones_by_skein(d.resolve_double_point(b, +1))
            - jones_by_skein(d.resolve_double_point(b, -1)))


def homology_signature(d: Diagram, ring: Ring, h=0, t=0) -> HomologySummary:
    """Full homology report of the (singular) Khovanov complex.

    Graded by (i, j) at (h, t) = (0, 0), by homological degree otherwise;
    the summary is canonical and directly comparable across isotopic
    diagrams.
    """
    F = FrobeniusAlgebra(ring, h, t)
    return singular_complex(d, F).homology()
