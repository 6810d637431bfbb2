"""The rank-two Frobenius algebra k[x]/(x^2 - h*x - t).

The algebra is its multiplication and comultiplication tables on the
ordered basis (1, x), written in basis bits: 0 stands for 1 and 1 stands
for x.  The cube, the saddles and the genus-one map read only these tables:

    x * x   = t*1 + h*x
    comul 1 = 1(x)x + x(x)1 - h*1(x)1
    comul x = x(x)x + t*1(x)1

with counit 0 on 1 and 1 on x.  At (h, t) = (0, 0) the algebra is graded
with deg 1 = +1 and deg x = -1; multiplication and comultiplication then
both have degree -1.

h and t are integers reduced into the ring (mod p over Z/p), so every
structure constant is a plain int.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlinalg import Ring


@dataclass(frozen=True)
class FrobeniusAlgebra:
    ring: Ring
    h: int = 0
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "h", self.ring.coerce(self.h))
        object.__setattr__(self, "t", self.ring.coerce(self.t))

    @property
    def graded(self) -> bool:
        """The quantum grading exists only at (h, t) = (0, 0)."""
        return self.h == 0 and self.t == 0

    def mult_bits(self, a: int, b: int):
        """Expansion of (basis a) * (basis b) as [(bit, coefficient)]."""
        if a == 0 and b == 0:
            return [(0, 1)]
        if a ^ b:
            return [(1, 1)]
        out = []
        if self.t != 0:
            out.append((0, self.t))
        if self.h != 0:
            out.append((1, self.h))
        return out

    def comult_bits(self, a: int):
        """Expansion of comul(basis a) as [(bit_left, bit_right, coefficient)]."""
        if a == 0:
            out = [(0, 1, 1), (1, 0, 1)]
            if self.h != 0:
                out.append((0, 0, -self.h))
            return out
        out = [(1, 1, 1)]
        if self.t != 0:
            out.append((0, 0, self.t))
        return out

    def point_class(self):
        """The class of (h, t) by D = h^2 + 4t, and the c of x -> x + c
        that takes it to (0, 0) (0 unless D = 0).  x -> x + c maps
        A(h + 2c, t - c^2 - h*c) onto A(h, t) and keeps the counit, the
        comultiplication, the genus-one map and D.  "double": D = 0, c is
        minus the double root.  "split": D is nonzero over a field or 1
        over Z; the roots differ by a unit.  "cube": others, over Z."""
        ring, h, t = self.ring, self.h, self.t
        disc = ring.coerce(h * h + 4 * t)
        if disc == 0:  # (p + 1) / 2 is 1/2 mod an odd p; over Z, h is even
            root = t if ring.p == 2 else h * (ring.p + 1 if ring.p else 1) // 2
            return "double", ring.coerce(-root)
        return ("split" if ring.is_field or disc == 1 else "cube"), 0
