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
