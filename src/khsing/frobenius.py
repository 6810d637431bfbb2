"""The rank-two Frobenius algebra k[x]/(x^2 - h*x - t).

The algebra is free with ordered basis (1, x); basis labels are bits, with
0 standing for 1 and 1 standing for x.  Structure maps:

    x * x   = t*1 + h*x
    comul 1 = 1(x)x + x(x)1 - h*1(x)1
    comul x = x(x)x + t*1(x)1
    counit  = 0 on 1, 1 on x

At (h, t) = (0, 0) the algebra is graded with deg 1 = +1 and deg x = -1;
multiplication and comultiplication then both have degree -1.

h and t are integers, so every structure constant is one: arithmetic here
is plain int arithmetic, and elements reduce their coefficients into the
ring (mod p over Z/p) when they are built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation
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

    # -- elements ----------------------------------------------------------

    def element(self, c1=0, cx=0) -> "AlgebraElement":
        return AlgebraElement(self, self.ring.coerce(c1), self.ring.coerce(cx))

    def one(self) -> "AlgebraElement":
        return self.element(1, 0)

    def x(self) -> "AlgebraElement":
        return self.element(0, 1)

    def unit(self, c=1) -> "AlgebraElement":
        return self.element(c, 0)

    # -- structure-constant tables (bit form, used by the cube builder) ----

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

    def x_bits(self, a: int):
        """Expansion of x * (basis a) as [(bit, coefficient)]."""
        if a == 0:
            return [(1, 1)]
        out = []
        if self.t != 0:
            out.append((0, self.t))
        if self.h != 0:
            out.append((1, self.h))
        return out

    # -- operations on elements ---------------------------------------------

    def multiply(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        if a.algebra != self or b.algebra != self:
            raise ContractViolation("elements from a different algebra")
        xx = a.cx * b.cx
        return self.element(a.c1 * b.c1 + self.t * xx,
                            a.c1 * b.cx + a.cx * b.c1 + self.h * xx)

    def comultiply(self, a: "AlgebraElement") -> "TensorElement":
        if a.algebra != self:
            raise ContractViolation("element from a different algebra")
        coeffs = {}
        for bit, coef in ((0, a.c1), (1, a.cx)):
            for bl, br, c in self.comult_bits(bit):
                coeffs[(bl, br)] = coeffs.get((bl, br), 0) + coef * c
        return TensorElement(self, (0, 1), coeffs)

    def counit(self, a: "AlgebraElement"):
        if a.algebra != self:
            raise ContractViolation("element from a different algebra")
        return a.cx

    def handle(self, a: "AlgebraElement") -> "AlgebraElement":
        """The genus-adding operator: multiply after comultiply."""
        return self.comultiply(a).contract(0, 1).as_element()

    @staticmethod
    def quantum_degree(bit: int) -> int:
        return 1 if bit == 0 else -1


@dataclass(frozen=True)
class AlgebraElement:
    """c1 * 1 + cx * x in the fixed basis (1, x)."""

    algebra: FrobeniusAlgebra
    c1: int
    cx: int

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.element(self.c1 + other.c1, self.cx + other.cx)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.element(self.c1 - other.c1, self.cx - other.cx)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.multiply(self, other)

    def scale(self, c) -> "AlgebraElement":
        c = self.algebra.ring.coerce(c)
        return self.algebra.element(c * self.c1, c * self.cx)

    def is_zero(self) -> bool:
        return self.c1 == 0 and self.cx == 0

    def __repr__(self):
        return f"({self.c1})*1 + ({self.cx})*x"


class TensorElement:
    """Element of the tensor power of the algebra over an ordered circle set.

    ``coeffs`` maps bit tuples (one bit per circle, 0 = 1 and 1 = x) to
    nonzero ints, reduced into the ring when the element is built.
    """

    __slots__ = ("algebra", "circles", "coeffs")

    def __init__(self, algebra: FrobeniusAlgebra, circles, coeffs):
        self.algebra = algebra
        self.circles = tuple(circles)
        cleaned = {}
        n = len(self.circles)
        for bits, v in coeffs.items():
            bits = tuple(bits)
            if len(bits) != n:
                raise ContractViolation("bit vector length differs from circle count")
            v = algebra.ring.coerce(v)
            if v != 0:
                cleaned[bits] = v
        self.coeffs = cleaned

    @classmethod
    def basis(cls, algebra, circles, bits) -> "TensorElement":
        return cls(algebra, circles, {tuple(bits): 1})

    def _index(self, circle) -> int:
        try:
            return self.circles.index(circle)
        except ValueError:
            raise ContractViolation(f"no circle {circle!r} in tensor factor list")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.algebra, self.circles, self.coeffs) == (
            other.algebra, other.circles, other.coeffs)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.circles != other.circles:
            raise ContractViolation("tensor factors differ")
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            acc[k] = acc.get(k, 0) + v
        return TensorElement(self.algebra, self.circles, acc)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + other.scale(-1)

    def scale(self, c) -> "TensorElement":
        c = self.algebra.ring.coerce(c)
        return TensorElement(self.algebra, self.circles,
                             {k: c * v for k, v in self.coeffs.items()})

    def contract(self, ci, cj) -> "TensorElement":
        """Multiply the ci and cj factors together (a merge cobordism).

        The product lands on the ci factor; cj disappears.
        """
        i, j = self._index(ci), self._index(cj)
        if i == j:
            raise ContractViolation("cannot contract a factor with itself")
        F = self.algebra
        keep = [k for k in range(len(self.circles)) if k != j]
        acc = {}
        for bits, v in self.coeffs.items():
            for bit, c in F.mult_bits(bits[i], bits[j]):
                nb = list(bits)
                nb[i] = bit
                key = tuple(nb[k] for k in keep)
                acc[key] = acc.get(key, 0) + v * c
        return TensorElement(F, tuple(self.circles[k] for k in keep), acc)

    def as_element(self) -> "AlgebraElement":
        """View a single-factor tensor as an algebra element."""
        if len(self.circles) != 1:
            raise ContractViolation("not a single tensor factor")
        return self.algebra.element(self.coeffs.get((0,), 0),
                                    self.coeffs.get((1,), 0))

    def split(self, ci, new_pair):
        """Comultiply the ci factor into two new circles (a split cobordism)."""
        i = self._index(ci)
        F = self.algebra
        circles = (self.circles[:i] + (new_pair[0], new_pair[1])
                   + self.circles[i + 1:])
        acc = {}
        for bits, v in self.coeffs.items():
            for bl, br, c in F.comult_bits(bits[i]):
                key = bits[:i] + (bl, br) + bits[i + 1:]
                acc[key] = acc.get(key, 0) + v * c
        return TensorElement(F, circles, acc)

    def apply_x(self, ci) -> "TensorElement":
        """Multiply the ci factor by x."""
        i = self._index(ci)
        F = self.algebra
        acc = {}
        for bits, v in self.coeffs.items():
            for bit, c in F.x_bits(bits[i]):
                key = bits[:i] + (bit,) + bits[i + 1:]
                acc[key] = acc.get(key, 0) + v * c
        return TensorElement(F, self.circles, acc)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = {0: "1", 1: "x"}
        terms = []
        for bits in sorted(self.coeffs):
            word = "(x)".join(names[b] for b in bits)
            terms.append(f"({self.coeffs[bits]})*{word}")
        return " + ".join(terms)
