"""Exact sparse linear algebra over Z, Q, and Z/p.

Everything downstream (cube complexes, mapping cones, homology) reduces to
three primitives implemented here: exact rank, Smith normal form over the
integers, and null-space bases.  All three run one elimination routine,
``_eliminate``, on row-sparse integer matrices, over Z or modulo a prime p.
Rational matrices are first scaled row by row to integers, which changes
neither rank nor kernel.

Pivot rule: a heap orders the active rows by (smallest |entry|, length), so
unit entries in short rows come first.  Within the chosen row the pivot is
the smallest entry whose column is shortest, which keeps fill-in low
(Markowitz).  Row operations clear its column: division with remainder
over Z, the inverse over Z/p.  The pivot retires once its column is
otherwise zero and it divides the rest of its row, which column operations
then clear; any remainder puts the row back on the heap (the Euclid step
over Z).  When no transforms are recorded, a pivot that divides its row
just drops the row.  Smith normal form finally turns the retired pivots
into a divisor chain with 2x2 gcd/lcm steps on the non-unit ones.

All arithmetic is exact: Python ints for Z and Z/p, ``fractions.Fraction``
for Q.  No floating point anywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ContractViolation

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: Z, Q, or the prime field Z/p."""

    kind: str  # "Z", "Q", or "Fp"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ContractViolation(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ContractViolation(f"modulus {self.p!r} is not prime")
        elif self.p is not None:
            raise ContractViolation("modulus only makes sense for Fp")

    @staticmethod
    def integers() -> "Ring":
        return Ring("Z")

    @staticmethod
    def rationals() -> "Ring":
        return Ring("Q")

    @staticmethod
    def prime_field(p: int) -> "Ring":
        return Ring("Fp", p)

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def coerce(self, v):
        if self.kind == "Z":
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise ContractViolation(f"{v} is not an integer")
                return int(v)
            return int(v)
        if self.kind == "Q":
            return Fraction(v)
        return int(v) % self.p

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a):
        if self.kind == "Q":
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / a
        if self.kind == "Fp":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        raise ContractViolation("Z is not a field")

    def __str__(self):
        return {"Z": "Z", "Q": "Q"}.get(self.kind, f"F{self.p}")


ZZ = Ring.integers()
QQ = Ring.rationals()


class SparseMatrix:
    """Immutable sparse exact matrix with (row, col) -> value storage.

    Zero entries are never stored; indices are 0-based.
    """

    __slots__ = ("rows", "cols", "ring", "data")

    def __init__(self, rows: int, cols: int, ring: Ring, data=None):
        if rows < 0 or cols < 0:
            raise ContractViolation("negative matrix dimension")
        cleaned = {}
        for (r, c), v in (data or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ContractViolation(f"entry ({r},{c}) outside {rows}x{cols}")
            v = ring.coerce(v)
            if v != 0:
                cleaned[(r, c)] = v
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self.data = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int, ring: Ring) -> "SparseMatrix":
        return cls(rows, cols, ring)

    @classmethod
    def identity(cls, n: int, ring: Ring) -> "SparseMatrix":
        return cls(n, n, ring, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_rows(cls, rows_list, ring: Ring) -> "SparseMatrix":
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        data = {}
        for r, row in enumerate(rows_list):
            if len(row) != cols:
                raise ContractViolation("ragged row lengths")
            for c, v in enumerate(row):
                if v:
                    data[(r, c)] = v
        return cls(rows, cols, ring, data)

    # -- basic access ------------------------------------------------------

    def entry(self, r: int, c: int):
        return self.data.get((r, c), self.ring.zero())

    def to_rows(self):
        out = [[self.ring.zero()] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.data.items():
            out[r][c] = v
        return out

    def nnz(self) -> int:
        return len(self.data)

    def is_zero(self) -> bool:
        return not self.data

    def columns(self):
        """Group entries by column: {c: [(r, v), ...]}."""
        cols = {}
        for (r, c), v in self.data.items():
            cols.setdefault(c, []).append((r, v))
        return cols

    # -- algebra -----------------------------------------------------------

    def _check_ring(self, other: "SparseMatrix"):
        if self.ring != other.ring:
            raise ContractViolation(f"ring mismatch: {self.ring} vs {other.ring}")

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.ring, self.data) == (
            other.rows, other.cols, other.ring, other.data)

    def __hash__(self):
        raise TypeError("SparseMatrix is not hashable")

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ContractViolation("shape mismatch in addition")
        data = dict(self.data)
        ring = self.ring
        for k, v in other.data.items():
            s = ring.add(data.get(k, ring.zero()), v)
            if s == 0:
                data.pop(k, None)
            else:
                data[k] = s
        return SparseMatrix(self.rows, self.cols, ring, data)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def __neg__(self) -> "SparseMatrix":
        ring = self.ring
        return SparseMatrix(self.rows, self.cols, ring,
                            {k: ring.neg(v) for k, v in self.data.items()})

    def scale(self, a) -> "SparseMatrix":
        ring = self.ring
        a = ring.coerce(a)
        return SparseMatrix(self.rows, self.cols, ring,
                            {k: ring.mul(a, v) for k, v in self.data.items()})

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ContractViolation(
                f"shape mismatch in product: {self.rows}x{self.cols} * "
                f"{other.rows}x{other.cols}")
        ring = self.ring
        left_cols = self.columns()
        acc = {}
        for (k, j), v in other.data.items():
            for i, w in left_cols.get(k, ()):
                key = (i, j)
                s = ring.add(acc.get(key, ring.zero()), ring.mul(w, v))
                if s == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return SparseMatrix(self.rows, other.cols, ring, acc)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, self.ring,
                            {(c, r): v for (r, c), v in self.data.items()})

    def submatrix(self, row_idx, col_idx) -> "SparseMatrix":
        rmap = {r: i for i, r in enumerate(row_idx)}
        cmap = {c: j for j, c in enumerate(col_idx)}
        data = {}
        for (r, c), v in self.data.items():
            if r in rmap and c in cmap:
                data[(rmap[r], cmap[c])] = v
        return SparseMatrix(len(row_idx), len(col_idx), self.ring, data)

    @classmethod
    def block(cls, grid, row_sizes, col_sizes, ring: Ring) -> "SparseMatrix":
        """Assemble a block matrix; ``grid[i][j]`` may be None for zero."""
        roff = [0]
        for s in row_sizes:
            roff.append(roff[-1] + s)
        coff = [0]
        for s in col_sizes:
            coff.append(coff[-1] + s)
        data = {}
        for i, row in enumerate(grid):
            for j, blk in enumerate(row):
                if blk is None:
                    continue
                if (blk.rows, blk.cols) != (row_sizes[i], col_sizes[j]):
                    raise ContractViolation("block shape mismatch")
                for (r, c), v in blk.data.items():
                    data[(roff[i] + r, coff[j] + c)] = v
        return cls(roff[-1], coff[-1], ring, data)

    def change_ring(self, ring: Ring) -> "SparseMatrix":
        return SparseMatrix(self.rows, self.cols, ring,
                            {k: ring.coerce(v) for k, v in self.data.items()})

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols} over {self.ring}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """Divisor chain d1 | d2 | ... | dr with optional unimodular transforms.

    When transforms are requested, ``left * m * right`` equals the
    diag(d1, ..., dr) rectangular matrix of the input's shape.
    """

    diagonal: tuple[int, ...]
    rows: int
    cols: int
    left: SparseMatrix | None = None
    right: SparseMatrix | None = None

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def diagonal_matrix(self) -> SparseMatrix:
        return SparseMatrix(self.rows, self.cols, ZZ,
                            {(i, i): d for i, d in enumerate(self.diagonal)})


def _axpy(y: dict, f: int, x: dict, p: int | None) -> None:
    """y += f * x for sparse vectors {index: value}, reduced mod p if given;
    zeros are dropped."""
    for k, v in x.items():
        s = y.get(k, 0) + f * v
        if p:
            s %= p
        if s:
            y[k] = s
        else:
            y.pop(k, None)


def _eliminate(rows: dict, nrows: int, ncols: int, p: int | None = None,
               track: bool = False):
    """Reduce a row-sparse integer matrix until only pivots remain.

    ``rows`` maps row -> {col: nonzero int} and is consumed.  The arithmetic
    is over Z, or over Z/p when ``p`` is given (entries already reduced).
    Returns ``(pivots, left, right)`` where ``pivots`` lists ``[row, col, d]``
    with d > 0.  With ``track``, ``left`` (row -> {col: v}) and ``right``
    (col -> {row: v}) are invertible and ``left * m * right`` is zero except
    for d at each pivot position; otherwise both are None.
    """
    cols = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    left = {r: {r: 1} for r in range(nrows)} if track else None
    right = {c: {c: 1} for c in range(ncols)} if track else None

    def entry(r, row):
        return 1 if p else min(map(abs, row.values())), len(row), r

    # Entries go stale when their row changes; every change pushes a fresh
    # entry, so the smallest valid one always names the best active row.
    heap = [entry(r, row) for r, row in rows.items() if row]
    heapq.heapify(heap)
    pivots = []
    while heap:
        top = heapq.heappop(heap)
        small, _, pr = top
        prow = rows.get(pr)
        if not prow or entry(pr, prow) != top:
            continue
        pc = min((c for c, v in prow.items() if p or abs(v) == small),
                 key=lambda c: len(cols[c]))
        a = prow[pc]
        inv = pow(a, -1, p) if p else None

        # clear the pivot column with row operations
        for r in [r for r in cols[pc] if r != pr]:
            row = rows[r]
            f = row[pc] * inv % p if p else row[pc] // a
            if f:
                for c, w in prow.items():
                    s = row.get(c, 0) - f * w
                    if p:
                        s %= p
                    if s:
                        if c not in row:
                            cols[c].add(r)
                        row[c] = s
                    else:
                        del row[c]
                        cols[c].discard(r)
                if track:
                    _axpy(left[r], -f, left[pr], p)
            if row:
                heapq.heappush(heap, entry(r, row))
        if len(cols[pc]) > 1:
            # remainders smaller than the pivot stay in its column (Euclid)
            heapq.heappush(heap, top)
            continue

        # clear the pivot row with column operations; the pivot column is
        # otherwise zero, so they touch no other row
        divides = small == 1 or all(v % a == 0 for v in prow.values())
        if track or not divides:
            for c, v in list(prow.items()):
                if c == pc:
                    continue
                f = v * inv % p if p else v // a
                if track:
                    _axpy(right[c], -f, right[pc], p)
                rem = 0 if p else v - f * a
                if rem:
                    prow[c] = rem
                else:
                    del prow[c]
                    cols[c].discard(pr)
            if len(prow) > 1:
                heapq.heappush(heap, entry(pr, prow))
                continue

        for c in prow:
            cols[c].discard(pr)
        del rows[pr]
        if a < 0 and track:
            left[pr] = {c: -v for c, v in left[pr].items()}
        pivots.append([pr, pc, abs(a)])
    return pivots, left, right


def _xgcd(a: int, b: int):
    """(g, s, t) with s * a + t * b = g = gcd(a, b), for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _comb(x: dict, s: int, y: dict, t: int) -> dict:
    """s * x + t * y for sparse integer vectors."""
    out = {}
    _axpy(out, s, x, None)
    _axpy(out, t, y, None)
    return out


def _divisor_chain(pivots: list, left=None, right=None) -> None:
    """Reorder and combine Z pivots in place into a chain d1 | d2 | ...

    Units sort to the front and are skipped.  Each later pair (a, b) with
    a not dividing b becomes (g, lcm) by the unimodular step
    [[s, t], [-b/g, a/g]] diag(a, b) [[1, -t b/g], [1, s a/g]], s a + t b = g,
    applied to the rows of ``left`` and the columns of ``right`` when given.
    After pass i, entry i is the gcd of entries i.. and divides all of them.
    """
    pivots.sort(key=lambda pv: pv[2])
    start = next((i for i, pv in enumerate(pivots) if pv[2] > 1), len(pivots))
    for i in range(start, len(pivots)):
        for j in range(i + 1, len(pivots)):
            ra, ca, a = pivots[i]
            rb, cb, b = pivots[j]
            if b % a == 0:
                continue
            g, s, t = _xgcd(a, b)
            pivots[i][2], pivots[j][2] = g, a // g * b
            if left is None:
                continue
            la, lb, xa, xb = left[ra], left[rb], right[ca], right[cb]
            left[ra] = _comb(la, s, lb, t)
            left[rb] = _comb(la, -(b // g), lb, a // g)
            right[ca] = _comb(xa, 1, xb, 1)
            right[cb] = _comb(xa, -t * (b // g), xb, s * (a // g))


def _integerized(m: SparseMatrix) -> dict:
    """Row-sparse {row: {col: int}} copy of ``m``.  Rational rows are scaled
    by the lcm of their denominators, which changes neither rank nor kernel."""
    rows = {}
    for (r, c), v in m.data.items():
        rows.setdefault(r, {})[c] = v
    if m.ring.kind == "Q":
        for r, row in rows.items():
            mult = lcm(*(v.denominator for v in row.values()))
            rows[r] = {c: v.numerator * (mult // v.denominator)
                       for c, v in row.items()}
    return rows


def smith_normal_form(m: SparseMatrix, transforms: bool = False) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    Returns the divisor chain d1 | d2 | ... | dr (all positive) and, when
    ``transforms`` is set, unimodular L and R with ``L * m * R`` equal to the
    rectangular diagonal matrix of the divisors.
    """
    if m.ring.kind != "Z":
        raise ContractViolation("Smith normal form requires integer entries")
    pivots, left, right = _eliminate(_integerized(m), m.rows, m.cols,
                                     track=transforms)
    _divisor_chain(pivots, left, right)
    diag = tuple(d for _, _, d in pivots)
    if not transforms:
        return SmithDecomposition(diag, m.rows, m.cols)
    # pivot k moves to position (k, k); the zero rows and columns follow
    prs = [r for r, _, _ in pivots]
    pcs = [c for _, c, _ in pivots]
    row_order = prs + sorted(set(range(m.rows)) - set(prs))
    col_order = pcs + sorted(set(range(m.cols)) - set(pcs))
    ldata = {(k, c): v for k, r in enumerate(row_order)
             for c, v in left[r].items()}
    rdata = {(r, k): v for k, c in enumerate(col_order)
             for r, v in right[c].items()}
    return SmithDecomposition(diag, m.rows, m.cols,
                              SparseMatrix(m.rows, m.rows, ZZ, ldata),
                              SparseMatrix(m.cols, m.cols, ZZ, rdata))


# ---------------------------------------------------------------------------
# Rank and kernels
# ---------------------------------------------------------------------------


def rank(m: SparseMatrix) -> int:
    """Rank over the fraction field (Q for Z input) or over Z/p."""
    return len(_eliminate(_integerized(m), m.rows, m.cols, m.ring.p)[0])


def kernel_basis(m: SparseMatrix) -> SparseMatrix:
    """Columns spanning the null space of a matrix over a field."""
    ring = m.ring
    if not ring.is_field:
        raise ContractViolation("kernel basis requires a field")
    pivots, _, right = _eliminate(_integerized(m), m.rows, m.cols, ring.p,
                                  track=True)
    # L m R is zero outside the pivot columns, so the other columns of R
    # span the kernel
    used = {c for _, c, _ in pivots}
    free = [c for c in range(m.cols) if c not in used]
    data = {(r, j): v for j, c in enumerate(free) for r, v in right[c].items()}
    return SparseMatrix(m.cols, len(free), ring, data)


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologySummary:
    """Per-degree free rank and torsion, the canonical invariant report.

    Keys are integers (homological degree) or (i, j) pairs when a quantum
    grading is available.  Only nonzero groups are stored.
    """

    ring: Ring
    groups: tuple  # sorted tuple of (key, free_rank, torsion_tuple)

    @classmethod
    def build(cls, ring: Ring, entries: dict) -> "HomologySummary":
        rows = []
        for key, (free, torsion) in entries.items():
            torsion = tuple(sorted(int(t) for t in torsion))
            if any(t <= 1 for t in torsion):
                raise ContractViolation("torsion coefficients must exceed 1")
            if ring.is_field and torsion:
                raise ContractViolation("field homology cannot carry torsion")
            if free or torsion:
                rows.append(((key,) if isinstance(key, int) else tuple(key),
                             int(free), torsion))
        rows.sort(key=lambda e: e[0])
        return cls(ring, tuple(rows))

    def group(self, key):
        key = (key,) if isinstance(key, int) else tuple(key)
        for k, free, torsion in self.groups:
            if k == key:
                return free, torsion
        return 0, ()

    def keys(self):
        return [k if len(k) > 1 else k[0] for k, _, _ in self.groups]

    def free_rank(self, key) -> int:
        return self.group(key)[0]

    def total_dimension(self) -> int:
        """Total free rank (dimension over a field)."""
        return sum(free for _, free, _ in self.groups)

    def ungraded(self) -> "HomologySummary":
        """Collapse (i, j) keys onto the homological degree i."""
        acc = {}
        for k, free, torsion in self.groups:
            i = k[0]
            f0, t0 = acc.get(i, (0, ()))
            acc[i] = (f0 + free, tuple(sorted(t0 + torsion)))
        return HomologySummary.build(self.ring, acc)

    def to_json_dict(self) -> dict:
        out = []
        for k, free, torsion in self.groups:
            entry = {"i": k[0], "free": free, "torsion": list(torsion)}
            if len(k) > 1:
                entry["j"] = k[1]
            out.append(entry)
        return {"ring": str(self.ring), "groups": out}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "HomologySummary":
        name = payload["ring"]
        if name == "Z":
            ring = ZZ
        elif name == "Q":
            ring = QQ
        else:
            ring = Ring.prime_field(int(name[1:]))
        entries = {}
        for g in payload["groups"]:
            key = (g["i"], g["j"]) if "j" in g else g["i"]
            entries[key] = (g["free"], tuple(g["torsion"]))
        return cls.build(ring, entries)

    def format_table(self) -> str:
        if not self.groups:
            return "(zero)"
        lines = []
        for k, free, torsion in self.groups:
            where = f"i={k[0]}" + (f", j={k[1]}" if len(k) > 1 else "")
            parts = []
            if free:
                parts.append(f"{self.ring}^{free}")
            parts.extend(f"Z/{t}" for t in torsion)
            lines.append(f"{where}: " + " + ".join(parts))
        return "\n".join(lines)


def homology_at(d_in: SparseMatrix, d_out: SparseMatrix, ring: Ring):
    """Homology at the middle of ``. -> C -> .`` given both differentials.

    ``d_in`` maps into the middle module, ``d_out`` maps out of it.  Returns
    ``(free_rank, torsion)``; torsion is empty over a field.
    """
    if d_in.rows != d_out.cols:
        raise ContractViolation(
            f"differentials not composable: d_in lands in dim {d_in.rows}, "
            f"d_out expects dim {d_out.cols}")
    if not (d_out * d_in).is_zero():
        raise ContractViolation("d_out * d_in is nonzero; not a complex")
    n = d_out.cols
    if ring.kind == "Fp":
        d_in, d_out = d_in.change_ring(ring), d_out.change_ring(ring)
    if ring.is_field:
        return n - rank(d_out) - rank(d_in), ()
    snf = smith_normal_form(d_in.change_ring(ZZ))
    free = n - rank(d_out) - snf.rank
    torsion = tuple(d for d in snf.diagonal if d > 1)
    return free, torsion
