"""Exact sparse linear algebra over Z, Q, and Z/p.

Everything downstream (cube complexes, mapping cones, homology) reduces to
three primitives implemented here: exact rank, the Smith divisors of an
integer matrix, and null-space bases.  All three run one elimination
routine, ``_eliminate``, over Z or modulo a prime p, on rows it owns.

A ``SparseMatrix`` stores rows, ``{row: {col: int}}``.  The builders hand
rows to its checked constructor; products, sums, blocks and ring changes
are built unchecked from checked matrices.  A q-block is not built at
all: ``_cut`` reads its rows, through a column map, straight into the
elimination's own rows.  The ``data`` view, ``{(row, col): value}``,
serves callers outside the package only.

Every entry is a Python int.  Z and Q store the same integers, Z/p stores
residues in [0, p); a value that is not an integer is refused.  The ring
only decides how a matrix is reduced: the rank over Q of an integer matrix
is its rank over Z, so Q shares Z's elimination, and Smith divisors apply
to Z alone.

Pivot rule: first the unit peel.  A row of one or two entries that holds
a unit (+-1 over Z, any nonzero residue over Z/p) pivots at it, in the
shorter column if both entries are units.  Clearing that column changes
each other row in it only at the pivot row's partner column, so no row
grows; a row this leaves with one or two entries joins the work list, one
left empty drops.  Singletons go first, then two-entry rows in ascending
index, the heap's own tie order.  This is the singleton and doubleton step
of structured Gaussian elimination (LaMacchia-Odlyzko), and it takes
nearly every pivot of a Khovanov differential.  Then a heap orders the
rows the peel leaves by (smallest |entry|, length), so unit entries in
short rows come first.  Within the chosen row the pivot is the smallest
entry whose column is shortest, which keeps fill-in low (Markowitz).  The
peel and the heap clear a pivot column with the same row operations:
division with remainder over Z, the inverse over Z/p.  The pivot retires
once its column is otherwise zero; if it divides the rest of its row, the
row just drops.  Otherwise (over Z only) column operations leave the
remainders in the row, which goes back on the heap (the Euclid step).  A
tracked run records the row operations, and only those; it takes the same
pivots as an untracked one.  The Smith divisors come from the retired
pivots by gcd/lcm steps on the non-unit ones.

Unit prefix: the peeled pivots, then those the heap retires before the
first row whose smallest |entry| exceeds 1 is taken (all of them over
Z/p).  Each cleared its column exactly, so up to there the elimination is
an LU factorization with unit pivots, and the prefix names a unimodular
minor: each of its pivots is a cancellation of Bar-Natan's Gaussian
elimination lemma.  A later unit pivot may follow a Euclid step and mix
rows, so it does not count.

Over F2: a sum of rows is the symmetric difference of their column sets.
The product runs ``set.symmetric_difference_update`` over the rows each row
of the result sums, so it is the same matrix.  An untracked elimination
keeps each row as an int bit mask and xors it with earlier pivot masks; the
rows that stay nonzero are linearly independent rows of the matrix, a basis
of its row space, and their count is the rank.  Over a field, any linearly
independent set of rows is the row set of an invertible minor, so all of
them form the unit prefix and cancelling them is still Gaussian
elimination.  Tracked runs (kernel bases) and the other rings take the
general path.

No floating point anywhere.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from math import gcd
from types import MappingProxyType

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

    def coerce(self, v) -> int:
        """``v`` as a Python int, reduced mod p over Z/p; a value that is
        not an integer raises ContractViolation."""
        if type(v) is not int:
            try:
                n = int(v)
                integral = n == v
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise ContractViolation(f"{v!r} is not an integer")
            v = n
        return v % self.p if self.p else v

    def __str__(self):
        return {"Z": "Z", "Q": "Q"}.get(self.kind, f"F{self.p}")


ZZ = Ring.integers()
QQ = Ring.rationals()


class SparseMatrix:
    """Immutable sparse exact matrix stored as rows, ``{row: {col: int}}``,
    0-based, with no zero entry and no empty row.

    The constructor takes ``data`` in that form from outside this module:
    it refuses an index that is not an ``int`` in range, coerces each value
    into the ring and drops zeros.  Matrices derived from checked ones are
    built by ``_unchecked`` and may share rows with them.  ``row_items``
    walks the rows, to be read only; ``data`` is a read-only
    ``{(row, col): value}`` view built on each access.
    """

    __slots__ = ("rows", "cols", "ring", "_rows")

    def __init__(self, rows: int, cols: int, ring: Ring, data=None):
        if rows < 0 or cols < 0:
            raise ContractViolation("negative matrix dimension")
        cleaned = {}
        for r, row in (data or {}).items():
            if not (type(r) is int and 0 <= r < rows):
                raise ContractViolation(f"row {r!r} outside {rows}x{cols}")
            out = {}
            for c, v in row.items():
                if not (type(c) is int and 0 <= c < cols):
                    raise ContractViolation(
                        f"entry ({r},{c!r}) outside {rows}x{cols}")
                v = ring.coerce(v)
                if v:
                    out[c] = v
            if out:
                cleaned[r] = out
        self.rows, self.cols, self.ring, self._rows = rows, cols, ring, cleaned

    @classmethod
    def _unchecked(cls, rows: int, cols: int, ring: Ring, data: dict):
        """A matrix over rows that are already in the ring, in bounds and
        free of zeros and empty rows; ``data`` is kept, not copied."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.ring, m._rows = rows, cols, ring, data
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int, ring: Ring) -> "SparseMatrix":
        return cls._unchecked(rows, cols, ring, {})

    @classmethod
    def identity(cls, n: int, ring: Ring) -> "SparseMatrix":
        return cls._unchecked(n, n, ring, {i: {i: 1} for i in range(n)})

    # -- basic access ------------------------------------------------------

    @property
    def data(self):
        return MappingProxyType({(r, c): v for r, row in self._rows.items()
                                 for c, v in row.items()})

    def row_items(self):
        """The stored ``(row, {col: value})`` pairs, to be read only."""
        return self._rows.items()

    def nnz(self) -> int:
        return sum(map(len, self._rows.values()))

    def is_zero(self) -> bool:
        return not self._rows

    # -- algebra -----------------------------------------------------------

    def _check_ring(self, other: "SparseMatrix"):
        if self.ring != other.ring:
            raise ContractViolation(f"ring mismatch: {self.ring} vs {other.ring}")

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.ring, self._rows) == (
            other.rows, other.cols, other.ring, other._rows)

    def _plus(self, f: int, other: "SparseMatrix") -> "SparseMatrix":
        """self + f * other."""
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ContractViolation("shape mismatch in addition")
        p = self.ring.p
        data = dict(self._rows)
        for r, orow in other._rows.items():
            row = data[r] = dict(data.get(r, ()))
            _axpy(row, f, orow, p)
            if not row:
                del data[r]
        return SparseMatrix._unchecked(self.rows, self.cols, self.ring, data)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._plus(1, other)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._plus(-1, other)

    def __neg__(self) -> "SparseMatrix":
        return self.scale(-1)

    def scale(self, a) -> "SparseMatrix":
        a = self.ring.coerce(a)
        p = self.ring.p
        # a field or Z has no zero divisors: a nonzero a keeps every entry
        data = {r: {c: a * v % p if p else a * v for c, v in row.items()}
                for r, row in self._rows.items()} if a else {}
        return SparseMatrix._unchecked(self.rows, self.cols, self.ring, data)

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ContractViolation(
                f"shape mismatch in product: {self.rows}x{self.cols} * "
                f"{other.rows}x{other.cols}")
        p = self.ring.p
        right = other._rows
        data = {}
        if p == 2:
            # a sum of rows over F2 is the symmetric difference of their
            # column sets
            for r, row in self._rows.items():
                acc = set()
                for k in row:
                    orow = right.get(k)
                    if orow:
                        acc.symmetric_difference_update(orow)
                if acc:
                    data[r] = dict.fromkeys(acc, 1)
            return SparseMatrix._unchecked(self.rows, other.cols, self.ring,
                                           data)
        for r, row in self._rows.items():
            acc = {}
            for k, w in row.items():
                orow = right.get(k)
                if orow:
                    _axpy(acc, w, orow, p)
            if acc:
                data[r] = acc
        return SparseMatrix._unchecked(self.rows, other.cols, self.ring, data)

    def submatrix(self, row_idx, col_idx) -> "SparseMatrix":
        cmap = {c: j for j, c in enumerate(col_idx)}
        rows = self._rows
        data = {i: out for i, r in enumerate(row_idx)
                if (out := {cmap[c]: v for c, v in rows.get(r, {}).items()
                            if c in cmap})}
        return SparseMatrix._unchecked(len(row_idx), len(col_idx), self.ring,
                                       data)

    @classmethod
    def block(cls, grid, row_sizes, col_sizes, ring: Ring) -> "SparseMatrix":
        """Assemble a block matrix over ``ring``; ``grid[i][j]`` may be None
        for zero."""
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
                if (blk.rows, blk.cols, blk.ring) != (row_sizes[i],
                                                      col_sizes[j], ring):
                    raise ContractViolation("block shape or ring mismatch")
                for r, brow in blk._rows.items():
                    data.setdefault(roff[i] + r, {}).update(
                        (coff[j] + c, v) for c, v in brow.items())
        return cls._unchecked(roff[-1], coff[-1], ring, data)

    def change_ring(self, ring: Ring) -> "SparseMatrix":
        """The same entries over ``ring``.  Only a change into Z/p rebuilds
        them (mod p); otherwise the rows are shared, as the matrix is
        immutable.  Residues mod p do not lift, so Z/p changes to no other
        ring."""
        if self.ring.p and ring != self.ring:
            raise ContractViolation(
                f"cannot change coefficients from {self.ring} to {ring}")
        data = self._rows
        if ring.p and ring != self.ring:
            p = ring.p
            data = {r: out for r, row in data.items()
                    if (out := {c: v % p for c, v in row.items() if v % p})}
        return SparseMatrix._unchecked(self.rows, self.cols, ring, data)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols} over {self.ring}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """The Smith divisors d1 | d2 | ... | dr of a ``rows`` x ``cols``
    integer matrix, all positive."""

    diagonal: tuple[int, ...]
    rows: int
    cols: int

    @property
    def rank(self) -> int:
        return len(self.diagonal)


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


def _transposed(vectors) -> dict:
    """``{j: {i: v}}`` from pairs ``(i, {j: v})``: rows from columns, or
    columns from rows."""
    out = {}
    for i, vec in vectors:
        for j, v in vec.items():
            out.setdefault(j, {})[i] = v
    return out


def _cut(m: SparseMatrix, rows=None, place=None) -> dict:
    """Rows for an untracked ``_eliminate`` to own: row k is row ``rows[k]``
    of ``m``, column c at ``place[c]``, left out where None (all in place by
    default), kept if nonzero: an int bit mask over F2, else a dict."""
    if rows is None:
        rows, place = range(m.rows), range(m.cols)
    src, out = m._rows, {}
    if m.ring.p == 2:
        for k, r in enumerate(rows):
            mask = 0
            for c in src.get(r, ()):
                if (t := place[c]) is not None:
                    mask |= 1 << t
            if mask:
                out[k] = mask
        return out
    for k, r in enumerate(rows):
        row = {}
        for c, v in src.get(r, {}).items():
            if (t := place[c]) is not None:
                row[t] = v
        if row:
            out[k] = row
    return out


def _eliminate(rows: dict, p: int | None, track: bool = False):
    """Reduce rows it owns, shaped as ``_cut`` makes them, to pivots.

    The arithmetic is over Z, or over Z/p when ``p`` is given.  Returns
    ``(pivots, left, units)`` where ``pivots`` lists ``[row, col, d]``
    with d > 0 in the order they retired and ``pivots[:units]`` is the
    unit prefix (see the module docstring).  The rows of one or two
    entries that hold a unit are peeled before the heap is built; such a
    row without a unit waits for the heap and its Euclid steps.  The peel
    and the heap clear a pivot column through one routine, ``clear``.
    With ``track``, ``left`` (row -> {row: v},
    over the rows given) records the row operations: it is invertible, and
    each row of ``left`` times the rows that did not retire as a pivot is
    zero.  Otherwise ``left`` is None.  Tracking changes no pivot.

    Over F2, untracked: each row is an int bit mask over its columns and is
    reduced by the earlier pivot masks at its highest set bit, which only
    lowers that bit, so a mask never outgrows its row.  A row that stays
    nonzero is not in the span of the rows before it, so it retires as the
    pivot ``[row, highest col, 1]``.  The pivot rows are a basis of the row
    space drawn from the rows given; over a field any such set of rows
    is the row set of an invertible minor, so all of them count as units.
    """
    if p == 2 and not track:
        pivots, basis = [], {}
        for r, mask in rows.items():
            while mask:
                top = mask.bit_length() - 1
                b = basis.get(top)
                if b is None:
                    basis[top] = mask
                    pivots.append([r, top, 1])
                    break
                mask ^= b
        return pivots, None, len(pivots)
    cols = defaultdict(set)
    for r, row in rows.items():
        for c in row:
            cols[c].add(r)
    left = {r: {r: 1} for r in rows} if track else None
    pivots = []

    def clear(pr, pc):
        """Subtract multiples of row pr from the other rows of column pc,
        with division with remainder over Z, and record them if tracked;
        returns those rows left nonzero, and drops those left empty."""
        prow = rows[pr]
        a = prow[pc]
        unit = p or a in (1, -1)
        inv = pow(a, -1, p) if p else None
        rest = prow.copy()
        del rest[pc]
        stay, kept = {pr}, []
        for r in cols[pc]:
            if r == pr:
                continue
            # a unit clears the column exactly; the multiple f matters only
            # to the rest of the pivot row and to the record
            row = rows[r]
            v = row.pop(pc)
            if not unit and v % a:
                row[pc] = v % a
                stay.add(r)
            if rest or track:
                f = v * inv % p if p else v // a
                if f:
                    for c, w in rest.items():
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
                kept.append(r)
            else:
                del rows[r]
        cols[pc] = stay
        return kept

    def retire(pr, pc):
        a = rows[pr][pc]
        for c in rows.pop(pr):
            cols[c].discard(pr)
        pivots.append([pr, pc, abs(a)])

    # The unit peel: a row of one or two entries pivots at a unit, in the
    # shorter column if both are units.  Its column is cleared exactly and
    # the other rows change only at its partner column, so no row grows.
    # Singletons go first.  Once none is left, the rows of two entries are
    # queued in ascending index, and from then on a row that drops to two
    # entries joins that queue unless it waits there already; a block the
    # singletons empty sets up neither the queue nor the heap.
    ones = [r for r, row in rows.items() if len(row) == 1]
    twos, queued = None, set()
    while True:
        if ones:
            pr = ones.pop()
        elif twos is None and rows:
            twos = [r for r, row in rows.items() if len(row) == 2]
            queued.update(twos)
            heapq.heapify(twos)
            continue
        elif twos:
            pr = heapq.heappop(twos)
            queued.discard(pr)
        else:
            break
        prow = rows.get(pr)
        if prow is None:
            continue
        pc = None
        for c, v in prow.items():
            if (p or v in (1, -1)) and (
                    pc is None or len(cols[c]) < len(cols[pc])):
                pc = c
        if pc is None:
            continue
        for r in clear(pr, pc):
            n = len(rows[r])
            if n == 1:
                ones.append(r)
            elif n == 2 and twos is not None and r not in queued:
                queued.add(r)
                heapq.heappush(twos, r)
        retire(pr, pc)

    if not rows:
        return pivots, left, len(pivots)

    def entry(r, row):
        return 1 if p else min(map(abs, row.values())), len(row), r

    # Entries go stale when their row changes; every change pushes a fresh
    # entry, so the smallest valid one always names the best active row.
    heap = [entry(r, row) for r, row in rows.items()]
    heapq.heapify(heap)
    units = None
    while heap:
        top = heapq.heappop(heap)
        small, _, pr = top
        prow = rows.get(pr)
        if prow is None or entry(pr, prow) != top:
            continue
        if small > 1 and units is None:
            units = len(pivots)
        pc = min((c for c, v in prow.items() if p or abs(v) == small),
                 key=lambda c: len(cols[c]))
        for r in clear(pr, pc):
            heapq.heappush(heap, entry(r, rows[r]))
        if len(cols[pc]) > 1:
            # remainders smaller than the pivot stay in its column (Euclid)
            heapq.heappush(heap, top)
            continue

        # over Z, a pivot that does not divide its row leaves the
        # remainders there by column operations; the pivot column is
        # otherwise zero, so they touch no other row
        a = prow[pc]
        if not (small == 1 or all(v % a == 0 for v in prow.values())):
            for c, v in list(prow.items()):
                if c == pc:
                    continue
                if v % a:
                    prow[c] = v % a
                else:
                    del prow[c]
                    cols[c].discard(pr)
            heapq.heappush(heap, entry(pr, prow))
            continue
        retire(pr, pc)
    return pivots, left, len(pivots) if units is None else units


def _divisor_chain(ds: list) -> list:
    """The Smith divisors d1 | d2 | ... of the positive pivots ``ds`` of an
    elimination over Z.

    Units sort to the front and are skipped.  Each later pair (a, b) with
    a not dividing b becomes (gcd, lcm): diag(a, b) and diag(g, a b / g)
    are equivalent over Z.  After pass i, entry i is the gcd of entries i..
    and divides all of them.
    """
    ds = sorted(ds)
    for i in range(ds.count(1), len(ds)):
        for j in range(i + 1, len(ds)):
            a, b = ds[i], ds[j]
            if b % a:
                g = gcd(a, b)
                ds[i], ds[j] = g, a // g * b
    return ds


def smith_normal_form(m: SparseMatrix) -> SmithDecomposition:
    """The Smith divisors d1 | d2 | ... | dr (all positive) of an integer
    matrix, from one untracked elimination."""
    if m.ring.kind != "Z":
        raise ContractViolation("Smith normal form requires integer entries")
    ds = _divisor_chain([d for _, _, d in _eliminate(_cut(m), None)[0]])
    return SmithDecomposition(tuple(ds), m.rows, m.cols)


# ---------------------------------------------------------------------------
# Rank and kernels
# ---------------------------------------------------------------------------


def rank(m: SparseMatrix) -> int:
    """Rank over the fraction field (Q for Z input) or over Z/p."""
    return len(_eliminate(_cut(m), m.ring.p)[0])


def kernel_basis(m: SparseMatrix) -> SparseMatrix:
    """Columns spanning the null space of a matrix over a field.

    A tracked elimination of the transpose, which owns its new rows,
    records its row operations L.  Each row of L mT that is not a pivot
    ends zero, so the matching row of L is a kernel vector of m; L is
    invertible, so these m.cols - rank vectors are independent.
    """
    ring = m.ring
    if not ring.is_field:
        raise ContractViolation("kernel basis requires a field")
    pivots, left, _ = _eliminate(_transposed(m.row_items()), ring.p, True)
    used = {r for r, _, _ in pivots}
    free = [r for r in range(m.cols) if r not in used]
    return SparseMatrix._unchecked(m.cols, len(free), ring, _transposed(
        (j, left.get(r, {r: 1})) for j, r in enumerate(free)))


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologySummary:
    """Per-degree free rank and torsion, the canonical invariant report.

    Keys are integers (homological degree) or (i, j) pairs when a quantum
    grading is available.  Only nonzero groups are stored.  ``build``
    refuses a rank or torsion coefficient that is not an integer, and
    writes each key's torsion as one divisor chain, so that summaries of
    one group compare equal.
    """

    ring: Ring
    groups: tuple  # sorted tuple of (key, free_rank, torsion_tuple)

    @classmethod
    def build(cls, ring: Ring, entries: dict) -> "HomologySummary":
        rows = []
        for key, (free, torsion) in entries.items():
            free = ZZ.coerce(free)
            torsion = list(map(ZZ.coerce, torsion))
            if any(t <= 1 for t in torsion):
                raise ContractViolation("torsion coefficients must exceed 1")
            torsion = tuple(t for t in _divisor_chain(torsion) if t > 1)
            if ring.is_field and torsion:
                raise ContractViolation("field homology cannot carry torsion")
            if free or torsion:
                rows.append(((key,) if isinstance(key, int) else tuple(key),
                             free, torsion))
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
        """Collapse (i, j) keys onto the homological degree i, as
        ungraded."""
        acc = {}
        for k, free, torsion in self.groups:
            f0, t0 = acc.get(k[0], (0, ()))
            acc[k[0]] = (f0 + free, t0 + torsion)
        return HomologySummary.build(self.ring, acc)

    def to_json_dict(self) -> dict:
        out = []
        for k, free, torsion in self.groups:
            entry = {"i": k[0], "free": free, "torsion": list(torsion)}
            if len(k) > 1:
                entry["j"] = k[1]
            out.append(entry)
        return {"ring": str(self.ring), "groups": out}

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


def _rank_torsion(m: SparseMatrix, ring: Ring, rows=None, place=None):
    """(rank, torsion, cancelled) of the block ``_cut`` makes of a differential
    stored over ``ring``: its rank over a field or Smith divisors over Z, the
    torsion at its target being those above 1, and the local rows of its
    unit prefix.  A zero block is not reduced."""
    owned = _cut(m, rows, place)
    if not owned:
        return 0, (), ()
    pivots, _, units = _eliminate(owned, m.ring.p)
    cancelled = tuple(r for r, _, _ in pivots[:units])
    if ring.is_field:
        return len(pivots), (), cancelled
    ds = _divisor_chain([d for _, _, d in pivots])
    return len(pivots), tuple(d for d in ds if d > 1), cancelled


def homology_at(d_in: SparseMatrix, d_out: SparseMatrix, ring: Ring):
    """Homology at the middle of ``. -> C -> .`` given both differentials.

    ``d_in`` maps into the middle module, ``d_out`` maps out of it; both
    are stored over ``ring`` (Z and Q share storage).  Returns
    ``(free_rank, torsion)``; torsion is empty over a field.
    """
    if d_in.rows != d_out.cols:
        raise ContractViolation(
            f"differentials not composable: d_in lands in dim {d_in.rows}, "
            f"d_out expects dim {d_out.cols}")
    if d_in.ring.p != ring.p or d_out.ring.p != ring.p:
        raise ContractViolation(f"differentials are not stored over {ring}")
    if not (d_out * d_in).is_zero():
        raise ContractViolation("d_out * d_in is nonzero; not a complex")
    rank_out = _rank_torsion(d_out, ring)[0]
    rank_in, torsion, _ = _rank_torsion(d_in, ring)
    return d_out.cols - rank_out - rank_in, torsion
