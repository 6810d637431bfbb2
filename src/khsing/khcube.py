"""The cube of resolutions of a diagram, evaluated to a Khovanov complex.

A vertex (r, s) of the cube resolves each double point (bitmask r; a set
bit resolves positively) and smooths each crossing (bitmask s); it
contributes the tensor power of the Frobenius algebra over its circles.
The differential has two kinds of edges: a saddle 1-smooths one more
crossing, and a crossing change resolves one more double point
positively, through the genus-one morphism.  Each edge is weighted by the
alternating check sign of its bit in s.  With no double points this is the
ordinary Khovanov cube.

A crossing change swaps the 0- and 1-smoothing of its site, so vertex
(r, s) is smoothing s ^ ``_flip(sites, r)`` of the diagram with every site
resolved negatively, and a crossing-change edge joins two vertices of one
smoothing.  Its arcs are those of piece r but at a site that r resolves
positively and s 0-smooths, where they come reversed; only the saddle out
of the vertex reads them, and its block is symmetric in the two circles
(m and Delta are (co)commutative).

Generator order is by vertex (r, then s, each lexicographic in the bit
tuple), then lexicographic in the circle bit tuple, so matrices are
reproducible across runs.  This module is the one place that knows it.

A saddle is a local cobordism on the one or two circles it touches,
tensored with the identity on all the others (Bar-Natan), so its block
is the two-circle table of ``mult_bits`` or ``comult_bits`` times the
identity on the untouched circles.  The table is signed and reduced into
the ring once, for its at most 4 input bit patterns; the untouched
circles keep their order, so each column moves them by a few
mask-and-shift runs.  A block depends only on its circle pattern (merge
or split, the circle counts and the touched circles), and a crossing
change's only on the circle count and its two circles.  So a cube build
makes each block once per edge sign, in one dict that lives for the
build, keyed by the two vertices' arcs at the crossing, their circle
counts and the sign.  A cached block is already multiplied by its sign
and reduced into the ring, zeros dropped, so each entry is written once,
as it is stored, and each matrix is wrapped by
``SparseMatrix._unchecked``.  That is safe by construction:
``Ring.coerce`` made every value, every index is a generator of the two
vertices (an offset plus circle bits below 2^k), no zero is written, and
a row exists only once a value lands in it.  Distinct edges never share
an entry, so nothing is summed.  ``_phi_map`` assembles the
crossing-change chain map between two cubes the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import ChainComplex, ChainMap
from .diagram import Diagram
from .errors import ContractViolation, ParseError
from .exactlinalg import SparseMatrix
from .frobenius import FrobeniusAlgebra

MAX_GENERATORS = 1 << 22  # about 18 times the 235,890 of T(3,7)
_TOO_LARGE = f"diagram too large: over {MAX_GENERATORS} generators in its cube"


def _sign_bits(mask: int, c: int) -> int:
    """(-1)^(number of set bits below c): the wedge sign of adding bit c to
    the mask and the check sign of removing it."""
    return -1 if (mask & ((1 << c) - 1)).bit_count() & 1 else 1


# ---------------------------------------------------------------------------
# Cube construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubeComplex:
    """Evaluated cube of resolutions of a diagram plus generator metadata.

    ``complex`` holds the matrices.  A vertex (r, s) resolves double point
    ``sites[k]`` positively where bit k of r is set (negatively otherwise)
    and 1-smooths crossing c where bit c of s is set; it sits in degree
    |s| + 2|r| + ``shift``.  A generator is identified by its vertex offset
    and bit index: generator ``offsets[(r, s)] + g`` of that degree assigns
    to circle i of the vertex (in canonical circle order) the bit of g at
    weight 2^(k - 1 - i), 0 for the unit and 1 for x.  ``configs`` lists
    the circle configurations of the 2^n planar smoothings by state mask:
    vertex (r, s) has ``configs[s ^ _flip(sites, r)]`` (see the module
    docstring).  With no sites, r is 0.
    """

    complex: ChainComplex
    diagram: Diagram
    algebra: FrobeniusAlgebra
    shift: int
    sites: tuple
    configs: list
    offsets: dict

    def homology(self, graded=None):
        return self.complex.homology(graded=graded)


def _state_order(n: int):
    """All state masks sorted lexicographically by bit tuple (b0, ..., bn-1).

    Built by doubling: the masks with bit k set follow those without, in
    the same order, for k from n - 1 down to 0, so bit 0 decides first."""
    order = [0]
    for k in reversed(range(n)):
        order += [m | 1 << k for m in order]
    return order


def _flip(sites, r: int) -> int:
    """The crossings that scheme r resolves positively, as a state mask:
    bit ``sites[k]`` for each set bit k of r."""
    return sum(1 << b for k, b in enumerate(sites) if r >> k & 1)


def _saddle_entries(F: FrobeniusAlgebra, sign: int, src_arcs, tgt_arcs,
                    k_src: int, k_tgt: int):
    """``sign`` times the saddle from a k_src-circle state with arcs
    ``src_arcs`` at its crossing to a k_tgt-circle state with arcs
    ``tgt_arcs`` there, as (row, col, value) over the 2^k_src source
    generators in column order, reduced into the ring, zeros dropped.

    Source circles (i1, i2) merge into target circle m, or i splits into
    (d1, d2): the target 1-smooths the crossing, so its arcs hold the
    merged circle twice, or the two circles of the split.  Generator g of
    a k-circle state has the bit of circle i at weight 2^(k - 1 - i).  The
    block is the table of ``mult_bits`` or ``comult_bits``, keyed by a
    column's touched bits, times the identity on the untouched circles.
    Those keep their edges, so they keep their order (circles are ordered
    by minimal edge label, free loops last) and fill the remaining target
    slots in turn: each moves by a fixed shift, and the circles of one
    shift move as one mask.
    """
    i1, i2 = src_arcs
    w1, w2 = 1 << (k_src - 1 - i1), 1 << (k_src - 1 - i2)
    table = {}  # touched bits of a column -> [(target bits, coefficient)]
    if i1 != i2:
        m = 1 << (k_tgt - 1 - tgt_arcs[0])
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            table[a * w1 | b * w2] = [(bit * m, v)
                                      for bit, v in F.mult_bits(a, b)]
        touched, landed = src_arcs, tgt_arcs[:1]
    else:
        d1, d2 = (1 << (k_tgt - 1 - d) for d in tgt_arcs)
        for a in (0, 1):
            table[a * w1] = [(bl * d1 | br * d2, v)
                             for bl, br, v in F.comult_bits(a)]
        touched, landed = src_arcs[:1], tgt_arcs
    coerce = F.ring.coerce
    table = {key: [(bits, w) for bits, v in terms if (w := coerce(sign * v))]
             for key, terms in table.items()}
    runs = {}  # shift -> source mask of the untouched circles it moves
    for ks, kt in zip([k for k in range(k_src) if k not in touched],
                      [k for k in range(k_tgt) if k not in landed]):
        shift = k_tgt - k_src + ks - kt
        runs[shift] = runs.get(shift, 0) | 1 << (k_src - 1 - ks)
    up = [(sh, mask) for sh, mask in runs.items() if sh >= 0]
    down = [(-sh, mask) for sh, mask in runs.items() if sh < 0]
    out = []
    for col in range(1 << k_src):
        base = 0
        for sh, mask in up:
            base |= (col & mask) << sh
        for sh, mask in down:
            base |= (col & mask) >> sh
        for bits, v in table[col & (w1 | w2)]:
            out.append((base | bits, col, v))
    return out


def _phi_block(F: FrobeniusAlgebra, k: int, i1: int, i2: int):
    """(x on circle i2) - (x on circle i1) on the 2^k generators of a state,
    as (row, col, value) with colliding terms summed (at h != 0 the two
    x-terms cancel on the diagonal) and zeros dropped."""
    w1, w2 = 1 << (k - 1 - i1), 1 << (k - 1 - i2)
    entries = {}
    for col in range(1 << k):
        for w, sign in ((w2, 1), (w1, -1)):
            for bit, coef in F.mult_bits(1, 1 if col & w else 0):
                r = col & ~w | (w if bit else 0)
                entries[(r, col)] = entries.get((r, col), 0) + sign * coef
    return [(r, col, v) for (r, col), v in entries.items() if v]


def _phi_entries(F: FrobeniusAlgebra, blocks: dict, cfg, c: int, sign: int):
    """``sign`` times the crossing change at crossing c out of a state
    ``cfg`` that 1-smooths c, into the state with the same circles that
    0-smooths it, reduced into the ring, zeros dropped; empty where both
    strands lie on one circle.  Cached in ``blocks`` under (arcs of c,
    circle count, sign)."""
    arcs, k = cfg.crossing_arcs[c], cfg.n_circles
    key = (arcs, k, sign)  # shorter than a saddle's key, so never equal
    block = blocks.get(key)
    if block is None:
        i1, i2 = arcs
        block = blocks[key] = [] if i1 == i2 else [
            (r, col, w) for r, col, v in _phi_block(F, k, i1, i2)
            if (w := F.ring.coerce(sign * v))]
    return block


def build_cube(d: Diagram, F: FrobeniusAlgebra) -> CubeComplex:
    """Evaluated cube of resolutions of a diagram without double points.

    The cube is built in its final degrees, shifted by -n_minus (see
    ``_bracket_cube``); at (h, t) = (0, 0) it carries the quantum grading
    j = internal + |s| + n_plus - 2*n_minus.  d^2 = 0 is checked once, on
    the cube as built.
    """
    cube = _bracket_cube(d, F, -d.n_minus)
    cube.complex.validate()
    return cube


def _put(rows: dict, block, row0: int, col0: int):
    """Write a (row, col, value) ``block`` into ``rows`` at (row0, col0); a
    row is made by its first entry."""
    get = rows.get
    for i, j, v in block:
        i += row0
        row = get(i)
        if row is None:
            rows[i] = {col0 + j: v}
        else:
            row[col0 + j] = v


def _bracket_cube(d: Diagram, F: FrobeniusAlgebra, shift: int,
                  sites=()) -> CubeComplex:
    """The cube of resolutions of ``d`` over its crossings and the double
    points ``sites``, built in place as W[shift], unchecked: the caller
    checks d^2 = 0 on it or on the complex it is assembled into.

    Vertex (r, s) (see ``CubeComplex``) sits in degree |s| + 2|r| + shift;
    within a degree the vertices are laid out by r, then by s, each in
    bit-tuple order.  A saddle edge (r, s) -> (r, s + c) is its check sign
    times its ``_saddle_entries``: the two-circle table of the saddle times
    the identity on the untouched circles.  A crossing-change edge
    (r, s) -> (r + k, s - b) at b = ``sites[k]`` is minus its check sign
    times its ``_phi_block``.  Both carry (-1)^shift, the sign W[shift]
    gives the differential.  At (h, t) = (0, 0) vertex (r, s) has quantum
    degrees internal + |s| + n_plus - 2 * n_minus of its resolved diagram.
    Each planar smoothing is resolved once (see the module docstring),
    each block is built once per sign, already in the ring, in a dict for
    this call, and the rows are stored unchecked.  The edge loop reads the
    vertex offsets from lists indexed [r][s]; ``offsets`` is their dict.
    Over ``MAX_GENERATORS`` generators raise ParseError: before resolving
    if the free loops (and one circle more if n > 0) give too many, else
    as they are resolved."""
    n, m = d.n_crossings, len(sites)
    if n + m + d.free_loops + (n > 0) >= MAX_GENERATORS.bit_length():
        raise ParseError(_TOO_LARGE)
    parity = -1 if shift % 2 else 1
    neg = d  # every site resolved negatively
    for b in sites:
        neg = neg.resolve_double_point(b, -1)
    configs, size = [], 0
    for s in range(1 << n):
        configs.append(neg.resolve_bits(s))
        size += 1 << (configs[-1].n_circles + m)
        if size > MAX_GENERATORS:
            raise ParseError(_TOO_LARGE)
    flips = [_flip(sites, r) for r in range(1 << m)]
    # a positive site moves a crossing from n_minus to n_plus: 3 more
    q_neg = neg.n_plus - 2 * neg.n_minus
    # circle count k -> internal q-degree of each of its 2^k generators
    internal = {k: [k - 2 * g.bit_count() for g in range(1 << k)]
                for k in {cfg.n_circles for cfg in configs}}
    levels = {}  # degree -> its vertices in layout order
    s_order = _state_order(n)
    for r in _state_order(m):
        for s in s_order:
            levels.setdefault(s.bit_count() + 2 * r.bit_count() + shift,
                              []).append((r, s))
    at = [[0] * (1 << n) for _ in flips]  # at[r][s]: offset of vertex (r, s)
    offsets, ranks = {}, {}
    qdeg = {} if F.graded else None
    for deg, vertices in levels.items():
        rank = 0
        for r, s in vertices:
            k = configs[s ^ flips[r]].n_circles
            offsets[(r, s)] = at[r][s] = rank
            rank += 1 << k
            if qdeg is not None:
                j = s.bit_count() + q_neg + 3 * r.bit_count()
                qdeg.setdefault(deg, []).extend(v + j for v in internal[k])
        ranks[deg] = rank

    blocks = {}  # edge key -> its signed, ring-reduced entries, for this call
    diffs = {}
    for deg in sorted(levels):
        rows = {}
        # distinct edges never share an entry, nor terms of one edge
        for r, s in levels[deg]:
            flip, at_r = flips[r], at[r]
            cfg = configs[s ^ flip]
            arcs, k_src = cfg.crossing_arcs, cfg.n_circles
            col0 = at_r[s]
            sign = parity  # (-1)^shift times the check sign of bit c
            for c in range(n):
                if s >> c & 1:
                    sign = -sign
                    continue
                t = s | 1 << c
                tcfg = configs[t ^ flip]
                key = (arcs[c], tcfg.crossing_arcs[c], k_src, tcfg.n_circles,
                       sign)
                block = blocks.get(key)
                if block is None:
                    block = blocks[key] = _saddle_entries(F, sign, *key[:4])
                _put(rows, block, at_r[t], col0)
            for k, b in enumerate(sites):
                if r >> k & 1 or not s >> b & 1:
                    continue
                # the target vertex is smoothing cfg too
                _put(rows, _phi_entries(F, blocks, cfg, b,
                                        -parity * _sign_bits(s, b)),
                     at[r | 1 << k][s & ~(1 << b)], col0)
        if rows:
            diffs[deg] = SparseMatrix._unchecked(ranks[deg + 1], ranks[deg],
                                                 F.ring, rows)
    cx = ChainComplex._unchecked(F.ring, ranks, diffs, qdeg)
    return CubeComplex(cx, d, F, shift, tuple(sites), configs, offsets)


def _phi_map(src: CubeComplex, tgt: CubeComplex, c: int) -> ChainMap:
    """The crossing-change map at the negative crossing c of ``src`` into
    ``tgt``, the cube over the same sites with c made positive, built one
    degree up so that the map has degree 0.  Unchecked.

    Vertex (r, s) with c 1-smoothed maps to (r, s - c) by its check sign
    times its ``_phi_block``; every other vertex maps to zero.  Here two
    separately resolved diagrams meet, so their circles are compared: as
    the walk data they are derived from (edge labels, the circle of each
    edge and the circle count), which are equal exactly when the circles
    are."""
    if tgt.shift != src.shift + 1:
        raise ContractViolation(f"crossing {c} is not negative")
    F = src.algebra
    blocks = {}
    comps = {}
    for (r, s), col0 in src.offsets.items():
        if not s >> c & 1:
            continue
        t = (r, s & ~(1 << c))
        flip = _flip(src.sites, r)
        cfg, tcfg = src.configs[s ^ flip], tgt.configs[t[1] ^ flip]
        if ((cfg.labels, cfg.edge_circles, cfg.n_circles)
                != (tcfg.labels, tcfg.edge_circles, tcfg.n_circles)):
            raise ContractViolation(
                "resolved configurations disagree; inconsistent cubes")
        block = _phi_entries(F, blocks, cfg, c, _sign_bits(s, c))
        if block:
            _put(comps.setdefault(
                s.bit_count() + 2 * r.bit_count() + src.shift, {}),
                block, tgt.offsets[t], col0)
    return ChainMap(src.complex, tgt.complex, {
        deg: SparseMatrix._unchecked(tgt.complex.rank(deg),
                                     src.complex.rank(deg), F.ring, rows)
        for deg, rows in comps.items()})
