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

A saddle's block depends only on its circle pattern (merge or split, the
circle counts and the touched circles), and a crossing change's only on
the circle count and its two circles.  So a cube build makes each block
once per edge sign, in one dict that lives for the build.  Its key is
flat: the two vertices' arcs at the crossing, their circle counts and the
sign; the pattern is worked out only for a new key.  A cached block is
already multiplied by its sign and reduced into the ring, zeros dropped,
so each entry is written once, as it is stored, and each matrix is
wrapped by ``SparseMatrix._unchecked``.  That is safe by construction:
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
from .errors import ContractViolation
from .exactlinalg import SparseMatrix
from .frobenius import FrobeniusAlgebra


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

    def homology(self, ring=None, graded=None):
        return self.complex.homology(ring=ring, graded=graded)


def _state_order(n: int):
    """All state masks sorted lexicographically by bit tuple (b0, ..., bn-1)."""
    return sorted(range(1 << n), key=lambda m: f"{m:0{n}b}"[::-1])


def _flip(sites, r: int) -> int:
    """The crossings that scheme r resolves positively, as a state mask:
    bit ``sites[k]`` for each set bit k of r."""
    return sum(1 << b for k, b in enumerate(sites) if r >> k & 1)


def _saddle_pattern(src_cfg, tgt_cfg, c: int):
    """Circle pattern of the saddle at crossing c: the key of its block.

    Returns (kind, k_src, k_tgt, src_touched, tgt_touched): a "merge" of
    source circles (i1, i2) into target circle (m,), or a "split" of (i,)
    into (d1, d2).  The untouched circles keep their edges, so they keep
    their order (circles are ordered by minimal edge label, free loops
    last) and fill the remaining target slots in turn: the pattern fixes
    the block.  The target 1-smooths c, so its ``crossing_arcs[c]`` holds
    the merged circle twice, or the two circles of a split.
    """
    i1, i2 = src_cfg.crossing_arcs[c]
    d1, d2 = tgt_cfg.crossing_arcs[c]
    k_src, k_tgt = src_cfg.n_circles, tgt_cfg.n_circles
    if i1 != i2:
        return ("merge", k_src, k_tgt, (i1, i2), (d1,))
    return ("split", k_src, k_tgt, (i1,), (d1, d2))


def _saddle_block(F: FrobeniusAlgebra, pattern):
    """The saddle of one circle pattern as (row, col, value) over the
    2^k_src source generators; each column's terms land on distinct rows.

    Generator index r of a k-circle state has the bit of circle i at weight
    2^(k - 1 - i), matching the lexicographic order of the bit tuples.
    """
    kind, k_src, k_tgt, src_touched, tgt_touched = pattern
    untouched = list(zip(
        [k for k in range(k_src) if k not in src_touched],
        [k for k in range(k_tgt) if k not in tgt_touched]))
    out = []
    for col in range(1 << k_src):
        bits = [col >> (k_src - 1 - i) & 1 for i in range(k_src)]
        base = 0
        for ks, kt in untouched:
            base |= bits[ks] << (k_tgt - 1 - kt)
        if kind == "merge":
            (i1, i2), (m,) = src_touched, tgt_touched
            for b, coef in F.mult_bits(bits[i1], bits[i2]):
                out.append((base | b << (k_tgt - 1 - m), col, coef))
        else:
            (i,), (d1, d2) = src_touched, tgt_touched
            for bl, br, coef in F.comult_bits(bits[i]):
                out.append((base | bl << (k_tgt - 1 - d1)
                            | br << (k_tgt - 1 - d2), col, coef))
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


def _in_ring(F: FrobeniusAlgebra, sign: int, block):
    """``sign`` times a (row, col, value) ``block``, each value reduced into
    the ring, zeros dropped: entries ready to be stored as they are."""
    out = []
    for r, col, v in block:
        v = F.ring.coerce(sign * v)
        if v:
            out.append((r, col, v))
    return out


def _phi_entries(F: FrobeniusAlgebra, blocks: dict, cfg, c: int, sign: int):
    """``sign`` times the crossing change at crossing c out of a state
    ``cfg`` that 1-smooths c, into the state with the same circles that
    0-smooths it, reduced into the ring (see ``_in_ring``); empty where both
    strands lie on one circle.  Cached in ``blocks`` under (arcs of c,
    circle count, sign)."""
    arcs, k = cfg.crossing_arcs[c], cfg.n_circles
    key = (arcs, k, sign)  # shorter than a saddle's key, so never equal
    block = blocks.get(key)
    if block is None:
        i1, i2 = arcs
        block = blocks[key] = (
            [] if i1 == i2 else _in_ring(F, sign, _phi_block(F, k, i1, i2)))
    return block


def build_cube(d: Diagram, F: FrobeniusAlgebra, normalize: bool = True) -> CubeComplex:
    """Evaluated cube of resolutions of a diagram without double points.

    With ``normalize`` the cube is built in its final degrees, shifted by
    -n_minus (see ``_bracket_cube``); at (h, t) = (0, 0) the quantum
    grading j = internal + |s| + n_plus - 2*n_minus is attached either way.
    d^2 = 0 is checked once, on the cube as built.
    """
    cube = _bracket_cube(d, F, -d.n_minus if normalize else 0)
    cube.complex.validate()
    return cube


def _bracket_cube(d: Diagram, F: FrobeniusAlgebra, shift: int,
                  sites=()) -> CubeComplex:
    """The cube of resolutions of ``d`` over its crossings and the double
    points ``sites``, built in place as W[shift], unchecked: the caller
    checks d^2 = 0 on it or on the complex it is assembled into.

    Vertex (r, s) (see ``CubeComplex``) sits in degree |s| + 2|r| + shift;
    within a degree the vertices are laid out by r, then by s, each in
    bit-tuple order.  A saddle edge (r, s) -> (r, s + c) is its check sign
    times its ``_saddle_block``; a crossing-change edge (r, s) ->
    (r + k, s - b) at b = ``sites[k]`` is minus its check sign times its
    ``_phi_block``.  Both carry (-1)^shift, the sign W[shift] gives the
    differential.  At (h, t) = (0, 0) vertex (r, s) has quantum degrees
    internal + |s| + n_plus - 2 * n_minus of its resolved diagram.  Each
    planar smoothing is resolved once (see the module docstring), each
    block is built once per sign, already in the ring, in a dict for this
    call, and the rows are stored unchecked."""
    n = d.n_crossings
    parity = -1 if shift % 2 else 1
    neg = d  # every site resolved negatively
    for b in sites:
        neg = neg.resolve_double_point(b, -1)
    configs = [neg.resolve_bits(s) for s in range(1 << n)]
    flips = [_flip(sites, r) for r in range(1 << len(sites))]
    # a positive site moves a crossing from n_minus to n_plus: 3 more
    q_neg = neg.n_plus - 2 * neg.n_minus
    # circle count k -> internal q-degree of each of its 2^k generators
    internal = {k: [k - 2 * g.bit_count() for g in range(1 << k)]
                for k in {cfg.n_circles for cfg in configs}}
    levels = {}  # degree -> its vertices in layout order
    s_order = _state_order(n)
    for r in _state_order(len(sites)):
        for s in s_order:
            levels.setdefault(s.bit_count() + 2 * r.bit_count() + shift,
                              []).append((r, s))
    offsets = {}
    ranks = {}
    qdeg = {} if F.graded else None
    for deg, vertices in levels.items():
        for r, s in vertices:
            k = configs[s ^ flips[r]].n_circles
            offsets[(r, s)] = ranks.get(deg, 0)
            ranks[deg] = offsets[(r, s)] + (1 << k)
            if qdeg is not None:
                j = s.bit_count() + q_neg + 3 * r.bit_count()
                qdeg.setdefault(deg, []).extend(v + j for v in internal[k])

    blocks = {}  # edge key -> its signed, ring-reduced entries, for this call
    diffs = {}
    for deg in sorted(levels):
        rows = {}
        # distinct edges never share an entry, nor terms of one edge
        for r, s in levels[deg]:
            flip = flips[r]
            cfg = configs[s ^ flip]
            arcs, k_src = cfg.crossing_arcs, cfg.n_circles
            col0 = offsets[(r, s)]
            sign = parity  # (-1)^shift times the check sign of bit c
            for c in range(n):
                if s >> c & 1:
                    sign = -sign
                    continue
                tgt = (r, s | 1 << c)
                tcfg = configs[tgt[1] ^ flip]
                key = (arcs[c], tcfg.crossing_arcs[c], k_src, tcfg.n_circles,
                       sign)
                block = blocks.get(key)
                if block is None:
                    block = blocks[key] = _in_ring(F, sign, _saddle_block(
                        F, _saddle_pattern(cfg, tcfg, c)))
                row0 = offsets[tgt]
                for i, j, v in block:
                    rows.setdefault(row0 + i, {})[col0 + j] = v
            for k, b in enumerate(sites):
                if r >> k & 1 or not s >> b & 1:
                    continue
                # the target vertex is smoothing cfg too
                row0 = offsets[(r | 1 << k, s & ~(1 << b))]
                for i, j, v in _phi_entries(F, blocks, cfg, b,
                                            -parity * _sign_bits(s, b)):
                    rows.setdefault(row0 + i, {})[col0 + j] = v
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
    separately resolved diagrams meet, so their circles are compared."""
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
        cfg = src.configs[s ^ flip]
        if tgt.configs[t[1] ^ flip].circles != cfg.circles:
            raise ContractViolation(
                "resolved configurations disagree; inconsistent cubes")
        block = _phi_entries(F, blocks, cfg, c, _sign_bits(s, c))
        if block:
            rows = comps.setdefault(
                s.bit_count() + 2 * r.bit_count() + src.shift, {})
            row0 = tgt.offsets[t]
            for i, j, v in block:
                rows.setdefault(row0 + i, {})[col0 + j] = v
    return ChainMap(src.complex, tgt.complex, {
        deg: SparseMatrix._unchecked(tgt.complex.rank(deg),
                                     src.complex.rank(deg), F.ring, rows)
        for deg, rows in comps.items()})


def cone_pieces(cube: CubeComplex, c: int):
    """Split the unnormalized bracket cube at crossing c into cone data.

    Returns (X, Y, g) where X collects the states with c 0-smoothed, Y the
    states with c 1-smoothed (as W[-1]: one degree down, differential
    negated), and g: X -> Y is minus the connecting block, so that the
    bracket complex is Cone(g) shifted by one.  Generators are found by
    state offset and bit index, and keep their order in the cube.  X and Y
    are not checked again: their d^2 are diagonal blocks of the cube's, as
    d never leaves the Y states.
    """
    if cube.shift or cube.sites:
        raise ContractViolation("cone splitting works on the bracket cube")
    cx = cube.complex
    bit = 1 << c
    x_idx = {}  # degree of the cube -> indices there of X's generators
    y_idx = {}
    for (_r, mask), off in sorted(cube.offsets.items(), key=lambda kv: kv[1]):
        idx = y_idx if mask & bit else x_idx
        idx.setdefault(mask.bit_count(), []).extend(
            range(off, off + (1 << cube.configs[mask].n_circles)))
    X = _sub_complex(cx, x_idx)
    Y = _sub_complex(cx, y_idx).shift(-1)
    comps = {w: -cx.diff(w).submatrix(y_idx[w + 1], xs)
             for w, xs in x_idx.items() if w + 1 in y_idx}
    return X, Y, ChainMap(X, Y, comps)


def _sub_complex(cx: ChainComplex, idx: dict) -> ChainComplex:
    """The generators ``idx[w]`` of each degree w of ``cx`` with the
    restricted differential; unchecked, as a diagonal block of a checked
    complex."""
    diffs = {w: cx.diff(w).submatrix(idx[w + 1], ix)
             for w, ix in idx.items() if w + 1 in idx}
    return ChainComplex._unchecked(
        cx.ring, {w: len(ix) for w, ix in idx.items()}, diffs)
