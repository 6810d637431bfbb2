"""The evaluated bracket and Khovanov complex of an ordinary diagram.

States are subsets of the crossing set (encoded as bitmasks); each state
contributes the tensor power of the Frobenius algebra over its smoothing
circles.  The differential is the sum over (state, crossing) pairs of the
evaluated saddle, weighted by the alternating wedge sign.

Generator order is lexicographic in the state bit tuple, then lexicographic
in the circle bit tuple, so matrices are reproducible across runs.

A saddle's block depends only on its circle pattern (merge or split, the
circle counts and the touched circles), so each cube build makes each
block once, in a dict keyed by that pattern that lives for the build.
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
    """Evaluated complex of an ordinary diagram plus generator metadata.

    ``complex`` holds the matrices.  A generator is identified by its state
    offset and bit index: a state of weight w sits in degree w + ``shift``,
    and generator ``offsets[mask] + r`` of that degree assigns to circle i
    of the state (in canonical circle order) the bit of r at weight
    2^(k - 1 - i), 0 for the unit and 1 for x.  ``configs`` caches the
    circle configuration of every state.
    """

    complex: ChainComplex
    diagram: Diagram
    algebra: FrobeniusAlgebra
    shift: int
    configs: dict
    offsets: dict

    def homology(self, ring=None, graded=None):
        return self.complex.homology(ring=ring, graded=graded)


def _place(rows: dict, row0: int, col0: int, sign: int, block) -> None:
    """Write ``sign`` times a (row, col, value) ``block`` into the rows
    ``{row: {col: value}}`` with its corner at (row0, col0)."""
    for r, col, v in block:
        rows.setdefault(row0 + r, {})[col0 + col] = sign * v


def _state_order(n: int):
    """All state masks sorted lexicographically by bit tuple (b0, ..., bn-1)."""
    masks = list(range(1 << n))
    masks.sort(key=lambda m: tuple((m >> i) & 1 for i in range(n)))
    return masks


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
    if d1 == d2:
        raise ContractViolation(
            "saddle does not change the circle count; diagram is not planar")
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


def _bracket_cube(d: Diagram, F: FrobeniusAlgebra, shift: int) -> CubeComplex:
    """The bracket cube of ``d`` built in place as W[shift], unchecked: the
    caller checks d^2 = 0 on it or on the complex it is assembled into.

    A state of weight w sits in degree w + shift.  Each (state, crossing)
    edge is its check sign times the ``_saddle_block`` of its
    ``_saddle_pattern``, and times (-1)^shift, the sign W[shift] gives its
    differential; the blocks are kept in a dict keyed by pattern for the
    length of this call."""
    if d.n_singular:
        raise ContractViolation(
            "diagram has double points; build the singular complex instead")
    n = d.n_crossings
    n_plus, n_minus = d.n_plus, d.n_minus
    ring = F.ring
    parity = -1 if shift % 2 else 1

    configs = {mask: d.resolve_bits(mask) for mask in range(1 << n)}
    # circle count k -> internal q-degree of each of its 2^k generators
    internal = {k: [k - 2 * r.bit_count() for r in range(1 << k)]
                for k in {cfg.n_circles for cfg in configs.values()}}
    levels = {}
    offsets = {}
    ranks = {}
    qdeg = {} if F.graded else None
    for mask in _state_order(n):
        w = mask.bit_count()
        levels.setdefault(w, []).append(mask)
        k = configs[mask].n_circles
        offsets[mask] = ranks.get(w + shift, 0)
        ranks[w + shift] = offsets[mask] + (1 << k)
        if qdeg is not None:
            qdeg.setdefault(w + shift, []).extend(
                v + w + n_plus - 2 * n_minus for v in internal[k])

    blocks = {}  # circle pattern -> _saddle_block, for this call only
    diffs = {}
    for w in sorted(levels):
        if w + 1 not in levels:
            continue
        entries = {}
        for mask in levels[w]:
            src_cfg = configs[mask]
            src_off = offsets[mask]
            for c in range(n):
                if mask >> c & 1:
                    continue
                tgt_mask = mask | (1 << c)
                pattern = _saddle_pattern(src_cfg, configs[tgt_mask], c)
                block = blocks.get(pattern)
                if block is None:
                    block = blocks[pattern] = _saddle_block(F, pattern)
                # distinct edges never share an entry, nor terms of one edge
                _place(entries, offsets[tgt_mask], src_off,
                       parity * _sign_bits(mask, c), block)
        deg = w + shift
        diffs[deg] = SparseMatrix(ranks[deg + 1], ranks[deg], ring, entries)

    cx = ChainComplex._unchecked(ring, ranks, diffs, qdeg)
    return CubeComplex(cx, d, F, shift, configs, offsets)


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def dualize(c) -> ChainComplex:
    """Degreewise dual: degree i becomes -i, differentials transpose,
    quantum degrees negate."""
    cx = c.complex if isinstance(c, CubeComplex) else c
    return cx.dual()


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
    if cube.shift:
        raise ContractViolation("cone splitting works on the bracket cube")
    cx = cube.complex
    bit = 1 << c
    x_idx = {}  # degree of the cube -> indices there of X's generators
    y_idx = {}
    for mask, off in sorted(cube.offsets.items(), key=lambda kv: kv[1]):
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
