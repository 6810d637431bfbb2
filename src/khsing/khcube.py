"""The evaluated bracket and Khovanov complex of an ordinary diagram.

States are subsets of the crossing set (encoded as bitmasks); each state
contributes the tensor power of the Frobenius algebra over its smoothing
circles.  The differential is the sum over (state, crossing) pairs of the
evaluated saddle, weighted by the alternating wedge sign.

Generator order is lexicographic in the state bit tuple, then lexicographic
in the circle bit tuple, so matrices are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .chain import ChainComplex, ChainMap
from .diagram import Diagram
from .errors import ContractViolation
from .exactlinalg import SparseMatrix
from .frobenius import FrobeniusAlgebra

# ---------------------------------------------------------------------------
# Sign modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignModule:
    """A subset A of a totally ordered finite label set."""

    universe: tuple
    subset: frozenset

    def __post_init__(self):
        if not self.subset <= set(self.universe):
            raise ContractViolation("subset not contained in the universe")


def _position(universe, c):
    try:
        return universe.index(c)
    except ValueError:
        raise ContractViolation(f"label {c!r} not in the universe")


def wedge_sign(A: SignModule, c, side: str = "left"):
    """Adjoin ``c`` to the subset; returns (sign, target) with sign 0 if c in A.

    The left wedge counts smaller subset elements, the right wedge larger
    ones; either way the sign is (-1) to that count.
    """
    pos = _position(A.universe, c)
    if c in A.subset:
        return 0, None
    if side == "left":
        count = sum(1 for a in A.subset if _position(A.universe, a) < pos)
    elif side == "right":
        count = sum(1 for a in A.subset if _position(A.universe, a) > pos)
    else:
        raise ContractViolation(f"unknown wedge side {side!r}")
    return (-1) ** count, SignModule(A.universe, A.subset | {c})


def check_sign(A: SignModule, c):
    """Remove ``c`` from the subset; returns (sign, target) with sign 0 if absent."""
    pos = _position(A.universe, c)
    if c not in A.subset:
        return 0, None
    count = sum(1 for a in A.subset if _position(A.universe, a) < pos)
    return (-1) ** count, SignModule(A.universe, A.subset - {c})


def shuffle_sign(A: SignModule) -> int:
    """Sign of the shuffle sorting (A, complement) into the universe order."""
    order = {c: i for i, c in enumerate(A.universe)}
    inside = sorted(order[c] for c in A.subset)
    outside = sorted(order[c] for c in A.universe if c not in A.subset)
    inversions = 0
    for a in inside:
        for b in outside:
            if a > b:
                inversions += 1
    return (-1) ** inversions


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

    ``complex`` holds the matrices; basis labels are (state_mask, bits)
    pairs, where ``bits`` assigns 0 (the unit) or 1 (the generator x) to each
    circle of the state in canonical circle order.  ``configs`` caches the
    circle configuration of every state.
    """

    complex: ChainComplex
    diagram: Diagram
    algebra: FrobeniusAlgebra
    n_plus: int
    n_minus: int
    normalized: bool
    configs: dict

    def degree_of_state(self, mask: int) -> int:
        w = mask.bit_count()
        return w - self.n_minus if self.normalized else w

    def generator_index(self, mask: int, bits) -> tuple:
        """(degree, index) of a generator given by state mask and circle bits."""
        deg = self.degree_of_state(mask)
        label = (mask, tuple(bits))
        basis = self.complex.basis[deg]
        return deg, basis.index(label)

    def homology(self, ring=None, graded=None):
        return self.complex.homology(ring=ring, graded=graded)


def _state_order(n: int):
    """All state masks sorted lexicographically by bit tuple (b0, ..., bn-1)."""
    masks = list(range(1 << n))
    masks.sort(key=lambda m: tuple((m >> i) & 1 for i in range(n)))
    return masks


def _bits_tuples(k: int):
    return list(product((0, 1), repeat=k))


def _saddle_targets(src_cfg, tgt_cfg, c: int, crossing):
    """Circle bookkeeping for the saddle at crossing c.

    Returns ("merge", idx_map, i1, i2, m) or ("split", idx_map, i, d1, d2),
    where idx_map sends untouched source circle indices to target indices.
    """
    a, b = crossing[0], crossing[1]
    i1, i2 = src_cfg.crossing_arcs[c]
    idx_map = {}
    for k, circ in enumerate(src_cfg.circles):
        if k in (i1, i2):
            continue
        if isinstance(circ[0], tuple) or circ and isinstance(circ[0], str):
            continue  # free loops handled below
        idx_map[k] = tgt_cfg.edge_circle[circ[0]]
    # free loops occupy the trailing slots in both configurations
    n_src_real = sum(1 for circ in src_cfg.circles if not isinstance(circ[0], str))
    n_tgt_real = sum(1 for circ in tgt_cfg.circles if not isinstance(circ[0], str))
    for k in range(len(src_cfg.circles) - n_src_real):
        idx_map[n_src_real + k] = n_tgt_real + k
    if i1 != i2:
        m = tgt_cfg.edge_circle[a]
        return ("merge", idx_map, i1, i2, m)
    d1 = tgt_cfg.edge_circle[a]
    d2 = tgt_cfg.edge_circle[b]
    if d1 == d2:
        raise ContractViolation(
            "saddle does not change the circle count; diagram is not planar")
    return ("split", idx_map, i1, d1, d2)


def build_cube(d: Diagram, F: FrobeniusAlgebra, normalize: bool = True) -> CubeComplex:
    """Evaluated cube of resolutions of a diagram without double points.

    With ``normalize`` the homological grading is shifted by -n_minus (and
    the differential picks up the matching sign); at (h, t) = (0, 0) the
    quantum grading j = internal + |s| + n_plus - 2*n_minus is attached.
    d^2 = 0 is checked once, on the bracket cube.
    """
    cube = _bracket_cube(d, F)
    cube.complex.validate()
    if not normalize:
        return cube
    return replace(cube, complex=cube.complex.shift(-cube.n_minus),
                   normalized=True)


def _bracket_cube(d: Diagram, F: FrobeniusAlgebra) -> CubeComplex:
    """The unnormalized cube of ``build_cube``, unchecked: the caller checks
    d^2 = 0 on it or on the complex it is assembled into."""
    if d.n_singular:
        raise ContractViolation(
            "diagram has double points; build the singular complex instead")
    n = d.n_crossings
    n_plus, n_minus = d.n_plus, d.n_minus
    ring = F.ring

    configs = {mask: d.resolve_bits(mask) for mask in range(1 << n)}
    levels = {}
    for mask in _state_order(n):
        levels.setdefault(mask.bit_count(), []).append(mask)

    offsets = {}
    ranks = {}
    for w, masks in levels.items():
        off = 0
        for mask in masks:
            offsets[mask] = off
            off += 1 << configs[mask].n_circles
        ranks[w] = off

    basis = {}
    qdeg = {} if F.graded else None
    for w, masks in levels.items():
        labels = []
        qs = []
        for mask in masks:
            k = configs[mask].n_circles
            for bits in _bits_tuples(k):
                labels.append((mask, bits))
                if qdeg is not None:
                    internal = k - 2 * sum(bits)
                    qs.append(internal + w + n_plus - 2 * n_minus)
        basis[w] = tuple(labels)
        if qdeg is not None:
            qdeg[w] = tuple(qs)

    diffs = {}
    for w in sorted(levels):
        if w + 1 not in levels:
            continue
        entries = {}
        for mask in levels[w]:
            src_cfg = configs[mask]
            src_off = offsets[mask]
            k_src = src_cfg.n_circles
            for c in range(n):
                if mask >> c & 1:
                    continue
                sign = _sign_bits(mask, c)
                tgt_mask = mask | (1 << c)
                tgt_cfg = configs[tgt_mask]
                tgt_off = offsets[tgt_mask]
                k_tgt = tgt_cfg.n_circles
                kind = _saddle_targets(src_cfg, tgt_cfg, c, d.crossings[c])
                for col_ix, bits in enumerate(_bits_tuples(k_src)):
                    col = src_off + col_ix
                    if kind[0] == "merge":
                        _, idx_map, i1, i2, m = kind
                        base = [0] * k_tgt
                        for ksrc, ktgt in idx_map.items():
                            base[ktgt] = bits[ksrc]
                        for bit, coef in F.mult_bits(bits[i1], bits[i2]):
                            tb = list(base)
                            tb[m] = bit
                            row = tgt_off + _bits_rank(tb)
                            _acc(entries, row, col, sign * coef)
                    else:
                        _, idx_map, i, d1, d2 = kind
                        base = [0] * k_tgt
                        for ksrc, ktgt in idx_map.items():
                            base[ktgt] = bits[ksrc]
                        for bl, br, coef in F.comult_bits(bits[i]):
                            tb = list(base)
                            tb[d1] = bl
                            tb[d2] = br
                            row = tgt_off + _bits_rank(tb)
                            _acc(entries, row, col, sign * coef)
        diffs[w] = SparseMatrix(ranks[w + 1], ranks[w], ring, entries)

    cx = ChainComplex._unchecked(ring, ranks, diffs, basis, qdeg)
    return CubeComplex(cx, d, F, n_plus, n_minus, False, configs)


def _bits_rank(bits) -> int:
    r = 0
    for b in bits:
        r = (r << 1) | b
    return r


def _acc(entries, row, col, val):
    """Add the integer ``val`` into ``entries[(row, col)]``; the matrix built
    from ``entries`` reduces the sums into its ring and drops zeros."""
    entries[(row, col)] = entries.get((row, col), 0) + val


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

    Returns (X, Y, g) where X collects the states with c unsmoothed, Y the
    states with c smoothed (reindexed one degree down, differential negated),
    and g: X -> Y is minus the connecting block, so that the bracket complex
    is Cone(g) shifted by one.  X and Y are not checked again: their d^2
    are diagonal blocks of the cube's, as d never leaves the Y states.
    """
    if cube.normalized:
        raise ContractViolation("cone splitting works on the bracket cube")
    cx = cube.complex
    bit = 1 << c
    x_index = {}
    y_index = {}
    for deg, labels in cx.basis.items():
        xs = [i for i, (mask, _) in enumerate(labels) if not mask & bit]
        ys = [i for i, (mask, _) in enumerate(labels) if mask & bit]
        if xs:
            x_index[deg] = xs
        if ys:
            y_index[deg - 1] = (deg, ys)

    def sub(ranks_idx, shift_diff_sign, which):
        ranks = {}
        diffs = {}
        basis = {}
        for deg in ranks_idx:
            if which == "x":
                idx = ranks_idx[deg]
                src_deg = deg
            else:
                src_deg, idx = ranks_idx[deg]
            ranks[deg] = len(idx)
            basis[deg] = tuple(cx.basis[src_deg][i] for i in idx)
        for deg in ranks:
            if deg + 1 not in ranks:
                continue
            if which == "x":
                src_deg, idx_s = deg, ranks_idx[deg]
                tgt_deg, idx_t = deg + 1, ranks_idx[deg + 1]
            else:
                src_deg, idx_s = ranks_idx[deg]
                tgt_deg, idx_t = ranks_idx[deg + 1]
            m = cx.diff(src_deg).submatrix(idx_t, idx_s)
            if shift_diff_sign:
                m = -m
            diffs[deg] = m
        return ChainComplex._unchecked(cx.ring, ranks, diffs, basis)

    X = sub(x_index, False, "x")
    Y = sub(y_index, True, "y")
    comps = {}
    for deg, xs in x_index.items():
        if deg not in y_index:
            continue
        src_full_deg = deg
        tgt_full_deg, ys = y_index[deg]
        if tgt_full_deg != deg + 1:
            continue
        comps[deg] = -cx.diff(src_full_deg).submatrix(ys, xs)
    return X, Y, ChainMap(X, Y, comps)
