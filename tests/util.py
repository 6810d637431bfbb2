"""Shared test helpers: the sign modules behind the cube's signs,
conversions between matrices and dense rows, independent dense Smith and
rank oracles and the dense ranks of an induced map on homology, the
transpose dual of a complex (the mirror-duality oracle),
the long-exact-sequence check of a cone, the circles of a state and
of each crossing, an
enumerator of generator labels, the unnormalized bracket cube and its split
as a cone over one crossing, column-by-column reference builders of the
cube and crossing-change matrices, a reference for the reduction of
q-blocks cut as matrices, the field dimensions that the universal
coefficient theorem predicts from integral homology, random singular braid
closures, and generators of random complexes, chain maps, and homotopy
data whose hypotheses hold by construction."""

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd, lcm

import pytest

from khsing import exactlinalg, khcube
from khsing.chain import (ChainComplex, ChainMap, Homotopy, cone,
                          homology_functor_ranks)
from khsing.diagram import from_braid
from khsing.errors import ContractViolation
from khsing.exactlinalg import Ring, SparseMatrix, _rank_torsion


# ---------------------------------------------------------------------------
# Sign modules: the oracle for khcube._sign_bits
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


# ---------------------------------------------------------------------------
# Dense rows: the oracles' layout
# ---------------------------------------------------------------------------


def matrix_from_dense(rows, ring: Ring) -> SparseMatrix:
    """The matrix over ``ring`` with the equal-length dense rows ``rows``."""
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0, ring,
                        {r: {c: v for c, v in enumerate(row) if v}
                         for r, row in enumerate(rows)})


def dense_rows(m: SparseMatrix):
    """The entries of ``m`` as a list of dense rows."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for r, row in m.row_items():
        for c, v in row.items():
            out[r][c] = v
    return out


# ---------------------------------------------------------------------------
# Independent dense oracles: Smith normal form, rank over Q and over Z/p
# ---------------------------------------------------------------------------


def _unit_column(row):
    """Index of the first entry +1 or -1 of a dense row, or None."""
    hits = [row.index(u) for u in (1, -1) if u in row]
    return min(hits) if hits else None


def _euclid_down(live, j):
    """Clear column j of the dense rows ``live`` but one by floor-division
    row steps, the row with the smallest entry of the column subtracting
    from the others until they are zero; returns that row's index."""
    while True:
        hits = [k for k, row in enumerate(live) if row[j]]
        t = min(hits, key=lambda k: abs(live[k][j]))
        if len(hits) == 1:
            return t
        pivot = live[t]
        support = [c for c, v in enumerate(pivot) if v]
        for k in hits:
            if k != t:
                row = live[k]
                f = row[j] // pivot[j]
                for c in support:
                    row[c] -= f * pivot[c]


def dense_smith_divisors(rows):
    """Divisor chain of an integer matrix by dense, pivot-ordered
    elimination on lists, deliberately unrelated to the library kernel.

    Unit pivots come first, in row order: a live row with an entry +-1
    clears that column from every other live row and retires, since column
    operations would clear the rest of it without touching another row.
    Sweeps repeat while they find a unit.  Then the smallest entry left is
    the pivot, found by one scan.  Euclid's algorithm runs down its column
    and along its row by floor-division steps, and only there, until both
    hold the pivot alone; a remainder moves the pivot within its row or
    column, never restarting the search.  The diagonal so found becomes a
    chain d1 | d2 | ... by replacing pairs with their gcd and lcm.
    """
    live = [list(r) for r in rows if any(r)]
    diag = []
    while live:
        swept = True
        while swept:
            swept = False
            t = 0
            while t < len(live):
                j = _unit_column(live[t])
                if j is None:
                    t += 1
                    continue
                del live[_euclid_down(live, j)]
                diag.append(1)
                swept = True
            live = [row for row in live if any(row)]
        if not live:
            break
        t, j = min(((t, c) for t, row in enumerate(live)
                    for c, v in enumerate(row) if v),
                   key=lambda tc: abs(live[tc[0]][tc[1]]))
        while True:
            t = _euclid_down(live, j)
            row = live[t]
            hits = [c for c, v in enumerate(row) if v]
            if len(hits) == 1:
                break
            j = min(hits, key=lambda c: abs(row[c]))
            for c in hits:
                if c != j:
                    f = row[c] // row[j]
                    for r in live:
                        r[c] -= f * r[j]
        diag.append(abs(live[t][j]))
        del live[t]
        live = [row for row in live if any(row)]
    divisors = sorted(diag)
    for i in range(len(divisors)):
        for k in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[k]
            g = gcd(a, b)
            divisors[i], divisors[k] = g, a // g * b
    return divisors


def dense_rank_rational(rows):
    """Rank over Q by fraction-free (Bareiss) elimination.  Each row is
    scaled to integers by the lcm of its denominators; each pivot then
    clears only the rows below it, and every entry stays an integer (a
    minor of the scaled rows), divided exactly by the previous pivot."""
    m = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        m.append([int(v * den) for v in row])
    rank, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank]
        p = pivot[c]
        for r in range(rank + 1, len(m)):
            row, f = m[r], m[r][c]
            row[c:] = [(p * a - f * b) // prev
                       for a, b in zip(row[c:], pivot[c:])]
        prev = p
        rank += 1
    return rank


def dense_rank_mod_p(rows, p):
    """Rank over Z/p by row echelon form on dense lists."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        pivot = m[rank]
        support = [k for k, v in enumerate(pivot) if v]
        for r in range(rank + 1, len(m)):
            row = m[r]
            f = row[c] * inv % p
            if f:
                for k in support:
                    row[k] = (row[k] - f * pivot[k]) % p
        rank += 1
    return rank


def _homology_from_divisors(middle_dim, divisors_in, divisors_out):
    """(free rank, torsion) at the middle of two composable integer
    differentials from their divisor chains: a chain's length is the
    rank over Q, its entries above 1 the torsion at its target."""
    free = middle_dim - len(divisors_out) - len(divisors_in)
    return free, tuple(sorted(d for d in divisors_in if d > 1))


def dense_homology(diff_in_rows, diff_out_rows, middle_dim):
    """(free rank, torsion) at the middle of two composable differentials,
    using only the dense Smith oracle above."""
    return _homology_from_divisors(middle_dim,
                                   dense_smith_divisors(diff_in_rows),
                                   dense_smith_divisors(diff_out_rows))


def summary_via_dense_oracle(cx: ChainComplex):
    """Recompute an integral complex's ungraded homology with the dense
    oracle, each differential's divisors computed once."""
    divisors = {i: dense_smith_divisors(dense_rows(m))
                for i, m in cx.diffs.items()}
    out = {}
    for i in cx.degrees():
        free, torsion = _homology_from_divisors(
            cx.rank(i), divisors.get(i - 1, []), divisors.get(i, []))
        if free or torsion:
            out[i] = (free, torsion)
    return out


def field_summary_via_dense_rank(cx: ChainComplex, graded: bool):
    """``{key: dimension}`` of the homology of a complex stored over Z/p,
    from dense ranks of its blocks: key (i, j) per quantum degree j when
    ``graded``, else i."""
    p = cx.ring.p
    dense = {i: dense_rows(m) for i, m in cx.diffs.items()}

    def qs(i):
        return cx.q[i] if graded else [None] * cx.rank(i)

    def block_rank(i, j):
        # rank of the part of d^i from and to quantum degree j
        if i not in dense:
            return 0
        cols = [c for c, q in enumerate(qs(i)) if q == j]
        rows = [r for r, q in enumerate(qs(i + 1)) if q == j]
        return dense_rank_mod_p([[dense[i][r][c] for c in cols]
                                 for r in rows], p)

    out = {}
    for i in cx.degrees():
        for j in set(qs(i)):
            dim = qs(i).count(j) - block_rank(i, j) - block_rank(i - 1, j)
            if dim:
                out[(i, j) if graded else i] = dim
    return out


def dense_functor_ranks(f: ChainMap, graded: bool) -> dict:
    """``homology_functor_ranks(f, graded)`` from dense ranks of whole
    q-blocks, every row and column kept: dim H^i of the source X and the
    target Y, and rank H^i(f) = rank [[d_Y^(i-1), f_i], [0, d_X^i]] -
    rank d_Y^(i-1) - rank d_X^i where both dimensions are nonzero (0
    elsewhere, as H^i(f) is then 0).  Key (i, j) when ``graded``, else i."""
    X, Y = f.source, f.target
    p = X.ring.p
    dense = {P: {i: dense_rows(m) for i, m in P.diffs.items()} for P in (X, Y)}

    def qs(P, i):
        return list(P.q.get(i, ())) if graded else [None] * P.rank(i)

    def block_rank(rows, row_q, col_q, j):
        # rank of the entries whose row and column are of quantum degree j
        cols = [c for c, q in enumerate(col_q) if q == j]
        m = [[rows[r][c] for c in cols]
             for r, q in enumerate(row_q) if q == j]
        return dense_rank_mod_p(m, p) if p else dense_rank_rational(m)

    @cache
    def d_rank(P, i, j):
        if i not in dense[P]:
            return 0
        return block_rank(dense[P][i], qs(P, i + 1), qs(P, i), j)

    out = {}
    for i in sorted(set(X.ranks) | set(Y.ranks)):
        for j in sorted(set(qs(X, i)) | set(qs(Y, i)), key=repr):
            hx = qs(X, i).count(j) - d_rank(X, i, j) - d_rank(X, i - 1, j)
            hy = qs(Y, i).count(j) - d_rank(Y, i, j) - d_rank(Y, i - 1, j)
            r = 0
            if hx and hy:
                n = Y.rank(i - 1)
                top = [a + b for a, b in zip(dense_rows(Y.diff(i - 1)),
                                             dense_rows(f.component(i)))]
                bottom = [[0] * n + row for row in dense_rows(X.diff(i))]
                r = (block_rank(top + bottom, qs(Y, i) + qs(X, i + 1),
                                qs(Y, i - 1) + qs(X, i), j)
                     - d_rank(Y, i - 1, j) - d_rank(X, i, j))
            out[(i, j) if graded else i] = (hx, hy, r)
    return out


def uct_field_dims(h_z, p: int) -> dict:
    """``{(i, j): dimension}`` of the homology over F_p of a graded complex
    of free abelian groups, predicted from its integral homology summary
    ``h_z`` by the universal coefficient theorem, q-block by q-block: for
    a cochain complex H^i(C (x) F_p) = H^i(C) (x) F_p (+) Tor(H^(i+1)(C), F_p),
    so the free rank at (i, j) plus the torsion coefficients at (i, j) and
    at (i + 1, j) that p divides.  Reads no matrix."""
    out = {}
    for (i, j), free, torsion in h_z.groups:
        tor = sum(t % p == 0 for t in torsion)
        out[i, j] = out.get((i, j), 0) + free + tor
        out[i - 1, j] = out.get((i - 1, j), 0) + tor
    return {k: v for k, v in out.items() if v}


def reference_reduced_blocks(cx: ChainComplex, graded: bool):
    """``(blocks, reduced, dropped)``: ``ChainComplex._reduced_blocks``
    with each q-block cut as a matrix, ``submatrix`` of the kept columns,
    and reduced whole; ``dropped[(i, j)]`` lists the columns left out of
    block j of d^i, the rows of the unit prefix of block j of d^(i-1)."""
    if graded:
        cx.check_bidegree()
        blocks = {i: {} for i in cx.degrees()}
        for i, by_q in blocks.items():
            for ix, j in enumerate(cx.q.get(i, ())):
                by_q.setdefault(j, []).append(ix)
    else:
        blocks = {i: {None: range(n)} for i, n in cx.ranks.items()}
    reduced, cancelled, dropped = {}, {}, {}
    for i in sorted(cx.diffs):
        for j, cols in blocks.get(i, {}).items():
            rows = blocks.get(i + 1, {}).get(j, ())
            drop = cancelled.get((i - 1, j), ())
            dropped[(i, j)] = sorted(drop)
            m = cx.diffs[i].submatrix(rows, [c for c in cols if c not in drop])
            r, torsion, cut = _rank_torsion(m, cx.ring)
            reduced[(i, j)] = r, torsion
            cancelled[(i, j)] = {rows[k] for k in cut}
    return blocks, reduced, dropped


def whole_block(cx: ChainComplex, blocks, i: int, j) -> SparseMatrix:
    """Block j of d^i cut as a matrix, every column kept: all of d^i when j
    is None, else its rows and columns of quantum degree j."""
    m = cx.diff(i)
    if j is None:
        return m
    return m.submatrix(blocks.get(i + 1, {}).get(j, ()),
                       blocks.get(i, {}).get(j, ()))


def with_eliminated_rows(run):
    """``(run(), inputs)``: ``inputs`` lists the rows that each call of
    ``exactlinalg._eliminate`` received during ``run()``, in call order, as
    (row, bit mask or list of (column, value) in stored order) pairs."""
    inputs = []
    eliminate = exactlinalg._eliminate

    def recording(rows, p, track=False):
        inputs.append([(k, row if isinstance(row, int) else list(row.items()))
                       for k, row in rows.items()])
        return eliminate(rows, p, track)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlinalg, "_eliminate", recording)
        return run(), inputs


# ---------------------------------------------------------------------------
# Transpose duality and the long exact sequence of a cone
# ---------------------------------------------------------------------------


def transpose(m: SparseMatrix) -> SparseMatrix:
    """The transpose of ``m``."""
    return SparseMatrix(m.cols, m.rows, m.ring,
                        exactlinalg._transposed(m.row_items()))


def dual(cx: ChainComplex) -> ChainComplex:
    """Transpose dual: degree i becomes -i, quantum degrees negate, and the
    transpose of d^i is the differential out of degree -i-1."""
    q = ({-i: tuple(-x for x in v) for i, v in cx.q.items()}
         if cx.q else None)
    return ChainComplex(cx.ring, {-i: r for i, r in cx.ranks.items()},
                        {-i - 1: transpose(m) for i, m in cx.diffs.items()},
                        q)


def les_cone_check(f: ChainMap) -> bool:
    """Long-exact-sequence rank identity for a cone over a field, in every
    degree i:

        dim H^i(Cone f) = dim coker H^i(f) + dim ker H^(i+1)(f),

    with H(f) from ``homology_functor_ranks``, taken ungraded."""
    data = homology_functor_ranks(f)
    h_cone = cone(f).homology(graded=False)
    zero = (0, 0, 0)
    for i in set(h_cone.keys()) | set(data) | {i - 1 for i in data}:
        _, hy, r = data.get(i, zero)
        hx1, _, r1 = data.get(i + 1, zero)
        if h_cone.free_rank(i) != (hy - r) + (hx1 - r1):
            return False
    return True


# ---------------------------------------------------------------------------
# Circles of a smoothing, by union-find: the oracle for Diagram.resolve_bits
# ---------------------------------------------------------------------------


def circles(cfg) -> tuple:
    """The circles of a state, from its walk data: each circle as the tuple
    of the edge labels it carries, in ascending order, circles by minimal
    label, then a ("loop", k) marker for each free loop."""
    n_real = max(cfg.edge_circles, default=-1) + 1
    out = [[] for _ in range(n_real)]
    for e, k in zip(cfg.labels, cfg.edge_circles):
        out[k].append(e)
    return tuple(map(tuple, out)) + tuple(
        ("loop", k) for k in range(cfg.n_circles - n_real))


def crossing_arcs(cfg) -> tuple:
    """For each crossing, the circles of its slot-0 and slot-2 edges, read
    from a state's walk data as the cube reads them."""
    arc = cfg.edge_circles.__getitem__
    return tuple(zip(map(arc, cfg.ends[::4]), map(arc, cfg.ends[2::4])))


def union_find_circles(d, mask):
    """The circles of the smoothing ``mask`` of an ordinary diagram, found
    from its PD tuples without walking: the smoothing at crossing i joins
    slots (0, 1) and (2, 3) if bit i is clear, (0, 3) and (1, 2) if set, and
    the classes of edge labels so joined are the circles.  Each circle is
    its labels in ascending order, circles are ordered by minimal label,
    and a ("loop", k) marker follows for each free loop."""
    parent = {e: e for c in d.crossings for e in c}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for i, (s0, s1, s2, s3) in enumerate(d.crossings):
        joined = ((s0, s3), (s1, s2)) if mask >> i & 1 else ((s0, s1), (s2, s3))
        for x, y in joined:
            parent[find(x)] = find(y)
    classes = {}
    for e in sorted(parent):
        classes.setdefault(find(e), []).append(e)
    return (tuple(sorted(map(tuple, classes.values())))
            + tuple(("loop", k) for k in range(d.free_loops)))


# ---------------------------------------------------------------------------
# Reference matrices, one generator column at a time
# ---------------------------------------------------------------------------


def _check_sign(mask, c):
    """(-1)^(number of crossings below c in the state)."""
    return -1 if bin(mask & ((1 << c) - 1)).count("1") % 2 else 1


def _saddle_targets(src_cfg, tgt_cfg, c, crossing):
    """("merge", idx_map, i1, i2, m) or ("split", idx_map, i, d1, d2) for the
    saddle at crossing c; idx_map sends untouched source circles to target
    circles, free loops (("loop", k) markers) to the trailing slots.
    Target circles are found by searching ``circles(tgt_cfg)`` for an edge."""
    a, b = crossing[0], crossing[1]
    i1, i2 = crossing_arcs(src_cfg)[c]
    src_circles, tgt_circles = circles(src_cfg), circles(tgt_cfg)
    real_src = [k for k, circ in enumerate(src_circles)
                if not isinstance(circ[0], str)]
    real_tgt = [k for k, circ in enumerate(tgt_circles)
                if not isinstance(circ[0], str)]

    def tgt_circle(edge):
        return next(k for k in real_tgt if edge in tgt_circles[k])

    idx_map = {k: tgt_circle(src_circles[k][0])
               for k in real_src if k not in (i1, i2)}
    for k in range(len(src_circles) - len(real_src)):
        idx_map[len(real_src) + k] = len(real_tgt) + k
    if i1 != i2:
        return ("merge", idx_map, i1, i2, tgt_circle(a))
    return ("split", idx_map, i1, tgt_circle(a), tgt_circle(b))


def reference_labels(d, shift=0):
    """The generators of the cube of ``d`` laid out as W[shift], labelled
    (state mask, circle bits): degree |state| + shift lists its states in
    bit-tuple order (b0, ..., bn-1), each state's bits in lexicographic
    order.  Enumerated from the diagram alone.  {degree: [label]}."""
    n = d.n_crossings
    out = {}
    for mask in sorted(range(1 << n),
                       key=lambda m: [m >> i & 1 for i in range(n)]):
        k = d.resolve_bits(mask).n_circles
        out.setdefault(bin(mask).count("1") + shift, []).extend(
            (mask, bits) for bits in product((0, 1), repeat=k))
    return out


def bracket_cube(d, F):
    """The cube of ``d`` in degrees |s|, not normalized, with d^2 = 0
    checked as ``build_cube`` checks the normalized one."""
    cube = khcube._bracket_cube(d, F, 0)
    cube.complex.validate()
    return cube


def cone_pieces(cube, c: int):
    """Split a ``bracket_cube`` at crossing c into cone data: the bracket is
    the cone of a saddle split.

    Returns (X, Y, g) where X collects the states with c 0-smoothed, Y the
    states with c 1-smoothed (as W[-1]: one degree down, differential
    negated), and g: X -> Y is minus the connecting block, so that the
    bracket complex is Cone(g) shifted by one.  Generators are found by
    state offset and bit index, and keep their order in the cube."""
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
    X = sub_complex(cx, x_idx)
    Y = sub_complex(cx, y_idx).shift(-1)
    comps = {w: -cx.diff(w).submatrix(y_idx[w + 1], xs)
             for w, xs in x_idx.items() if w + 1 in y_idx}
    return X, Y, ChainMap(X, Y, comps)


def sub_complex(cx: ChainComplex, idx: dict) -> ChainComplex:
    """The generators ``idx[w]`` of each degree w of ``cx`` with the
    restricted differential."""
    diffs = {w: cx.diff(w).submatrix(idx[w + 1], ix)
             for w, ix in idx.items() if w + 1 in idx}
    return ChainComplex(cx.ring, {w: len(ix) for w, ix in idx.items()},
                        diffs)


def _resolved_pieces(S):
    """Scheme r -> ``S.diagram`` with ``S.sites`` resolved by the bits of r
    (a set bit k resolves ``S.sites[k]`` positively)."""
    out = {}
    for r in range(1 << len(S.sites)):
        piece = S.diagram
        for k, b in enumerate(S.sites):
            piece = piece.resolve_double_point(b, 1 if r >> k & 1 else -1)
        out[r] = piece
    return out


def reference_singular_labels(S):
    """The generators of a singular complex, labelled (scheme, state mask,
    circle bits): each degree concatenates the pieces in scheme bit-tuple
    order, piece r resolving ``S.sites`` by the bits of r and laid out at
    shift 2|r| - n_minus - 2 * (number of sites).  {degree: [label]}."""
    m = len(S.sites)
    pieces = _resolved_pieces(S)
    out = {}
    for r in sorted(pieces, key=lambda r: [r >> k & 1 for k in range(m)]):
        shift = 2 * bin(r).count("1") - S.diagram.n_minus - 2 * m
        for deg, labels in reference_labels(pieces[r], shift).items():
            out.setdefault(deg, []).extend((r,) + lbl for lbl in labels)
    return out


def _assemble(col_labels, row_labels, ring, image):
    """The matrix whose column for ``col_labels[j]`` sums the terms
    (row label, coefficient) of ``image(col_labels[j])``."""
    rows = {label: r for r, label in enumerate(row_labels)}
    entries = {}
    for col, label in enumerate(col_labels):
        for tgt, coef in image(label):
            row = entries.setdefault(rows[tgt], {})
            row[col] = row.get(col, 0) + coef
    return SparseMatrix(len(row_labels), len(col_labels), ring, entries)


def _saddle_column(d, F, mask, bits):
    """Image of generator (mask, bits) of the bracket cube of ``d`` under
    every saddle out of its state, as (target label, coefficient) terms
    with the check sign; the circle bookkeeping is worked out afresh."""
    src_cfg = d.resolve_bits(mask)
    out = []
    for c in range(d.n_crossings):
        if mask >> c & 1:
            continue
        tgt_mask = mask | (1 << c)
        tgt_cfg = d.resolve_bits(tgt_mask)
        kind = _saddle_targets(src_cfg, tgt_cfg, c, d.crossings[c])
        base = [0] * tgt_cfg.n_circles
        for ksrc, ktgt in kind[1].items():
            base[ktgt] = bits[ksrc]
        if kind[0] == "merge":
            _, _, i1, i2, m = kind
            terms = [({m: bit}, coef)
                     for bit, coef in F.mult_bits(bits[i1], bits[i2])]
        else:
            _, _, i, d1, d2 = kind
            terms = [({d1: bl, d2: br}, coef)
                     for bl, br, coef in F.comult_bits(bits[i])]
        for touched, coef in terms:
            tb = list(base)
            for k, bit in touched.items():
                tb[k] = bit
            out.append(((tgt_mask, tuple(tb)), _check_sign(mask, c) * coef))
    return out


def _phi_column(d, F, c, mask, bits):
    """Image of generator (mask, bits) of the cube of ``d`` under the
    crossing change at c, as (target label, coefficient) terms: on a state
    that 1-smooths c on two circles i1 != i2, (x on i2) - (x on i1) times
    the check sign, landing on the state without c; nothing otherwise."""
    if not mask >> c & 1:
        return []
    i1, i2 = crossing_arcs(d.resolve_bits(mask))[c]
    if i1 == i2:
        return []
    out = []
    for i, sign in ((i2, 1), (i1, -1)):
        for bit, coef in F.mult_bits(1, bits[i]):
            out.append(((mask & ~(1 << c), bits[:i] + (bit,) + bits[i + 1:]),
                        sign * _check_sign(mask, c) * coef))
    return out


def reference_bracket_differentials(cube):
    """The differentials of an unnormalized bracket cube, rebuilt column by
    column: for every (state, crossing) edge and every source generator the
    saddle's circle bookkeeping and its image are worked out afresh, and
    rows and columns are found by the labels of ``reference_labels``.
    {w: SparseMatrix}."""
    d, F = cube.diagram, cube.algebra
    labels = reference_labels(d)
    return {w: _assemble(labels[w], labels[w + 1], F.ring,
                         lambda lbl: _saddle_column(d, F, *lbl))
            for w in labels if w + 1 in labels}


def reference_singular_differentials(S):
    """The differentials of a singular complex, rebuilt column by column
    from the labels of ``reference_singular_labels``: the saddles within
    each piece as in ``reference_bracket_differentials``, times the
    (-1)^n_minus of the piece's shift, and the crossing change at each
    site k that the scheme resolves negatively into the scheme with k
    resolved positively, times -(-1)^n_minus.  {degree: SparseMatrix}."""
    d, F = S.diagram, S.algebra
    pieces = _resolved_pieces(S)
    parity = -1 if d.n_minus % 2 else 1
    labels = reference_singular_labels(S)

    def image(label):
        r, mask, bits = label
        out = [((r,) + tgt, parity * coef)
               for tgt, coef in _saddle_column(pieces[r], F, mask, bits)]
        for k, b in enumerate(S.sites):
            if not r >> k & 1:
                out += [((r | 1 << k,) + tgt, -parity * coef)
                        for tgt, coef in _phi_column(pieces[r], F, b, mask,
                                                     bits)]
        return out

    return {w: _assemble(labels[w], labels[w + 1], F.ring, image)
            for w in labels if w + 1 in labels}


def reference_genus_one_components(g1):
    """The components of a ``GenusOneMap``, rebuilt column by column from
    the labels (scheme, state, bits) of ``reference_singular_labels``, each
    piece resolved afresh from the source's diagram and sites.
    {degree: SparseMatrix}."""
    F, c = g1.source.algebra, g1.crossing
    pieces = _resolved_pieces(g1.source)
    src_labels = reference_singular_labels(g1.source)
    tgt_labels = reference_singular_labels(g1.target)

    def image(label):
        r, mask, bits = label
        return [((r,) + tgt, coef)
                for tgt, coef in _phi_column(pieces[r], F, c, mask, bits)]

    return {deg: _assemble(labels, tgt_labels.get(deg, ()), F.ring, image)
            for deg, labels in src_labels.items()}


# ---------------------------------------------------------------------------
# Random complexes and maps
# ---------------------------------------------------------------------------


def random_unimodular_ops(rng, n, steps):
    """A sequence of elementary row operations (i, j, c): row_i += c row_j."""
    ops = []
    for _ in range(steps):
        if n < 2:
            break
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        ops.append((i, j, rng.choice((-1, 1))))
    return ops


def _apply_ops(mat_rows, ops):
    for i, j, c in ops:
        mat_rows[i] = [a + c * b for a, b in zip(mat_rows[i], mat_rows[j])]
    return mat_rows


def random_complex(rng, ring: Ring, span=4, max_rank=3, torsion=False,
                   scramble=True) -> ChainComplex:
    """Random bounded complex, built split and unimodularly scrambled.

    In split form C^i = H_i (+) B_i (+) P_i with the differential mapping
    P_i onto B_(i+1) by a diagonal matrix (entries 1, or small integers when
    ``torsion``); d^2 = 0 holds by construction and survives conjugation.
    """
    lo = rng.randint(-2, 0)
    hs = {}
    ps = {}
    for i in range(lo, lo + span):
        hs[i] = rng.randint(0, max_rank - 1)
        ps[i] = rng.randint(0, max_rank - 1)
    bs = {i: ps.get(i - 1, 0) for i in range(lo, lo + span + 1)}
    ranks = {}
    for i in range(lo, lo + span + 1):
        ranks[i] = hs.get(i, 0) + bs.get(i, 0) + ps.get(i, 0)
    trans = {}
    for i, n in ranks.items():
        ident = [[int(a == b) for b in range(n)] for a in range(n)]
        ops = random_unimodular_ops(rng, n, rng.randint(0, 2 * n)) if scramble else []
        trans[i] = (_apply_ops([row[:] for row in ident], ops), ops)
    diffs = {}
    for i in range(lo, lo + span):
        n_src, n_tgt = ranks.get(i, 0), ranks.get(i + 1, 0)
        if n_src == 0 or n_tgt == 0:
            continue
        rows = [[0] * n_src for _ in range(n_tgt)]
        off_src = hs.get(i, 0) + bs.get(i, 0)
        off_tgt = hs.get(i + 1, 0)
        for k in range(ps.get(i, 0)):
            rows[off_tgt + k][off_src + k] = (rng.choice((1, 2, 3, 6))
                                              if torsion else 1)
        # conjugate: d' = T_(i+1) d inv(T_i); T is a product of elementary
        # matrices, so inv(T_i) acts by the inverse column operations taken
        # in forward order
        rows = _apply_ops(rows, trans[i + 1][1])
        for a, j, c in trans[i][1]:
            for row in rows:
                row[j] -= c * row[a]
        diffs[i] = matrix_from_dense(rows, ring) if rows else None
    ranks = {i: n for i, n in ranks.items() if n}
    return ChainComplex(ring, ranks, {i: m for i, m in diffs.items()
                                      if m is not None})


def random_family(rng, X: ChainComplex, Y: ChainComplex, degree: int,
                  density=0.5, span_vals=(-2, -1, 1, 2)) -> Homotopy:
    """Random degree-``degree`` family of maps X^i -> Y^(i+degree)."""
    comps = {}
    for i in X.degrees():
        rows, cols = Y.rank(i + degree), X.rank(i)
        if rows == 0 or cols == 0:
            continue
        data = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < density:
                    data.setdefault(r, {})[c] = rng.choice(span_vals)
        if data:
            comps[i] = SparseMatrix(rows, cols, X.ring, data)
    return Homotopy(X, Y, comps, degree)


def null_homotopic_map(rng, X: ChainComplex, Y: ChainComplex,
                       density=0.5) -> ChainMap:
    """The chain map d K + K d for a random degree -1 family K."""
    K = random_family(rng, X, Y, -1, density)
    comps = {}
    for i in set(X.degrees()) | set(K.components):
        m = Y.diff(i - 1) * K.component(i) + K.component(i + 1) * X.diff(i)
        comps[i] = m
    return ChainMap(X, Y, comps)


def identity_map(X: ChainComplex) -> ChainMap:
    return ChainMap(X, X, {i: SparseMatrix.identity(X.rank(i), X.ring)
                           for i in X.degrees()})


def scale_map(X: ChainComplex, c) -> ChainMap:
    return ChainMap(X, X, {i: SparseMatrix.identity(X.rank(i), X.ring).scale(c)
                           for i in X.degrees()})


def map_sum(*maps) -> ChainMap:
    out = maps[0]
    for f in maps[1:]:
        out = out + f
    return out


def direct_sum(A: ChainComplex, B: ChainComplex):
    """(A + B, include_A, include_B, project_A, project_B)."""
    ring = A.ring
    degs = sorted(set(A.degrees()) | set(B.degrees()))
    ranks = {i: A.rank(i) + B.rank(i) for i in degs}
    diffs = {}
    for i in degs:
        diffs[i] = SparseMatrix.block(
            [[A.diff(i), None], [None, B.diff(i)]],
            [A.rank(i + 1), B.rank(i + 1)], [A.rank(i), B.rank(i)], ring)
    S = ChainComplex(ring, ranks, diffs)
    inc_a = ChainMap(A, S, {
        i: SparseMatrix(S.rank(i), A.rank(i), ring,
                        {r: {r: 1} for r in range(A.rank(i))})
        for i in A.degrees()})
    inc_b = ChainMap(B, S, {
        i: SparseMatrix(S.rank(i), B.rank(i), ring,
                        {A.rank(i) + r: {r: 1} for r in range(B.rank(i))})
        for i in B.degrees()})
    pr_a = ChainMap(S, A, {
        i: SparseMatrix(A.rank(i), S.rank(i), ring,
                        {r: {r: 1} for r in range(A.rank(i))})
        for i in S.degrees()})
    pr_b = ChainMap(S, B, {
        i: SparseMatrix(B.rank(i), S.rank(i), ring,
                        {r: {A.rank(i) + r: 1} for r in range(B.rank(i))})
        for i in S.degrees()})
    return S, inc_a, inc_b, pr_a, pr_b


def homotopy_sum(*hs) -> Homotopy:
    base = hs[0]
    comps = {}
    for H in hs:
        for i in H.components:
            m = comps.get(i)
            comps[i] = H.component(i) if m is None else m + H.component(i)
    return Homotopy(base.source, base.target, comps, base.degree)


def compose_family(g: ChainMap, H: Homotopy) -> Homotopy:
    """g o H as a family of degree H.degree (g must be degree 0)."""
    comps = {i: g.component(i + H.degree) * H.component(i)
             for i in H.components}
    return Homotopy(H.source, g.target, comps, H.degree)


def family_after_map(H: Homotopy, f: ChainMap) -> Homotopy:
    """H o f as a family of degree H.degree (f must be degree 0)."""
    comps = {}
    for i in f.source.degrees():
        comps[i] = H.component(i) * f.component(i)
    return Homotopy(f.source, H.target, comps, H.degree)


def family_commutator(R: Homotopy) -> Homotopy:
    """d R - R d, one degree above R; its own commutator with d vanishes."""
    X, Y = R.source, R.target
    comps = {}
    for i in set(X.degrees()) | set(R.components):
        comps[i] = (Y.diff(i + R.degree) * R.component(i)
                    - R.component(i + 1) * X.diff(i))
    return Homotopy(X, Y, comps, R.degree + 1)


def family_anticommutator(S: Homotopy) -> Homotopy:
    """d S + S d, one degree above S; its anticommutator with d vanishes."""
    X, Y = S.source, S.target
    comps = {}
    for i in set(X.degrees()) | set(S.components):
        comps[i] = (Y.diff(i + S.degree) * S.component(i)
                    + S.component(i + 1) * X.diff(i))
    return Homotopy(X, Y, comps, S.degree + 1)


def commutator_perturbation(rng, X, Y, degree) -> Homotopy:
    """d R - R d for a random generator R of degree (degree - 1)."""
    return family_commutator(random_family(rng, X, Y, degree - 1, density=0.4))


def anticommutator_perturbation(rng, X, Y, degree) -> Homotopy:
    """d S + S d for a random generator S of degree (degree - 1)."""
    return family_anticommutator(
        random_family(rng, X, Y, degree - 1, density=0.4))


# ---------------------------------------------------------------------------
# Random singular braid closures
# ---------------------------------------------------------------------------


def random_singular_closures(rng, count: int, letters: tuple):
    """``count`` closures of random braids on 2 or 3 strands, each with a
    length drawn from ``letters`` = (fewest, most) and letters positive,
    negative or double points alike (``from_braid``'s +1, -1 and 0)."""
    out = []
    for _ in range(count):
        strands = rng.choice((2, 3))
        word = [(rng.randrange(strands - 1), rng.choice((1, -1, 0)))
                for _ in range(rng.randint(*letters))]
        out.append(from_braid(word, strands))
    return out
