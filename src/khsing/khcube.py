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

Every edge is a local cobordism on the arcs at one crossing, tensored
with the identity on all the other circles (Bar-Natan): a saddle merges
or splits the circles it touches, a crossing change is the genus-one map
on the two circles at its site.  One builder, ``_edge_entries``, makes
every block; the circles at the crossing before and after the edge choose
the table.  A crossing's two circles are those of its slot-0 and slot-2
edges, read from a state's ``edge_circles`` through the diagram's end
table: these edges lie on its two local strands in either smoothing,
(slot0, slot1) and (slot2, slot3) when 0-smoothed, (slot0, slot3) and
(slot1, slot2) when 1-smoothed.  The table is signed and reduced into the
ring once, for its at most 4 input bit patterns; the untouched circles
keep their order, so each column moves them by a few mask-and-shift runs.
A block depends only on the algebra and one flat key: the four circle ids
at the crossing of the two vertices, their circle counts, the edge sign and
whether the cube is a half cube.  Every edge looks it up in
``_edge_block``, in a table of the top-level call: a cube build makes its
own, and the constructions of ``genusone`` make one per call that every
cube and map they build shares, so each block is made once per call and
dropped on return.  Nothing is kept between calls.  A cached block is
already multiplied by its sign and reduced into the ring, zeros dropped,
so each entry is written once, as it is stored, into a list of row dicts
indexed by row, and each matrix keeps the nonempty rows, wrapped by
``SparseMatrix._unchecked``.  That is safe by construction:
``Ring.coerce`` made every value, every index is a generator of the two
vertices (an offset plus circle bits below 2^k), no zero is written, and
no empty row is kept.  Distinct edges never share an entry, so only the
terms within a block are summed.  ``_phi_map`` assembles the
crossing-change chain map between two cubes the same way.

A half cube is the subcomplex XC of the generators on which circle 0
carries x (``invariants.homology_signature`` reads F2 homology at (0, 0)
off it).  Circle 0 is the circle through the lowest-labelled PD edge in
every state, as the walks start in label order, or the first free loop
when there is no crossing.  Its bit is a generator's top bit, 2^(k - 1),
so XC is the upper half of each vertex: generator g' of a k-circle vertex
is full generator 2^(k - 1) + g', with that generator's q-degree.  Each
block keeps the entries whose column and row carry the top bit, and
subtracts it from both.

Where the roots of x^2 - hx - t split, ``split_ranks`` reads homology off
the states; ``build_cube`` builds a cube at any point, the scan's oracle.
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
    docstring).  With no sites, r is 0.  In a half cube g is read with
    the bit of circle 0, set, added (see the module docstring).
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


def _edge_entries(F: FrobeniusAlgebra, i1: int, i2: int, j1: int, j2: int,
                  k_src: int, k_tgt: int, sign: int, half=False):
    """``sign`` times the edge from a k_src-circle state with circles
    (i1, i2) on the slot-0 and slot-2 edges of its crossing to a
    k_tgt-circle state with circles (j1, j2) there, as (row, col, value)
    over the 2^k_src source generators in column order, colliding terms
    summed, reduced into the ring, zeros dropped.

    The edge is a local cobordism on the touched circles, chosen by the
    circles before and after: (i1, i2) merge into j1 = j2; i1 = i2 splits
    into (j1, j2); on (j1, j2) = (i1, i2) it is the genus-one map
    (x on i2) - (x on i1), zero where all four are one circle.  Generator
    g of a k-circle state has the bit of circle i at weight 2^(k - 1 - i).
    The block is the table of the cobordism, keyed by a column's touched
    bits, times the identity on the untouched circles.  Those keep their
    edges, so they keep their order (circles are ordered by minimal edge
    label, free loops last) and fill the remaining target slots in turn:
    each moves by a fixed shift, and the circles of one shift move as one
    mask.  With ``half``, the block of the half cube: the entries whose
    column and row carry x on circle 0, that top bit taken from both.
    """
    if i1 == i2 == j1 == j2:
        return []
    w1, w2 = 1 << (k_src - 1 - i1), 1 << (k_src - 1 - i2)
    v1, v2 = 1 << (k_tgt - 1 - j1), 1 << (k_tgt - 1 - j2)
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    if j1 == j2:  # merge
        terms = [(a * w1 | b * w2, bit * v1, v) for a, b in pairs
                 for bit, v in F.mult_bits(a, b)]
        touched, landed = (i1, i2), (j1,)
    elif i1 == i2:  # split
        terms = [(a * w1, bl * v1 | br * v2, v) for a in (0, 1)
                 for bl, br, v in F.comult_bits(a)]
        touched, landed = (i1,), (j1, j2)
    else:  # genus one, (j1, j2) = (i1, i2)
        terms = ([(a * w1 | b * w2, a * v1 | bit * v2, v) for a, b in pairs
                  for bit, v in F.mult_bits(1, b)]
                 + [(a * w1 | b * w2, bit * v1 | b * v2, -v) for a, b in pairs
                    for bit, v in F.mult_bits(1, a)])
        touched = landed = (i1, i2)
    # a column's touched bits -> {target bits: coefficient}
    table = {a * w1 | b * w2: {} for a, b in pairs}
    for key, bits, v in terms:
        table[key][bits] = table[key].get(bits, 0) + v
    coerce = F.ring.coerce
    table = {key: [(bits, w) for bits, v in col.items()
                   if (w := coerce(sign * v))] for key, col in table.items()}
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
    if not half:
        return out
    top_s, top_t = 1 << k_src - 1, 1 << k_tgt - 1
    return [(row - top_t, col - top_s, v) for row, col, v in out
            if col & top_s and row & top_t]


def _edge_block(F: FrobeniusAlgebra, blocks: dict, cfg, tcfg, c: int,
                sign: int, half=False):
    """``sign`` times the edge at crossing c from state ``cfg`` to state
    ``tcfg`` (of the half cube with ``half``): the ``_edge_entries`` of
    the circles on the slot-0 and slot-2 edges of c in each state, looked
    up in or added to ``blocks``, a table of one call over ``F``, under its
    key (source circles, target circles, both circle counts, sign, half).
    A crossing change joins two vertices of one smoothing, so there
    ``tcfg`` is ``cfg``."""
    e0, e2 = cfg.ends[4 * c], cfg.ends[4 * c + 2]
    circ, tcirc = cfg.edge_circles, tcfg.edge_circles
    key = (circ[e0], circ[e2], tcirc[e0], tcirc[e2], cfg.n_circles,
           tcfg.n_circles, sign, half)
    block = blocks.get(key)
    if block is None:
        block = blocks[key] = _edge_entries(F, *key)
    return block


def _sites(d: Diagram, site_order) -> tuple:
    """The double points of ``d`` in ``site_order`` (default: index order)."""
    sites = tuple(site_order) if site_order is not None else d.singular_indices
    if sorted(sites) != sorted(d.singular_indices):
        raise ContractViolation("site order must enumerate the double points")
    return sites


def build_cube(d: Diagram, F: FrobeniusAlgebra, site_order=None,
               half=False, *, _blocks=None) -> CubeComplex:
    """The complex of a diagram: its cube of resolutions over the crossings
    and the double points ``site_order``, checked.

    With no double points this is the normalized Khovanov cube.  Otherwise
    it is the iterated mapping cone over the double points in flattened
    form: each resolution scheme r contributes its bracket cube shifted up
    by twice the number |r| of positive resolutions, glued by the
    crossing-change maps (with a uniform minus sign; the alternating signs
    that make distinct double points anticommute live in the state-level
    check signs).  ``_bracket_cube`` builds all of it in place, in its
    final degrees, shifted by -(n_minus + 2 * n_double), and resolves each
    of the 2^n planar smoothings once.  At (h, t) = (0, 0) it carries the
    quantum grading j = internal + |s| + n_plus - 2 * n_minus of each
    resolved diagram.

    d^2 = 0 is checked once, on the cube as built: its diagonal blocks are
    the d^2 of each bracket cube, and its off-diagonal blocks say that each
    crossing-change map is a chain map and that the maps at distinct
    double points anticommute.  With ``half`` it is the half cube XC of
    ``invariants.homology_signature``, and d^2 = 0 is checked on that.
    ``_blocks`` is the edge-block table of a caller in this package that
    builds several cubes over ``F`` (see ``_edge_block``); by default the
    build makes its own.
    """
    sites = _sites(d, site_order)
    # the caller's table, or none, for one of the build's own
    table = () if _blocks is None else (_blocks,)
    cube = _bracket_cube(d, F, -d.n_minus - 2 * len(sites), sites, half,
                         *table)
    cube.complex.validate()
    return cube


def split_ranks(d: Diagram) -> dict:
    """Degree -> rank of the free homology of ``d`` at a point whose roots
    split (``FrobeniusAlgebra.point_class``), read off the states.

    Let the roots a, b differ by a unit, in a field extension if need be,
    which keeps dimensions.  A has a basis of orthogonal idempotents e_i
    (i = a, b) with x e_i = i e_i: m(e_i e_j) = delta_ij e_i, comul(e_i)
    is a unit times e_i e_i, and the genus-one map scales e_i e_j by
    j - i.  So every edge keeps the colour of each PD edge: C is the sum
    of its parts C_k over colourings k.  C_k is the cone of a unit
    isomorphism, so acyclic, at a crossing with one colour on both strands
    (its saddles), and else at a site 1-smoothed in the one smoothing
    sigma that k fixes (its crossing change).  Otherwise no edge stays in
    C_k: one generator per r, at vertex (r, sigma | _flip(sites, r)), for
    each proper colouring of the circle graph of sigma (a loop where a
    crossing meets one circle twice).  Only the smoothings sigma that
    0-smooth every site are resolved, unless the full cube might be too
    large (``_states``), which then refuses what the cube would."""
    sites = d.singular_indices
    n, shift = d.n_crossings, -d.n_minus - 2 * len(sites)
    flips = [_flip(sites, r) for r in range(1 << len(sites))]
    ranks = {}
    for sigma, cfg in _states(d, sites, scan=True)[1].items():
        count = 0 if sigma & flips[-1] else _colourings(cfg, n)
        for r, flip in enumerate(flips if count else ()):
            deg = (sigma | flip).bit_count() + 2 * r.bit_count() + shift
            ranks[deg] = ranks.get(deg, 0) + count
    return ranks


def _colourings(cfg, n: int) -> int:
    """The proper 2-colourings of the graph of the circles of ``cfg``, joined
    at each crossing: 2^(its components) if it is bipartite, else 0."""
    graph = [[] for _ in range(cfg.n_circles)]
    for c in range(n):
        i, j = (cfg.edge_circles[cfg.ends[4 * c + k]] for k in (0, 2))
        graph[i].append(j)
        graph[j].append(i)
    colour, count = [-1] * len(graph), 1
    for v in range(len(graph)):
        if colour[v] < 0:
            colour[v], todo, count = 0, [v], 2 * count
            while todo:
                u = todo.pop()
                for w in graph[u]:
                    if colour[w] < 0:
                        colour[w] = 1 - colour[u]
                        todo.append(w)
                    elif colour[w] == colour[u]:
                        return 0
    return count


def _put(rows: list, block, row0: int, col0: int):
    """Write a (row, col, value) ``block`` into the row dicts ``rows``,
    indexed by row, at (row0, col0)."""
    for i, j, v in block:
        rows[row0 + i][col0 + j] = v


def _matrix(rows: list, cols: int, ring) -> SparseMatrix:
    """The matrix of the row dicts ``rows`` written by ``_put``, its
    nonempty rows kept."""
    return SparseMatrix._unchecked(len(rows), cols, ring, {
        i: row for i, row in enumerate(rows) if row})


def _states(d: Diagram, sites, scan=False):
    """``d`` with every site resolved negatively, and its 2^n smoothings
    resolved, in a list by mask.  Over ``MAX_GENERATORS`` generators in the
    full cube raise ParseError, for every ring and route: before resolving
    if the free loops (and a circle if n > 0) give too many, else as
    resolved.

    With ``scan``, a dict by mask of the 2^(n - m) smoothings that 0-smooth
    every site.  A site's saddle moves the circle count by one, so the
    smoothings that 1-smooth a set T of sites have at most 2^|T| times
    the generators of those that 0-smooth them all, and the full cube at
    most 3^m times theirs.  Only where that bound passes ``MAX_GENERATORS``
    are the other smoothings resolved, for the full count to decide."""
    n, m = d.n_crossings, len(sites)
    if n + m + d.free_loops + (n > 0) >= MAX_GENERATORS.bit_length():
        raise ParseError(_TOO_LARGE)
    neg = d
    for b in sites:
        neg = neg.resolve_double_point(b, -1)
    skip = sum(1 << b for b in sites) if scan else 0
    weight = 3 ** m if scan else 1
    configs, size = {}, 0
    for s in range(1 << n):
        if s & skip:
            continue
        configs[s] = neg.resolve_bits(s)
        size += weight << configs[s].n_circles + m
        if size > MAX_GENERATORS:
            if scan:
                return neg, dict(enumerate(_states(d, sites)[1]))
            raise ParseError(_TOO_LARGE)
    return neg, configs if scan else list(configs.values())


def _bracket_cube(d: Diagram, F: FrobeniusAlgebra, shift: int,
                  sites=(), half=False, blocks=None) -> CubeComplex:
    """The cube of resolutions of ``d`` over its crossings and the double
    points ``sites``, built in place as W[shift], unchecked: the caller
    checks d^2 = 0 on it or on the complex it is assembled into.

    Vertex (r, s) (see ``CubeComplex``) sits in degree |s| + 2|r| + shift;
    within a degree the vertices are laid out by r, then by s, each in
    bit-tuple order.  A saddle edge (r, s) -> (r, s + c) is its check sign
    times its ``_edge_block``, a crossing-change edge
    (r, s) -> (r + k, s - b) at b = ``sites[k]`` minus its check sign times
    its ``_edge_block``: the table of the local cobordism times the
    identity on the untouched circles.  Both carry (-1)^shift, the sign
    W[shift] gives the differential.  At (h, t) = (0, 0) vertex (r, s) has
    quantum degrees internal + |s| + n_plus - 2 * n_minus of its resolved
    diagram.  Each planar smoothing is resolved once (see the module
    docstring), each block is built once per key, already in the ring, in
    the edge-block table ``blocks`` (by default one for this call), and
    written by ``_put``; the rows are stored unchecked.  The edge loop
    reads the vertex offsets from lists indexed [r][s]; ``offsets`` is
    their dict.  With ``half`` it is the half cube
    XC of the module docstring; the diagram must have a circle.
    ``_states`` refuses a cube that is too large."""
    n, m = d.n_crossings, len(sites)
    parity = -1 if shift % 2 else 1
    neg, configs = _states(d, sites)
    flips = [_flip(sites, r) for r in range(1 << m)]
    # a positive site moves a crossing from n_minus to n_plus: 3 more
    q_neg = neg.n_plus - 2 * neg.n_minus
    # circle count k -> internal q-degree of each of its generators: the
    # last 2^(k - half) of its 2^k
    internal = {k: [k - 2 * g.bit_count()
                    for g in range((1 << k) - (1 << k - half), 1 << k)]
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
            rank += 1 << k - half
            if qdeg is not None:
                j = s.bit_count() + q_neg + 3 * r.bit_count()
                qdeg.setdefault(deg, []).extend(v + j for v in internal[k])
        ranks[deg] = rank

    if blocks is None:
        blocks = {}  # edge key -> its signed, ring-reduced entries
    diffs = {}
    for deg in sorted(levels):
        rows = [{} for _ in range(ranks.get(deg + 1, 0))]
        # distinct edges never share an entry, nor terms of one edge
        for r, s in levels[deg]:
            flip, at_r = flips[r], at[r]
            cfg = configs[s ^ flip]
            col0 = at_r[s]
            sign = parity  # (-1)^shift times the check sign of bit c
            for c in range(n):
                if s >> c & 1:
                    sign = -sign
                    continue
                t = s | 1 << c
                _put(rows, _edge_block(F, blocks, cfg, configs[t ^ flip], c,
                                       sign, half), at_r[t], col0)
            for k, b in enumerate(sites):
                if r >> k & 1 or not s >> b & 1:
                    continue
                # the target vertex is smoothing cfg too
                _put(rows, _edge_block(F, blocks, cfg, cfg, b,
                                       -parity * _sign_bits(s, b), half),
                     at[r | 1 << k][s & ~(1 << b)], col0)
        m = _matrix(rows, ranks[deg], F.ring)
        if not m.is_zero():
            diffs[deg] = m
    cx = ChainComplex._unchecked(F.ring, ranks, diffs, qdeg)
    return CubeComplex(cx, d, F, shift, tuple(sites), configs, offsets)


def _phi_map(src: CubeComplex, tgt: CubeComplex, c: int,
             blocks=None) -> ChainMap:
    """The crossing-change map at the negative crossing c of ``src`` into
    ``tgt``, the cube over the same sites with c made positive, built one
    degree up so that the map has degree 0.  Unchecked.

    Vertex (r, s) with c 1-smoothed maps to (r, s - c) by its check sign
    times its ``_edge_block``, looked up in the edge-block table ``blocks``
    (by default one for this call); every other vertex maps to zero.  Here
    two separately resolved diagrams meet, so their circles are compared: as
    the walk data they are derived from (edge labels, the circle of each
    edge and the circle count), which are equal exactly when the circles
    are."""
    if tgt.shift != src.shift + 1:
        raise ContractViolation(f"crossing {c} is not negative")
    F = src.algebra
    if blocks is None:
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
        block = _edge_block(F, blocks, cfg, cfg, c, _sign_bits(s, c))
        if block:
            deg = s.bit_count() + 2 * r.bit_count() + src.shift
            if deg not in comps:
                comps[deg] = [{} for _ in range(tgt.complex.rank(deg))]
            _put(comps[deg], block, tgt.offsets[t], col0)
    return ChainMap(src.complex, tgt.complex, {
        deg: _matrix(rows, src.complex.rank(deg), F.ring)
        for deg, rows in comps.items()})
