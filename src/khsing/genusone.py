"""The evaluated crossing-change morphism and singular-link complexes.

Crossing change from a negative to a positive crossing is realized by a
degree-(0,0) chain map whose only nonzero components sit on states that
1-smooth the distinguished crossing: there the local picture is a pair of
parallel strands, and the map acts as

    v  |->  (x on the circle through slot 1) v - (x on the circle through slot 0) v

when the two strands lie on distinct circles, and as zero when they lie on
one circle.  Tensored with the alternating sign that removes the crossing
from the state, this assembles into a chain map between the two Khovanov
complexes.

A diagram with double points is evaluated by resolving every double point
both ways and gluing the resulting cubes along these crossing-change maps;
the result is the iterated mapping cone over the double points, built here
in flattened form.  Degrees follow the shift -(n_minus + 2 * n_double).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .chain import (ChainComplex, ChainMap, cone, cone_functorial_map,
                    homology_functor_ranks, is_chain_map)
from .diagram import Diagram, ORDINARY
from .errors import ContractViolation
from .exactlinalg import HomologySummary, SparseMatrix
from .frobenius import FrobeniusAlgebra
from .khcube import CubeComplex, _acc, _bits_rank, _sign_bits, build_cube


def phi_local(config, crossing: int, F: FrobeniusAlgebra) -> SparseMatrix:
    """Local crossing-change endomorphism of a state's module.

    The distinguished crossing must be 1-smoothed in the configuration; the
    returned square matrix acts on the tensor power over the configuration's
    circles in lexicographic bit order.
    """
    if not (config.smoothing >> crossing) & 1:
        raise ContractViolation(
            "crossing is 0-smoothed; the crossing-change map has no "
            "component there")
    k = config.n_circles
    dim = 1 << k
    i1, i2 = config.crossing_arcs[crossing]
    ring = F.ring
    entries = {}
    if i1 == i2:
        return SparseMatrix.zero(dim, dim, ring)
    for col, bits in enumerate(product((0, 1), repeat=k)):
        for target, coef in _x_difference(F, bits, i1, i2):
            _acc(entries, _bits_rank(target), col, coef, ring)
    return SparseMatrix(dim, dim, ring, entries)


def _x_difference(F: FrobeniusAlgebra, bits, i1: int, i2: int):
    """Expansion of (x on factor i2) - (x on factor i1) applied to a basis
    vector; yields (target_bits, coefficient) pairs."""
    ring = F.ring
    for bit, coef in F.x_bits(bits[i2]):
        nb = list(bits)
        nb[i2] = bit
        yield tuple(nb), coef
    for bit, coef in F.x_bits(bits[i1]):
        nb = list(bits)
        nb[i1] = bit
        yield tuple(nb), ring.neg(coef)


# ---------------------------------------------------------------------------
# Flattened singular complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularComplex:
    """Evaluated complex of a diagram with double points.

    Pieces are indexed by resolution schemes (bitmask over ``sites``; a set
    bit resolves the double point positively).  Generators are labelled
    (scheme_mask, state_mask, bits); the cone iteration order over the
    double points is recorded in ``sites``.
    """

    diagram: Diagram
    algebra: FrobeniusAlgebra
    complex: ChainComplex
    sites: tuple
    pieces: dict  # scheme mask -> CubeComplex (unnormalized bracket cube)

    def homology(self, ring=None, graded=None) -> HomologySummary:
        return self.complex.homology(ring=ring, graded=graded)


def _resolved(d: Diagram, sites, rmask: int) -> Diagram:
    out = d
    for k, b in enumerate(sites):
        out = out.resolve_double_point(b, +1 if (rmask >> k) & 1 else -1)
    return out


def _scheme_order(m: int):
    masks = list(range(1 << m))
    masks.sort(key=lambda mm: tuple((mm >> i) & 1 for i in range(m)))
    return masks


def singular_complex(d: Diagram, F: FrobeniusAlgebra,
                     site_order=None) -> SingularComplex:
    """Flattened iterated-cone complex of a singular diagram.

    With no double points this is exactly the normalized cube.  Otherwise
    each resolution scheme contributes its bracket cube shifted up by twice
    the number of positive resolutions, glued by the crossing-change maps
    (with a uniform minus sign; the alternating signs that make distinct
    double points anticommute live in the state-level check signs).  The
    total complex is then shifted by -(n_minus + 2 * n_double) and d^2 = 0
    is verified on construction.
    """
    sites = tuple(site_order) if site_order is not None else d.singular_indices
    if sorted(sites) != sorted(d.singular_indices):
        raise ContractViolation("site order must enumerate the double points")
    m = len(sites)
    ring = F.ring

    pieces = {}
    for rmask in range(1 << m):
        pieces[rmask] = build_cube(_resolved(d, sites, rmask), F,
                                   normalize=False)

    # generator layout per total (bracket) degree
    ranks = {}
    offsets = {}  # (rmask, weight) -> offset of the piece block
    basis = {}
    qdeg = {} if F.graded else None
    scheme_masks = _scheme_order(m)
    for rmask in scheme_masks:
        cube = pieces[rmask]
        for w in cube.complex.degrees():
            deg = w + 2 * rmask.bit_count()
            ranks.setdefault(deg, 0)
            offsets[(rmask, w)] = ranks[deg]
            labels = cube.complex.basis[w]
            basis.setdefault(deg, [])
            basis[deg].extend((rmask, mask, bits) for mask, bits in labels)
            if qdeg is not None:
                qdeg.setdefault(deg, [])
                qdeg[deg].extend(cube.complex.q[w])
            ranks[deg] += cube.complex.rank(w)
    basis = {deg: tuple(v) for deg, v in basis.items()}
    if qdeg is not None:
        qdeg = {deg: tuple(v) for deg, v in qdeg.items()}

    entries_by_deg = {deg: {} for deg in ranks}

    def put(deg, row, col, val):
        _acc(entries_by_deg[deg], row, col, val, ring)

    # cube blocks
    for rmask in scheme_masks:
        cube = pieces[rmask]
        two_r = 2 * rmask.bit_count()
        for w in cube.complex.degrees():
            mtx = cube.complex.diff(w)
            if mtx.is_zero():
                continue
            deg = w + two_r
            roff = offsets[(rmask, w + 1)]
            coff = offsets[(rmask, w)]
            for (r, c), v in mtx.data.items():
                put(deg, roff + r, coff + c, v)

    # crossing-change blocks, one per absent site, uniform minus sign
    for rmask in scheme_masks:
        cube = pieces[rmask]
        two_r = 2 * rmask.bit_count()
        for k, b in enumerate(sites):
            if (rmask >> k) & 1:
                continue
            tmask = rmask | (1 << k)
            _phi_blocks(cube, pieces[tmask], b, F,
                        lambda w, row, col, val, deg_off=two_r, src=rmask,
                        tgt=tmask:
                        put(w + deg_off,
                            offsets[(tgt, w - 1)] + row,
                            offsets[(src, w)] + col,
                            ring.neg(val)))

    diffs = {}
    for deg, acc in entries_by_deg.items():
        if deg + 1 in ranks and acc:
            diffs[deg] = SparseMatrix(ranks[deg + 1], ranks[deg], ring, acc)
    total = ChainComplex(ring, ranks, diffs, basis=basis, q=qdeg)
    shift = -(d.n_minus + 2 * m)
    return SingularComplex(d, F, total.shift(shift), sites, pieces)


def _phi_blocks(src_cube: CubeComplex, tgt_cube: CubeComplex, c: int,
                F: FrobeniusAlgebra, emit):
    """Crossing-change components between two bracket cubes.

    For every state of the source cube that 1-smooths crossing c, emits the
    entries of the local map times the check sign, as
    ``emit(source_weight, row_in_target_level, col_in_source_level, value)``
    with indices relative to the cubes' generator numbering at weight
    ``source_weight - 1`` and ``source_weight`` respectively.
    """
    ring = F.ring
    src_cx = src_cube.complex
    bit = 1 << c
    src_pos = {w: _state_offsets(src_cx.basis[w]) for w in src_cx.degrees()}
    tgt_pos = {w: _state_offsets(tgt_cube.complex.basis[w])
               for w in tgt_cube.complex.degrees()}

    for w in src_cx.degrees():
        for mask, start in src_pos[w].items():
            if not mask & bit:
                continue
            cfg = src_cube.configs[mask]
            i1, i2 = cfg.crossing_arcs[c]
            if i1 == i2:
                continue
            tmask = mask & ~bit
            tgt_cfg = tgt_cube.configs[tmask]
            if tgt_cfg.circles != cfg.circles:
                raise ContractViolation(
                    "resolved configurations disagree; inconsistent cubes")
            tstart = tgt_pos[w - 1][tmask]
            sign = _sign_bits(mask, c)
            k = cfg.n_circles
            for col_ix, bits in enumerate(product((0, 1), repeat=k)):
                for target, coef in _x_difference(F, bits, i1, i2):
                    emit(w, tstart + _bits_rank(target), start + col_ix,
                         ring.mul(sign, coef))


def _state_offsets(labels) -> dict:
    """Offset of each state's generator block within a level's basis."""
    out = {}
    for ix, (mask, _bits) in enumerate(labels):
        if mask not in out:
            out[mask] = ix
    return out


# ---------------------------------------------------------------------------
# The crossing-change chain map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenusOneMap:
    """Crossing-change chain map between two (singular) Khovanov complexes.

    The map is degree (0, 0) after normalization; its components vanish on
    every generator whose state 0-smooths the distinguished crossing.
    """

    source: SingularComplex
    target: SingularComplex
    map: ChainMap
    crossing: int

    def is_chain_map(self):
        return is_chain_map(self.map)


def genus_one_map(d_minus: Diagram, c: int, F: FrobeniusAlgebra,
                  site_order=None) -> GenusOneMap:
    """Crossing-change map out of a diagram with a negative crossing at c.

    The target diagram is ``d_minus`` with crossing c made positive; other
    double points are allowed and are carried along piecewise.  The
    construction is verified to be a chain map.
    """
    if d_minus.kinds[c] != ORDINARY:
        raise ContractViolation(f"crossing {c} is a double point")
    if d_minus.crossing_sign(c) != -1:
        raise ContractViolation(f"crossing {c} is positive; the "
                                "crossing-change map starts at a negative one")
    d_plus = d_minus.crossing_change(c)
    S_minus = singular_complex(d_minus, F, site_order)
    S_plus = singular_complex(d_plus, F, site_order)
    ring = F.ring
    m = len(S_minus.sites)
    shift_m = -(d_minus.n_minus + 2 * m)
    shift_p = -(d_plus.n_minus + 2 * m)
    off_m = _piece_offsets(S_minus)
    off_p = _piece_offsets(S_plus)

    comps = {}
    for rmask, cube in S_minus.pieces.items():
        tgt_cube = S_plus.pieces[rmask]
        two_r = 2 * rmask.bit_count()

        def emit(w, row, col, val, rm=rmask, off=two_r):
            deg = w + off + shift_m
            if (w - 1) + off + shift_p != deg:
                raise ContractViolation("degree bookkeeping failure")
            _acc(comps.setdefault(deg, {}), off_p[(rm, w - 1)] + row,
                 off_m[(rm, w)] + col, val, ring)

        _phi_blocks(cube, tgt_cube, c, F, emit)

    matrices = {}
    for deg, acc in comps.items():
        matrices[deg] = SparseMatrix(S_plus.complex.rank(deg),
                                     S_minus.complex.rank(deg), ring, acc)
    f = ChainMap(S_minus.complex, S_plus.complex, matrices)
    check = is_chain_map(f)
    if not check.ok:
        raise ContractViolation(
            f"crossing-change map fails to be a chain map at degree "
            f"{check.degree}")
    return GenusOneMap(S_minus, S_plus, f, c)


def _piece_offsets(S: SingularComplex) -> dict:
    """Offset of each (scheme, weight) block inside its normalized degree."""
    out = {}
    for labels in S.complex.basis.values():
        for ix, (rm, mask, _bits) in enumerate(labels):
            key = (rm, mask.bit_count())
            if key not in out:
                out[key] = ix
    return out


# ---------------------------------------------------------------------------
# Iterated-cone construction
# ---------------------------------------------------------------------------


def singular_complex_iterated(d: Diagram, F: FrobeniusAlgebra,
                              site_order=None) -> ChainComplex:
    """Literal iterated mapping cone over the double points.

    Splits off the first double point in ``site_order``, recursively builds
    the complexes of its two resolutions and the crossing-change map between
    them, and takes the cone.  Isomorphic (up to basis signs) to the
    flattened construction; homology agrees degreewise.
    """
    sites = tuple(site_order) if site_order is not None else d.singular_indices
    if sorted(sites) != sorted(d.singular_indices):
        raise ContractViolation("site order must enumerate the double points")
    if not sites:
        return build_cube(d, F).complex
    b = sites[0]
    phi = _iterated_phi(d.resolve_double_point(b, -1), b, F, sites[1:])
    return cone(phi)


def _iterated_phi(d_minus: Diagram, c: int, F: FrobeniusAlgebra,
                  sites) -> ChainMap:
    """Crossing-change map between iterated-cone complexes."""
    d_plus = d_minus.crossing_change(c)
    if not sites:
        cm = build_cube(d_minus, F, normalize=False)
        cp = build_cube(d_plus, F, normalize=False)
        return _phi_cube_chainmap(cm, cp, c)
    b, rest = sites[0], sites[1:]
    f_prime = _iterated_phi(d_minus.resolve_double_point(b, -1), b, F, rest)
    f = _iterated_phi(d_plus.resolve_double_point(b, -1), b, F, rest)
    u = _iterated_phi(d_minus.resolve_double_point(b, -1), c, F, rest)
    v = _iterated_phi(d_minus.resolve_double_point(b, +1), c, F, rest)
    # crossing-change maps at distinct sites anticommute (check signs), so
    # the square commutes strictly once the X-leg is negated
    return cone_functorial_map(f, f_prime, -u, v)


def _phi_cube_chainmap(cm: CubeComplex, cp: CubeComplex, c: int) -> ChainMap:
    """Crossing-change map between two bracket-level cube complexes,
    returned against their normalized shifts."""
    F = cm.algebra
    ring = F.ring
    shift_m = -cm.n_minus
    shift_p = -cp.n_minus
    ncm = cm.complex.shift(shift_m)
    ncp = cp.complex.shift(shift_p)
    comps = {}

    def emit(w, row, col, val):
        deg = w + shift_m
        if (w - 1) + shift_p != deg:
            raise ContractViolation("degree bookkeeping failure")
        _acc(comps.setdefault(deg, {}), row, col, val, ring)

    _phi_blocks(cm, cp, c, F, emit)
    matrices = {deg: SparseMatrix(ncp.rank(deg), ncm.rank(deg), ring, acc)
                for deg, acc in comps.items()}
    out = ChainMap(ncm, ncp, matrices)
    check = is_chain_map(out)
    if not check.ok:
        raise ContractViolation(
            f"cube-level crossing-change map fails at degree {check.degree}")
    return out


# ---------------------------------------------------------------------------
# Skein triangle report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkeinReport:
    """Verification record for a (negative, positive, singular) triple."""

    site: int
    ring: str
    les_rows: tuple      # (degree, dim_sing, dim_coker, dim_ker_next)
    les_ok: bool
    chi_ok: bool | None  # None when no quantum grading is available
    h_minus: HomologySummary
    h_plus: HomologySummary
    h_sing: HomologySummary

    @property
    def ok(self) -> bool:
        return self.les_ok and self.chi_ok is not False

    def to_json_dict(self) -> dict:
        return {
            "site": self.site,
            "ring": self.ring,
            "les_ok": self.les_ok,
            "chi_ok": self.chi_ok,
            "rows": [{"i": i, "dim_sing": a, "coker": b, "ker_next": k}
                     for (i, a, b, k) in self.les_rows],
        }


def skein_site(d_minus: Diagram, d_plus: Diagram, d_sing: Diagram) -> int:
    """The unique site where the three diagrams differ; contract error
    otherwise."""
    extra = [i for i in d_sing.singular_indices
             if i not in d_minus.singular_indices]
    if len(extra) != 1:
        raise ContractViolation("the singular diagram must have exactly one "
                                "extra double point")
    b = extra[0]
    if (d_sing.resolve_double_point(b, -1) != d_minus
            or d_sing.resolve_double_point(b, +1) != d_plus):
        raise ContractViolation(
            "diagrams do not match the resolutions of the double point")
    return b


def skein_triangle_report(d_minus: Diagram, d_plus: Diagram, d_sing: Diagram,
                          F: FrobeniusAlgebra) -> SkeinReport:
    """Verify the long-exact-sequence rank identity and the graded Euler
    characteristic identity for a crossing-change triple.

    Field coefficients are required for the rank bookkeeping.  The singular
    side is computed independently (flattened construction), so exactness
    genuinely tests the pipeline.
    """
    if not F.ring.is_field:
        raise ContractViolation("the rank identity needs field coefficients")
    b = skein_site(d_minus, d_plus, d_sing)
    g1 = genus_one_map(d_minus, b, F)
    S_sing = singular_complex(d_sing, F)
    h_minus = g1.source.homology(graded=False)
    h_plus = g1.target.homology(graded=False)
    h_sing = S_sing.homology(graded=False)

    data = homology_functor_ranks(g1.map)
    degs = sorted(set(h_sing.keys()) | set(data) | {i - 1 for i in data})
    rows = []
    ok = True
    for i in degs:
        hx, hy, r = data.get(i, (0, 0, 0))
        hx1, _, r1 = data.get(i + 1, (0, 0, 0))
        coker = hy - r
        ker_next = hx1 - r1
        dim_sing = h_sing.free_rank(i)
        rows.append((i, dim_sing, coker, ker_next))
        if dim_sing != coker + ker_next:
            ok = False

    chi_ok = None
    if F.graded:
        chi_s = S_sing.complex.graded_euler_characteristic()
        chi_p = g1.target.complex.graded_euler_characteristic()
        chi_m = g1.source.complex.graded_euler_characteristic()
        diff = dict(chi_p)
        for j, cc in chi_m.items():
            diff[j] = diff.get(j, 0) - cc
        chi_ok = {j: cc for j, cc in diff.items() if cc} == chi_s
    return SkeinReport(b, str(F.ring), tuple(rows), ok, chi_ok,
                       h_minus, h_plus, h_sing)
