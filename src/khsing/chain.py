"""Chain-complex core: shifts, cones, chain maps, homology, and the
homotopy-coherence combinators for mapping cones.

Conventions.  Complexes are cohomological: d^i maps degree i to i+1.  The
shift W[k] has W[k]^i = W^(i-k) and differential (-1)^k d.  A ChainMap with
``shift`` k has components X^i -> Y^(i-k) and must satisfy
d_Y f = (-1)^k f d_X, i.e. it is a degree-zero chain map into Y[k].

A homotopy is a graded map too: ``Homotopy`` is the ChainMap of shift
-degree (Bar-Natan, arXiv:math/0410495, takes a homotopy to be a morphism
of degree -1), so homotopies and chain maps share ``compose``, ``+`` and
``-``.  Each combinator checks the relation it needs, d H + H d or
d H - H d (the sign differs between anticommutator and commutator
identities), against one expression in those operations.

A cone is a direct sum, Cone(f)^i = Y^i (+) X^(i+1) with Y first; that
layout is stated once, by ``_cone_summands``.  A map into or out of a cone
is a matrix of graded maps between summands, and ``_block_map`` turns it
into components, so the cone's differential and each combinator's map are
each stated as one grid.

A ChainComplex checks d^2 = 0 when it is constructed, and nothing checks it
again: ``shift`` and ``change_ring`` are exact images, and ``homology``
checks only the bidegree.  A map keeps its chain condition; a cone checks
only its map, an induced cone map its legs and square.  Homology and H(f)
cut each q-block through the column maps of ``_reduced_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractViolation
# homology_at, kernel_basis and rank are re-exported: tools that wrap them
# look them up here too
from .exactlinalg import (HomologySummary, Ring, SparseMatrix, _rank_torsion,
                          homology_at, kernel_basis, rank)  # noqa: F401


class ChainComplex:
    """Bounded complex of finite free modules with sparse differentials.

    ``ranks`` maps degree -> rank (positive entries only); ``diffs`` maps
    degree i to the matrix of d^i (target rank x source rank).  ``q``
    optionally attaches quantum degrees per generator.  Generators carry no
    labels: a builder identifies each by its place, e.g. a cube generator by
    its state's offset in its degree plus the index of its circle bits.
    """

    __slots__ = ("ring", "ranks", "diffs", "q")

    def __init__(self, ring: Ring, ranks, diffs, q=None):
        self._store(ring, ranks, diffs, q)
        self.validate()

    def _store(self, ring, ranks, diffs, q):
        self.ring = ring
        self.ranks = {i: r for i, r in ranks.items() if r > 0}
        self.diffs = {}
        for i, m in diffs.items():
            if m is None or (m.rows == 0 or m.cols == 0):
                continue
            self.diffs[i] = m
        self.q = dict(q) if q else None

    @classmethod
    def _unchecked(cls, ring: Ring, ranks, diffs, q=None):
        """A complex built without ``validate()``: an exact image or a cone of
        checked data, or a piece checked as part of the complex it is in."""
        cx = cls.__new__(cls)
        cx._store(ring, ranks, diffs, q)
        return cx

    # -- shape bookkeeping ---------------------------------------------------

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def degrees(self):
        return sorted(self.ranks)

    def total_rank(self) -> int:
        return sum(self.ranks.values())

    def diff(self, i: int) -> SparseMatrix:
        m = self.diffs.get(i)
        if m is None:
            return SparseMatrix.zero(self.rank(i + 1), self.rank(i), self.ring)
        return m

    def validate(self):
        for i, m in self.diffs.items():
            if (m.rows, m.cols) != (self.rank(i + 1), self.rank(i)):
                raise ContractViolation(
                    f"differential at degree {i} has shape {m.rows}x{m.cols}, "
                    f"expected {self.rank(i + 1)}x{self.rank(i)}")
            if m.ring != self.ring:
                raise ContractViolation("differential ring mismatch")
        for i in list(self.diffs):
            if i + 1 in self.diffs:
                if not (self.diffs[i + 1] * self.diffs[i]).is_zero():
                    raise ContractViolation(f"d^2 != 0 at degree {i}")
        for i, qs in (self.q or {}).items():
            if len(qs) != self.rank(i):
                raise ContractViolation(
                    f"quantum degrees length mismatch at {i}")

    # -- constructions ---------------------------------------------------------

    def shift(self, k: int) -> "ChainComplex":
        """W[k]: degree i of the result is degree i-k of the input."""
        ranks = {i + k: r for i, r in self.ranks.items()}
        sign = -1 if k % 2 else 1
        diffs = {i + k: (m if sign > 0 else -m) for i, m in self.diffs.items()}
        q = {i + k: v for i, v in self.q.items()} if self.q else None
        return ChainComplex._unchecked(self.ring, ranks, diffs, q)

    def change_ring(self, ring: Ring) -> "ChainComplex":
        diffs = {i: m.change_ring(ring) for i, m in self.diffs.items()}
        return ChainComplex._unchecked(ring, self.ranks, diffs, self.q)

    def check_bidegree(self):
        """Verify every differential entry preserves the quantum grading
        (bidegree (1, 0)); requires q."""
        if self.q is None:
            raise ContractViolation("complex carries no quantum grading")
        _check_q_kept(self.diffs, self.q, self.q, 1)

    # -- homology ---------------------------------------------------------------

    def _reduced_blocks(self, graded: bool):
        """``(blocks, reduced, place)``: ``blocks[i][j]`` lists the degree-i
        generators of quantum degree j (one block j = None when ungraded),
        ``reduced[(i, j)]`` is the rank and torsion of block j of d^i.

        In ascending degree, block j of d^i leaves out the columns at the
        rows of the unit prefix of block j of d^(i-1): by Bar-Natan's
        Gaussian elimination lemma (arXiv:math/0606318, Lemma 4.2), those
        cancellations delete just these columns of d^i, so its image, rank
        and divisors stay.  Each block is cut from the rows of d^i through
        ``place[i]``, every degree's column map: a column's place among the
        kept columns of its q-block, or None."""
        if graded:
            self.check_bidegree()
            blocks = {i: {} for i in self.degrees()}
            for i, by_q in blocks.items():
                for ix, j in enumerate(self.q.get(i, ())):
                    by_q.setdefault(j, []).append(ix)
        else:
            blocks = {i: {None: range(n)} for i, n in self.ranks.items()}
        reduced, place, dropped = {}, {}, {}  # dropped: cancelled by d^(i-1)
        for i, by_q in sorted(blocks.items()):
            drop, cut = dropped.get(i, ()), dropped.setdefault(i + 1, set())
            place[i] = kept = [None] * self.rank(i)
            for j, cols in by_q.items():
                for k, c in enumerate([c for c in cols if c not in drop]):
                    kept[c] = k
                if i in self.diffs:
                    rows = blocks.get(i + 1, {}).get(j, ())
                    r, torsion, units = _rank_torsion(self.diffs[i], self.ring,
                                                      rows, kept)
                    reduced[(i, j)] = r, torsion
                    cut.update(rows[k] for k in units)
        return blocks, reduced, place

    def homology(self, graded: bool | None = None) -> HomologySummary:
        """Homology summary over the complex's ring, refined by the quantum
        grading when ``graded`` (by default, when the complex carries q).
        ``change_ring`` gives the complex over another ring.

        d^2 = 0 was checked when the complex was built, so only the
        bidegree (1, 0) of the differentials is checked here, when graded.
        Each (degree, q-block) of each differential is then reduced once,
        in ascending degree, by rank over a field and by Smith normal form
        over Z: its rank counts at its source and at its target, its
        divisors above 1 are torsion at its target.  A block is read through
        its degree's column map, which drops the columns the unit pivots
        below cancelled (``_reduced_blocks``).  Ungraded: one block a degree.
        """
        if graded is None:
            graded = self.q is not None
        blocks, reduced, _ = self._reduced_blocks(graded)
        groups = {(i, j) if graded else i: _block_homology(blocks, reduced, i, j)
                  for i, by_q in blocks.items() for j in by_q}
        return HomologySummary.build(self.ring, groups)

    def graded_euler_characteristic(self):
        """Coefficient dict {j: sum of (-1)^i rank C^(i,j)}."""
        if self.q is None:
            raise ContractViolation("no quantum grading available")
        out = {}
        for i in self.degrees():
            s = -1 if i % 2 else 1
            for j in self.q.get(i, ()):
                out[j] = out.get(j, 0) + s
        return {j: c for j, c in out.items() if c}

    def __repr__(self):
        degs = self.degrees()
        span = f"[{degs[0]}..{degs[-1]}]" if degs else "[]"
        return (f"ChainComplex(over {self.ring}, degrees {span}, "
                f"total rank {self.total_rank()})")


def _check_q_kept(maps: dict, qs: dict, qt: dict, step: int):
    """Each entry of maps[i]: qs[i] -> qt[i + step] keeps the q-degree."""
    for i, m in maps.items():
        src, tgt = qs.get(i, ()), qt.get(i + step, ())
        for r, row in m.row_items():
            for c in row:
                if tgt[r] != src[c]:
                    raise ContractViolation(
                        f"entry ({r},{c}) at degree {i} shifts q by "
                        f"{tgt[r] - src[c]}")


@dataclass
class ChainMap:
    """Graded map f: X -> Y[shift], components X^i -> Y^(i - shift).

    A map is not changed after it is built: ``cone`` keeps its result in
    ``_cone`` and ``is_chain_map`` its verdict in ``_check``.
    """

    source: ChainComplex
    target: ChainComplex
    components: dict
    shift: int = 0
    _cone: ChainComplex | None = field(default=None, init=False, repr=False,
                                       compare=False)
    _check: "ChainMapCheck | None" = field(default=None, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        self.components = {
            i: m for i, m in self.components.items()
            if m is not None and not (m.rows == 0 and m.cols == 0)}
        for i, m in self.components.items():
            want = (self.target.rank(i - self.shift), self.source.rank(i))
            if (m.rows, m.cols) != want:
                raise ContractViolation(
                    f"component at degree {i} has shape {m.rows}x{m.cols}, "
                    f"expected {want[0]}x{want[1]}")

    def component(self, i: int) -> SparseMatrix:
        m = self.components.get(i)
        if m is None:
            return SparseMatrix.zero(self.target.rank(i - self.shift),
                                     self.source.rank(i), self.source.ring)
        return m

    def __add__(self, other: "ChainMap") -> "ChainMap":
        # ChainComplex has no __eq__: the complexes must be the same objects
        if ((self.source, self.target, self.shift)
                != (other.source, other.target, other.shift)):
            raise ContractViolation(
                "cannot add maps between different complexes or of "
                "different shifts")
        degs = set(self.components) | set(other.components)
        comps = {i: self.component(i) + other.component(i) for i in degs}
        return ChainMap(self.source, self.target, comps, self.shift)

    def __neg__(self) -> "ChainMap":
        out = ChainMap(self.source, self.target,
                       {i: -m for i, m in self.components.items()}, self.shift)
        if self._check and self._check.ok:  # -f is a chain map when f is
            out._check = self._check
        return out

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + -other

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        comps = {}
        for i in other.components:
            comps[i] = self.component(i - other.shift) * other.component(i)
        return ChainMap(other.source, self.target, comps,
                        self.shift + other.shift)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())


@dataclass(frozen=True)
class ChainMapCheck:
    ok: bool
    degree: int | None = None
    residual: SparseMatrix | None = None


def is_chain_map(f: ChainMap) -> ChainMapCheck:
    """Check d_Y f = (-1)^shift f d_X degreewise, once (kept on ``f``)."""
    if f._check is None:
        f._check = _chain_check(f)
    return f._check


def _chain_check(f: ChainMap) -> ChainMapCheck:
    defect = _family_defect(f, 1 if f.shift % 2 else -1)
    for i in sorted(defect):
        if not defect[i].is_zero():
            return ChainMapCheck(False, i, defect[i])
    return ChainMapCheck(True)


def _require_chain_map(f: ChainMap, what: str):
    """Raise unless ``f`` is a chain map, naming ``what`` and the degree."""
    check = is_chain_map(f)
    if not check.ok:
        raise ContractViolation(
            f"{what} is not a chain map at degree {check.degree}")


class Homotopy(ChainMap):
    """Graded map of degree ``degree``, components X^i -> Y^(i + degree):
    the ChainMap of shift -degree.  Sums and composites are ChainMaps."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: dict, degree: int = -1):
        super().__init__(source, target, components, -degree)

    @property
    def degree(self) -> int:
        return -self.shift

    @classmethod
    def zero(cls, source, target, degree=-1) -> "Homotopy":
        return cls(source, target, {}, degree)


def _family_defect(H: ChainMap, sign: int) -> dict:
    """Components of d_Y H + sign * H d_X, one degree above H."""
    X, Y = H.source, H.target
    out = {}
    for i in set(X.degrees()) | set(H.components):
        m = Y.diff(i - H.shift) * H.component(i)
        n = H.component(i + 1) * X.diff(i)
        out[i] = m + n if sign > 0 else m - n
    return out


def _require_relation(defect: dict, rhs: ChainMap, what: str):
    """Each component of ``defect`` must equal that of the graded map rhs."""
    for i, m in defect.items():
        r = rhs.component(i)
        if m != r:
            raise ContractViolation(
                f"hypothesis {what} fails at degree {i}; residual has "
                f"{(m - r).nnz()} nonzero entries")


# ---------------------------------------------------------------------------
# Mapping cones
# ---------------------------------------------------------------------------


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: d = [[d_Y, f], [0, -d_X]] on the summands Y^i and
    X^(i+1) of ``_cone_summands``, which holds the layout: index k of
    Cone(f)^i is generator k of Y^i when k < rank Y^i, else generator
    k - rank Y^i of X^(i+1).  The ranks and q-degrees are those of the
    summands, and d is their ``_block_map``, each differential a graded
    map of shift -1.

    d d = [[d_Y^2, d_Y f - f d_X], [0, d_X^2]] and Y, X are checked, so the
    cone checks only that ``f`` is a chain map.  It is kept on ``f`` and
    returned by later calls, so a map coned in several places is built
    once; it lives as long as ``f``.
    """
    if f._cone is None:
        f._cone = _cone(f)
    return f._cone


def _cone(f: ChainMap) -> ChainComplex:
    if f.shift != 0:
        raise ContractViolation("cone requires a degree-0 chain map")
    _require_chain_map(f, "coned map")
    X, Y = f.source, f.target
    summands = _cone_summands(f)
    d_X, d_Y = (ChainMap(P, P, P.diffs, -1) for P in (X, Y))
    diffs = _block_map([[d_Y, f], [None, -d_X]], summands, summands, -1)
    ranks = {i: sum(P.rank(i + o) for P, o in summands) for i in diffs}
    q = None if X.q is None or Y.q is None else {
        i: sum((tuple(P.q.get(i + o, ())) for P, o in summands), ())
        for i in ranks}
    return ChainComplex._unchecked(Y.ring, ranks, diffs, q=q)


def _cone_summands(f: ChainMap, k: int = 0) -> tuple:
    """The summands of Cone(f)[k], Y first: a summand (P, o) contributes
    P^(i+o) to degree i, so Cone(f)^i = Y^i (+) X^(i+1)."""
    return ((f.target, -k), (f.source, 1 - k))


def _block_map(grid, source, target, shift: int = 0) -> dict:
    """Components of the map of direct sums ``source`` -> ``target``[shift]
    whose block from summand c to summand r is the graded map grid[r][c]
    (None for zero).  Summands are (P, o) as in ``_cone_summands``: the
    block from (P, o) to (Q, p) maps P -> Q[shift + o - p], and its
    component at degree i of the sum is its component at i + o."""
    for row, (_, p) in zip(grid, target):
        for g, (_, o) in zip(row, source):
            if g is not None and g.shift != shift + o - p:
                raise ContractViolation(
                    f"block of shift {g.shift} where {shift + o - p} fits")
    ring = source[0][0].ring
    comps = {}
    for i in sorted({d - o for P, o in source for d in P.degrees()}):
        comps[i] = SparseMatrix.block(
            [[None if g is None else g.component(i + o)
              for g, (_, o) in zip(row, source)] for row in grid],
            [Q.rank(i - shift + p) for Q, p in target],
            [P.rank(i + o) for P, o in source], ring)
    return comps


def _identity(P: ChainComplex) -> ChainMap:
    return ChainMap(P, P, {i: SparseMatrix.identity(n, P.ring)
                           for i, n in P.ranks.items()})


def cone_inclusion(f: ChainMap) -> ChainMap:
    """The canonical chain map Y -> Cone(f), [I; 0]."""
    Y = f.target
    return ChainMap(Y, cone(f), _block_map([[_identity(Y)], [None]],
                                           ((Y, 0),), _cone_summands(f)))


def cone_projection(f: ChainMap) -> ChainMap:
    """The canonical chain map Cone(f) -> X[-1], [0 I]."""
    X = f.source
    return ChainMap(cone(f), X.shift(-1), _block_map(
        [[None, _identity(X)]], _cone_summands(f), ((X, 1),)))


def cone_functorial_map(f: ChainMap, f_prime: ChainMap, u: ChainMap,
                        v: ChainMap, F: Homotopy | None = None) -> ChainMap:
    """Map Cone(f') -> Cone(f) induced by a homotopy-commutative square.

    The square has legs u: X' -> X, v: Y' -> Y and homotopy F with
    d_Y F + F d_X' = f u - v f'.  The induced map Phi = [[v, -F], [0, u]]
    has d Phi - Phi d = [[dv - vd, fu - vf' - (dF + Fd)], [0, ud - du]]: it
    is a chain map exactly when the legs are and the square holds.
    """
    X, Y = f.source, f.target
    Xp, Yp = f_prime.source, f_prime.target
    if F is None:
        F = Homotopy.zero(Xp, Y)
    if (u.source, u.target, u.shift, v.source, v.target, v.shift, F.source,
            F.target, F.shift) != (Xp, X, 0, Yp, Y, 0, Xp, Y, 1):
        raise ContractViolation("legs must be degree-0 maps X' -> X, Y' -> Y "
                                "and F a degree -1 family X' -> Y")
    _require_relation(_family_defect(F, +1), f.compose(u) - v.compose(f_prime),
                      "dF + Fd = fu - vf'")
    _require_chain_map(u, "leg u of the induced cone map")
    _require_chain_map(v, "leg v of the induced cone map")
    out = ChainMap(cone(f_prime), cone(f), _block_map(
        [[v, -F], [None, u]], _cone_summands(f_prime), _cone_summands(f)))
    out._check = ChainMapCheck(True)
    return out


def cone_factor(f: ChainMap, g: ChainMap, H: Homotopy | None = None) -> ChainMap:
    """Factor g: Y -> Z through Cone(f) given H with d H + H d = -g f.

    Returns the map (g, -H): Cone(f) -> Z restricting to g along
    Y -> Cone(f).
    """
    Z = g.target
    if H is None:
        H = Homotopy.zero(f.source, Z)
    _require_relation(_family_defect(H, +1), -g.compose(f), "dH + Hd = -gf")
    out = ChainMap(cone(f), Z, _block_map([[g, -H]], _cone_summands(f),
                                          ((Z, 0),)))
    _require_chain_map(out, "factored map")
    return out


def cone_hfunc_homotopy(f: ChainMap, g: ChainMap, f_prime: ChainMap,
                        g_prime: ChainMap, u: ChainMap, v: ChainMap,
                        w: ChainMap, F: Homotopy, G: Homotopy,
                        Psi: Homotopy) -> Homotopy:
    """Homotopy (G, -Psi) between the induced maps on cones.

    Hypotheses: g f = 0 and g' f' = 0 strictly; F and G are the square
    homotopies (dF + Fd = f u - v f', dG + Gd = g v - w g'); Psi is a degree
    -2 family with d Psi - Psi d = g F + G f'.  The output satisfies
    d Ghat + Ghat d = ghat F* - w ghat'.
    """
    for pair, name in (((g, f), "gf"), ((g_prime, f_prime), "g'f'")):
        if not pair[0].compose(pair[1]).is_zero():
            raise ContractViolation(f"composite {name} is not strictly zero")
    Z = g.target
    _require_relation(_family_defect(Psi, -1),
                      g.compose(F) + G.compose(f_prime),
                      "dPsi - Psi d = gF + Gf'")

    ghat = cone_factor(f, g)
    ghat_p = cone_factor(f_prime, g_prime)
    Fstar = cone_functorial_map(f, f_prime, u, v, F)
    Ghat = Homotopy(Fstar.source, Z, _block_map(
        [[G, -Psi]], _cone_summands(f_prime), ((Z, 0),), 1), degree=-1)
    # the identity this family is claimed to satisfy, checked entrywise
    _require_relation(_family_defect(Ghat, +1),
                      ghat.compose(Fstar) - w.compose(ghat_p),
                      "d Ghat + Ghat d = ghat F* - w ghat'")
    return Ghat


def cone_cocone_homotopy(f, g, h, f_prime, g_prime, h_prime,
                         uX, uY, uZ, uW, F, G, H, Psi, Xi, Gamma) -> Homotopy:
    """The 2x2 block homotopy between induced cone-to-cone maps.

    Given a four-term ladder with strictly zero horizontal composites and
    square homotopies F, G, H, plus coherence families Psi, Xi (degree -2)
    and Gamma (degree -3) satisfying

        d Psi - Psi d = g F + G f'
        d Xi  - Xi  d = h G + H g'
        d Gamma + Gamma d = h Psi - Xi f'

    returns Gamma* = [[-Xi, Gamma], [G, -Psi]] and verifies
    d Gamma* + Gamma* d = r F* - H*[1] r', where r, r' are the canonical
    maps Cone(f) -> Cone(h)[1], [[0, 0], [g, 0]].
    """
    for pair, name in (((g, f), "gf"), ((h, g), "hg"),
                       ((g_prime, f_prime), "g'f'"),
                       ((h_prime, g_prime), "h'g'")):
        if not pair[0].compose(pair[1]).is_zero():
            raise ContractViolation(f"composite {name} is not strictly zero")
    _require_relation(_family_defect(Psi, -1),
                      g.compose(F) + G.compose(f_prime),
                      "dPsi - Psi d = gF + Gf'")
    _require_relation(_family_defect(Xi, -1),
                      h.compose(G) + H.compose(g_prime),
                      "dXi - Xi d = hG + Hg'")
    _require_relation(_family_defect(Gamma, +1),
                      h.compose(Psi) - Xi.compose(f_prime),
                      "dGamma + Gamma d = h Psi - Xi f'")

    Fstar = cone_functorial_map(f, f_prime, uX, uY, F)
    Hstar = cone_functorial_map(h, h_prime, uZ, uW, H)
    r, r_prime = (ChainMap(cone(a), cone(c).shift(1), _block_map(
        [[None, None], [b, None]], _cone_summands(a), _cone_summands(c, 1)))
        for a, b, c in ((f, g, h), (f_prime, g_prime, h_prime)))
    _require_chain_map(r, "canonical map r")
    _require_chain_map(r_prime, "canonical map r'")

    Gstar = Homotopy(Fstar.source, r.target, _block_map(
        [[-Xi, Gamma], [G, -Psi]], _cone_summands(f_prime),
        _cone_summands(h, 1), 1), degree=-1)
    hstar_shift = ChainMap(r_prime.target, r.target,
                           {i: Hstar.component(i - 1) for i in r_prime.target.degrees()})
    _require_relation(_family_defect(Gstar, +1),
                      r.compose(Fstar) - hstar_shift.compose(r_prime),
                      "d Gamma* + Gamma* d = r F* - H*[1] r'")
    return Gstar


# ---------------------------------------------------------------------------
# Induced maps on homology (field coefficients)
# ---------------------------------------------------------------------------


def homology_functor_ranks(f: ChainMap, graded: bool = False) -> dict:
    """Per-degree data of H(f) over a field.

    Returns {key: (dim H_source, dim H_target, rank H(f))}; keys are degrees
    or (i, j) pairs when ``graded`` (f must keep q).  The forward pass of
    ``ChainComplex.homology`` reduces each q-block of X and Y once.  H^i(f)
    takes one more rank, that of B = [[d_Y^(i-1), f_i], [0, d_X^i]],
    Cone(f)'s d^(i-1) up to the sign of d_X: B's columns project onto
    im d_X^i with kernel im d_Y + f(ker d_X), and f(im d_X) lies in im d_Y,
    so rank B = rank H^i(f) + rank d_Y^(i-1) + rank d_X^i.  B is built once
    a degree and cut by q-block (f keeps q) through the forward pass's
    column maps.  Replacing a cancelled generator b by d(a) keeps every
    other column; the new column is zero for a Y^(i-1) generator and
    [d_Y f a; 0], in the span of the kept d_Y columns, for an X^i one.  So
    the kept columns have the rank of the whole block.
    """
    X, Y = f.source, f.target
    ring = X.ring
    if not ring.is_field:
        raise ContractViolation("induced homology maps need field coefficients")
    if f.shift != 0:
        raise ContractViolation("degree-0 chain maps only")
    bx, rx, px = X._reduced_blocks(graded)
    by, ry, py = Y._reduced_blocks(graded)
    if graded:
        _check_q_kept(f.components, X.q, Y.q, 0)
    _require_chain_map(f, "map inducing H(f)")
    keys = {(i, j) for b in (bx, by) for i, by_q in b.items() for j in by_q}
    out, built = {}, None
    for i, j in sorted(keys):  # ungraded, j is None and i is unique
        hx = _block_homology(bx, rx, i, j)[0]
        hy = _block_homology(by, ry, i, j)[0]
        r = 0
        if hx and hy:
            if built != i:
                built, n = i, Y.rank(i - 1)
                bordered = SparseMatrix.block(
                    [[Y.diff(i - 1), f.component(i)], [None, X.diff(i)]],
                    [Y.rank(i), X.rank(i + 1)], [n, X.rank(i)], ring)
                place = [*py.get(i - 1, ()),
                         *(None if c is None else c + n for c in px[i])]
            rows = [*by[i][j], *(k + Y.rank(i)
                                 for k in bx.get(i + 1, {}).get(j, ()))]
            r = (_rank_torsion(bordered, ring, rows, place)[0]
                 - ry.get((i - 1, j), (0, ()))[0] - rx.get((i, j), (0, ()))[0])
        out[(i, j) if graded else i] = (hx, hy, r)
    return out


def _block_homology(blocks, reduced, i: int, j):
    """(free rank, torsion) of the homology at block j of degree i, from
    the split and the reductions of ``ChainComplex._reduced_blocks``."""
    rank_out = reduced.get((i, j), (0, ()))[0]
    rank_in, torsion = reduced.get((i - 1, j), (0, ()))
    return len(blocks.get(i, {}).get(j, ())) - rank_out - rank_in, torsion


def _les_rows(data: dict, h_cone: HomologySummary):
    """``(rows, exact)`` of the long exact sequence of a cone over a field,
    from the ``homology_functor_ranks`` data of its map f and the homology
    of the cone: a row is (i, dim H^i(Cone f), dim coker H^i(f),
    dim ker H^(i+1)(f)), and ``exact`` says each row's first dimension is
    the sum of the other two."""
    rows = []
    for i in sorted(set(h_cone.keys()) | set(data) | {i - 1 for i in data}):
        hx, hy, r = data.get(i, (0, 0, 0))
        hx1, _, r1 = data.get(i + 1, (0, 0, 0))
        rows.append((i, h_cone.free_rank(i), hy - r, hx1 - r1))
    return tuple(rows), all(a == b + k for _, a, b, k in rows)


def _by_degree(data: dict) -> dict:
    """``homology_functor_ranks`` data by degree, summed over q if graded."""
    out = {}
    for key, t in data.items():
        i = key[0] if isinstance(key, tuple) else key
        out[i] = tuple(a + b for a, b in zip(out.get(i, (0, 0, 0)), t))
    return out
