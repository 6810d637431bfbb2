"""Chain-complex core: shifts, cones, chain maps, homology, and the
homotopy-coherence combinators for mapping cones.

Conventions.  Complexes are cohomological: d^i maps degree i to i+1.  The
shift W[k] has W[k]^i = W^(i-k) and differential (-1)^k d.  A ChainMap with
``shift`` k has components X^i -> Y^(i-k) and must satisfy
d_Y f = (-1)^k f d_X, i.e. it is a degree-zero chain map into Y[k].

Homotopies are stored as raw degree -1 (or -2, -3) families; each combinator
states and verifies the exact relation it needs, since the sign conventions
differ between anticommutator and commutator identities.

A ChainComplex checks d^2 = 0 when it is constructed, and nothing checks it
again: ``shift``, ``dual`` and ``change_ring`` are exact images, and
``homology`` checks only the bidegree.  A cone's d^2 = 0 check covers the
chain condition of its map, so a coned map is not checked on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractViolation
# homology_at and kernel_basis are re-exported: tools that wrap them look
# them up here too
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
        """A complex built without ``validate()``: an exact image of a checked
        complex, or a piece checked as part of the complex it is built into."""
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

    def dual(self) -> "ChainComplex":
        """Transpose dual: degree i becomes -i, quantum degrees negate."""
        ranks = {-i: r for i, r in self.ranks.items()}
        diffs = {}
        for i, m in self.diffs.items():
            diffs[-i - 1] = m.transpose()
        q = ({-i: tuple(-x for x in v) for i, v in self.q.items()}
             if self.q else None)
        return ChainComplex._unchecked(self.ring, ranks, diffs, q)

    def change_ring(self, ring: Ring) -> "ChainComplex":
        diffs = {i: m.change_ring(ring) for i, m in self.diffs.items()}
        return ChainComplex._unchecked(ring, self.ranks, diffs, self.q)

    def check_bidegree(self):
        """Verify every differential entry preserves the quantum grading
        (bidegree (1, 0)); requires q."""
        if self.q is None:
            raise ContractViolation("complex carries no quantum grading")
        for i, m in self.diffs.items():
            qs = self.q.get(i, ())
            qt = self.q.get(i + 1, ())
            for r, row in m.row_items():
                for c in row:
                    if qt[r] != qs[c]:
                        raise ContractViolation(
                            f"entry ({r},{c}) at degree {i} shifts q by "
                            f"{qt[r] - qs[c]}")

    # -- homology ---------------------------------------------------------------

    def _reduced_blocks(self, graded: bool):
        """``(blocks, reduced)``: ``blocks[i][j]`` lists the degree-i
        generators of quantum degree j (one block j = None when ungraded),
        ``reduced[(i, j)]`` is the rank and torsion of block j of d^i.

        In ascending degree, block j of d^i leaves out the columns at the
        rows of the unit prefix of block j of d^(i-1): by Bar-Natan's
        Gaussian elimination lemma (arXiv:math/0606318, Lemma 4.2), those
        cancellations delete just these columns of d^i, so its image, rank
        and divisors stay."""
        if graded:
            self.check_bidegree()
            blocks = {i: {} for i in self.degrees()}
            for i, by_q in blocks.items():
                for ix, j in enumerate(self.q.get(i, ())):
                    by_q.setdefault(j, []).append(ix)
        else:
            blocks = {i: {None: range(n)} for i, n in self.ranks.items()}
        reduced, cancelled = {}, {}
        for i in sorted(self.diffs):
            for j, cols in blocks.get(i, {}).items():
                rows = blocks.get(i + 1, {}).get(j, ())
                drop = cancelled.get((i - 1, j), ())
                m = self.diffs[i].submatrix(
                    rows, [c for c in cols if c not in drop])
                r, torsion, cut = _rank_torsion(m, self.ring)
                reduced[(i, j)] = r, torsion
                cancelled[(i, j)] = {rows[k] for k in cut}
        return blocks, reduced

    def _block(self, blocks, i: int, j) -> SparseMatrix:
        """Block j of d^i: all of d^i when j is None, else its rows and
        columns of quantum degree j."""
        m = self.diff(i)
        if j is None:
            return m
        return m.submatrix(blocks.get(i + 1, {}).get(j, ()),
                           blocks.get(i, {}).get(j, ()))

    def homology(self, ring: Ring | None = None,
                 graded: bool | None = None) -> HomologySummary:
        """Homology summary, optionally refined by the quantum grading.

        ``ring`` defaults to the complex's own coefficient ring; passing a
        different ring recomputes with coefficients changed (an integral
        complex reduced mod p, say; residues mod p do not lift).

        d^2 = 0 was checked when the complex was built, so only the
        bidegree (1, 0) of the differentials is checked here, when graded.
        Each (degree, q-block) of each differential is then reduced once,
        in ascending degree, by rank over a field and by Smith normal form
        over Z: its rank counts at its source and at its target, its
        divisors above 1 are torsion at its target.  A block leaves out the
        columns that the unit pivots of the block below it cancelled (see
        ``_reduced_blocks``).  Ungraded, each degree is a single block.
        """
        ring = ring or self.ring
        cx = self if ring == self.ring else self.change_ring(ring)
        if graded is None:
            graded = cx.q is not None
        blocks, reduced = cx._reduced_blocks(graded)
        groups = {(i, j) if graded else i: _block_homology(blocks, reduced, i, j)
                  for i, by_q in blocks.items() for j in by_q}
        return HomologySummary.build(ring, groups)

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


@dataclass
class ChainMap:
    """Graded map f: X -> Y[shift], components X^i -> Y^(i - shift).

    A map is not changed after it is built: ``cone`` keeps its result in
    ``_cone``.
    """

    source: ChainComplex
    target: ChainComplex
    components: dict
    shift: int = 0
    _cone: ChainComplex | None = field(default=None, init=False, repr=False,
                                       compare=False)

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
        if self.shift != other.shift:
            raise ContractViolation("cannot add maps of different shifts")
        degs = set(self.components) | set(other.components)
        comps = {i: self.component(i) + other.component(i) for i in degs}
        return ChainMap(self.source, self.target, comps, self.shift)

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        {i: -m for i, m in self.components.items()}, self.shift)

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
    """Check d_Y f = (-1)^shift f d_X degreewise; certificate on failure."""
    X, Y, k = f.source, f.target, f.shift
    sign = -1 if k % 2 else 1
    degs = set(X.degrees()) | set(f.components)
    for i in sorted(degs):
        left = Y.diff(i - k) * f.component(i)
        right = f.component(i + 1) * X.diff(i)
        if sign < 0:
            right = -right
        res = left - right
        if not res.is_zero():
            return ChainMapCheck(False, i, res)
    return ChainMapCheck(True)


@dataclass
class Homotopy:
    """Degree ``degree`` family of maps X^i -> Y^(i + degree)."""

    source: ChainComplex
    target: ChainComplex
    components: dict
    degree: int = -1

    def component(self, i: int) -> SparseMatrix:
        m = self.components.get(i)
        if m is None:
            return SparseMatrix.zero(self.target.rank(i + self.degree),
                                     self.source.rank(i), self.source.ring)
        return m

    @classmethod
    def zero(cls, source, target, degree=-1) -> "Homotopy":
        return cls(source, target, {}, degree)


def _family_defect(H: Homotopy, sign: int) -> dict:
    """Components of d_Y H + sign * H d_X (degree ``H.degree + 1`` family)."""
    X, Y = H.source, H.target
    out = {}
    for i in set(X.degrees()) | set(H.components):
        m = Y.diff(i + H.degree) * H.component(i)
        n = H.component(i + 1) * X.diff(i)
        out[i] = m + n if sign > 0 else m - n
    return out


def _require_relation(defect: dict, rhs, what: str):
    """defect must equal the rhs family (another dict of matrices)."""
    for i, m in defect.items():
        r = rhs.get(i) if isinstance(rhs, dict) else rhs(i)
        if r is None:
            r = SparseMatrix.zero(m.rows, m.cols, m.ring)
        if m != r:
            raise ContractViolation(
                f"hypothesis {what} fails at degree {i}; residual has "
                f"{(m - r).nnz()} nonzero entries")


def _composite_family(g: ChainMap, H: Homotopy) -> dict:
    """Components of g o H as a family X^i -> Z^(i + H.degree - g.shift)."""
    return {i: g.component(i + H.degree) * H.component(i)
            for i in set(H.source.degrees()) | set(H.components)}


def _family_precompose(H: Homotopy, f: ChainMap) -> dict:
    """Components of H o f for a degree-0 chain map f."""
    return {i: H.component(i) * f.component(i)
            for i in set(f.source.degrees())}


def _family_sum(a: dict, b: dict) -> dict:
    out = {}
    for i in set(a) | set(b):
        m, n = a.get(i), b.get(i)
        out[i] = m + n if (m is not None and n is not None) else (m or n)
    return out


# ---------------------------------------------------------------------------
# Mapping cones
# ---------------------------------------------------------------------------


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: Cone(f)^i = Y^i (+) X^(i+1), d = [[d_Y, f], [0, -d_X]].

    Generators are identified by place: index k of Cone(f)^i is generator k
    of Y^i when k < rank Y^i, else generator k - rank Y^i of X^(i+1).

    The off-diagonal block of d d is d_Y f - f d_X, so the cone's own
    d^2 = 0 check rejects an ``f`` that is not a chain map.  The cone is
    kept on ``f`` and returned by later calls, so a map coned in several
    places is built and checked once; it lives as long as ``f``.
    """
    if f._cone is None:
        f._cone = _cone(f)
    return f._cone


def _cone(f: ChainMap) -> ChainComplex:
    if f.shift != 0:
        raise ContractViolation("cone requires a degree-0 chain map")
    X, Y = f.source, f.target
    ring = Y.ring
    degs = sorted(set(Y.degrees()) | {i - 1 for i in X.degrees()})
    ranks = {}
    q = {} if (X.q is not None and Y.q is not None) else None
    for i in degs:
        ranks[i] = Y.rank(i) + X.rank(i + 1)
        if q is not None:
            q[i] = tuple(Y.q.get(i, ())) + tuple(X.q.get(i + 1, ()))
    diffs = {}
    for i in degs:
        if ranks.get(i, 0) == 0 or ranks.get(i + 1, 0) == 0:
            continue
        diffs[i] = SparseMatrix.block(
            [[Y.diff(i), f.component(i + 1)],
             [None, -X.diff(i + 1)]],
            [Y.rank(i + 1), X.rank(i + 2)],
            [Y.rank(i), X.rank(i + 1)], ring)
    return ChainComplex(ring, ranks, diffs, q=q)


def cone_inclusion(f: ChainMap) -> ChainMap:
    """The canonical chain map Y -> Cone(f)."""
    C = cone(f)
    Y = f.target
    comps = {}
    for i in Y.degrees():
        comps[i] = SparseMatrix(
            C.rank(i), Y.rank(i), Y.ring,
            {r: {r: 1} for r in range(Y.rank(i))})
    return ChainMap(Y, C, comps)


def cone_projection(f: ChainMap) -> ChainMap:
    """The canonical chain map Cone(f) -> X[-1]."""
    C = cone(f)
    X = f.source
    Xs = X.shift(-1)
    comps = {}
    for i in C.degrees():
        y_r = f.target.rank(i)
        x_r = X.rank(i + 1)
        comps[i] = SparseMatrix(
            x_r, C.rank(i), X.ring,
            {r: {y_r + r: 1} for r in range(x_r)})
    return ChainMap(C, Xs, comps)


def cone_functorial_map(f: ChainMap, f_prime: ChainMap, u: ChainMap,
                        v: ChainMap, F: Homotopy | None = None) -> ChainMap:
    """Map Cone(f') -> Cone(f) induced by a homotopy-commutative square.

    The square has legs u: X' -> X, v: Y' -> Y and homotopy F with
    d_Y F + F d_X' = f u - v f'.  The induced map has blocks
    [[v, -F], [0, u]].
    """
    X, Y = f.source, f.target
    Xp, Yp = f_prime.source, f_prime.target
    if F is None:
        F = Homotopy.zero(Xp, Y)
    rhs = {i: f.component(i) * u.component(i) - v.component(i) * f_prime.component(i)
           for i in set(Xp.degrees())}
    _require_relation(_family_defect(F, +1), rhs, "dF + Fd = fu - vf'")
    Cp, C = cone(f_prime), cone(f)
    ring = C.ring
    comps = {}
    for i in Cp.degrees():
        comps[i] = SparseMatrix.block(
            [[v.component(i), -F.component(i + 1)],
             [None, u.component(i + 1)]],
            [Y.rank(i), X.rank(i + 1)],
            [Yp.rank(i), Xp.rank(i + 1)], ring)
    out = ChainMap(Cp, C, comps)
    check = is_chain_map(out)
    if not check.ok:
        raise ContractViolation(
            f"induced cone map is not a chain map at degree {check.degree}")
    return out


def cone_factor(f: ChainMap, g: ChainMap, H: Homotopy | None = None) -> ChainMap:
    """Factor g: Y -> Z through Cone(f) given H with d H + H d = -g f.

    Returns the map (g, -H): Cone(f) -> Z restricting to g along
    Y -> Cone(f).
    """
    X, Y = f.source, f.target
    Z = g.target
    if H is None:
        H = Homotopy.zero(X, Z)
    rhs = {i: -(g.component(i) * f.component(i)) for i in X.degrees()}
    _require_relation(_family_defect(H, +1), rhs, "dH + Hd = -gf")
    C = cone(f)
    comps = {}
    for i in C.degrees():
        comps[i] = SparseMatrix.block(
            [[g.component(i), -H.component(i + 1)]],
            [Z.rank(i)],
            [Y.rank(i), X.rank(i + 1)], Z.ring)
    out = ChainMap(C, Z, comps)
    check = is_chain_map(out)
    if not check.ok:
        raise ContractViolation(
            f"factored map is not a chain map at degree {check.degree}")
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
    Xp = f_prime.source
    Z = g.target
    rhs = _family_sum(_composite_family(g, F), _family_precompose(G, f_prime))
    _require_relation(_family_defect(Psi, -1), rhs, "dPsi - Psi d = gF + Gf'")

    ghat = cone_factor(f, g)
    ghat_p = cone_factor(f_prime, g_prime)
    Fstar = cone_functorial_map(f, f_prime, u, v, F)
    Cp = Fstar.source
    comps = {}
    for i in Cp.degrees():
        comps[i] = SparseMatrix.block(
            [[G.component(i), -Psi.component(i + 1)]],
            [Z.rank(i - 1)],
            [g_prime.source.rank(i), Xp.rank(i + 1)], Z.ring)
    Ghat = Homotopy(Cp, Z, comps, degree=-1)
    # the identity this family is claimed to satisfy, checked entrywise
    lhs_a = ghat.compose(Fstar)
    lhs_b = w.compose(ghat_p)
    rhs2 = {i: lhs_a.component(i) - lhs_b.component(i) for i in Cp.degrees()}
    _require_relation(_family_defect(Ghat, +1), rhs2,
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
    maps Cone(f) -> Cone(h)[1].
    """
    for pair, name in (((g, f), "gf"), ((h, g), "hg"),
                       ((g_prime, f_prime), "g'f'"),
                       ((h_prime, g_prime), "h'g'")):
        if not pair[0].compose(pair[1]).is_zero():
            raise ContractViolation(f"composite {name} is not strictly zero")
    ring = h.target.ring
    rhs_psi = _family_sum(_composite_family(g, F),
                          _family_precompose(G, f_prime))
    _require_relation(_family_defect(Psi, -1), rhs_psi,
                      "dPsi - Psi d = gF + Gf'")
    rhs_xi = _family_sum(_composite_family(h, G),
                         _family_precompose(H, g_prime))
    _require_relation(_family_defect(Xi, -1), rhs_xi,
                      "dXi - Xi d = hG + Hg'")
    rhs_gamma = {}
    for i in set(f_prime.source.degrees()) | set(Psi.components):
        rhs_gamma[i] = (h.component(i - 2) * Psi.component(i)
                        - Xi.component(i) * f_prime.component(i))
    _require_relation(_family_defect(Gamma, +1), rhs_gamma,
                      "dGamma + Gamma d = h Psi - Xi f'")

    Fstar = cone_functorial_map(f, f_prime, uX, uY, F)
    Hstar = cone_functorial_map(h, h_prime, uZ, uW, H)
    Cfp, Cf = Fstar.source, Fstar.target
    Chp, Ch = Hstar.source, Hstar.target

    r = _cocone_canonical(f, g, h, Cf, Ch)
    r_prime = _cocone_canonical(f_prime, g_prime, h_prime, Cfp, Chp)
    for m, name in ((r, "r"), (r_prime, "r'")):
        chk = is_chain_map(m)
        if not chk.ok:
            raise ContractViolation(f"canonical map {name} fails at degree {chk.degree}")

    W, Z = h.target, h.source
    Xp, Yp = f_prime.source, f_prime.target
    comps = {}
    for i in Cfp.degrees():
        comps[i] = SparseMatrix.block(
            [[-Xi.component(i), Gamma.component(i + 1)],
             [G.component(i), -Psi.component(i + 1)]],
            [W.rank(i - 2), Z.rank(i - 1)],
            [Yp.rank(i), Xp.rank(i + 1)], ring)
    Gstar = Homotopy(Cfp, r.target, comps, degree=-1)

    hstar_shift = ChainMap(r_prime.target, r.target,
                           {i: Hstar.component(i - 1) for i in r_prime.target.degrees()})
    rhs_total = {}
    lhs_a = r.compose(Fstar)
    lhs_b = hstar_shift.compose(r_prime)
    for i in Cfp.degrees():
        rhs_total[i] = lhs_a.component(i) - lhs_b.component(i)
    _require_relation(_family_defect(Gstar, +1), rhs_total,
                      "d Gamma* + Gamma* d = r F* - H*[1] r'")
    return Gstar


def _cocone_canonical(f: ChainMap, g: ChainMap, h: ChainMap,
                      Cf: ChainComplex, Ch: ChainComplex) -> ChainMap:
    """Canonical chain map Cone(f) -> Cone(h)[1], (y, x) |-> (0, g y)."""
    ring = Cf.ring
    X, Y, Z, W = f.source, f.target, h.source, h.target
    Chs = Ch.shift(1)
    comps = {}
    for i in Cf.degrees():
        comps[i] = SparseMatrix.block(
            [[None, None],
             [g.component(i), None]],
            [W.rank(i - 1), Z.rank(i)],
            [Y.rank(i), X.rank(i + 1)], ring)
    return ChainMap(Cf, Chs, comps)


# ---------------------------------------------------------------------------
# Induced maps on homology (field coefficients)
# ---------------------------------------------------------------------------


def homology_functor_ranks(f: ChainMap, graded: bool = False) -> dict:
    """Per-degree data of H(f) over a field.

    Returns {key: (dim H_source, dim H_target, rank H(f))}; keys are degrees
    or (i, j) pairs when ``graded``.  Each q-block of each differential of
    the source and the target is reduced once, in the forward pass of
    ``ChainComplex.homology``, and H^i(f) takes one more rank: that of the
    whole bordered matrix [[f_i, d_Y^(i-1)], [d_X^i, 0]], which is
    rank H^i(f) + rank d_Y^(i-1) + rank d_X^i.
    """
    X, Y = f.source, f.target
    ring = X.ring
    if not ring.is_field:
        raise ContractViolation("induced homology maps need field coefficients")
    if f.shift != 0:
        raise ContractViolation("degree-0 chain maps only")
    bx, rx = X._reduced_blocks(graded)
    by, ry = Y._reduced_blocks(graded)
    keys = {(i, j) for b in (bx, by) for i, by_q in b.items() for j in by_q}
    out = {}
    for i, j in sorted(keys):  # ungraded, j is None and i is unique
        hx = _block_homology(bx, rx, i, j)[0]
        hy = _block_homology(by, ry, i, j)[0]
        r = 0
        if hx and hy:
            # the columns (f x + d_Y y, d_X x) project onto im d_X with
            # kernel f(ker d_X) + im d_Y, and f(im d_X) lies in im d_Y
            fi = f.component(i)
            if j is not None:
                fi = fi.submatrix(by[i][j], bx[i][j])
            dy_in = Y._block(by, i - 1, j)
            dx_out = X._block(bx, i, j)
            bordered = SparseMatrix.block(
                [[fi, dy_in], [dx_out, None]], [fi.rows, dx_out.rows],
                [fi.cols, dy_in.cols], ring)
            r = (rank(bordered) - ry.get((i - 1, j), (0, ()))[0]
                 - rx.get((i, j), (0, ()))[0])
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


def les_cone_check(f: ChainMap) -> bool:
    """Long-exact-sequence rank identity for a cone over a field:

    dim H^i(Cone f) = dim coker H^i(f) + dim ker H^(i+1)(f).
    """
    hc = cone(f).homology(graded=False)
    return _les_rows(homology_functor_ranks(f), hc)[1]
