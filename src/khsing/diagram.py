"""Extended PD codes for oriented link diagrams with double points.

A crossing is a 4-tuple of edge labels listed counterclockwise from the
incoming under-strand; slot 2 is therefore the outgoing under-edge and the
over-strand occupies slots 1 and 3.  Double points (singular crossings) use
the same tuple layout; the strand through slots 0/2 plays the role of the
under-strand purely as a direction convention.

Orientations are recovered by traversal: entering a crossing at slot s exits
at slot (s + 2) mod 4, and every edge must be traversed exactly once.  A
component that passes over at every crossing it meets carries no orientation
data in a PD code; such components are oriented by a fixed convention
(enter the lowest-index crossing at slot 3).

Sign convention (right-hand rule): a crossing is positive when the
over-strand enters at slot 3, i.e. crosses left-to-right over the oriented
under-strand.

Smoothing convention: the 0-smoothing joins slots (0,1) and (2,3); the
1-smoothing joins slots (0,3) and (1,2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ContractViolation, ParseError

ORDINARY = "ordinary"
SINGULAR = "singular"


class Diagram:
    """Validated oriented singular link diagram.

    Instances are immutable by convention; all editing operations return new
    diagrams.  Construction runs full validation and the orientation
    traversal.
    """

    __slots__ = ("crossings", "kinds", "free_loops", "name",
                 "over_entry", "components", "_labels", "_pd_index", "_ends",
                 "_signs", "singular_indices", "ordinary_indices", "n_plus",
                 "n_minus")

    def __init__(self, crossings, kinds=None, free_loops=0, name=None,
                 over_hints=None):
        crossings = tuple(tuple(int(e) for e in c) for c in crossings)
        if kinds is None:
            kinds = (ORDINARY,) * len(crossings)
        kinds = tuple(kinds)
        if len(kinds) != len(crossings):
            raise ParseError("kinds and crossings lengths differ")
        for k in kinds:
            if k not in (ORDINARY, SINGULAR):
                raise ParseError(f"unknown crossing kind {k!r}")
        for c in crossings:
            if len(c) != 4:
                raise ParseError(f"crossing {c} is not a 4-tuple")
            if any(e <= 0 for e in c):
                raise ParseError(f"crossing {c} has a non-positive edge label")
        if free_loops < 0:
            raise ParseError("free_loops must be non-negative")
        self.crossings = crossings
        self.kinds = kinds
        self.free_loops = int(free_loops)
        self.name = name
        self.over_entry, self.components = self._trace(over_hints or {})
        # edge labels in ascending order, each crossing as indices into them
        # and each edge's two (crossing, slot) ends: every state resolves
        # from these without a sort
        self._labels = tuple(sorted({e for c in crossings for e in c}))
        index = {e: i for i, e in enumerate(self._labels)}
        self._pd_index = tuple(tuple(index[e] for e in c) for c in crossings)
        ends = [[] for _ in self._labels]
        for ci, c in enumerate(self._pd_index):
            for slot, e in enumerate(c):
                ends[e].append((ci, slot))
        self._ends = tuple(map(tuple, ends))
        self._signs = tuple(1 if oe == 3 else -1 for oe in self.over_entry)
        self.singular_indices = tuple(
            i for i, k in enumerate(kinds) if k == SINGULAR)
        self.ordinary_indices = tuple(
            i for i, k in enumerate(kinds) if k == ORDINARY)
        self.n_plus = sum(1 for i in self.ordinary_indices
                          if self._signs[i] > 0)
        self.n_minus = len(self.ordinary_indices) - self.n_plus

    # -- validation and traversal -------------------------------------------

    def _trace(self, over_hints):
        endpoints = {}
        for ci, c in enumerate(self.crossings):
            for slot, e in enumerate(c):
                endpoints.setdefault(e, []).append((ci, slot))
        for e, eps in endpoints.items():
            if len(eps) != 2:
                raise ParseError(
                    f"edge label {e} appears {len(eps)} times (expected 2)")

        n = len(self.crossings)
        visited = set()  # entry points (ci, slot)
        over_entry = {}
        components = []

        def walk(start):
            comp = []
            cur = start
            while True:
                if cur in visited:
                    raise ParseError("traversal revisits an entry; "
                                     "inconsistent orientation data")
                visited.add(cur)
                ci, slot = cur
                if slot in (1, 3):
                    prev = over_entry.get(ci)
                    if prev is not None and prev != slot:
                        raise ParseError("over-strand entered at both slots; "
                                         "inconsistent orientation data")
                    over_entry[ci] = slot
                exit_slot = (slot + 2) % 4
                label = self.crossings[ci][exit_slot]
                a, b = endpoints[label]
                nxt = b if a == (ci, exit_slot) else a
                if nxt == (ci, exit_slot):  # label twice at the same position
                    raise ParseError(f"edge {label} does not close up")
                comp.append(label)
                if nxt[1] == 2:
                    raise ParseError(
                        f"edge {label} runs into an outgoing position; "
                        "non-closing traversal")
                cur = nxt
                if cur == start:
                    break
            return tuple(comp)

        for ci in range(n):
            if (ci, 0) not in visited:
                components.append(walk((ci, 0)))
        # Components that never pass under carry no orientation data in a PD
        # code; orient them by the caller's hint, defaulting to positive.
        for ci in range(n):
            if ci not in over_entry:
                components.append(walk((ci, over_hints.get(ci, 3))))
        if len(visited) != 2 * n:
            raise ParseError("traversal did not cover the diagram")
        return tuple(over_entry[ci] for ci in range(n)), tuple(components)

    # -- basic queries -------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_singular(self) -> int:
        return len(self.singular_indices)

    def crossing_sign(self, i: int) -> int:
        if self.kinds[i] != ORDINARY:
            raise ContractViolation(f"crossing {i} is a double point; no sign")
        return self._signs[i]

    @property
    def writhe(self) -> int:
        return self.n_plus - self.n_minus

    @property
    def n_components(self) -> int:
        return len(self.components) + self.free_loops

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.crossings, self.kinds, self.free_loops) == (
            other.crossings, other.kinds, other.free_loops)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (f"Diagram({self.n_crossings} crossings, "
                f"{self.n_singular} singular, loops={self.free_loops}{tag})")

    # -- editing -------------------------------------------------------------
    #
    # All editing operations pass the current over-entry data down as hints
    # so that components which are over-everywhere keep their orientation
    # across derived diagrams (their PD tuples alone do not determine it).

    def _hints(self) -> dict:
        return dict(enumerate(self.over_entry))

    def _rotated(self, i: int):
        """Tuple and new over-entry slot after flipping crossing i.

        The rotation keeps the counterclockwise order and the orientation:
        the old over-strand becomes the under-strand, so the old under-entry
        (slot 0) names the new over-entry slot.
        """
        a, b, c, d = self.crossings[i]
        if self._signs[i] > 0:
            return (d, a, b, c), 1
        return (b, c, d, a), 3

    def crossing_change(self, i: int) -> "Diagram":
        """Flip over/under at an ordinary crossing, preserving orientation."""
        self.crossing_sign(i)  # contract: ordinary
        crossings = list(self.crossings)
        hints = self._hints()
        crossings[i], hints[i] = self._rotated(i)
        return Diagram(crossings, self.kinds, self.free_loops, None,
                       over_hints=hints)

    def mirror(self) -> "Diagram":
        """Swap over and under at every ordinary crossing."""
        crossings = list(self.crossings)
        hints = self._hints()
        for i in self.ordinary_indices:
            crossings[i], hints[i] = self._rotated(i)
        name = f"mirror({self.name})" if self.name else None
        return Diagram(crossings, self.kinds, self.free_loops, name,
                       over_hints=hints)

    def resolve_double_point(self, i: int, sign: int) -> "Diagram":
        """Replace double point ``i`` by an ordinary crossing of given sign."""
        if self.kinds[i] != SINGULAR:
            raise ContractViolation(f"crossing {i} is not a double point")
        if sign not in (1, -1):
            raise ContractViolation("resolution sign must be +1 or -1")
        crossings = list(self.crossings)
        hints = self._hints()
        if self._signs[i] != sign:
            crossings[i], hints[i] = self._rotated(i)
        kinds = list(self.kinds)
        kinds[i] = ORDINARY
        return Diagram(crossings, kinds, self.free_loops, None,
                       over_hints=hints)

    def disjoint_union(self, other: "Diagram") -> "Diagram":
        shift = max((e for c in self.crossings for e in c), default=0)
        crossings = self.crossings + tuple(
            tuple(e + shift for e in c) for c in other.crossings)
        kinds = self.kinds + other.kinds
        hints = self._hints()
        for j, oe in enumerate(other.over_entry):
            hints[self.n_crossings + j] = oe
        name = None
        if self.name and other.name:
            name = f"{self.name}+{other.name}"
        return Diagram(crossings, kinds, self.free_loops + other.free_loops,
                       name, over_hints=hints)

    # -- resolution ----------------------------------------------------------

    def resolve_bits(self, smoothing: int) -> "CircleConfiguration":
        """Circles of the complete smoothing given by a bitmask.

        Bit i of ``smoothing`` selects the 1-smoothing at crossing i.  The
        diagram must be ordinary (resolve double points first).
        """
        if self.n_singular:
            raise ContractViolation("resolve double points before smoothing")
        return self._resolve_mask(smoothing)

    def _resolve_mask(self, smoothing: int) -> "CircleConfiguration":
        # walk each circle: leave an edge through one end, cross to the
        # slot that the smoothing joins to it (0: 0-1 and 2-3; 1: 0-3 and
        # 1-2) and enter the edge there
        pd, ends = self._pd_index, self._ends
        circle_of = [-1] * len(self._labels)
        n_real = 0
        for start in range(len(circle_of)):
            if circle_of[start] >= 0:
                continue
            e = start
            ci, slot = ends[start][0]
            while circle_of[e] < 0:
                circle_of[e] = n_real
                slot = 3 - slot if smoothing >> ci & 1 else slot ^ 1
                e = pd[ci][slot]
                a, b = ends[e]
                ci, slot = b if a == (ci, slot) else a
            n_real += 1
        # circles ordered by minimal edge label, as the walks start in label
        # order; free loops trail
        circles = [[] for _ in range(n_real)]
        for e, k in zip(self._labels, circle_of):
            circles[k].append(e)
        circles = [tuple(v) for v in circles]
        circles += [("loop", k) for k in range(self.free_loops)]
        crossing_arcs = tuple(
            (circle_of[a], circle_of[b if smoothing >> ci & 1 else c])
            for ci, (a, b, c, _d) in enumerate(pd))
        return CircleConfiguration(self, smoothing, tuple(circles),
                                   crossing_arcs)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {"pd": [list(c) for c in self.crossings],
               "singular": list(self.singular_indices)}
        if self.name:
            out["name"] = self.name
        if self.free_loops:
            out["free_loops"] = self.free_loops
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class CircleConfiguration:
    """Circles of a complete smoothing with stable identifiers.

    Circles are tuples of the edge labels they carry, ordered by minimal
    label; crossingless free loops trail as ("loop", k) markers.  For each
    crossing, ``crossing_arcs`` records the circle indices of its two local
    strands: for the 0-smoothing the (slot0, slot1) and (slot2, slot3) arcs,
    for the 1-smoothing the (slot0, slot3) and (slot1, slot2) arcs.
    """

    diagram: Diagram
    smoothing: int
    circles: tuple
    crossing_arcs: tuple

    @property
    def n_circles(self) -> int:
        return len(self.circles)


def parse(text) -> Diagram:
    """Parse the JSON diagram format into a validated Diagram.

    Accepts a JSON string, a dict, or a path-free file object.  Format:
    ``{"name": str?, "pd": [[a,b,c,d], ...], "singular": [indices],
    "free_loops": int?}``.
    """
    if isinstance(text, dict):
        obj = text
    else:
        # ValueError covers bad JSON and bad bytes; RecursionError, nesting
        # deeper than the interpreter's limit
        try:
            obj = (json.loads(text) if isinstance(text, (str, bytes))
                   else json.load(text))
        except (ValueError, RecursionError) as e:
            raise ParseError(f"malformed JSON: {e}") from None
    if not isinstance(obj, dict) or "pd" not in obj:
        raise ParseError("diagram JSON must be an object with a 'pd' field")
    pd = obj["pd"]
    if not isinstance(pd, list):
        raise ParseError("'pd' must be a list of 4-tuples")
    for c in pd:
        if not isinstance(c, (list, tuple)) or not all(map(_is_int, c)):
            raise ParseError(f"crossing {c!r} is not a list of integer "
                             "edge labels")
    singular = obj.get("singular", [])
    if not isinstance(singular, list):
        raise ParseError("'singular' must be a list of crossing indices")
    for i in singular:
        if not _is_int(i) or not 0 <= i < len(pd):
            raise ParseError(f"singular index {i!r} is not a crossing index")
    free_loops = obj.get("free_loops", 0)
    if not _is_int(free_loops):
        raise ParseError(f"free_loops {free_loops!r} is not an integer")
    kinds = [SINGULAR if i in set(singular) else ORDINARY for i in range(len(pd))]
    return Diagram(pd, kinds, free_loops, obj.get("name"))


def _joined(pairs):
    """Union-find over edge labels with each pair of ``pairs`` joined: the
    returned ``find`` maps a label to the smallest label of its class."""
    parent = {}

    def find(e):
        while parent.get(e, e) != e:
            parent[e] = parent.get(parent[e], parent[e])
            e = parent[e]
        return e

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return find


def _is_int(v) -> bool:
    """JSON integers only: bool is an int subclass and floats truncate."""
    return isinstance(v, int) and not isinstance(v, bool)


def from_braid(word, strands: int, name=None) -> Diagram:
    """Closure of a (singular) braid word.

    ``word`` is a sequence of (position, kind) pairs with 0-based position
    ``p`` acting on strands p and p+1, and kind +1 (positive crossing),
    -1 (negative crossing), or 0 (double point).  Strands run upward and a
    positive generator takes the left strand over the right one.
    """
    if strands < 1:
        raise ContractViolation("need at least one strand")
    cur = list(range(1, strands + 1))
    next_label = strands + 1
    crossings = []
    kinds = []
    hints = {}
    for p, kind in word:
        if not 0 <= p < strands - 1:
            raise ContractViolation(f"position {p} out of range")
        u, v = cur[p], cur[p + 1]
        u2, v2 = next_label, next_label + 1
        next_label += 2
        if kind in (1, 0):
            crossings.append((v, v2, u2, u))
            hints[len(crossings) - 1] = 3
        elif kind == -1:
            crossings.append((u, v, v2, u2))
            hints[len(crossings) - 1] = 1
        else:
            raise ContractViolation(f"unknown braid letter kind {kind!r}")
        kinds.append(SINGULAR if kind == 0 else ORDINARY)
        cur[p], cur[p + 1] = u2, v2

    # close up: identify the top of each strand with its bottom
    find = _joined((cur[p], p + 1) for p in range(strands))
    merged = [tuple(find(e) for e in t) for t in crossings]
    used = sorted({e for t in merged for e in t})
    relabel = {e: i + 1 for i, e in enumerate(used)}
    final = [tuple(relabel[e] for e in t) for t in merged]
    loops = len({find(p + 1) for p in range(strands)} - {find(e) for e in used})
    return Diagram(final, kinds, loops, name, over_hints=hints)
