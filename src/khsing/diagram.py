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
(enter the lowest-index crossing at slot 3) unless an over-entry hint, or
the JSON format's ``over_entry`` field, names slot 1 there.  A diagram
refuses a hint that contradicts the orientation its traversal gives.

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
                 "over_entry", "components", "_labels", "_edges", "_partner",
                 "_first", "_over_starts", "_signs", "singular_indices",
                 "ordinary_indices", "n_plus", "n_minus")

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
        over_hints = over_hints or {}
        if any(not (type(ci) is int and 0 <= ci < len(crossings))
               or h not in (1, 3) for ci, h in over_hints.items()):
            raise ContractViolation(
                "an over-entry hint must be slot 1 or 3 at a crossing index")
        self.crossings = crossings
        self.kinds = kinds
        self.free_loops = int(free_loops)
        self.name = name
        # edge labels in ascending order; at each end x = 4 * crossing + slot
        # its edge and the other end of that edge; one end of each edge: the
        # traversal, the planarity check and each resolution walk these
        self._labels = tuple(sorted({e for c in crossings for e in c}))
        index = {e: i for i, e in enumerate(self._labels)}
        self._edges = tuple(index[e] for c in crossings for e in c)
        ends = [[] for _ in self._labels]
        for x, e in enumerate(self._edges):
            ends[e].append(x)
        partner = [0] * len(self._edges)
        for e, xs in zip(self._labels, ends):
            if len(xs) != 2:
                raise ParseError(
                    f"edge label {e} appears {len(xs)} times (expected 2)")
            partner[xs[0]], partner[xs[1]] = xs[1], xs[0]
        self._partner, self._first = tuple(partner), tuple(a for a, _ in ends)
        self.over_entry, self.components, self._over_starts = self._trace(
            over_hints)
        self._check_planar()
        for ci, slot in over_hints.items():
            if self.over_entry[ci] != slot:
                raise ParseError(
                    f"over_entry gives slot {slot} at crossing {ci}, where the "
                    f"traversal enters the over-strand at slot "
                    f"{self.over_entry[ci]}")
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
        edges, partner, labels = self._edges, self._partner, self._labels
        n = len(edges) // 4
        visited = set()  # entry ends
        over_entry = {}
        components = []

        # a walk follows the cycle of x -> partner[x ^ 2] through an
        # unvisited end; cycles are disjoint, so it meets no visited end
        def walk(start):
            comp = []
            cur = start
            while True:
                visited.add(cur)
                ci, slot = divmod(cur, 4)
                if slot in (1, 3):
                    prev = over_entry.get(ci)
                    if prev is not None and prev != slot:
                        raise ParseError("over-strand entered at both slots; "
                                         "inconsistent orientation data")
                    over_entry[ci] = slot
                e = labels[edges[cur ^ 2]]  # leaving by slot (slot + 2) % 4
                cur = partner[cur ^ 2]
                comp.append(e)
                if cur & 3 == 2:
                    raise ParseError(
                        f"edge {e} runs into an outgoing position; "
                        "non-closing traversal")
                if cur == start:
                    break
            return tuple(comp)

        for ci in range(n):
            if 4 * ci not in visited:
                components.append(walk(4 * ci))
        # Components that never pass under carry no orientation data in a PD
        # code; orient each from its lowest crossing by the caller's hint
        # there, defaulting to positive, and keep where each walk started.
        starts = []
        for ci in range(n):
            if ci not in over_entry:
                starts.append((ci, over_hints.get(ci, 3)))
                components.append(walk(4 * ci + starts[-1][1]))
        return (tuple(over_entry[ci] for ci in range(n)), tuple(components),
                tuple(starts))

    def _check_planar(self):
        """Euler's formula: each connected piece of the crossing graph, with
        n crossings and 2n edges, bounds n + 2 faces.  A face arrives at an
        end of an edge and leaves by the next slot counterclockwise."""
        partner = self._partner
        seen = bytearray(len(partner))  # ends, each on one face
        reached = bytearray(len(partner))  # crossings, at their slot 0 end
        faces = pieces = 0
        for root in range(0, len(partner), 4):
            # each piece is walked whole before the next root
            pieces += not reached[root]
            reached[root], todo = 1, [root]
            while todo:
                x = todo.pop()
                for cur in range(x, x + 4):
                    faces += not seen[cur]
                    while not seen[cur]:
                        seen[cur], y = 1, partner[cur]
                        if not reached[y & ~3]:
                            reached[y & ~3] = 1
                            todo.append(y & ~3)
                        cur = y & ~3 | (y + 1) & 3
        if faces != len(self.crossings) + 2 * pieces:
            raise ParseError(
                f"diagram is not planar: it has {faces} faces, where Euler's "
                f"formula needs {len(self.crossings) + 2 * pieces}")

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

    def _rebuilt(self, flips, kinds, name=None) -> "Diagram":
        """This diagram with ``kinds``, over and under swapped at the
        crossings ``flips`` by a rotation that keeps the counterclockwise
        order and the orientation: the old under-entry (slot 0) names the new
        over-entry slot.  Every over-entry passes down as a hint, so that a
        component over everywhere keeps its orientation."""
        crossings = list(self.crossings)
        hints = dict(enumerate(self.over_entry))
        for i in flips:
            a, b, c, d = crossings[i]
            crossings[i], hints[i] = (
                ((d, a, b, c), 1) if self._signs[i] > 0 else ((b, c, d, a), 3))
        return Diagram(crossings, kinds, self.free_loops, name,
                       over_hints=hints)

    def crossing_change(self, i: int) -> "Diagram":
        """Flip over/under at an ordinary crossing, preserving orientation."""
        self.crossing_sign(i)  # contract: ordinary
        return self._rebuilt((i,), self.kinds)

    def mirror(self) -> "Diagram":
        """Swap over and under at every ordinary crossing."""
        name = f"mirror({self.name})" if self.name else None
        return self._rebuilt(self.ordinary_indices, self.kinds, name)

    def resolve_double_point(self, i: int, sign: int) -> "Diagram":
        """Replace double point ``i`` by an ordinary crossing of given sign."""
        if self.kinds[i] != SINGULAR:
            raise ContractViolation(f"crossing {i} is not a double point")
        if sign not in (1, -1):
            raise ContractViolation("resolution sign must be +1 or -1")
        kinds = list(self.kinds)
        kinds[i] = ORDINARY
        return self._rebuilt((i,) if self._signs[i] != sign else (), kinds)

    def disjoint_union(self, other: "Diagram") -> "Diagram":
        shift = max((e for c in self.crossings for e in c), default=0)
        crossings = self.crossings + tuple(
            tuple(e + shift for e in c) for c in other.crossings)
        kinds = self.kinds + other.kinds
        hints = dict(enumerate(self.over_entry + other.over_entry))
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
        # walk each circle: leave an edge through one end, cross to the
        # slot that the smoothing joins to it (0: 0-1 and 2-3; 1: 0-3 and
        # 1-2) and enter the edge there
        edges, partner = self._edges, self._partner
        circle_of, n_real = [-1] * len(self._labels), 0
        for e, x in enumerate(self._first):
            if circle_of[e] < 0:
                while circle_of[e] < 0:
                    circle_of[e] = n_real
                    x ^= 3 if smoothing >> (x >> 2) & 1 else 1
                    e = edges[x]
                    x = partner[x]
                n_real += 1
        return CircleConfiguration(n_real + self.free_loops, tuple(circle_of),
                                   self._labels, edges)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON format's fields.  A component that passes over at every
        crossing has no orientation in the PD code; ``parse`` orients it
        by entering its lowest crossing at slot 3 unless ``over_entry``
        lists that crossing with slot 1, so the field lists exactly the
        components oriented the other way, and is left out when empty."""
        out = {"pd": [list(c) for c in self.crossings],
               "singular": list(self.singular_indices)}
        if self.name:
            out["name"] = self.name
        if self.free_loops:
            out["free_loops"] = self.free_loops
        flipped = [[ci, slot] for ci, slot in self._over_starts if slot != 3]
        if flipped:
            out["over_entry"] = flipped
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True, slots=True)
class CircleConfiguration:
    """Circles of a complete smoothing with stable identifiers.

    A state is its walk: ``n_circles``, free loops included, and
    ``edge_circles[e]``, the circle of edge ``labels[e]``, the diagram's
    edge labels in ascending order.  ``ends[4 * c + slot]`` is the edge
    index at that end of crossing c; ``labels`` and ``ends`` are the
    diagram's own tables, shared by all its states.  Circles are numbered
    by minimal edge label, as the walks start in label order; crossingless
    free loops trail.  These walk data determine the circles as sets of
    edge labels; the state does not list them.
    """

    n_circles: int
    edge_circles: tuple
    labels: tuple
    ends: tuple


def parse(text) -> Diagram:
    """Parse the JSON diagram format into a validated Diagram.

    Accepts a JSON string, a dict, or a path-free file object.  Format:
    ``{"name": str?, "pd": [[a,b,c,d], ...], "singular": [indices],
    "free_loops": int?, "over_entry": [[crossing, slot], ...]?}``, each
    singular index listed once.
    ``over_entry`` orients the components that pass over at every
    crossing: each pair is read as an over-entry hint (slot 1 or 3), which
    ``Diagram`` refuses if it contradicts the traversal there.
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
    for k, i in enumerate(singular):
        if not _is_int(i) or not 0 <= i < len(pd):
            raise ParseError(f"singular index {i!r} is not a crossing index")
        if i in singular[:k]:
            raise ParseError(f"singular index {i} is listed twice")
    free_loops = obj.get("free_loops", 0)
    if not _is_int(free_loops):
        raise ParseError(f"free_loops {free_loops!r} is not an integer")
    name = obj.get("name")
    if not (name is None or isinstance(name, str)):
        raise ParseError(f"name {name!r} is not a string")
    kinds = [SINGULAR if i in set(singular) else ORDINARY for i in range(len(pd))]
    hints = _over_hints(obj.get("over_entry", []), len(pd))
    return Diagram(pd, kinds, free_loops, name, over_hints=hints)


def _over_hints(pairs, n: int) -> dict:
    """The ``over_entry`` field as over-entry hints: crossing -> slot."""
    if not isinstance(pairs, list):
        raise ParseError("'over_entry' must be a list of [crossing, slot] "
                         "pairs")
    hints = {}
    for pair in pairs:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(map(_is_int, pair))):
            raise ParseError(f"over_entry {pair!r} is not a [crossing, slot] "
                             "pair of integers")
        ci, slot = pair
        if not 0 <= ci < n:
            raise ParseError(f"over_entry crossing {ci} is not a crossing "
                             "index")
        if ci in hints:
            raise ParseError(f"over_entry lists crossing {ci} twice")
        if slot not in (1, 3):
            raise ParseError(f"over_entry slot {slot} at crossing {ci} is "
                             "not 1 or 3")
        hints[ci] = slot
    return hints


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

    # close up: the top label of each strand names its bottom label p + 1.
    # A label at most ``strands`` never moves, so cur[p] is p + 1 (a strand
    # without crossings, a free loop) or fresh: the pairs form a matching
    bottom = {cur[p]: p + 1 for p in range(strands)}
    merged = [tuple(bottom.get(e, e) for e in t) for t in crossings]
    used = sorted({e for t in merged for e in t})
    relabel = {e: i + 1 for i, e in enumerate(used)}
    final = [tuple(relabel[e] for e in t) for t in merged]
    loops = sum(cur[p] == p + 1 for p in range(strands))
    return Diagram(final, kinds, loops, name, over_hints=hints)
