"""Explicit finite graphs, graph homomorphisms, and cover-axiom validators.

These materialized objects are the verification oracle for the symbolic
machinery in :mod:`chaoscope.bouquet`: everything here is stored explicitly
(vertex counts, every edge in its runs, dense vertex maps) and all checks are
exhaustive scans that return complete violation lists rather than booleans.

A graph is a finite set of vertices ``0..vertex_count-1`` with directed
edges.  A cover map is a vertex map between two graphs; the three validators
check the axioms that make it a usable covering:

* edge-surjectivity -- every vertex has an incoming and an outgoing edge;
* homomorphism      -- edges map to edges;
* bidirectionality  -- all out-neighbors (resp. in-neighbors) of a vertex
  share a single image, which is what makes the limit dynamics
  single-valued and invertible.

A graph is its maximal *runs* ``(index, length, u0, v0)``: stretches of
edges ``(u0 + k, v0 + k)`` in (u, v) order, each cut only where the next
edge does not go on from it.  So a cycle's edges are one run, level 3's 3.4
million edges are 10 runs, and no graph holds an array as long as its
edges.  Both constructors merge stretches into the runs, and an edge query
is one bisection of them.  A run's images come in pieces that follow one
run of the target's edges or repeat one edge, each measured by slice
compares in C.  For bidirectionality the runs' target intervals are sorted
once: a vertex can have two in-images only where two of them overlap, and
each group of overlapping runs keeps its targets' first in-images in one
array over its span (one vertex on a bouquet, whose only vertex with two
in-edges is the base), met by each run in one compare.  So the validators
hold lists as long as the runs, that array, and for homomorphism one id
ramp as long as the target's vertices (784 on the built-in covers).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import StructuralError

_MAX_VERTICES = 1 << 31
_LOW = 0 if sys.byteorder == "little" else 1  # index of the low word of an int64


class MaterializedGraph:
    """A finite directed graph with dense integer vertex ids.

    Vertex ids must be in ``0..vertex_count-1``; malformed edges are rejected
    at construction.  Instances are immutable.
    """

    __slots__ = ("vertex_count", "edge_count", "_runs")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0 or vertex_count > _MAX_VERTICES:
            raise StructuralError(f"vertex_count {vertex_count} out of range (at most 2**31)")
        pairs = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise StructuralError(f"edge ({u}, {v}) references a vertex >= {vertex_count}")
            pairs.add((u, v))
        self.vertex_count = vertex_count
        self.edge_count, self._runs = _maximal((u, v, 1) for u, v in sorted(pairs))

    def has_edge(self, u: int, v: int) -> bool:
        return _left(self._runs, u, v) > 0

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (source, target) pairs in sorted order."""
        return chain.from_iterable(zip(range(u0, u0 + length), range(v0, v0 + length))
                                   for _, length, u0, v0 in self._runs)

    def successors(self, u: int) -> list[int]:
        # the runs holding u's out-edges end at the last one starting at or below u
        runs, found = self._runs, []
        r = bisect_right(runs, u, key=itemgetter(2))
        while r and u < runs[r - 1][2] + runs[r - 1][1]:
            r -= 1
            found.append(runs[r][3] + u - runs[r][2])
        return found[::-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MaterializedGraph) and (
            (self.vertex_count, self._runs) == (other.vertex_count, other._runs))

    def __repr__(self) -> str:
        return f"MaterializedGraph(vertices={self.vertex_count}, edges={self.edge_count})"

    @classmethod
    def _bouquet(cls, starts: Sequence[int], lengths: Sequence[int]) -> "MaterializedGraph":
        # internal fast path, the bouquet of cycles at base 0, its count range-checked
        # by the constructor: the caller guarantees lengths >= 2, cycle i on ids
        # starts[i]..starts[i+1] - 1.  Its edges, in order, are the base loop,
        # (0, start) per cycle, then per cycle its body (u, u + 1) and the edge
        # from its last vertex back to the base
        g = cls(starts[-1] + lengths[-1] - 1 if starts else 1, ())
        g.edge_count, g._runs = _maximal(chain(
            [(0, 0, 1)], ((0, start, 1) for start in starts),
            *(((start, start + 1, length - 2), (start + length - 2, 0, 1))
              for start, length in zip(starts, lengths))))
        return g


def _maximal(stretches: Iterable[tuple[int, int, int]]) -> tuple[int, list]:
    """The edge count and the maximal runs ``(index, length, u0, v0)`` of
    the edges tiled in order by stretches ``(u0, v0, n)``, each the edges
    ``(u0 + k, v0 + k)`` for ``k < n``: a stretch that goes on from the run
    before it joins that run, and an empty one is skipped."""
    runs, count = [], 0
    for u0, v0, n in stretches:
        if runs and u0 - runs[-1][2] == v0 - runs[-1][3] == runs[-1][1]:
            i, length, a, b = runs[-1]
            runs[-1] = (i, length + n, a, b)
        elif n:
            runs.append((count, n, u0, v0))
        count += n
    return count, runs


def _left(runs: list, x: int, y: int) -> int:
    """The edges from ``(x, y)`` to the end of its run, or 0 if ``(x, y)``
    is no edge.  The runs tile the sorted edges, so the one run that can
    hold it is the last whose first edge is at or below it."""
    r = bisect_right(runs, (x, y), key=itemgetter(2, 3))
    if r:
        _, length, u0, v0 = runs[r - 1]
        if x - u0 == y - v0 < length:
            return length - (x - u0)
    return 0


class CoverMap:
    """A vertex map from one materialized graph onto another.

    Only structure is enforced here (map length = source vertex count, images
    in range); the cover axioms are checked by the validators below.  An
    ``array("q")`` map is held as it is, not copied, so the caller must not
    change it afterwards; any other map is copied into one.
    """

    __slots__ = ("source", "target", "vertex_map")

    def __init__(self, source: MaterializedGraph, target: MaterializedGraph,
                 vertex_map: Sequence[int]):
        if len(vertex_map) != source.vertex_count:
            raise StructuralError(
                f"vertex map has {len(vertex_map)} entries for {source.vertex_count} vertices"
            )
        try:
            vm = (vertex_map if isinstance(vertex_map, array) and vertex_map.typecode == "q"
                  else array("q", vertex_map))
        except OverflowError:  # an image past 64 bits: the scan below names it
            vm = None
        # read as unsigned, a negative image is above any vertex count, so one
        # C-level max checks both ends of the range; scan only on failure
        if vm is None or (vm and max(memoryview(vm).cast("B").cast("Q"))
                          >= target.vertex_count):
            bad = next(img for img in vertex_map
                       if not (0 <= img < target.vertex_count))
            raise StructuralError(f"image {bad} outside target graph")
        self.source = source
        self.target = target
        self.vertex_map = vm

    def __repr__(self) -> str:
        return (f"CoverMap({self.source.vertex_count} -> {self.target.vertex_count} vertices)")

    @classmethod
    def _from_array(cls, source: MaterializedGraph, target: MaterializedGraph,
                    vertex_map: array) -> "CoverMap":
        # internal fast path: caller guarantees length and image ranges
        c = cls.__new__(cls)
        c.source = source
        c.target = target
        c.vertex_map = vertex_map
        return c


# ---------------------------------------------------------------------------
# Validators.  Each returns an exhaustive violation list; empty means pass.
# ---------------------------------------------------------------------------

def validate_edge_surjective(g: MaterializedGraph) -> list[tuple[int, str]]:
    """Vertices lacking an in-edge or an out-edge, as (vertex, "in"|"out") pairs."""
    # a vertex lacks an in-edge (out-edge) in the gaps between the runs'
    # target (source) intervals; the sources ascend, the targets are sorted
    runs, missing = g._runs, []
    for side, spans in (("in", sorted((v0, length) for _, length, _, v0 in runs)),
                        ("out", [(u0, length) for _, length, u0, _ in runs])):
        reached = 0
        for start, length in spans + [(g.vertex_count, 0)]:
            missing += [(v, side) for v in range(reached, start)]
            reached = max(reached, start + length)
    return sorted(missing)  # ascending vertex, "in" before "out" at the same vertex


def validate_homomorphism(c: CoverMap) -> list[tuple[int, int]]:
    """Source edges whose images are not edges of the target."""
    vm, targets = c.vertex_map, c.target._runs
    images = _low_words(vm)  # an image is below 2**31: its low word
    ids = memoryview(array("I", range(c.target.vertex_count)))
    violations: list[tuple[int, int]] = []
    for _, length, u0, v0 in c.source._runs:
        # a run's images come in pieces: each repeats one target edge, or
        # follows the target's edges from an edge (x, y) at most to the end
        # of their run; a compare that fails is galloped to the break
        j = 0
        while j < length:
            u, v = u0 + j, v0 + j
            x, y = vm[u], vm[v]
            left = _left(targets, x, y)
            if not left:
                violations.append((u, v))
                j += 1
            elif j + 1 < length and vm[u + 1] == x and vm[v + 1] == y:
                j += 1 + _gallop(lambda a, b: images[u + a:u + b] == images[u + a + 1:u + b + 1]
                                 and images[v + a:v + b] == images[v + a + 1:v + b + 1],
                                 length - j - 1)
            else:
                def follows(a: int, b: int) -> bool:
                    return (images[u + a:u + b] == ids[x + a:x + b]
                            and images[v + a:v + b] == ids[y + a:y + b])
                n = min(length - j, left)
                j += n if follows(0, n) else _gallop(follows, n)
    return violations


def validate_bidirectional(c: CoverMap) -> list[tuple[str, int, int, int]]:
    """Branching vertices whose out- (or in-) neighbors map to distinct images.

    Each violation is ("out"|"in", vertex, image_seen_first, conflicting_image).
    """
    vm = memoryview(c.vertex_map)  # its slices are views, not copies
    runs = c.source._runs
    # each violation is found tagged (run index, target, or -1 for "out"),
    # so that sorting lists them by run in edge order, "out" first
    found: list[tuple[int, int, tuple[str, int, int, int]]] = []
    # a source's edges are adjacent, so its out-state is the last source's
    # first image; only a run's first source can have been seen before
    last = first = -1
    for i, length, u0, v0 in runs:
        if u0 != last:
            last, first = u0, vm[v0]
        elif first != vm[v0]:
            found.append((i, -1, ("out", u0, first, vm[v0])))
        if length > 1:
            last, first = u0 + length - 1, vm[v0 + length - 1]
    # only a target that two runs reach can have two in-images: sorted, the
    # runs' target intervals fall into groups that overlap, each covering
    # [lo, reach); an empty interval at vertex_count closes the last group
    order = sorted(runs, key=itemgetter(3))
    start = lo = reach = 0
    for k, (_, length, _, v0) in enumerate(order + [(0, 0, 0, c.source.vertex_count)]):
        if v0 >= reach:
            if k - start > 1:
                # the group's runs, in edge order, written last to first:
                # each target keeps the image of its first in-edge, in an
                # array as wide as the group, one vertex on a bouquet
                group = sorted(order[start:k])
                first = memoryview(array("q", [0]) * (reach - lo))
                for _, n, u0, t0 in reversed(group):
                    first[t0 - lo:t0 - lo + n] = vm[u0:u0 + n]
                for i, n, u0, t0 in group:
                    if vm[u0:u0 + n] != first[t0 - lo:t0 - lo + n]:
                        found += [(i, t0 + j, ("in", t0 + j, first[t0 - lo + j], vm[u0 + j]))
                                  for j in range(n) if vm[u0 + j] != first[t0 - lo + j]]
            start, lo = k, v0
        if v0 + length > reach:
            reach = v0 + length
    return [violation for *_, violation in sorted(found)]


def _gallop(same: Callable[[int, int], bool], limit: int) -> int:
    """The largest ``n <= limit`` with ``same`` holding on ``[0, n)``.

    ``same(a, b)`` tests the stretch ``[a, b)`` and is only asked once
    ``[0, a)`` is known to hold: steps double until one fails, then halve,
    so the stretches tested add up to O(n) in O(log n) calls.
    """
    good, step, growing = 0, 1, True
    while step:
        if good + step <= limit and same(good, good + step):
            good += step
        else:
            growing = False
        step = step * 2 if growing else step // 2
    return good


def _low_words(ints: array) -> memoryview:
    """The low 32-bit words of an ``array("q")``, as a strided view."""
    return memoryview(ints).cast("B").cast("I")[_LOW::2]


# ---------------------------------------------------------------------------
# Exports.
# ---------------------------------------------------------------------------

def write_dot(g: MaterializedGraph, out: TextIO, name: str) -> None:
    """DOT rendering, one line per edge; the base vertex 0 is labeled v0."""
    out.write(f"digraph {name} {{\n")
    out.write('  0 [label="v0"];\n')
    for u, v in g.edges():
        out.write(f"  {u} -> {v};\n")
    out.write("}\n")

