"""Explicit finite graphs, graph homomorphisms, and cover-axiom validators.

These materialized objects are the verification oracle for the symbolic
machinery in :mod:`chaoscope.bouquet`: everything here is stored explicitly
(vertex counts, sorted edge columns, dense vertex maps) and all checks are
exhaustive scans that return complete violation lists rather than booleans.

A graph is a finite set of vertices ``0..vertex_count-1`` with directed
edges.  A cover map is a vertex map between two graphs; the three validators
check the axioms that make it a usable covering:

* edge-surjectivity -- every vertex has an incoming and an outgoing edge;
* homomorphism      -- edges map to edges;
* bidirectionality  -- all out-neighbors (resp. in-neighbors) of a vertex
  share a single image, which is what makes the limit dynamics
  single-valued and invertible.

Edges are held as two ascending ``array("I")`` columns of ids, heads and
tails, in (u, v) order, so graphs in the millions of vertices stay within a
few tens of megabytes.  :func:`chaoscope.bouquet.materialize_graph` writes
a level's columns already ascending, as contiguous slices of one
``0, 1, 2, ...`` ramp copied in C, so building a level never sorts.  The
validators and criterion 1's walk read the edges by maximal *runs*:
stretches ``(u0 + k, v0 + k)`` of the columns, which is how a cycle's
edges lie, so level 3's 3.4 million edges form 10 runs, seven of them
single edges.  A graph finds its runs once, on first use, and keeps them:
one scan serves a cover's source and its target.  Runs are checked by
slices, compared and assigned in C.  A run's images come in pieces that
follow one run of the target's edges or repeat one edge, each measured by
one slice compare per column.  For bidirectionality the runs' target
intervals are sorted once: a vertex can have two in-images only where two
of them overlap, and each group of overlapping runs keeps its targets'
first in-images in one array over its span, met by each run in one
compare.  So the validators hold lists as long as the runs and one array
as wide as the widest overlap group (one vertex on a bouquet, whose only
vertex with two in-edges is the base), never one as long as the vertices.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
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

    __slots__ = ("vertex_count", "_heads", "_tails", "_runs")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0 or vertex_count > _MAX_VERTICES:
            raise StructuralError(f"vertex_count {vertex_count} out of range (at most 2**31)")
        pairs = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise StructuralError(f"edge ({u}, {v}) references a vertex >= {vertex_count}")
            pairs.add((u, v))
        ordered = sorted(pairs)
        self.vertex_count = vertex_count
        self._heads = array("I", [u for u, _ in ordered])
        self._tails = array("I", [v for _, v in ordered])
        self._runs = None  # the columns' runs, found on first use

    @property
    def edge_count(self) -> int:
        return len(self._heads)

    def _span(self, u: int) -> tuple[int, int]:
        """The edges from ``u``: a stretch of the heads column."""
        lo = bisect_left(self._heads, u)
        return lo, bisect_left(self._heads, u + 1, lo)

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self._span(u)
        i = bisect_left(self._tails, v, lo, hi)
        return i < hi and self._tails[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (source, target) pairs in sorted order."""
        return zip(self._heads, self._tails)

    def successors(self, u: int) -> list[int]:
        return self._tails[slice(*self._span(u))].tolist()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MaterializedGraph)
            and self.vertex_count == other.vertex_count
            and self._heads == other._heads
            and self._tails == other._tails
        )

    def __repr__(self) -> str:
        return f"MaterializedGraph(vertices={self.vertex_count}, edges={self.edge_count})"

    @classmethod
    def _bouquet(cls, starts: Sequence[int], lengths: Sequence[int]) -> "MaterializedGraph":
        # internal fast path, the bouquet of cycles at base 0, its count range-checked
        # by the constructor before any allocation: the caller guarantees lengths >= 2,
        # cycle i on ids starts[i]..starts[i+1] - 1.  Edges come out ascending: the
        # base loop, (0, start) per cycle, then one edge from each other vertex u, at
        # m + u, whose tail is u + 1 but at its cycle's last vertex, which keeps the
        # zero fill, the base.  Every copy is of one contiguous slice, in C: the
        # heads from the id ramp, and each cycle's tails from the heads themselves
        g = cls(starts[-1] + lengths[-1] - 1 if starts else 1, ())
        m = len(starts)
        g._heads = array("I", [0]) * (g.vertex_count + m)
        g._tails = array("I", [0]) * (g.vertex_count + m)
        g._tails[1:m + 1] = array("I", starts)
        heads, tails = memoryview(g._heads), memoryview(g._tails)
        heads[m + 1:] = _identity(g.vertex_count)[1:]
        for start, length in zip(starts, lengths):
            tails[m + start:m + start + length - 2] = heads[m + start + 1:m + start + length - 1]
        return g


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
    runs, missing = _runs(g), []
    for side, spans in (("in", sorted((v0, length) for _, length, _, v0 in runs)),
                        ("out", [(u0, length) for _, length, u0, _ in runs])):
        reached = 0
        for start, length in spans + [(g.vertex_count, 0)]:
            missing += [(v, side) for v in range(reached, start)]
            reached = max(reached, start + length)
    return sorted(missing)  # ascending vertex, "in" before "out" at the same vertex


def validate_homomorphism(c: CoverMap) -> list[tuple[int, int]]:
    """Source edges whose images are not edges of the target."""
    vm = c.vertex_map
    images = _low_words(vm)  # an image is below 2**31: its low word
    heads, tails = memoryview(c.target._heads), memoryview(c.target._tails)
    # each target edge's rank and the end of its run
    rank = {(u0 + k, v0 + k): (p + k, p + length)
            for p, length, u0, v0 in _runs(c.target) for k in range(length)}
    violations: list[tuple[int, int]] = []
    for _, length, u0, v0 in _runs(c.source):
        # a run's images come in pieces: each repeats one target edge, or
        # follows the target's edges from its first edge's rank p at most to
        # the end of their run; a compare that fails is galloped to the break
        j = 0
        while j < length:
            u, v = u0 + j, v0 + j
            p, end = rank.get((vm[u], vm[v]), (None, 0))
            if p is None:
                violations.append((u, v))
                j += 1
            elif j + 1 < length and vm[u + 1] == vm[u] and vm[v + 1] == vm[v]:
                j += 1 + _gallop(lambda a, b: images[u + a:u + b] == images[u + a + 1:u + b + 1]
                                 and images[v + a:v + b] == images[v + a + 1:v + b + 1],
                                 length - j - 1)
            else:
                def follows(a: int, b: int) -> bool:
                    return (images[u + a:u + b] == heads[p + a:p + b]
                            and images[v + a:v + b] == tails[p + a:p + b])
                n = min(length - j, end - p)
                j += n if follows(0, n) else _gallop(follows, n)
    return violations


def validate_bidirectional(c: CoverMap) -> list[tuple[str, int, int, int]]:
    """Branching vertices whose out- (or in-) neighbors map to distinct images.

    Each violation is ("out"|"in", vertex, image_seen_first, conflicting_image).
    """
    vm = memoryview(c.vertex_map)  # its slices are views, not copies
    runs = _runs(c.source)
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


def _runs(g: MaterializedGraph) -> list[tuple[int, int, int, int]]:
    """Cover ``g``'s edges, in order, with maximal runs ``(index, length,
    u0, v0)`` of edges ``(u0 + k, v0 + k)``, each cut only at a break.

    Where both columns step by 1 to the next edge, a run is measured by
    comparing column slices with 0, 1, 2, ... in galloping slices, in C.
    Scanned on the first call and kept in the graph.
    """
    if g._runs is None:
        heads, tails = memoryview(g._heads), memoryview(g._tails)
        # one ramp over every id: a run's source and target intervals each
        # start anywhere below vertex_count, and it is measured against ramp
        # slices at both starts; the ramp is freed on return
        ramp = _identity(g.vertex_count)
        runs, k = [], 0
        while k < len(heads):
            u0, v0 = heads[k], tails[k]
            length = 1
            if k + 1 < len(heads) and heads[k + 1] == u0 + 1 and tails[k + 1] == v0 + 1:
                length = _gallop(lambda a, b: heads[k + a:k + b] == ramp[u0 + a:u0 + b]
                                 and tails[k + a:k + b] == ramp[v0 + a:v0 + b],
                                 len(heads) - k)
            runs.append((k, length, u0, v0))
            k += length
        g._runs = runs
    return g._runs


def walk_lengths(g: MaterializedGraph, starts: Iterable[int]) -> list[int]:
    """The edges walked from the base into each start and on, along each
    vertex's last out-edge, until back at the base 0.  Raises
    :class:`StructuralError`, naming the start, at a vertex without an
    out-edge or past ``vertex_count`` edges, where a walk never returns.
    Along a run whose tails step with its heads, one step reaches its end."""
    n = g.vertex_count
    runs, lengths = _runs(g), []
    firsts = [u0 for _, _, u0, _ in runs]
    for start in starts:
        if not g.has_edge(0, start):
            raise StructuralError(f"walk from {start}: no edge (0, {start}) into it")
        steps, v = 1, start
        while v != 0 and steps <= n:
            # the last run starting at or below v holds v's last out-edge (a later
            # run can start only at that run's last source); the edge (0, start)
            # puts source 0 first, so the bisection never lands before the first run
            _, length, u0, v0 = runs[bisect_right(firsts, v) - 1]
            last = u0 + length - 1
            if v > last:
                raise StructuralError(f"walk from {start}: vertex {v} has no out-edge")
            v, steps = (last, steps + last - v) if v0 == u0 + 1 and v < last else (
                v0 + v - u0, steps + 1)
        if v != 0:
            raise StructuralError(f"walk from {start} is not back at the base after {n} edges")
        lengths.append(steps)
    return lengths


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


def _identity(n: int) -> memoryview:
    """``0, 1, ..., n - 1`` as unsigned 32-bit ints, like ``array("I", range(n))``.

    Built from copies of one 2**16-long ramp, whose high halves are then set
    tile by tile with strided byte writes: C-level copies, not n Python ints.
    """
    tile = 1 << 16
    tiles = -(-n // tile)
    ramp = bytearray(array("I", range(min(n, tile)))) * tiles
    high = 2 if sys.byteorder == "little" else 0  # byte offset of the high half
    for t in range(1, tiles):
        for k, byte in enumerate(t.to_bytes(2, sys.byteorder)):
            ramp[4 * t * tile + high + k:4 * (t + 1) * tile:4] = bytes([byte]) * tile
    return memoryview(ramp).cast("I")[:n]


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

