"""Explicit finite graphs, graph homomorphisms, and cover-axiom validators.

These materialized objects are the verification oracle for the symbolic
machinery in :mod:`chaoscope.bouquet`: everything here is stored explicitly
(vertex counts, sorted edge arrays, dense vertex maps) and all checks are
exhaustive scans that return complete violation lists rather than booleans.

A graph is a finite set of vertices ``0..vertex_count-1`` with directed
edges.  A cover map is a vertex map between two graphs; the three validators
check the axioms that make it a usable covering:

* edge-surjectivity -- every vertex has an incoming and an outgoing edge;
* homomorphism      -- edges map to edges;
* bidirectionality  -- all out-neighbors (resp. in-neighbors) of a vertex
  share a single image, which is what makes the limit dynamics
  single-valued and invertible.

Edges are packed as ``(u << 32) | v`` in an ascending int array, so graphs
in the millions of vertices stay within a few tens of megabytes.
:func:`chaoscope.bouquet.materialize_graph` emits its edges already in
ascending order, so building a level never sorts them.  The validators are
still plain scans over every edge: the homomorphism check tests each image
edge against a hash set of the target's packed keys, and the surjectivity
check finds unmarked vertices with ``bytearray.find``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import StructuralError

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
_MAX_VERTICES = 1 << 31


def _pack(u: int, v: int) -> int:
    return (u << _SHIFT) | v


class MaterializedGraph:
    """A finite directed graph with dense integer vertex ids.

    Vertex ids must be in ``0..vertex_count-1``; malformed edges are rejected
    at construction.  Instances are immutable.
    """

    __slots__ = ("vertex_count", "_edges")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0 or vertex_count > _MAX_VERTICES:
            raise StructuralError(f"vertex_count {vertex_count} out of range")
        packed = array("q")
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise StructuralError(f"edge ({u}, {v}) references a vertex >= {vertex_count}")
            packed.append(_pack(u, v))
        dedup = sorted(set(packed))
        self.vertex_count = vertex_count
        self._edges = array("q", dedup)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        key = _pack(u, v)
        i = bisect_left(self._edges, key)
        return i < len(self._edges) and self._edges[i] == key

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (source, target) pairs in sorted order."""
        for key in self._edges:
            yield key >> _SHIFT, key & _MASK

    def successors(self, u: int) -> list[int]:
        lo = bisect_left(self._edges, _pack(u, 0))
        out = []
        for i in range(lo, len(self._edges)):
            key = self._edges[i]
            if key >> _SHIFT != u:
                break
            out.append(key & _MASK)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MaterializedGraph)
            and self.vertex_count == other.vertex_count
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        return f"MaterializedGraph(vertices={self.vertex_count}, edges={self.edge_count})"

    @classmethod
    def _from_packed(cls, vertex_count: int, packed: array) -> "MaterializedGraph":
        # internal fast path: caller guarantees ids are in range and the
        # packed keys strictly ascending; the array is kept, not copied
        g = cls.__new__(cls)
        g.vertex_count = vertex_count
        g._edges = packed
        return g


class CoverMap:
    """A vertex map from one materialized graph onto another.

    Only structure is enforced here (map length = source vertex count, images
    in range); the cover axioms are checked by the validators below.
    """

    __slots__ = ("source", "target", "vertex_map")

    def __init__(self, source: MaterializedGraph, target: MaterializedGraph,
                 vertex_map: Sequence[int]):
        if len(vertex_map) != source.vertex_count:
            raise StructuralError(
                f"vertex map has {len(vertex_map)} entries for {source.vertex_count} vertices"
            )
        try:
            vm = array("q", vertex_map)
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
    has_out = bytearray(g.vertex_count)
    has_in = bytearray(g.vertex_count)
    for key in g._edges:
        has_out[key >> _SHIFT] = 1
        has_in[key & _MASK] = 1
    # ascending vertex, "in" before "out" at the same vertex
    return sorted([(v, "in") for v in _unmarked(has_in)]
                  + [(v, "out") for v in _unmarked(has_out)])


def _unmarked(flags: bytearray) -> Iterator[int]:
    i = flags.find(0)
    while i >= 0:
        yield i
        i = flags.find(0, i + 1)


def validate_homomorphism(c: CoverMap) -> list[tuple[int, int]]:
    """Source edges whose images are not edges of the target."""
    vm = c.vertex_map
    # for a cover the target is the smaller graph (786 edges under level 3)
    target_keys = set(c.target._edges)
    violations: list[tuple[int, int]] = []
    for key in c.source._edges:
        u = key >> _SHIFT
        v = key & _MASK
        if (vm[u] << _SHIFT) | vm[v] not in target_keys:
            violations.append((u, v))
    return violations


def validate_bidirectional(c: CoverMap) -> list[tuple[str, int, int, int]]:
    """Branching vertices whose out- (or in-) neighbors map to distinct images.

    Each violation is ("out"|"in", vertex, image_seen_first, conflicting_image).
    """
    vm = c.vertex_map
    n = c.source.vertex_count
    out_img = array("q", [-1]) * n
    in_img = array("q", [-1]) * n
    violations: list[tuple[str, int, int, int]] = []
    for key in c.source._edges:
        u = key >> _SHIFT
        v = key & _MASK
        iu, iv = vm[u], vm[v]
        prev = out_img[u]
        if prev == -1:
            out_img[u] = iv
        elif prev != iv:
            violations.append(("out", u, prev, iv))
        prev = in_img[v]
        if prev == -1:
            in_img[v] = iu
        elif prev != iu:
            violations.append(("in", v, prev, iu))
    return violations


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


def graph_stats(g: MaterializedGraph, level: int, cycle_lengths: Sequence[int]) -> dict:
    """JSON-ready stats record for a materialized graph of one level."""
    return {
        "vertex_count": g.vertex_count,
        "edge_count": g.edge_count,
        "level": level,
        "cycle_lengths": [str(length) for length in cycle_lengths],
    }
