"""Materialized graphs, cover maps, and the three cover-axiom validators."""

from __future__ import annotations

import io
import itertools
import random
import sys
import tracemalloc
from array import array
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoscope import (
    CoverMap,
    LevelSpec,
    MaterializedGraph,
    StructuralError,
    build_level_spec,
    document_tower,
    materialize_graph,
    parse,
    validate_bidirectional,
    validate_edge_surjective,
    validate_homomorphism,
    write_dot,
)


def test_single_vertex_self_loop_is_edge_surjective():
    g = MaterializedGraph(1, [(0, 0)])
    assert validate_edge_surjective(g) == []


def test_one_edge_graph_fails_surjectivity_both_ways():
    g = MaterializedGraph(2, [(0, 1)])
    assert set(validate_edge_surjective(g)) == {(0, "in"), (1, "out")}


def test_surjectivity_violations_ascend_with_in_before_out():
    # vertices 2, 4, 5, 6 lack an in-edge; 4 and 6 also lack an out-edge
    g = MaterializedGraph(7, [(0, 1), (1, 0), (2, 3), (3, 3), (5, 0)])
    assert validate_edge_surjective(g) == [
        (2, "in"), (4, "in"), (4, "out"), (5, "in"), (6, "in"), (6, "out")]


def test_edge_ids_checked_at_construction():
    with pytest.raises(StructuralError):
        MaterializedGraph(2, [(0, 2)])


def test_identity_map_is_a_homomorphism():
    g = MaterializedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert validate_homomorphism(CoverMap(g, g, range(3))) == []


def test_map_to_non_adjacent_vertex_is_flagged():
    cycle = MaterializedGraph(3, [(0, 1), (1, 2), (2, 0)])
    # send vertex 1 onto vertex 0: edge (0,1) maps to the non-edge (0,0)
    broken = CoverMap(cycle, cycle, [0, 0, 2])
    bad = validate_homomorphism(broken)
    assert (0, 1) in bad


def test_vertex_map_length_mismatch_is_structural():
    g = MaterializedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(StructuralError):
        CoverMap(g, g, [0])


def test_out_of_range_image_error_names_the_first_bad_image():
    g = MaterializedGraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(StructuralError, match=r"^image 7 outside"):
        CoverMap(g, g, [0, 7, -1])
    with pytest.raises(StructuralError, match=r"^image -1 outside"):
        CoverMap(g, g, array("q", [-1, 2, 3]))
    with pytest.raises(StructuralError, match=r"^image 3 outside"):
        CoverMap(g, g, [1, 3, 2**70])
    with pytest.raises(StructuralError, match=rf"^image {2**70} outside"):
        CoverMap(g, g, [1, 2**70, 3])
    assert CoverMap(MaterializedGraph(0, []), g, []).vertex_map == array("q")


def test_a_cover_map_holds_an_int64_array_and_copies_any_other_map():
    g = MaterializedGraph(3, [(0, 1), (1, 2), (2, 0)])
    vm = array("q", [1, 2, 0])
    assert CoverMap(g, g, vm).vertex_map is vm
    for other in ([1, 2, 0], array("i", [1, 2, 0])):
        held = CoverMap(g, g, other).vertex_map
        assert held is not other and held == vm and held.typecode == "q"
    for bad in (-1, 3):
        with pytest.raises(StructuralError, match=rf"^image {bad} outside"):
            CoverMap(g, g, array("q", [1, bad, 0]))


def test_level_three_validators_allocate_by_runs_not_vertices(materialized):
    # neither validator holds a per-vertex array: level 3 has 3.4 million
    # vertices, so one such array would be several MiB
    cover = materialized[3].cover
    for validate, arg, expected in (
            (validate_bidirectional, cover, []),
            (validate_edge_surjective, cover.source, [])):
        tracemalloc.start()
        try:
            assert validate(arg) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (validate.__name__, peak)


def test_bidirectional_violation_on_branching_vertex():
    # base vertex branches to 1 and 2; their images differ
    source = MaterializedGraph(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    target = MaterializedGraph(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    broken = CoverMap(source, target, [0, 1, 2])
    assert validate_bidirectional(broken) == [("out", 0, 1, 2), ("in", 0, 1, 2)]


def test_materialized_levels_pass_all_validators(materialized):
    for n in range(3):
        level = materialized[n]
        assert validate_edge_surjective(level.graph) == []
        if level.cover is not None:
            assert validate_homomorphism(level.cover) == []
            assert validate_bidirectional(level.cover) == []


SHORT_CYCLES = """\
cover short mode bouquet
level 1 { c1 := 2 e; }
level 2 { c1 := e + c1 + e; c2 := 2 e; }
level 3 { c1 := e + c2 + e; c2 := 2 e; c3 := e + c1 + c2 + e; }
"""


def _strictly_ascending(keys) -> bool:
    return all(a < b for a, b in zip(keys, keys[1:]))


def packed_keys(g):
    """``g``'s edges as the keys ``(u << 32) | v`` of one ``array("q")``,
    in the order of ``edges()``, their sources and targets written into
    the keys' 32-bit words."""
    keys = array("q", [0]) * g.edge_count
    heads, tails = split_keys(keys)
    heads[:] = array("I", map(itemgetter(0), g.edges()))
    tails[:] = array("I", map(itemgetter(1), g.edges()))
    return keys


def split_keys(keys):
    """The high and the low 32-bit words of the keys, the sources and
    targets of the edges they pack, as strided views."""
    words = memoryview(keys).cast("B").cast("I")
    low = 0 if sys.byteorder == "little" else 1
    return words[1 - low::2], words[low::2]


def test_materialized_edges_are_strictly_ascending(materialized):
    # materialize_graph does not sort its edges: the order has to come out
    # of the construction, length-2 cycles included
    for n in range(4):
        assert _strictly_ascending(packed_keys(materialized[n].graph))
    tower = document_tower(parse(SHORT_CYCLES))
    level = materialize_graph(3, spec_for=tower.__getitem__)
    assert 2 in level.cycle_lengths
    g = level.graph
    assert _strictly_ascending(packed_keys(g))
    assert MaterializedGraph(g.vertex_count, g.edges()) == g
    assert validate_edge_surjective(g) == []
    assert validate_homomorphism(level.cover) == []


# `materialize_graph` as it was, one Python int per edge and per image: the
# references for the edges, as packed keys, and the zero-filled vertex map.

def edges_reference(starts, lengths):
    step = (1 << 32) | 1
    packed = array("q", [0])  # base self-loop (0, 0)
    for start in starts:
        packed.append(start)  # (0, start): base into the cycle
    for start, length in zip(starts, lengths):
        first = (start << 32) | (start + 1)
        packed.extend(array("q", range(first, first + (length - 2) * step, step)))
        packed.append((start + length - 2) << 32)  # last cycle vertex back to base
    return packed


def vertex_map_reference(level, below, spec):
    vm = array("q", bytes(8 * level.graph.vertex_count))
    for formula, vid in zip(spec.image_formulas, level.cycle_starts):
        for run in formula.iter_runs():
            if run.cycle == 0:
                vid += run.count
                continue
            clen = below.cycle_lengths[run.cycle - 1]
            img_start = below.cycle_starts[run.cycle - 1]
            for _ in range(run.count):
                vm[vid:vid + clen - 1] = array("q", range(img_start, img_start + clen - 1))
                vid += clen
    return vm


def assert_edges_equal_the_keys(g, keys):
    assert g.edge_count == len(keys) and packed_keys(g) == keys


def assert_level_equals_the_references(level, below, spec):
    assert_edges_equal_the_keys(
        level.graph, edges_reference(level.cycle_starts, level.cycle_lengths))
    if below is None:
        assert level.cover is None
    else:
        assert bytes(level.cover.vertex_map) == bytes(
            vertex_map_reference(level, below, spec))


NOSURJ = """\
cover nosurj mode bouquet
level 1 { c1 := 10 e; }
level 2 { c1 := 5 e; c2 := 7 e; }
level 3 { c1 := e + 2 c1 + e; c2 := e + c2 + e; c3 := 4 e; }
"""


def test_materialized_levels_equal_the_per_edge_references(materialized):
    for n in range(4):
        assert_level_equals_the_references(
            materialized[n], materialized[n - 1] if n else None, build_level_spec(n))
    for document in (NOSURJ, SHORT_CYCLES):
        tower = document_tower(parse(document))
        levels = [materialize_graph(n, spec_for=tower.__getitem__) for n in range(4)]
        for n in range(4):
            assert_level_equals_the_references(
                levels[n], levels[n - 1] if n else None, tower[n])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 60), min_size=1, max_size=6))
@example([2])
@example([3])
@example([2, 3, 60, 2])
def test_bouquet_edges_equal_the_per_edge_reference(lengths):
    # a length-2 cycle has no body, a length-3 cycle a body of one edge
    level = materialize_graph(0, spec_for=lambda n: LevelSpec(n, tuple(lengths), ()))
    assert level.graph.vertex_count == 1 + sum(length - 1 for length in lengths)
    assert_edges_equal_the_keys(
        level.graph, edges_reference(level.cycle_starts, level.cycle_lengths))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 40), max_size=6))
@example([10])  # one cycle: its entry edge (0, 1) joins its body
@example([2])  # one cycle with no body: (0, 1) stays a run of its own
@example([2, 2, 3])
def test_bouquet_runs_equal_the_generic_constructor(lengths):
    starts = [1 + sum(length - 1 for length in lengths[:i]) for i in range(len(lengths))]
    g = MaterializedGraph._bouquet(starts, lengths)
    keys = edges_reference(starts, lengths)
    generic = MaterializedGraph(g.vertex_count, ((key >> 32, key & 0xFFFFFFFF) for key in keys))
    assert g == generic and g.edge_count == generic.edge_count == len(keys)
    assert g._runs == generic._runs == runs_reference(g)
    if lengths == [10]:
        assert g._runs == [(0, 1, 0, 0), (1, 9, 0, 1), (10, 1, 9, 0)]


def test_building_level_three_allocates_by_runs_not_edges(materialized):
    # level 3 has 3.4 million edges: one array as long as them is many MiB
    level = materialized[3]
    tracemalloc.start()
    try:
        g = MaterializedGraph._bouquet(level.cycle_starts, level.cycle_lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == level.graph and len(g._runs) == 10
    assert peak < 64 << 10, peak


def test_homomorphism_onto_a_long_run_allocates_by_runs_not_edges():
    # one cycle whose entry edge and body are one 200,000-edge run, mapped
    # onto itself: no table holds its edges one by one
    g = MaterializedGraph._bouquet([1], [200_001])
    assert max(run[1] for run in g._runs) == 200_000
    cover = CoverMap(g, g, array("q", range(g.vertex_count)))
    tracemalloc.start()
    try:
        assert validate_homomorphism(cover) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_homomorphism_violations_match_has_edge(materialized):
    level = materialized[2]
    rng = random.Random(42)
    vm = array("q", level.cover.vertex_map)
    target = level.cover.target
    for vid in rng.sample(range(1, len(vm)), 50):
        vm[vid] = rng.randrange(target.vertex_count)
    cover = CoverMap(level.graph, target, vm)
    expected = [(u, v) for u, v in level.graph.edges()
                if not target.has_edge(vm[u], vm[v])]
    assert len(expected) > 50
    assert validate_homomorphism(cover) == expected


def _incident_edges(g, vertices):
    # the in-edge from the previous id and the out-edges of each vertex, for
    # vertices inside a cycle, in key order
    edges = set()
    for x in vertices:
        assert g.has_edge(x - 1, x)
        edges |= {(x - 1, x)} | {(x, w) for w in g.successors(x)}
    return sorted(edges)


def test_level_three_homomorphism_violations_match_has_edge(materialized):
    # the corruption above, carried to level 3: only edges through a
    # corrupted vertex can break, since the cover itself has no violation
    level = materialized[3]
    rng = random.Random(42)
    vm = array("q", level.cover.vertex_map)
    target = level.cover.target
    corrupted = [vid for vid in rng.sample(range(2, len(vm)), 60)
                 if vid not in level.cycle_starts][:50]
    for vid in corrupted:
        vm[vid] = rng.randrange(target.vertex_count)
    cover = CoverMap(level.graph, target, vm)
    expected = [(u, v) for u, v in _incident_edges(level.graph, corrupted)
                if not target.has_edge(vm[u], vm[v])]
    assert len(expected) > 50
    assert validate_homomorphism(cover) == expected
    assert validate_bidirectional(cover) == []


def test_level_three_images_moved_at_the_cycle_ends_branch(materialized):
    # new images for each cycle's first and last vertex: the base vertex's
    # out-neighbors, and its in-neighbors, no longer share one image
    level = materialized[3]
    vm = array("q", level.cover.vertex_map)
    target = level.cover.target
    ends = [start + length - 2 for start, length in zip(level.cycle_starts, level.cycle_lengths)]
    for start, end, first, last in zip(level.cycle_starts, ends, (1, 2, 3), (4, 5, 6)):
        vm[start], vm[end] = first, last
    cover = CoverMap(level.graph, target, vm)
    assert validate_bidirectional(cover) == [
        ("out", 0, 0, 1), ("out", 0, 0, 2), ("out", 0, 0, 3),
        ("in", 0, 0, 4), ("in", 0, 0, 5), ("in", 0, 0, 6)]
    edges = sorted({(0, start) for start in level.cycle_starts}
                   | {(start, start + 1) for start in level.cycle_starts}
                   | set(_incident_edges(level.graph, ends)))
    expected = [(u, v) for u, v in edges if not target.has_edge(vm[u], vm[v])]
    assert len(expected) >= 6
    assert validate_homomorphism(cover) == expected


# The validators as they were, one Python statement per edge: the references
# for the run-by-run scans in `chaoscope.graphs`.

def surjective_reference(g):
    has_out = bytearray(g.vertex_count)
    has_in = bytearray(g.vertex_count)
    for key in packed_keys(g):
        has_out[key >> 32] = 1
        has_in[key & 0xFFFFFFFF] = 1
    return sorted([(v, "in") for v in range(g.vertex_count) if not has_in[v]]
                  + [(v, "out") for v in range(g.vertex_count) if not has_out[v]])


def homomorphism_reference(c):
    vm = c.vertex_map
    target_keys = set(packed_keys(c.target))
    violations = []
    for key in packed_keys(c.source):
        u = key >> 32
        v = key & 0xFFFFFFFF
        if (vm[u] << 32) | vm[v] not in target_keys:
            violations.append((u, v))
    return violations


def bidirectional_reference(c):
    vm = c.vertex_map
    n = c.source.vertex_count
    out_img = array("q", [-1]) * n
    in_img = array("q", [-1]) * n
    violations = []
    for key in packed_keys(c.source):
        u = key >> 32
        v = key & 0xFFFFFFFF
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


@st.composite
def small_covers(draw):
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    paths = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 12)), max_size=4))
    edges = [(u + k, v + k) for u, v, length in paths for k in range(length)
             if max(u, v) + k < n]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=8))  # repeated ends
    edges += [(x, x) for x in draw(st.lists(vertex, max_size=3))]  # self-loops
    if draw(st.booleans()):
        # near the identity onto the graph itself, with a few more edges
        target = MaterializedGraph(n, edges + draw(st.lists(st.tuples(vertex, vertex),
                                                            max_size=3)))
        vertex_map = list(range(n))
        for x, image in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
            vertex_map[x] = image
    else:
        m = draw(st.integers(1, 5))
        image = st.integers(0, m - 1)
        target = MaterializedGraph(m, draw(st.lists(st.tuples(image, image), max_size=12)))
        vertex_map = draw(st.lists(image, min_size=n, max_size=n))
    return CoverMap(MaterializedGraph(n, edges), target, vertex_map)


def _short_cycle_covers():
    """Level 3's cover of a tower of 200 length-2 cycles at level 2, each
    wrapped into a length-4 cycle at level 3, and a seeded corruption of it:
    every run has at most two edges, the input class that runs slow down."""
    tower = document_tower(parse("\n".join([
        "cover shortcycles mode bouquet",
        "level 1 { c1 := 2 e; }",
        "level 2 { " + " ".join(f"c{i} := e + e;" for i in range(1, 201)) + " }",
        "level 3 { " + " ".join(f"c{i} := e + c{i} + e;" for i in range(1, 201)) + " }",
    ])))
    cover = materialize_graph(3, spec_for=tower.__getitem__).cover
    rng = random.Random(7)
    vm = array("q", cover.vertex_map)
    for x in rng.sample(range(len(vm)), 40):
        vm[x] = rng.randrange(cover.target.vertex_count)
    return cover, CoverMap(cover.source, cover.target, vm)


SHORT_CYCLE_COVERS = _short_cycle_covers()


def _stacked_cover():
    """Runs of lengths 3, 2 and 1 into targets 20..27 with gaps between, then
    one run of 10 into 19..28, over all three and their gaps: one overlap
    group.  Images 3v mod 4 make the last run's in-images conflict with
    the first in-images on two of the three short runs."""
    edges = ([(1 + k, 20 + k) for k in range(3)] + [(6 + k, 24 + k) for k in range(2)]
             + [(10, 27)] + [(30 + k, 19 + k) for k in range(10)])
    target = MaterializedGraph(4, [(a, b) for a in range(4) for b in range(4)])
    return CoverMap(MaterializedGraph(40, edges), target, [3 * v % 4 for v in range(40)])


def _widest_first_cover():
    """`_stacked_cover` reversed: one run of 10 into targets 19..28, then runs
    of 3 and 2 into 20..22 and 24..25.  Images 3v mod 4 make each later run
    conflict with the first on all its targets, so a target must keep the
    widest run's image, written last."""
    edges = ([(1 + k, 19 + k) for k in range(10)] + [(13 + k, 20 + k) for k in range(3)]
             + [(20 + k, 24 + k) for k in range(2)])
    target = MaterializedGraph(4, [(a, b) for a in range(4) for b in range(4)])
    return CoverMap(MaterializedGraph(40, edges), target, [3 * v % 4 for v in range(40)])


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(small_covers())
@example(SHORT_CYCLE_COVERS[0])
@example(SHORT_CYCLE_COVERS[1])
@example(_stacked_cover())
@example(_widest_first_cover())
def test_validators_equal_the_per_edge_references(cover):
    # the validators read any tiling of the edges by runs: the maximal runs,
    # those runs cut every 3 edges, and every edge alone
    for size in (None, 3, 1):
        fresh = _fresh(cover, size)
        assert validate_edge_surjective(fresh.source) == surjective_reference(fresh.source)
        assert validate_homomorphism(fresh) == homomorphism_reference(fresh)
        assert validate_bidirectional(fresh) == bidirectional_reference(fresh)


def _fresh(cover, size):
    """The same cover on new graphs, tiled as by :func:`_tiled`."""
    return CoverMap(_tiled(cover.source, size), _tiled(cover.target, size), cover.vertex_map)


def _copy(g):
    """A new graph on a copy of ``g``'s runs."""
    fresh = MaterializedGraph(g.vertex_count, [])
    fresh.edge_count, fresh._runs = g.edge_count, list(g._runs)
    return fresh


def _tiled(g, size):
    """A new graph whose runs are ``g``'s maximal runs cut every ``size``
    edges; for ``None``, a copy of them."""
    fresh = _copy(g)
    if size is not None:
        fresh._runs = [(i + a, min(size, length - a), u0 + a, v0 + a)
                       for i, length, u0, v0 in g._runs
                       for a in range(0, length, size)]
    return fresh


def _nosurj_graphs():
    tower = document_tower(parse(NOSURJ))
    return [materialize_graph(n, spec_for=tower.__getitem__).graph for n in range(4)]


def runs_reference(g):
    """Maximal runs ``(index, length, u0, v0)``, edge by edge."""
    runs = []
    for k, (u, v) in enumerate(g.edges()):
        if runs:
            i, length, u0, v0 = runs[-1]
            if (u, v) == (u0 + length, v0 + length):
                runs[-1] = (i, length + 1, u0, v0)
                continue
        runs.append((k, 1, u, v))
    return runs


def assert_runs_are_maximal(g):
    # the runs tile the edge array, each holds (u0 + k, v0 + k), and each
    # ends at a break: this determines them, and scans by slices, fast
    # enough for level 3
    step = (1 << 32) | 1
    edges = packed_keys(g)
    done = 0
    for i, length, u0, v0 in g._runs:
        assert i == done and length >= 1
        first = (u0 << 32) | v0
        assert edges[i:i + length] == array("q", range(first, first + length * step, step))
        done = i + length
        assert done == len(edges) or edges[done] - edges[done - 1] != step
    assert done == len(edges)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_covers())
def test_runs_are_the_maximal_runs_of_the_per_edge_reference(cover):
    fresh = _fresh(cover, None)
    for g in (fresh.source, fresh.target):
        assert g._runs == runs_reference(g)
        assert_runs_are_maximal(g)


def test_level_runs_are_maximal(materialized):
    # the per-edge reference takes seconds at level 3's 3.4 million edges,
    # so that level is checked by the slice properties alone
    for g in [materialized[n].graph for n in range(3)] + _nosurj_graphs():
        assert g._runs == runs_reference(g)
    for n in range(4):
        assert_runs_are_maximal(materialized[n].graph)
    assert [len(materialized[n].graph._runs) for n in range(4)] == [1, 3, 7, 10]
    runs = materialized[3].graph._runs
    assert sum(run[1] == 1 for run in runs) == 7
    assert max(run[1] for run in runs) == 3_421_638  # cycle 1, but for its two base edges
    short = _copy(SHORT_CYCLE_COVERS[0].source)
    assert short._runs == runs_reference(short)
    assert short.edge_count == 801 and max(run[1] for run in short._runs) == 2


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_covers())
def test_validators_agree_in_any_call_order(cover):
    # whichever validator runs first, the others give the same answers
    validators = (lambda c: validate_edge_surjective(c.source), validate_homomorphism,
                  validate_bidirectional)
    expected = [check(_fresh(cover, None)) for check in validators]
    for order in itertools.permutations(range(3)):
        fresh = _fresh(cover, None)
        got = {k: validators[k](fresh) for k in order}
        assert [got[k] for k in range(3)] == expected


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=30))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_graphs())
@example((3, [(0, 0), (0, 0), (2, 1), (2, 1), (2, 2)]))  # duplicates, self-loops, 1 bare
@example((5, [(1, 2), (1, 3)]))  # heads end below vertex 4
@example((1, []))
def test_graph_queries_equal_a_set_of_pairs(graph):
    n, pairs = graph
    g = MaterializedGraph(n, pairs)
    expected = set(pairs)
    assert list(g.edges()) == sorted(expected) and g.edge_count == len(expected)
    for u in range(-1, n + 2):  # u past the last head, and past the vertices
        assert g.successors(u) == sorted(v for w, v in expected if w == u)
        for v in range(-1, n + 2):
            assert g.has_edge(u, v) == ((u, v) in expected)
    assert g == MaterializedGraph(n, reversed(pairs))
    assert (g == MaterializedGraph(n + 1, pairs)) is False


# The cycles of a materialized level, walked one Python statement per edge
# and per step: materialize_graph lays them out from the spec's lengths.

def successor_reference(g):
    """Unique successor per non-base vertex, read off the explicit edges."""
    succ = array("q", [-1]) * g.vertex_count
    for u, v in g.edges():
        if u != 0:
            succ[u] = v
    return succ


def walk_reference(g, start):
    """The walk from ``start`` step by step, or None where it meets a
    vertex without a successor or does not return within vertex_count."""
    succ = successor_reference(g)
    steps, v = 1, start
    while v != 0:
        if succ[v] == -1 or steps > g.vertex_count:
            return None
        v = succ[v]
        steps += 1
    return steps


def test_level_walks_equal_the_step_by_step_walk(materialized):
    towers = [document_tower(parse(document)) for document in (NOSURJ, SHORT_CYCLES)]
    levels = [materialized[n] for n in (1, 2, 3)] + [
        materialize_graph(n, spec_for=tower.__getitem__) for tower in towers
        for n in (1, 2, 3)]
    for level in levels:
        assert ([walk_reference(level.graph, start) for start in level.cycle_starts]
                == list(level.cycle_lengths))


# A target with one long run of keys, (1, 2), (2, 3), ..., (19, 20), entered
# from a base loop at 0 and left back to it, and a source that is one path:
# one run, whose images make pieces that repeat the loop or follow that run
LONG_RUN_TARGET = MaterializedGraph(
    21, [(0, 0), (0, 1), (20, 0)] + [(k, k + 1) for k in range(1, 20)])
THROUGH = list(range(1, 21))


def _path_cover(images):
    path = MaterializedGraph(len(images), [(k, k + 1) for k in range(len(images) - 1)])
    return CoverMap(path, LONG_RUN_TARGET, images)


@pytest.mark.parametrize("images, bad", [
    ([0] * 90 + THROUGH + [0] * 90, 0),  # repeated self-loop, a whole target run
    ([0] * 90 + [5] + [0] * 90, 2),  # a repeat broken by one vertex
    ([0] * 90 + THROUGH[:-1] + [0] * 90, 1),  # leaves the target run one edge early
    ([0] * 90 + THROUGH[1:] + [0] * 90, 1),  # breaks at the first edge of a piece
    ([0] * 90 + THROUGH[:-1] + [7] + [0] * 90, 2),  # breaks at the last edge
    ([0] * 90 + THROUGH[:9] + [15] + THROUGH[10:] + [0] * 90, 2),  # mid-piece
    ([0] * 90 + THROUGH + THROUGH + [0] * 90, 1),  # a run followed twice, no edge between
    (THROUGH[5:] + [0] * 150, 0),  # the source run starts inside a piece
    ([0] * 150 + THROUGH[:8], 0),  # and ends inside one
])
def test_homomorphism_pieces_equal_the_per_edge_reference(images, bad):
    cover = _path_cover(images)
    assert cover.source._runs == [(0, len(images) - 1, 0, 1)]
    violations = validate_homomorphism(cover)
    assert violations == homomorphism_reference(cover)
    assert len(violations) == bad


def test_homomorphism_repeats_an_edge_that_is_no_loop():
    # source edges (k, k + 100) all map onto the target edge (1, 2), but for
    # one broken image; the run's images repeat a key whose ends differ
    source = MaterializedGraph(200, [(k, k + 100) for k in range(100)])
    images = [1] * 100 + [2] * 100
    images[150] = 3
    cover = CoverMap(source, LONG_RUN_TARGET, images)
    assert source._runs == [(0, 100, 0, 100)]
    assert validate_homomorphism(cover) == homomorphism_reference(cover) == [(50, 150)]


def test_path_in_level_one_maps_to_base_loops(materialized):
    level1 = materialized[1]
    # walk the whole 10-cycle: ten edges, image is ten base self-loops
    walk = [0] + list(range(1, 10)) + [0]
    assert all(level1.graph.has_edge(u, v) for u, v in zip(walk, walk[1:]))
    assert [level1.cover.vertex_map[u] for u in walk] == [0] * 11


def test_second_cycle_of_level_two_maps_onto_base_runs(materialized):
    level2 = materialized[2]
    start = level2.cycle_starts[1]
    walk = [0] + [start + t for t in range(89)] + [0]
    assert all(level2.graph.has_edge(u, v) for u, v in zip(walk, walk[1:]))
    assert [level2.cover.vertex_map[u] for u in walk] == [0] * 91


def test_first_vertex_of_third_level_second_cycle_projects_to_base(materialized):
    level3 = materialized[3]
    first_vertex = level3.cycle_starts[1]  # position 1 of the second cycle
    below = level3.cover.vertex_map[first_vertex]
    assert materialized[2].cover.vertex_map[below] == 0


def test_cycles_are_disjoint_simple_and_return_to_base(materialized):
    level = materialized[2]
    g = level.graph
    seen_overall: set[int] = set()
    for start, length in zip(level.cycle_starts, level.cycle_lengths):
        seen = [start]
        v = start
        while True:
            nxt = g.successors(v)
            assert len(nxt) == 1  # non-base vertices have a forced successor
            v = nxt[0]
            if v == 0:
                break
            seen.append(v)
        assert len(seen) == len(set(seen)) == length - 1
        assert not (set(seen) & seen_overall)
        seen_overall |= set(seen)


def test_level_three_short_cycles_are_simple_too(materialized):
    # spot check at level 3 (the first cycle's 3.4M walk lives in
    # test_level_walks_equal_the_step_by_step_walk)
    level = materialized[3]
    g = level.graph
    for i in (1, 2):
        start, length = level.cycle_starts[i], level.cycle_lengths[i]
        v, steps = start, 1
        while v != 0:
            nxt = g.successors(v)
            assert len(nxt) == 1
            v = nxt[0]
            steps += 1
        assert steps == length


def test_branching_vertices_have_single_valued_image_successors(materialized):
    level = materialized[2]
    g, cover = level.graph, level.cover
    for v in range(g.vertex_count):
        succ = g.successors(v)
        if len(succ) >= 2:
            images = {cover.vertex_map[s] for s in succ}
            assert len(images) == 1


def test_dot_export_one_line_per_edge(materialized):
    g = materialized[1].graph
    buf = io.StringIO()
    write_dot(g, buf, name="level_1")
    text = buf.getvalue()
    assert text.count("->") == g.edge_count
    assert '0 [label="v0"];' in text
    assert text.startswith("digraph level_1 {")
