"""Materialized graphs, cover maps, and the three cover-axiom validators."""

from __future__ import annotations

import io
import random
from array import array

import pytest

from chaoscope import (
    CoverMap,
    MaterializedGraph,
    StructuralError,
    document_tower,
    graph_stats,
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


def test_bidirectional_violation_on_branching_vertex():
    # base vertex branches to 1 and 2; their images differ
    source = MaterializedGraph(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    target = MaterializedGraph(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    broken = CoverMap(source, target, [0, 1, 2])
    out = validate_bidirectional(broken)
    assert ("out", 0, 1, 2) in out or ("out", 0, 2, 1) in out


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


def test_materialized_edges_are_strictly_ascending(materialized):
    # materialize_graph does not sort its edges: the order has to come out
    # of the construction, length-2 cycles included
    for n in range(4):
        assert _strictly_ascending(list(materialized[n].graph._edges))
    tower = document_tower(parse(SHORT_CYCLES))
    level = materialize_graph(3, spec_for=tower.__getitem__)
    assert 2 in level.cycle_lengths
    g = level.graph
    assert _strictly_ascending(list(g._edges))
    assert MaterializedGraph(g.vertex_count, g.edges()) == g
    assert validate_edge_surjective(g) == []
    assert validate_homomorphism(level.cover) == []


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
    # spot check at level 3 (the first cycle's 3.4M walk lives in the
    # acceptance battery's length oracle)
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


def test_stats_record_fields(materialized):
    level = materialized[2]
    record = graph_stats(level.graph, 2, level.cycle_lengths)
    assert record == {"level": 2, "vertex_count": 784, "edge_count": 786,
                      "cycle_lengths": ["695", "90"]}
