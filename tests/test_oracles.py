"""Independent-oracle cross checks.

Each test here recomputes a result through a second, structurally different
route: literal expansions instead of closed forms, explicit vertex walks
instead of symbolic streams, full map sweeps instead of occurrence
arithmetic.  The two routes share nothing but the defining shapes.
"""

from __future__ import annotations

import random

from chaoscope import (
    VertexAddr,
    build_level_spec,
    cycle_length,
    document_tower,
    find_occurrences,
    lift_choices,
    materialize_graph,
    parse,
    project_addr,
)
from chaoscope.bouquet import BlockSum, Run
from test_cli import SMALL
from test_graphs import NOSURJ


def _block_prefix(formula, bs, j):
    """Edge length of block sum ``bs``'s iterations 1..j, read off its body terms."""
    half = j * (j + 1) // 2
    return sum((t.const * j + t.coef * half) * formula._cycle_len(t.cycle) for t in bs.body)


def _literal_vertices(formula):
    """Vertex at every offset of the expansion, by plain enumeration."""
    out = [(0, 0)]
    for item in formula.items:
        if isinstance(item, Run):
            blocks = [(item.cycle, item.count)]
        else:
            blocks = []
            for j in range(1, item.bound + 1):
                for term in item.body:
                    cnt = term.count_at(j)
                    if cnt:
                        blocks.append((term.cycle, cnt))
        for cycle, count in blocks:
            if cycle == 0:
                out.extend([(0, 0)] * count)
            else:
                clen = formula.lengths[cycle - 1]
                for _ in range(count):
                    out.extend((cycle, p) for p in range(1, clen))
                    out.append((0, 0))
    return out


def test_locate_matches_literal_expansion_at_level_two():
    spec = build_level_spec(2)
    for formula in spec.image_formulas:
        literal = _literal_vertices(formula)
        assert len(literal) == formula.length + 1
        for offset, expected in enumerate(literal):
            assert formula.locate(offset) == expected


def test_locate_matches_literal_expansion_sampled_at_level_three():
    rng = random.Random(13)
    spec = build_level_spec(3)
    formula = spec.image_formulas[0]  # the long one: 3_421_640 edges
    literal = _literal_vertices(spec.image_formulas[1])
    for offset, expected in enumerate(literal):
        assert spec.image_formulas[1].locate(offset) == expected
    # the long formula is sampled instead of fully enumerated
    anchor = 0
    for item in formula.items:
        if isinstance(item, BlockSum):
            for j in (1, 2, 700, 1572):
                start = _block_prefix(formula, item, j - 1)
                assert formula.locate(anchor + start + 1) == (0, 0)  # edge run
                assert formula.locate(anchor + start + j + 1) == (1, 1)
                assert formula.locate(anchor + start + j + 695) == (0, 0)
                assert formula.locate(anchor + start + j + 696) == (1, 1)
    for _ in range(500):
        offset = rng.randrange(0, formula.length + 1)
        cycle, pos = formula.locate(offset)
        if cycle:
            # walking one step forward advances the position or closes a copy
            nxt_cycle, nxt_pos = formula.locate(offset + 1)
            if pos + 1 == cycle_length(2, cycle):
                assert (nxt_cycle, nxt_pos) == (0, 0)
            else:
                assert (nxt_cycle, nxt_pos) == (cycle, pos + 1)


def test_lift_totals_match_materialized_map_sweep(materialized):
    # count preimages by sweeping the explicit level-3 vertex map
    level3, level2 = materialized[3], materialized[2]
    vm = level3.cover.vertex_map
    rng = random.Random(14)
    targets = [level2.id_to_addr(0)]
    targets += [level2.id_to_addr(rng.randrange(1, level2.graph.vertex_count))
                for _ in range(6)]
    for target in targets:
        target_id = level2.addr_to_id(target)
        # the sweep covers every level-3 vertex, the base included
        swept = sum(1 for img in vm if img == target_id)
        assert lift_choices(target, max_results=1).total == swept


def test_passes_match_the_materialized_vertex_maps(materialized):
    # each pass of a lower cycle enters it at its position 1 once, and the
    # base offsets in [1, length-1] are the ones inside no pass; on the
    # built-in tower and on two .cover towers, levels 1-3
    towers = [(materialized, build_level_spec)]
    for document in (NOSURJ, SMALL):
        spec_for = document_tower(parse(document)).__getitem__
        towers.append(([materialize_graph(n, spec_for=spec_for) for n in range(4)], spec_for))
    for levels, spec_for in towers:
        for n in (1, 2, 3):
            level, below = levels[n], levels[n - 1]
            for formula, start, length in zip(spec_for(n).image_formulas, level.cycle_starts,
                                              level.cycle_lengths):
                images = level.cover.vertex_map[start:start + length - 1]
                assert formula.passes == tuple(map(images.count, below.cycle_starts))
                assert images.count(0) == formula.length - 1 - sum(
                    p * (clen - 1) for p, clen in zip(formula.passes, formula.lengths))


def test_lift_choices_sampled_against_projection(materialized):
    rng = random.Random(15)
    level2 = materialized[2]
    for _ in range(5):
        target = level2.id_to_addr(rng.randrange(level2.graph.vertex_count))
        report = lift_choices(target, max_results=200)
        for choice in report.choices:
            assert project_addr(choice) == target


def test_orbit_matches_explicit_graph_walk(materialized):
    # drive the dynamics on raw adjacency: follow forced successors in the
    # explicit level-3 graph and project through the explicit vertex maps,
    # then compare with the symbolic orbit rows column by column
    from chaoscope import new_handle, orbit_rows

    level3, level2, level1 = materialized[3], materialized[2], materialized[1]

    def explicit_column(vid3):
        vid2 = level3.cover.vertex_map[vid3]
        vid1 = level2.cover.vertex_map[vid2]
        return [level1.id_to_addr(vid1), level2.id_to_addr(vid2),
                level3.id_to_addr(vid3)]

    rng = random.Random(16)
    for _ in range(5):
        cycle = rng.randrange(1, 4)
        length = cycle_length(3, cycle)
        pos = rng.randrange(1, length)
        steps = min(2000, length - pos - 1)
        handle = new_handle(3, cycle, pos)
        vid = level3.addr_to_id(VertexAddr(3, cycle, pos))
        for _, column in orbit_rows(handle, 3, steps - 1):
            assert column[1:] == explicit_column(vid)
            succ = level3.graph.successors(vid)
            assert len(succ) == 1
            vid = succ[0]


def test_li_yorke_witnesses_replay(materialized):
    from chaoscope import column_of, distance, li_yorke_test, random_handle, step

    rng = random.Random(17)
    for _ in range(10):
        a = random_handle(8, rng)
        b = random_handle(8, rng)
        report = li_yorke_test(a, b, horizon=4000)
        if report.proximal_witness is not None:
            t, d = report.proximal_witness
            col_a = column_of(step(a, t), report.prox_depth)
            col_b = column_of(step(b, t), report.prox_depth)
            assert all(x.is_base for x in col_a + col_b)
        if report.separation_witness is not None:
            t, d = report.separation_witness
            measured = distance(step(a, t), step(b, t))
            assert measured.exact and measured.level == d.level


def test_occurrence_scan_matches_vertex_walk():
    # brute-force route: enumerate the level-1 vertex sequence of the
    # projected path and slide a window over it looking for complete copies
    spec = build_level_spec(2)
    vertices = _literal_vertices(spec.image_formulas[0])
    copies = [s for s in range(len(vertices) - 10)
              if vertices[s] == (0, 0)
              and vertices[s + 10] == (0, 0)
              and all(vertices[s + q] == (1, q) for q in range(1, 10))]
    report = find_occurrences(1, 2, 1, 1)
    assert tuple(copies) == report.offsets
    gaps = {b - (a + 10) for a, b in zip(copies, copies[1:])}
    assert tuple(sorted(gaps)) == report.realized_gaps()
