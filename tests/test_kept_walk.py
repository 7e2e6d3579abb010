"""The kept walk: `column_of`, `next_base_time` and `distance` share one
projection walk per point, and every answer equals a walk made afresh."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope import (
    PointHandle,
    SpineExhausted,
    StructuralError,
    VertexAddr,
    base_addr,
    column_of,
    cycle_length,
    distance,
    fixed_point,
    new_handle,
    next_base_time,
    project_addr,
    step,
)
from chaoscope import dynamics
from chaoscope.analysis import DegreeValue, degree_of_column
from chaoscope.dynamics import DistanceValue


# References with no kept state: the projection loop from the spine, afresh
# on every call.

def _spine(h: PointHandle) -> VertexAddr:
    a = h.address
    return a if a.is_base else VertexAddr(h.spine_level, a.cycle, a.pos + h.offset)


def ref_column(h: PointHandle, depth: int | None = None) -> list[VertexAddr]:
    addr = _spine(h)
    walk = [addr]
    while not addr.is_base:
        addr = project_addr(addr)
        walk.append(addr)
    column = [base_addr(n) for n in range(addr.level)] + walk[::-1]
    return column[: (h.spine_level if depth is None else depth) + 1]


def ref_next_base_time(h: PointHandle, target_level: int) -> int:
    addr = _spine(h)
    while addr.level > target_level and not addr.is_base:
        addr = project_addr(addr)
    return 0 if addr.is_base else cycle_length(target_level, addr.cycle) - addr.pos


def ref_distance(a: PointHandle, b: PointHandle) -> DistanceValue:
    depth = min(a.spine_level, b.spine_level)
    col_a, col_b = ref_column(a, depth), ref_column(b, depth)
    for level in range(1, depth + 1):
        if col_a[level] != col_b[level]:
            return DistanceValue(exact=True, level=level)
    return DistanceValue(exact=False, level=depth)


def ref_degree(h: PointHandle, depth: int | None) -> DegreeValue:
    return DegreeValue(min((a.cycle for a in ref_column(h, depth) if a.cycle), default=None))


def _uniform(spine: int, cycle: int, rng: random.Random) -> PointHandle:
    return new_handle(spine, cycle, rng.randrange(1, cycle_length(spine, cycle)))


_rng = random.Random(28)
POOL = [
    # position 5 on coordinates that differ only in level or only in cycle
    new_handle(8, 1, 5), new_handle(8, 2, 5), new_handle(8, 3, 5),
    new_handle(9, 1, 5), new_handle(12, 1, 5), new_handle(2, 1, 5),
    new_handle(2, 2, 5), new_handle(1, 1, 5),
    # three handles on the one spine coordinate 8:1:12
    new_handle(8, 1, 12), step(new_handle(8, 1, 5), 7), new_handle(8, 1, 2, 10),
    fixed_point(8), fixed_point(3),
    new_handle(8, 1, 1_500_000), new_handle(12, 1, 1_500_000), new_handle(10, 1, 1_234_567),
    _uniform(12, 1, _rng), _uniform(11, 3, _rng), _uniform(6, 6, _rng), _uniform(4, 2, _rng),
]
POOL += POOL[:3]  # repeats of the very same handles


def _depth(h: PointHandle, k: int) -> int | None:
    return None if k > h.spine_level else k


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["column", "base time", "distance", "degree"]),
                          st.integers(-1, len(POOL) - 1), st.integers(0, len(POOL) - 1),
                          st.integers(0, 13)),
                min_size=1, max_size=20))
def test_every_answer_equals_a_fresh_walk(ops):
    # index -1 asks again about the previous handle
    h = POOL[0]
    for kind, i, j, k in ops:
        h = h if i < 0 else POOL[i]
        if kind == "column":
            assert column_of(h, _depth(h, k)) == ref_column(h, _depth(h, k))
        elif kind == "base time":
            target = min(k, h.spine_level)
            assert next_base_time(h, target) == ref_next_base_time(h, target)
        elif kind == "distance":
            assert distance(h, POOL[j]) == ref_distance(h, POOL[j])
        else:
            assert degree_of_column(h, _depth(h, k)) == ref_degree(h, _depth(h, k))


def test_a_hit_still_refuses_a_float_position():
    column_of(new_handle(8, 1, 5))
    with pytest.raises(StructuralError, match="address coordinates must be ints"):
        column_of(PointHandle(8, VertexAddr(8, 1, 5.0), 0))
    with pytest.raises(StructuralError, match="address coordinates must be ints"):
        next_base_time(PointHandle(8, VertexAddr(8, 1, 5.0), 0), 2)


def test_a_hit_still_reports_the_spine_exhausted():
    h = new_handle(8, 1, 5)
    length = cycle_length(8, 1)
    for offset, first_invalid in ((-10, -5), (length - 5, length - 5)):
        column_of(h)
        with pytest.raises(SpineExhausted) as raised:
            column_of(PointHandle(8, h.address, offset))
        assert raised.value.first_invalid_offset == first_invalid


def test_distance_between_unequal_spines_equals_the_reference():
    deep, shallow = new_handle(12, 1, 1_500_000), new_handle(8, 1, 1_500_000)
    column_of(deep)
    assert distance(deep, shallow) == ref_distance(deep, shallow)
    assert distance(shallow, deep) == ref_distance(shallow, deep)


@pytest.fixture
def projections(monkeypatch):
    calls = []
    real = dynamics.project_addr

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(dynamics, "project_addr", counting)
    return calls


def _walk_length(h: PointHandle) -> int:
    """Projections in one walk of ``h``: one per off-base coordinate."""
    return sum(not a.is_base for a in ref_column(h))


def test_one_query_walks_each_point_once(projections):
    h, p = new_handle(12, 1, 1_500_000), new_handle(8, 1, 1_234_567)
    expected = _walk_length(h) + _walk_length(p)
    column_of(h)
    next_base_time(h, 2)
    distance(h, p)
    column_of(p)
    assert len(projections) == expected


def test_a_base_time_projects_no_level_below_its_target(projections):
    h = new_handle(8, 1, 1_500_000)
    assert next_base_time(h, 5) == ref_next_base_time(h, 5)
    assert len(projections) <= 3
    assert min(a.level for a in projections) == 6


# A jump along the spine's cycle moves the kept walk instead of replacing it.

JUMP_STARTS = [
    new_handle(8, 1, 1_500_000), new_handle(12, 1, 1_500_000), new_handle(10, 1, 1_234_567),
    new_handle(8, 1, 5), new_handle(8, 3, 5), new_handle(4, 2, 100),
    _uniform(12, 1, random.Random(37)), _uniform(6, 6, random.Random(37)),
]


def _jump(h: PointHandle, kind: str, value: int, edge: int) -> int:
    """A small ``value`` steps, or to the end (``kind == "end"``) or the start
    of the traversal of the column's level ``value``, ``edge`` in -1..1 past it."""
    if kind == "small":
        return value
    addr = ref_column(h)[value % (h.spine_level + 1)]
    if not addr.cycle:
        return edge
    to = cycle_length(addr.level, addr.cycle) - addr.pos if kind == "end" else -addr.pos
    return to + edge


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sampled_from(JUMP_STARTS),
       st.lists(st.tuples(st.sampled_from(["small", "end", "start"]), st.integers(-40, 40),
                          st.integers(-1, 1), st.integers(0, 13)),
                min_size=1, max_size=12))
def test_jumps_on_one_spine_cycle_equal_a_fresh_walk(start, jumps):
    h = start
    for kind, value, edge, k in jumps:
        try:
            moved = step(h, _jump(h, kind, value, edge))
        except SpineExhausted:
            continue
        assert column_of(moved, _depth(moved, k)) == ref_column(moved, _depth(moved, k))
        target = min(k, moved.spine_level)
        assert next_base_time(moved, target) == ref_next_base_time(moved, target)
        assert distance(moved, h) == ref_distance(moved, h)
        assert distance(h, moved) == ref_distance(h, moved)
        h = moved


def _deepest_kept(h: PointHandle, d: int) -> int:
    """The lowest level down to which every coordinate of ``h``'s column
    stays off the base and inside its traversal over ``d`` steps."""
    level = h.spine_level
    for addr in ref_column(h)[h.spine_level - 1::-1]:
        if not addr.cycle or not 0 < addr.pos + d < cycle_length(addr.level, addr.cycle):
            break
        level = addr.level
    return level


@pytest.mark.parametrize("d", [1, -1, 1000, -1000, 10**5, 400_000])
def test_a_jump_projects_only_levels_below_the_deepest_kept_one(projections, d):
    h = new_handle(8, 1, 1_500_000)
    column_of(h)
    projections.clear()
    moved = step(h, d)
    deepest = _deepest_kept(h, d)
    assert column_of(moved) == ref_column(moved)
    assert all(a.level <= deepest for a in projections)
    assert len(projections) == sum(not a.is_base for a in ref_column(moved)[1:deepest + 1])
    if abs(d) <= 1000:  # a short jump keeps levels 4..8
        assert deepest <= 4 and len(projections) < _walk_length(moved)


@pytest.mark.parametrize("bad", [
    PointHandle(8, VertexAddr(8, 1, 5.0), 3),
    PointHandle(8, VertexAddr(8, True, 5), 3),
    PointHandle(8.0, VertexAddr(8.0, 1, 5), 3),
])
def test_a_jump_still_refuses_a_float_spine(bad):
    h = new_handle(8, 1, 5)
    column_of(h)
    with pytest.raises(StructuralError):
        column_of(bad)
    assert all(type(x) is int for a in dynamics._kept for x in a)
    for moved in (step(h, 3), step(h, 7)):
        assert column_of(moved) == ref_column(moved)


def test_a_moved_walk_is_kept_even_when_it_reaches_far_enough(projections):
    h = new_handle(8, 1, 1_500_000)
    column_of(h)
    projections.clear()
    moved = step(h, 1000)
    assert next_base_time(moved, 5) == ref_next_base_time(moved, 5)
    assert projections == [] and dynamics._kept[0] == _spine(moved)
