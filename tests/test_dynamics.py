"""Point handles: columns, stepping, distance, base-hit arithmetic."""

from __future__ import annotations

import io
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope import (
    SpineExhausted,
    StructuralError,
    PointHandle,
    VertexAddr,
    base_addr,
    base_changes,
    build_level_spec,
    column_of,
    cycle_length,
    distance,
    exhaustion_time,
    fixed_point,
    new_handle,
    next_base_time,
    orbit_rows,
    project_addr,
    random_handle,
    step,
    write_orbit_csv,
    write_orbit_jsonl,
)
from chaoscope import dynamics
from chaoscope.bouquet import check_addr
from chaoscope.dynamics import CYCLE_ONE_BAND, OrbitCursor
from chaoscope.verify import degree_corpus
from orbit_walk import WalkingCursor, rows_by_walk


def test_fixed_point_column_is_all_base():
    assert all(a.is_base for a in column_of(fixed_point(5)))


def test_fixed_point_is_fixed_under_huge_steps():
    p = fixed_point(5)
    assert column_of(step(p, 10**9)) == column_of(p)


def test_fixed_point_is_the_base_handle():
    for spine in (0, 5, 21):
        assert fixed_point(spine) == new_handle(spine, 0, 0) == \
            PointHandle(spine, base_addr(spine), 0)
    # a handle built unchecked past the address levels still gets every level
    assert column_of(PointHandle(30, base_addr(30), 0)) == [base_addr(n) for n in range(31)]
    bad = {-1: "negative level in -1:0:0",
           22: "level 22 is past 21, the deepest level an address can have"}
    for spine, message in bad.items():
        for make in (fixed_point, lambda s: new_handle(s, 0, 0)):
            with pytest.raises(StructuralError) as err:
                make(spine)
            assert str(err.value) == message


SMALL = st.integers(0, 2)


@settings(derandomize=True, database=None, max_examples=300)
@given(st.tuples(SMALL, st.tuples(SMALL, SMALL, SMALL), st.sampled_from([0, 1, 0.0, True])),
       st.tuples(SMALL, st.tuples(SMALL, SMALL, SMALL), st.sampled_from([0, 1, 0.0, True])))
def test_handles_are_equal_exactly_when_their_fields_are(f, g):
    a = PointHandle(f[0], VertexAddr(*f[1]), f[2])
    b = PointHandle(g[0], VertexAddr(*g[1]), g[2])
    assert (a == b) == (f == g) and (a != b) == (f != g)
    assert hash(a) == hash(f) and a == f  # a handle is the tuple of its fields
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-digit limit")
def test_handle_text_is_unchanged():
    big = 10**5000
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the library's callers keep Python's default
    try:
        h = PointHandle(3, VertexAddr(3, 1, 5), 7)
        assert str(h) == "3:1:5@7"
        assert repr(h) == ("PointHandle(spine_level=3, "
                           "address=VertexAddr(level=3, cycle=1, pos=5), offset=7)")
        assert PointHandle(3, VertexAddr(3, 1, 5)).offset == 0
        far = PointHandle(3, VertexAddr(3, 1, big), 0)
        assert str(far) == "3:1:a 16,610-bit integer@0"
        assert repr(far) == ("PointHandle(spine_level=3, address=VertexAddr(level=3, "
                             "cycle=1, pos=a 16,610-bit integer), offset=0)")
        assert h.to_json() == {"spine_level": 3, "cycle": 1, "pos": "5", "offset": "7"}
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("h", [
    PointHandle(8, VertexAddr(8, 1, 5.0), 0),
    PointHandle(8, VertexAddr(8, 1, 5), 0.0),
    PointHandle(8, VertexAddr(8, True, 5), 0),
], ids=["float position", "float offset", "bool cycle"])
@pytest.mark.parametrize("kept", [False, True], ids=["miss", "hit"])
def test_a_float_or_bool_coordinate_is_refused_on_a_miss_and_a_hit(h, kept):
    if kept:  # keep the walk of the equal, all-int coordinate 8:1:5
        column_of(new_handle(8, 1, 5))
    for query in (lambda: column_of(h), lambda: next_base_time(h, 2),
                  lambda: distance(h, fixed_point(8))):
        with pytest.raises(StructuralError, match="address coordinates must be ints"):
            query()


FLOAT_CYCLE = PointHandle(8, VertexAddr(8, 1.0, 5), 0)


@pytest.mark.parametrize("query", [
    lambda: column_of(FLOAT_CYCLE),
    lambda: next_base_time(FLOAT_CYCLE, 2),
    lambda: exhaustion_time(FLOAT_CYCLE),
    lambda: step(FLOAT_CYCLE, 1),
    lambda: step(new_handle(8, 1, 5), 2.0),
    lambda: new_handle(8, 1, 5, 2.0),
], ids=["column", "base time", "exhaustion", "step", "float delta", "float offset"])
def test_every_door_refuses_a_float_cycle_or_offset(query):
    with pytest.raises(StructuralError, match="address coordinates must be ints"):
        query()


def test_cycle_length_refuses_a_cycle_that_is_not_an_int():
    for cycle in (1.0, True):
        with pytest.raises(StructuralError, match="has cycles 1..8"):
            cycle_length(8, cycle)


def test_a_handle_is_checked_once_where_it_enters(monkeypatch):
    # new_handle checks the address; the walk's one check of the handle is
    # its spine position, so no query re-checks it through check_addr
    h, p = new_handle(12, 1, 1_500_000), new_handle(8, 1, 1_234_567)
    calls = []
    real = dynamics.check_addr
    monkeypatch.setattr(dynamics, "check_addr", lambda a: calls.append(a) or real(a))
    column_of(h)
    next_base_time(h, 2)
    distance(h, p)
    for d in (1, -1, 1000, 10**12):
        column_of(step(h, d))
    assert calls == []


def test_readme_library_example():
    h = new_handle(8, cycle=1, pos=1_500_000)
    assert next_base_time(h, 2) == 96
    assert [(t, str(col[2])) for t, col in base_changes(h, 2, 800)] == \
        [(0, "2:1:599"), (96, "2:0:0"), (97, "2:1:1"), (791, "2:0:0")]
    assert [str(col[2]) for _, col in orbit_rows(h, 2, 97)][-3:] == \
        ["2:1:694", "2:0:0", "2:1:1"]


def test_fixed_points_at_different_depths_are_indistinguishable():
    d = distance(fixed_point(5), fixed_point(9))
    assert not d.exact
    assert d.level == 5


def test_column_examples():
    h = new_handle(2, 1, 1)
    assert column_of(h) == [base_addr(0), base_addr(1), VertexAddr(2, 1, 1)]
    assert column_of(step(h, 1))[1] == VertexAddr(1, 1, 1)
    assert column_of(new_handle(2, 2, 7))[1] == base_addr(1)


def test_column_depth_slice():
    h = new_handle(3, 1, 5)
    assert len(column_of(h, 1)) == 2


def test_columns_cohere_under_projection():
    rng = random.Random(3)
    for _ in range(200):
        h = random_handle(6, rng, reserve=10**3)
        column = column_of(step(h, rng.randrange(0, 500)))
        for level in range(1, len(column)):
            assert project_addr(column[level]) == column[level - 1]


def _literal_chain(h):
    """The column by projecting every level down to 0, the base included."""
    addr = h.address if h.address.is_base else VertexAddr(
        h.spine_level, h.address.cycle, h.address.pos + h.offset)
    chain = [addr]
    while addr.level > 0:
        addr = project_addr(addr)
        chain.append(addr)
    return chain[::-1]


def _handles_on_every_cycle(rng):
    """Per spine 1-12: the fixed point, and on every cycle a uniform handle
    and one at a small position; cycle 1 also gets a band handle."""
    for spine in range(1, 13):
        yield fixed_point(spine)
        for cycle in range(1, spine + 1):
            length = cycle_length(spine, cycle)
            yield new_handle(spine, cycle, rng.randrange(1, length))
            # on a higher cycle the shallow coordinates sit on the base
            yield new_handle(spine, cycle, rng.randrange(1, min(length, 10**6)))
            if cycle == 1 and length > CYCLE_ONE_BAND[1]:
                yield new_handle(spine, 1, rng.randrange(*CYCLE_ONE_BAND))


def test_base_short_circuit_matches_the_literal_chain():
    seen_base_below_spine = 0
    for h in _handles_on_every_cycle(random.Random(18)):
        chain = _literal_chain(h)
        assert column_of(h) == chain
        seen_base_below_spine += any(a.is_base for a in chain[1:-1])
        for level, addr in enumerate(chain):
            expected = 0 if addr.is_base else cycle_length(level, addr.cycle) - addr.pos
            assert next_base_time(h, level) == expected
    assert seen_base_below_spine > 100


def test_base_addresses_are_shared_within_the_address_range():
    for level in range(22):
        assert base_addr(level) is base_addr(level) == VertexAddr(level, 0, 0)
    for level in (-1, 22):
        assert base_addr(level) == VertexAddr(level, 0, 0)
        with pytest.raises(StructuralError):
            check_addr(base_addr(level))


def test_exhaustion_time_is_cycle_length_minus_position():
    assert exhaustion_time(new_handle(2, 1, 1)) == 694
    assert exhaustion_time(fixed_point(3)) is None


def test_step_past_exhaustion_raises_with_offset():
    h = new_handle(2, 1, 1)
    assert step(h, 693).offset == 693
    with pytest.raises(SpineExhausted) as err:
        step(h, 694)
    assert err.value.first_invalid_offset == 694


def test_exhaustion_offset_is_the_first_invalid_one_for_any_step():
    h = new_handle(2, 1, 5)
    assert exhaustion_time(h) == 690
    for delta, first_invalid in ((10**12, 690), (-10, -5)):
        with pytest.raises(SpineExhausted) as err:
            step(h, delta)
        assert err.value.first_invalid_offset == first_invalid
        assert f"offset {delta} " in str(err.value)  # the message names the request


def test_backward_validity_bound():
    h = new_handle(2, 1, 5)
    assert step(h, -4).offset == -4  # position 1, still valid
    with pytest.raises(SpineExhausted):
        step(h, -5)


def test_step_is_additive_and_invertible():
    rng = random.Random(4)
    for _ in range(300):
        h = random_handle(8, rng)
        d1 = rng.randrange(0, 10**5)
        d2 = rng.randrange(0, 10**5)
        assert step(h, d1 + d2) == step(step(h, d1), d2)
        assert step(step(h, d1), -d1) == h


def test_distance_exact_at_first_differing_level():
    a = new_handle(3, 1, 1)
    b = new_handle(3, 1, 2)
    d = distance(a, b)
    assert d.exact
    assert 1 <= d.level <= 3


def test_distance_to_fixed_point_detects_spine_difference():
    d = distance(new_handle(2, 1, 1), fixed_point(2))
    assert d.exact and d.level == 2


def test_distance_exact_at_level_three():
    # (3,1,1) projects to the base at levels 0..2, so the first difference
    # from the fixed point is the level-3 coordinate itself
    d = distance(new_handle(3, 1, 1), fixed_point(3))
    assert d.exact and d.level == 3


def test_identical_handles_have_no_witnessed_difference():
    h = new_handle(4, 1, 7)
    d = distance(h, h)
    assert not d.exact
    assert d.level == 4


def test_next_base_time_examples():
    assert next_base_time(new_handle(1, 1, 3), 1) == 7
    assert next_base_time(new_handle(2, 1, 2), 1) == 9
    assert next_base_time(new_handle(2, 2, 7), 1) == 0
    assert next_base_time(fixed_point(6), 3) == 0


def test_next_base_time_never_passes_exhaustion():
    # at the exhaustion offset the spine, so every level below it, is at the
    # base; positions near both cycle ends included
    rng = random.Random(31)
    for spine in range(1, 9):
        for cycle in range(1, spine + 1):
            last = cycle_length(spine, cycle) - 1
            positions = {1, last}
            for _ in range(4):
                positions.add(rng.randint(1, min(last, 300)))
                positions.add(rng.randint(max(1, last - 300), last))
            for pos in positions:
                h = new_handle(spine, cycle, pos)
                ex = exhaustion_time(h)
                assert next_base_time(h, spine) == ex
                for level in range(spine):
                    assert next_base_time(h, level) <= ex


def test_next_base_time_is_the_first_hit():
    rng = random.Random(5)
    scanned = 0
    for _ in range(50):
        h = random_handle(5, rng, band=(1, 10**4), reserve=10**5)
        m = rng.randrange(1, 4)
        d = next_base_time(h, m)
        assert column_of(step(h, d), m)[m].is_base
        if d <= 1500:  # scan the whole gap only when it is desk-sized
            cursor = WalkingCursor(h)
            for t in range(d):
                assert not cursor.column[m].is_base
                cursor.advance()
            scanned += 1
    assert scanned >= 10


def test_base_gap_bound_along_orbits():
    rng = random.Random(6)
    bound1 = cycle_length(1, 1)
    bound2 = cycle_length(2, 1)
    for _ in range(20):
        h = random_handle(8, rng)
        t = 0
        for _ in range(10):
            d = next_base_time(step(h, t), 1)
            assert d <= bound1
            d2 = next_base_time(step(h, t), 2)
            assert d2 <= bound2
            t += max(d, 1) + 1


def test_cursor_agrees_with_random_access():
    rng = random.Random(7)
    for _ in range(5):
        h = random_handle(6, rng, band=(1, 10**4), reserve=10**5)
        cursor = OrbitCursor(h)
        for t in range(1000):
            assert cursor.column == column_of(step(h, t))
            cursor.advance()


def test_cursor_raises_at_spine_base_hit():
    h = new_handle(1, 1, 8)
    cursor = OrbitCursor(h)
    cursor.advance()
    for _ in range(2):  # a later call raises again, at the same offset
        with pytest.raises(SpineExhausted) as err:
            cursor.advance()
        assert err.value.first_invalid_offset == 2


def _rows_until_exhausted(rows):
    """The rows a scan yields, and the first invalid offset if it raises."""
    seen = []
    try:
        for t, column in rows:
            seen.append((t, column))
    except SpineExhausted as exc:
        return seen, exc.first_invalid_offset
    return seen, None


def test_orbit_rows_equal_the_walking_cursor_at_every_depth():
    rng = random.Random(24)
    cases = [(fixed_point(spine), 500) for spine in (2, 8, 12)]
    for spine in (5, 8, 12):  # cycle 1, inside its position band
        cases.append((random_handle(spine, rng, cycle_one_weight=1.0), 2000))
    for spine in (2, 4, 8, 12):  # small positions, half of them on higher cycles
        cases += [(h, 1000) for h in degree_corpus(2, spine=spine, seed=spine)]
    for spine in range(1, 5):  # the last steps before the spine's base hit
        for cycle in range(1, spine + 1):
            length = cycle_length(spine, cycle)
            cases += [(new_handle(spine, cycle, pos), 400)
                      for pos in {length - 1, max(1, length - 40), max(1, length - 300)}]
    exhausted = 0
    for h, horizon in cases:
        walked, offset = _rows_until_exhausted(rows_by_walk(h, h.spine_level, horizon))
        exhausted += offset is not None
        for depth in range(h.spine_level + 1):
            expected = [(t, column[: depth + 1]) for t, column in walked]
            assert _rows_until_exhausted(orbit_rows(h, depth, horizon)) == (expected, offset)
    assert exhausted >= 20
    # levels 1 and 2 of 8:3:5 sit at the base for the handle's whole life
    h = new_handle(8, 3, 5)
    cursor, walking = OrbitCursor(h), WalkingCursor(h)
    for _ in range(10**4):
        cursor.advance()
        walking.advance()
        assert cursor.column == walking.column
    assert cursor.column[2].is_base and cursor.time == walking.time


def test_spine_extension_by_lift_survives_exhaustion():
    # the documented escape hatch: lift the initial address one level up,
    # re-seed at the same offset, and keep stepping where the old spine ends
    from chaoscope import lift_choices

    h = new_handle(2, 1, 690)
    assert exhaustion_time(h) == 5
    report = lift_choices(h.address, max_results=500)
    extended = None
    for choice in report.choices:
        candidate = new_handle(3, choice.cycle, choice.pos, h.offset)
        if exhaustion_time(candidate) > 100:
            extended = candidate
            break
    assert extended is not None
    for t in range(5):  # identical columns while the short spine is valid
        assert column_of(step(extended, t), 2) == column_of(step(h, t))
    with pytest.raises(SpineExhausted):
        step(h, 5)
    beyond = step(extended, 5)
    assert column_of(beyond, 2)[2] == base_addr(2)  # the old spine's base-hit
    assert not column_of(step(extended, 100))[3].is_base


def test_spine_sixteen_work_builds_no_level_seventeen(monkeypatch):
    # level 17's cycle lengths (about 398,000 bits) come from formulas over
    # level 16's cycles; spine-16 work, and spec 16 itself, need none of them
    from chaoscope import bouquet

    widest = []
    real_init = bouquet.Formula.__init__

    def recording_init(self, items, lengths):
        widest.append(len(lengths))
        real_init(self, items, lengths)

    monkeypatch.setattr(bouquet.Formula, "__init__", recording_init)
    build_level_spec.cache_clear()
    h = new_handle(16, 1, 1_500_000)
    column_of(h)
    OrbitCursor(h).advance()
    random_handle(16, random.Random(16))
    build_level_spec(16)  # as the query benchmark's set-up does
    assert max(widest) == 15  # level 16's formulas, over level 15's cycles
    assert build_level_spec.cache_info().currsize == 17  # specs 0..16


def test_random_handles_are_reproducible():
    a = [str(random_handle(8, random.Random(42))) for _ in range(5)]
    b = [str(random_handle(8, random.Random(42))) for _ in range(5)]
    assert a == b


def test_orbit_csv_matches_expansion():
    buf = io.StringIO()
    write_orbit_csv(buf, new_handle(2, 1, 1), depth=1, horizon=3)
    assert buf.getvalue().splitlines() == [
        "t,cycle_0,pos_0,cycle_1,pos_1",
        "0,0,0,0,0",
        "1,0,0,1,1",
        "2,0,0,1,2",
        "3,0,0,1,3",
    ]


def test_orbit_jsonl_round_trips():
    import json

    buf = io.StringIO()
    write_orbit_jsonl(buf, new_handle(2, 1, 1), depth=2, horizon=2)
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert rows[0] == {"t": 0, "column": [[0, "0"], [0, "0"], [1, "1"]]}
    assert rows[2]["column"][1] == [1, "2"]
