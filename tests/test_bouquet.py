"""Symbolic tower: recurrences, formulas, projections, lifts, scans."""

from __future__ import annotations

import random
import sys
from array import array
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chaoscope import bouquet
from chaoscope import (
    BlockSum,
    BlockTerm,
    BudgetExceeded,
    ChaoscopeError,
    Formula,
    LevelSpec,
    PointHandle,
    Run,
    SpineExhausted,
    StructuralError,
    VertexAddr,
    base_addr,
    base_changes,
    build_level_spec,
    column_of,
    cycle_length,
    document_tower,
    find_occurrences,
    level_spec_json,
    lift_choices,
    materialize_graph,
    mixing_gap_report,
    new_handle,
    next_base_time,
    orbit_rows,
    parse,
    project_addr,
    random_handle,
    step,
)

KNOWN_LENGTHS = {(1, 1): 10, (2, 1): 695, (2, 2): 90,
                 (3, 1): 3_421_640, (3, 2): 182, (3, 3): 12_560}


@pytest.mark.parametrize("key,expected", sorted(KNOWN_LENGTHS.items()))
def test_known_cycle_lengths(key, expected):
    assert cycle_length(*key) == expected


def test_known_k_values():
    assert build_level_spec(0).k_value == 2
    assert build_level_spec(1).k_value == 22
    assert build_level_spec(2).k_value == 1572


def test_level_zero_spec_is_empty_and_level_one_is_ten_base_edges():
    spec = build_level_spec(0)
    assert spec.cycle_lengths == () and spec.image_formulas == ()
    assert build_level_spec(1).image_formulas[0].items == (Run(0, 10),)


def test_level_four_first_cycle_against_independent_summation():
    # direct closed form of the block pattern, written out separately from
    # the Formula machinery
    spec3 = build_level_spec(3)
    lengths, k = spec3.cycle_lengths, spec3.k_value
    by_hand = (k * (k + 1)) // 2 + 2 * lengths[0] * k + 2 + 2 * sum(lengths[1:])
    assert cycle_length(4, 1) == by_hand
    assert 7.0e13 < by_hand < 7.1e13
    # literal term-by-term summation at level <= 3 where expansion is cheap
    literal = sum(j + 2 * 695 for j in range(1, 1573)) + 2 + 2 * 90
    assert cycle_length(3, 1) == literal


def test_formulas_start_and_end_with_base_edges():
    for n in range(1, 14):
        for formula in build_level_spec(n).image_formulas:
            runs_first = formula.items[0]
            runs_last = formula.items[-1]
            if isinstance(runs_first, BlockSum):
                assert runs_first.body[0].cycle == 0
            else:
                assert runs_first.cycle == 0
            assert isinstance(runs_last, Run) and runs_last.cycle == 0


def test_first_cycle_dominates_every_level():
    for n in range(2, 13):
        lengths = build_level_spec(n).cycle_lengths
        assert all(lengths[0] > other for other in lengths[1:])


def test_formula_length_preserved_by_k_identity():
    for n in range(1, 8):
        spec = build_level_spec(n)
        assert spec.k_value == 2 * (1 + sum(spec.cycle_lengths))


def test_cycle_length_bounds_checked():
    with pytest.raises(StructuralError):
        cycle_length(2, 3)
    with pytest.raises(StructuralError):
        cycle_length(3, 0)


# -- locate / project -------------------------------------------------------

def test_block_locate_matches_literal_expansion():
    # expand a small block sum literally and compare every offset
    for body, base_edges in [
            ((BlockTerm(0, 0, 1), BlockTerm(1, 2, 0)), lambda j: j),
            # the same length at every iteration: b == 0
            ((BlockTerm(0, 1, 0), BlockTerm(1, 2, 0)), lambda j: 1)]:
        formula = Formula([BlockSum(5, body), Run(0, 1)], lengths=(10,))
        offsets = []
        for j in range(1, 6):
            offsets.extend([(0, 0)] * base_edges(j))
            for _ in range(2):
                offsets.extend((1, p) for p in range(1, 10))
                offsets.append((0, 0))
        offsets.append((0, 0))
        assert formula.length == len(offsets)
        for p, expected in enumerate(offsets, start=1):
            assert formula.locate(p) == expected


@st.composite
def small_formulas(draw):
    """Formulas over 0-3 source cycles of length 2-7: runs, and block sums
    whose iterations may be empty (an all-zero body gets a base edge)."""
    lengths = draw(st.lists(st.integers(2, 7), max_size=3))
    cycles = st.integers(0, len(lengths))
    term = st.builds(BlockTerm, cycles, st.integers(0, 3), st.integers(0, 2))

    def block_sum(bound, body):
        if not any(t.const or t.coef for t in body):
            body.append(BlockTerm(0, 1, 0))
        return BlockSum(bound, tuple(body))

    item = st.one_of(
        st.builds(Run, cycles, st.integers(1, 4)),
        st.builds(block_sum, st.integers(1, 6), st.lists(term, min_size=1, max_size=3)))
    return Formula(draw(st.lists(item, min_size=1, max_size=4)), lengths)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_formulas())
def test_formula_queries_match_the_literal_walk(formula):
    # the vertex at every offset, edge by edge over iter_runs()
    walk = [(0, 0)]
    for run in formula.iter_runs():
        clen = formula.lengths[run.cycle - 1] if run.cycle else 1
        for _ in range(run.count):
            walk.extend((run.cycle, p) for p in range(1, clen))
            walk.append((0, 0))
    assert [formula.locate(o) for o in range(formula.length + 1)] == walk
    hits: dict[tuple[int, int], list[int]] = {}
    for o in range(1, formula.length):
        hits.setdefault(walk[o], []).append(o)
    for cycle in range(len(formula.lengths) + 1):
        for pos in range(1, formula.lengths[cycle - 1]) if cycle else (0,):
            expected = hits.get((cycle, pos), [])
            assert list(formula.iter_occurrences(cycle, pos)) == expected
            assert formula.count_occurrences(cycle) == len(expected)
    # next_off_base from every offset, traversal boundaries included
    off_base = [o for o in range(1, formula.length) if walk[o] != (0, 0)]
    assert [formula.next_off_base(o) for o in range(formula.length + 1)] == \
        [next((q for q in off_base if q > o), None) for o in range(formula.length + 1)]


BAD_FORMULAS = [
    ([], (), "a formula needs at least one term"),
    ([Run(0, 1), Run(2, 1)], (5,), "formula references cycle 2 of a 1-cycle level"),
    ([BlockSum(3, (BlockTerm(0, 1, 0), BlockTerm(2, 1, 1)))], (5,),
     "formula references cycle 2 of a 1-cycle level"),
    # a zero-length cycle repeats a prefix sum, in a run or in a block body
    ([Run(0, 1), Run(1, 1)], (0,), "prefix sums must be strictly increasing"),
    ([Run(0, 1), BlockSum(2, (BlockTerm(1, 1, 0),))], (0,),
     "prefix sums must be strictly increasing"),
    # of two bad items the first in item order wins ...
    ([Run(3, 1), BlockSum(2, (BlockTerm(2, 1, 0),))], (5,),
     "formula references cycle 3 of a 1-cycle level"),
    # ... and a cycle error comes before the prefix check, even a later one
    ([Run(0, 1), Run(1, 1), Run(2, 1)], (0,), "formula references cycle 2 of a 1-cycle level"),
    # a zero-length first item: a formula of length 0, or an end repeating the start
    ([Run(1, 1)], (0,), "prefix sums must be strictly increasing"),
    ([Run(1, 1), Run(0, 2)], (0,), "prefix sums must be strictly increasing"),
]


@pytest.mark.parametrize("items,lengths,message", BAD_FORMULAS)
def test_formula_construction_errors(items, lengths, message):
    with pytest.raises(StructuralError) as err:
        Formula(items, lengths)
    assert str(err.value) == message


def test_next_off_base_skips_edges_and_boundaries():
    edges = Formula([Run(0, 3), BlockSum(4, (BlockTerm(0, 1, 1),)), Run(0, 2)], lengths=(5,))
    assert [edges.next_off_base(o) for o in range(edges.length + 1)] == [None] * (edges.length + 1)
    # e, c1 (length 3), c1, e: offsets 2, 3 and 5, 6 are off the base
    formula = Formula([Run(0, 1), Run(1, 2), Run(0, 1)], lengths=(3,))
    assert [formula.next_off_base(o) for o in range(formula.length + 1)] == \
        [2, 2, 3, 5, 5, 6, None, None, None]


# Block bodies with b > 1: the per-iteration length grows by a whole cycle.
WIDE_BLOCKS = """cover wide mode bouquet
level 1 { c1 := 10 e; }
level 2 { c1 := sum(j=1..k){ 2 e + j c1 } + e; c2 := 7 e; }
level 3 { c1 := sum(j=1..k){ 3 e + j c1 + j c2 } + e; c2 := e + 2 c2 + e; c3 := 50 e; }
"""


def _block_prefix(formula, bs, j):
    """Edge length of block sum ``bs``'s iterations 1..j, read off its body
    terms: the reference for the formula's compiled block constants."""
    half = j * (j + 1) // 2
    return sum((t.const * j + t.coef * half) * formula._cycle_len(t.cycle) for t in bs.body)


def _block_index_by_bisection(formula, bs, r):
    """Smallest j with _block_prefix(bs, j) >= r: galloping, then bisection."""
    lo = hi = 1
    while _block_prefix(formula, bs, hi) < r:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if _block_prefix(formula, bs, mid) >= r:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _locate_by_bisection(formula, offset):
    """formula.locate by a walk over the items and a bisection over
    _block_prefix: no root, no precomputed starts or coefficients."""
    if offset == 0:
        return (0, 0)
    start = 0
    for item in formula.items:
        if isinstance(item, BlockSum):
            length = _block_prefix(formula, item, item.bound)
        else:
            length = item.count * formula._cycle_len(item.cycle)
        if offset <= start + length:
            break
        start += length
    r = offset - start
    if isinstance(item, BlockSum):
        j = _block_index_by_bisection(formula, item, r)
        r -= _block_prefix(formula, item, j - 1)
        runs = [(t.cycle, t.count_at(j)) for t in item.body]
    else:
        runs = [(item.cycle, item.count)]
    for cycle, count in runs:
        clen = formula._cycle_len(cycle)
        if r <= count * clen:
            pos = r % clen if cycle else 0
            return (cycle, pos) if pos else (0, 0)
        r -= count * clen
    raise AssertionError("offset past the item")


def _block_sums():
    """(formula, item index) of every block sum in the formulas of the
    built-in levels 1-16 and of WIDE_BLOCKS."""
    formulas = [f for n in range(1, 17) for f in build_level_spec(n).image_formulas]
    formulas += [f for spec in document_tower(parse(WIDE_BLOCKS))
                 for f in spec.image_formulas]
    for formula in formulas:
        for idx, item in enumerate(formula.items):
            if isinstance(item, BlockSum):
                yield formula, idx


def test_block_index_is_exact_and_one_step_from_its_estimate():
    rng = random.Random(16)
    wide = 0
    for formula, idx in _block_sums():
        bs, block = formula.items[idx], formula._blocks[idx]
        _, b, c1, fast_bits = block
        wide += b > 1
        prefix = lambda j: _block_prefix(formula, bs, j)  # noqa: E731
        offsets = {1}
        for j in {1, 2, 3, rng.randrange(1, bs.bound + 1), bs.bound - 1, bs.bound}:
            offsets.update((prefix(j) - 1, prefix(j), prefix(j) + 1))
        # both sides of 8*b*r = c1, and of the last offset 2r // c1 estimates
        eighth = c1 // (8 * b)
        offsets.update((eighth - 1, eighth, eighth + 1))
        offsets.update((2 ** fast_bits - 1, 2 ** fast_bits, 2 ** fast_bits + 1))
        for r in sorted(offsets):
            if not 1 <= r <= prefix(bs.bound):
                continue
            j, before = formula._block_iteration(block, r)
            if j.bit_length() <= 256:
                assert j == _block_index_by_bisection(formula, bs, r)
            else:  # bisection would take thousands of full-width steps
                assert prefix(j - 1) < r <= prefix(j)
            assert before == prefix(j - 1)
            # the correction loop takes at most one step, upwards
            assert 0 <= j - formula._block_root(block, r) <= 1
    assert wide >= 2


def _up_to_bits(top, low=0):
    """Integers from ``low`` up to ``2**n`` for a drawn ``n <= top``: every scale."""
    return st.integers(0, top).flatmap(lambda n: st.integers(low, max(low, 2 ** n)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_up_to_bits(1024), _up_to_bits(256, low=2), _up_to_bits(200, low=1), st.data())
def test_block_root_is_never_above_the_index_and_at_most_one_below(a, b, bound, data):
    # one base-edge block term, a + b*j edges at iteration j, between base edges
    formula = Formula([Run(0, 1), BlockSum(bound, (BlockTerm(0, a, b),)), Run(0, 1)], ())
    bs, block = formula.items[1], formula._blocks[1]
    assert block[:2] == (a, b)
    _, _, c1, fast_bits = block
    prefix = lambda j: _block_prefix(formula, bs, j)  # noqa: E731
    total = prefix(bound)
    offsets = {data.draw(_up_to_bits(total.bit_length(), low=1).map(lambda r: min(r, total)))}
    # both sides of the fast estimate's reach, and of 8*b*r = c1
    offsets.update(c1 // (8 * b) + d for d in (-1, 0, 1))
    if fast_bits >= 0:
        offsets.update(2 ** fast_bits + d for d in (-1, 0, 1))
    for r in offsets:
        if not 1 <= r <= total:
            continue
        j, before = formula._block_iteration(block, r)
        assert prefix(j - 1) < r <= prefix(j)
        assert before == prefix(j - 1)
        assert 0 <= j - formula._block_root(block, r) <= 1


def test_band_column_takes_no_wide_square_root(monkeypatch):
    widths = []
    real_isqrt = bouquet.isqrt

    def recording_isqrt(n):
        widths.append(n.bit_length())
        return real_isqrt(n)

    monkeypatch.setattr(bouquet, "isqrt", recording_isqrt)
    # top-level discriminant: about 199,000 bits; the offset: 21 bits
    band = column_of(new_handle(16, 1, 1_500_000))
    assert max(widths, default=0) <= 256
    # a position uniform over the cycle still takes the full-width root
    widths.clear()
    pos = random.Random(10).randrange(1, cycle_length(10, 1))
    uniform = column_of(new_handle(10, 1, pos))
    assert max(widths) > 3000  # the top discriminant has about 3,100 bits
    for column in (band, uniform):
        for lower, upper in zip(column, column[1:]):
            if upper.is_base:
                continue
            formula = build_level_spec(upper.level).image_formulas[upper.cycle - 1]
            assert (lower.cycle, lower.pos) == _locate_by_bisection(formula, upper.pos)


def test_project_examples():
    assert project_addr(VertexAddr(2, 2, 7)) == base_addr(1)
    assert project_addr(VertexAddr(2, 1, 2)) == VertexAddr(1, 1, 1)
    assert project_addr(base_addr(9)) == base_addr(8)


def test_project_position_out_of_range():
    with pytest.raises(StructuralError):
        project_addr(VertexAddr(2, 2, 90))  # position 90 is the base again


BAD_ADDRESSES = [
    (VertexAddr(3, 1, 2.5),
     "address coordinates must be ints: VertexAddr(level=3, cycle=1, pos=2.5)"),
    (VertexAddr(3.0, 1, 2),
     "address coordinates must be ints: VertexAddr(level=3.0, cycle=1, pos=2)"),
    (VertexAddr(-1, 0, 0), "negative level in -1:0:0"),
    (VertexAddr(3, 0, 5), "base address must have pos 0: 3:0:5"),
    (VertexAddr(22, 0, 0), "level 22 is past 21, the deepest level an address can have"),
    (VertexAddr(3, 4, 1), "cycle 4 does not exist at level 3"),
    (VertexAddr(3, -1, 1), "cycle -1 does not exist at level 3"),
    (VertexAddr(3, 2, 0), "position 0 outside [1, 181] on cycle 2 of level 3"),
    (VertexAddr(3, 2, 182), "position 182 outside [1, 181] on cycle 2 of level 3"),
    # a cycle address reads the spec of its level, and spec 22 is past the limit
    (VertexAddr(22, 1, 1), "level 22 exceeds the practical limit 21; "
                           "cycle lengths roughly double in bit size per level"),
]


@pytest.mark.parametrize("addr,message", BAD_ADDRESSES, ids=str)
def test_bad_address_gives_one_message_through_check_and_projection(addr, message):
    with pytest.raises(StructuralError) as checked:
        bouquet.check_addr(addr)
    with pytest.raises(StructuralError) as projected:
        project_addr(addr)
    assert str(checked.value) == message
    # a level below 1 meets project_addr's own guard before the checks
    below_one = "level 0 has nothing below it"
    assert str(projected.value) == (message if addr.level >= 1 else below_one)


def test_level_zero_has_nothing_below_it():
    with pytest.raises(StructuralError, match="^level 0 has nothing below it$"):
        project_addr(base_addr(0))


@pytest.fixture
def default_digit_limit():
    # the CLI lifts the limit; library callers keep Python's default
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-digit limit")
def test_deep_errors_keep_their_type_at_the_default_digit_limit(default_digit_limit):
    h = new_handle(13, 1, 5)
    with pytest.raises(SpineExhausted) as err:
        step(h, -10)
    assert err.value.first_invalid_offset == -5
    assert "bit integer" in str(err.value)
    for bad in (VertexAddr(16, 1, 0), VertexAddr(3, 0, 10**5000)):
        with pytest.raises(StructuralError, match="-bit integer"):
            bouquet.check_addr(bad)
    with pytest.raises(StructuralError, match="^offset -1 outside \\[0, a 16,610-bit"):
        Formula([Run(0, 10**5000)], ()).locate(-1)
    with pytest.raises(BudgetExceeded, match="requires a [0-9,]+-bit integer"):
        find_occurrences(1, 14, 1, 1, budget=10)


BIG = 10**5000  # past Python's default limit of 4300 digits
BIG_TEXT = "a 16,610-bit integer"
NEGATIVE_BIG_TEXT = "a negative 16,610-bit integer"
HUGE_INTEGER_TEXTS = [
    pytest.param(lambda: bouquet.check_addr(VertexAddr(3, 1.5, BIG)),
                 f"address coordinates must be ints: VertexAddr(level=3, cycle=1.5, pos={BIG_TEXT})",
                 id="address-type"),
    pytest.param(lambda: bouquet.check_addr(VertexAddr(BIG, 0, 0)),
                 f"level {BIG_TEXT} is past 21, the deepest level an address can have",
                 id="address-base-level"),
    pytest.param(lambda: bouquet.check_addr(VertexAddr(BIG, 1, 1)),
                 f"level {BIG_TEXT} exceeds the practical limit 21; "
                 "cycle lengths roughly double in bit size per level",
                 id="address-cycle-level"),
    pytest.param(lambda: bouquet.check_addr(VertexAddr(3, BIG, 1)),
                 f"cycle {BIG_TEXT} does not exist at level 3", id="address-cycle"),
    pytest.param(lambda: bouquet.check_addr(VertexAddr(-BIG, 0, 0)),
                 f"negative level in {NEGATIVE_BIG_TEXT}:0:0", id="address-negative-level"),
    pytest.param(lambda: bouquet.check_addr(VertexAddr(-BIG, 1, 1)),
                 f"negative level in {NEGATIVE_BIG_TEXT}:1:1",
                 id="address-negative-cycle-level"),
    pytest.param(lambda: Run(-BIG, 1), f"negative cycle index {NEGATIVE_BIG_TEXT}",
                 id="run-cycle"),
    pytest.param(lambda: Run(0, -BIG), f"run count must be >= 1, got {NEGATIVE_BIG_TEXT}",
                 id="run-count"),
    pytest.param(lambda: BlockSum(-BIG, (BlockTerm(0, 1, 0),)),
                 f"block sum bound must be >= 1, got {NEGATIVE_BIG_TEXT}", id="sum-bound"),
    pytest.param(lambda: BlockTerm(0, -BIG, 1),
                 f"block term count {NEGATIVE_BIG_TEXT} + 1*j is negative at some j >= 1",
                 id="term-count"),
    pytest.param(lambda: Formula([Run(0, 5)], ()).locate(-BIG),
                 f"offset {NEGATIVE_BIG_TEXT} outside [0, 5]", id="locate-negative"),
    pytest.param(lambda: str(PointHandle(3, VertexAddr(3, 1, 5), BIG)),
                 f"3:1:5@{BIG_TEXT}", id="handle-str"),
    pytest.param(lambda: column_of(new_handle(3, 1, 5), BIG),
                 f"depth {BIG_TEXT} outside [0, 3]", id="column_of"),
    pytest.param(lambda: next_base_time(new_handle(3, 1, 5), BIG),
                 f"target level {BIG_TEXT} outside [0, 3]", id="next_base_time"),
    pytest.param(lambda: next(base_changes(new_handle(3, 1, 5), BIG, 10)),
                 f"level {BIG_TEXT} outside [0, 3]", id="base_changes"),
    pytest.param(lambda: build_level_spec(BIG),
                 f"level {BIG_TEXT} exceeds the practical limit 21; "
                 "cycle lengths roughly double in bit size per level",
                 id="build_level_spec-high"),
    pytest.param(lambda: build_level_spec(-BIG),
                 f"level must be >= 0, got {NEGATIVE_BIG_TEXT}", id="build_level_spec-negative"),
    pytest.param(lambda: cycle_length(3, BIG),
                 f"level 3 has cycles 1..3, asked for {BIG_TEXT}", id="cycle_length-cycle"),
    pytest.param(lambda: cycle_length(-BIG, 1),
                 f"level {NEGATIVE_BIG_TEXT} has cycles 1..{NEGATIVE_BIG_TEXT}, asked for 1",
                 id="cycle_length-level"),
    pytest.param(lambda: find_occurrences(BIG, 2, 1, 1),
                 f"need 0 <= m < m', got {BIG_TEXT}..2", id="find_occurrences-levels"),
    pytest.param(lambda: find_occurrences(1, 2, BIG, 1),
                 f"level 1 has no cycle {BIG_TEXT}", id="find_occurrences-target"),
    pytest.param(lambda: find_occurrences(1, 2, 1, BIG),
                 f"level 2 has no cycle {BIG_TEXT}", id="find_occurrences-source"),
]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-digit limit")
@pytest.mark.parametrize("call,text", HUGE_INTEGER_TEXTS)
def test_huge_integers_are_named_by_size_at_the_default_digit_limit(call, text,
                                                                     default_digit_limit):
    # each call ends in one ChaoscopeError line (or, for str, in its text),
    # never in the ValueError of a decimal past the limit
    try:
        result = call()
    except ChaoscopeError as err:
        result = str(err)
    assert result == text


FIELD = st.one_of(st.integers(-1, 2), st.sampled_from([BIG, 1.0, True]))


@settings(derandomize=True, database=None, max_examples=300)
@given(st.tuples(FIELD, FIELD, FIELD), st.tuples(FIELD, FIELD, FIELD))
def test_addresses_are_equal_exactly_when_their_fields_are(f, g):
    a, b = VertexAddr(*f), VertexAddr(*g)
    assert (a == b) == (f == g) and (a != b) == (f != g)
    assert hash(a) == hash(f) and a == f  # an address is the tuple of its fields
    if a == b:
        assert hash(a) == hash(b)
    assert (a < b) == (f < g)  # ordered as tuples: level, then cycle, then pos


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-digit limit")
def test_address_text_is_unchanged(default_digit_limit):
    assert str(VertexAddr(3, 1, 5)) == "3:1:5"
    assert repr(VertexAddr(3, 1, 5)) == "VertexAddr(level=3, cycle=1, pos=5)"
    assert repr(base_addr(3)) == "VertexAddr(level=3, cycle=0, pos=0)"
    assert str(VertexAddr(3, 1, BIG)) == f"3:1:{BIG_TEXT}"
    assert repr(VertexAddr(3, 1, -BIG)) == (
        f"VertexAddr(level=3, cycle=1, pos={NEGATIVE_BIG_TEXT})")
    assert [VertexAddr(3, 1, 5)] == [(3, 1, 5)] and VertexAddr(3, 1, 5).is_base is False


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-digit limit")
def test_reprs_name_huge_integers_by_size(default_digit_limit):
    # the generated reprs formatted these fields in decimal and raised ValueError
    assert repr(PointHandle(3, VertexAddr(3, 1, 5), 7)) == (
        "PointHandle(spine_level=3, address=VertexAddr(level=3, cycle=1, pos=5), offset=7)")
    assert repr(PointHandle(3, VertexAddr(3, 1, 5), BIG)) == (
        f"PointHandle(spine_level=3, address=VertexAddr(level=3, cycle=1, pos=5), "
        f"offset={BIG_TEXT})")
    assert repr(build_level_spec(4).image_formulas[0]) == "Formula(5 items, length=70594865633727)"
    assert repr(build_level_spec(13).image_formulas[0]) == (
        "Formula(14 items, length=a 24,876-bit integer)")
    assert repr(lift_choices(VertexAddr(0, 0, 0), 1)) == (
        "LiftReport(address=VertexAddr(level=0, cycle=0, pos=0), "
        "choices=(VertexAddr(level=1, cycle=0, pos=0),), total=10, truncated=True)")
    assert repr(lift_choices(VertexAddr(14, 1, 1), 1)) == (
        "LiftReport(address=VertexAddr(level=14, cycle=1, pos=1), "
        "choices=(VertexAddr(level=15, cycle=1, pos=2),), total=a 49,756-bit integer, "
        "truncated=True)")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-digit limit")
def test_formula_item_reprs_name_huge_integers_by_size(default_digit_limit):
    # small items keep the generated dataclass text
    assert repr(build_level_spec(3).image_formulas[0].items) == (
        "(BlockSum(bound=1572, body=(BlockTerm(cycle=0, const=0, coef=1), "
        "BlockTerm(cycle=1, const=2, coef=0))), Run(cycle=0, count=1), "
        "Run(cycle=2, count=2), Run(cycle=0, count=1))")
    spec = build_level_spec(14)
    assert repr(spec.image_formulas[0].items[0]) == (
        "BlockSum(bound=a 24,877-bit integer, body=(BlockTerm(cycle=0, const=0, coef=1), "
        "BlockTerm(cycle=1, const=2, coef=0)))")
    last = [item for item in spec.image_formulas[13].items if isinstance(item, Run)][-1]
    assert repr(last) == "Run(cycle=0, count=a 24,884-bit integer)"
    assert repr(Run(0, BIG)) == f"Run(cycle=0, count={BIG_TEXT})"
    assert repr(BlockTerm(0, BIG, 0)) == f"BlockTerm(cycle=0, const={BIG_TEXT}, coef=0)"


def test_non_integer_coordinates_are_structural_errors():
    with pytest.raises(StructuralError):
        new_handle(3, 1, 2.5)
    with pytest.raises(StructuralError):
        project_addr(VertexAddr(3, 1, 2.5))
    with pytest.raises(StructuralError):
        lift_choices(VertexAddr(3, 1, 2.5), max_results=64)
    with pytest.raises(StructuralError):
        # the level is read before check_addr
        lift_choices(VertexAddr("3", 1, 2), max_results=64)


def test_projection_agrees_with_materialized_maps(materialized):
    for n in (1, 2):
        level, below = materialized[n], materialized[n - 1]
        for vid in range(level.graph.vertex_count):
            addr = level.id_to_addr(vid)
            assert below.addr_to_id(project_addr(addr)) == level.cover.vertex_map[vid]


def test_projection_sampled_at_level_three(materialized):
    rng = random.Random(1)
    level3, level2 = materialized[3], materialized[2]
    lengths = build_level_spec(3).cycle_lengths
    for _ in range(2000):
        cycle = rng.randrange(1, 4)
        addr = VertexAddr(3, cycle, rng.randrange(1, lengths[cycle - 1]))
        expected = level3.cover.vertex_map[level3.addr_to_id(addr)]
        assert level2.addr_to_id(project_addr(addr)) == expected


def test_projection_never_raises_cycle_index():
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randrange(2, 7)
        lengths = build_level_spec(n).cycle_lengths
        cycle = rng.randrange(1, n + 1)
        addr = VertexAddr(n, cycle, rng.randrange(1, lengths[cycle - 1]))
        image = project_addr(addr)
        assert image.is_base or image.cycle >= cycle


# -- lifts -------------------------------------------------------------------

def test_lift_base_of_level_zero_gives_all_ten_addresses():
    report = lift_choices(base_addr(0), max_results=100)
    assert report.total == 10
    assert len(report.choices) == 10
    assert report.choices[0] == base_addr(1)
    assert not report.truncated


def test_lift_counts_doubled_blocks():
    report = lift_choices(VertexAddr(1, 1, 1), max_results=10)
    assert report.total == 44
    assert report.truncated
    assert len(report.choices) == 10


def test_negative_max_results_lists_nothing_but_counts_all():
    report = lift_choices(VertexAddr(1, 1, 1), max_results=-1)
    assert report.choices == () and report.total == 44 and report.truncated


def test_lift_base_includes_first_position_of_next_cycle():
    report = lift_choices(base_addr(1), max_results=5)
    assert base_addr(2) in report.choices
    assert VertexAddr(2, 1, 1) in report.choices


def test_lift_choices_ascending_order():
    report = lift_choices(VertexAddr(1, 1, 3), max_results=64)
    keys = [(c.cycle, c.pos) for c in report.choices]
    assert keys == sorted(keys)


def test_project_inverts_every_lift():
    # exhaustive over all level-1 addresses, lifting into level 2
    targets = [base_addr(1)] + [VertexAddr(1, 1, p) for p in range(1, 10)]
    for target in targets:
        report = lift_choices(target, max_results=10_000)
        assert not report.truncated
        assert report.total == len(report.choices)
        for choice in report.choices:
            assert project_addr(choice) == target


def test_lift_totals_partition_level_two():
    # every level-2 vertex lifts exactly one level-1 vertex, so the lift
    # totals over all level-1 addresses sum to the level-2 vertex count
    total = 0
    targets = [base_addr(1)] + [VertexAddr(1, 1, p) for p in range(1, 10)]
    for target in targets:
        total += lift_choices(target, max_results=1).total
    assert total == 1 + (695 - 1) + (90 - 1)


@pytest.mark.parametrize("target, total", [(VertexAddr(4, 2, 5), 4),
                                            (VertexAddr(4, 3, 7), 6)])
def test_lift_skips_block_sums_without_the_target_cycle(target, total, monkeypatch):
    # the cycle-1 formula of level 5 has about 1.4e14 blocks, none holding
    # cycle 2 or 3: a walk through them never returns
    calls = [0]
    real_count_at = BlockTerm.count_at

    def bounded_count_at(self, j):
        calls[0] += 1
        if calls[0] > 10**4:
            raise AssertionError("walked into a block sum without the target cycle")
        return real_count_at(self, j)

    monkeypatch.setattr(BlockTerm, "count_at", bounded_count_at)
    report = lift_choices(target, max_results=64)
    assert report.total == total and not report.truncated
    assert len(set(report.choices)) == total
    for choice in report.choices:
        assert project_addr(choice) == target


# -- occurrence scans ---------------------------------------------------------

def test_occurrences_level_one_to_two():
    report = find_occurrences(1, 2, target_cycle=1, source_cycle=1)
    assert report.copy_count == 44
    assert report.prefix_length == 1 and report.prefix_all_base
    assert report.suffix_length == 2 and report.suffix_all_base
    assert report.realized_gaps() == (0,) + tuple(range(2, 23))
    assert report.gap_histogram[0] == 22
    assert report.gaps_all_base


def test_occurrences_with_other_cycles_after_the_last_copy():
    # level 3's cycle 1 over level 2: blocks j = 1..k of j base edges and 2
    # copies of cycle 1, then e + 2 c2 + e
    k = build_level_spec(2).k_value
    report = find_occurrences(2, 3, target_cycle=1, source_cycle=1)
    assert report.copy_count == 2 * k == 3144
    assert report.prefix_length == 1 and report.prefix_all_base
    assert report.suffix_length == 2 + 2 * cycle_length(2, 2) == 182
    assert not report.suffix_all_base
    assert report.realized_gaps() == (0,) + tuple(range(2, k + 1))


def test_occurrences_with_other_cycles_before_the_first_copy():
    # the same path: the 2 copies of cycle 2 follow every block and one e
    k = build_level_spec(2).k_value
    report = find_occurrences(2, 3, target_cycle=2, source_cycle=1)
    assert report.copy_count == 2
    prefix = k * (k + 1) // 2 + 2 * k * cycle_length(2, 1) + 1
    assert report.prefix_length == prefix == 3_421_459
    assert not report.prefix_all_base
    assert report.suffix_length == 1 and report.suffix_all_base
    assert report.realized_gaps() == (0,)


def test_occurrences_none_in_pure_base_cycle():
    report = find_occurrences(1, 2, target_cycle=1, source_cycle=2)
    assert report.copy_count == 0
    assert report.prefix_length == report.total_length == 90


def test_occurrences_flags_agree_when_there_is_no_copy():
    # no copy of level 2's cycle 1: prefix and suffix are the same 182-edge
    # path, which holds two traversals of cycle 2
    report = find_occurrences(2, 3, 1, 2)
    assert report.copy_count == 0
    assert report.prefix_length == report.suffix_length == 182
    assert not report.prefix_all_base and not report.suffix_all_base


def test_occurrences_prefix_deepens_with_level():
    report = find_occurrences(1, 3, target_cycle=1, source_cycle=1)
    assert report.prefix_length == 2 and report.prefix_all_base
    assert report.total_length == 3_421_640


def test_occurrence_offsets_truncate_but_histogram_does_not(monkeypatch):
    monkeypatch.setattr(bouquet, "MAX_OFFSETS", 100)
    report = find_occurrences(1, 3, 1, 1)
    assert report.offsets_truncated
    assert len(report.offsets) == 100
    assert report.copy_count == 138_336
    assert sum(report.gap_histogram.values()) == report.copy_count - 1


def _run_stream(level_from, cycle, level_to):
    """Literal runs at ``level_to`` (below ``level_from``) for one full
    traversal of the given cycle."""
    spec = build_level_spec(level_from)
    for run in spec.image_formulas[cycle - 1].iter_runs():
        if run.cycle == 0 or level_from - 1 == level_to:
            yield run
        else:
            for _ in range(run.count):
                yield from _run_stream(level_from - 1, run.cycle, level_to)


def _occurrences_copy_by_copy(m, m_prime, target_cycle, source_cycle):
    """Reference for find_occurrences: one step per copy, with sentinels."""
    total_length = cycle_length(m_prime, source_cycle)
    copy_length = cycle_length(m, target_cycle)
    offset = copy_count = 0
    offsets, truncated = [], False
    gap_histogram, gaps_all_base = {}, True
    prefix_length, prefix_all_base = -1, True
    prev_end, clean_since_prev = -1, True
    for run in _run_stream(m_prime, source_cycle, m):
        if run.cycle == target_cycle:
            for t in range(run.count):
                start = offset + t * copy_length
                if prev_end < 0:
                    prefix_length = start
                else:
                    gap = start - prev_end
                    gap_histogram[gap] = gap_histogram.get(gap, 0) + 1
                    gaps_all_base &= clean_since_prev
                prev_end = start + copy_length
                clean_since_prev = True
                copy_count += 1
                if len(offsets) < bouquet.MAX_OFFSETS:
                    offsets.append(start)
                else:
                    truncated = True
            offset += run.count * copy_length
        else:
            if run.cycle != 0:
                if prev_end < 0:
                    prefix_all_base = False
                clean_since_prev = False
            offset += run.count * (1 if run.cycle == 0 else cycle_length(m, run.cycle))
    if prev_end < 0:
        prefix_length = suffix_length = total_length
    else:
        suffix_length = total_length - prev_end
    return bouquet.OccurrenceReport(
        m_prime, source_cycle, m, target_cycle, total_length, copy_length,
        copy_count, tuple(offsets), truncated, gap_histogram, gaps_all_base,
        prefix_length, prefix_all_base, suffix_length, clean_since_prev,
        bouquet.DEFAULT_SCAN_BUDGET)


@pytest.mark.parametrize("max_offsets", [bouquet.MAX_OFFSETS, 100])
def test_occurrences_equal_the_copy_by_copy_scan(max_offsets, monkeypatch):
    monkeypatch.setattr(bouquet, "MAX_OFFSETS", max_offsets)
    for m, m_prime in ((1, 2), (1, 3), (2, 3)):
        for target in range(1, m + 1):
            for source in range(1, m_prime + 1):
                assert vars(find_occurrences(m, m_prime, target, source)) == \
                    vars(_occurrences_copy_by_copy(m, m_prime, target, source))


def test_occurrence_scan_reads_formula_runs_not_the_path(monkeypatch):
    # the literal walk reads 146,200 runs; the fold reads each formula item
    # once and never expands a block sum into runs
    expansions = []
    monkeypatch.setattr(Formula, "iter_runs", lambda self: expansions.append(self) or iter(()))
    for m, m_prime in ((1, 2), (1, 3), (2, 3)):
        find_occurrences(m, m_prime, 1, 1)
    assert expansions == []


def _profile_events(fn):
    """Python and C calls made by ``fn()``, with its result."""
    events = [0]

    def count(frame, event, arg):
        events[0] += 1

    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return events[0], result


def _add(path, x, r):
    """Append ``r`` back-to-back copies of the summary ``x`` to ``path``:
    one block of one term."""
    path.add_blocks([(x, r, 0)], 1, 1)


def test_block_sum_fold_does_the_same_work_at_any_bound(monkeypatch):
    # sum(j=1..k){ j e + 2 c1 } over a c1 holding 3 copies of the target
    monkeypatch.setattr(bouquet, "MAX_OFFSETS", 100)
    base, target = bouquet._Summary(1, 0, True), bouquet._Summary(4, 1, True)
    c1 = bouquet._Summary(0, 0, True)
    for leaf, r in ((base, 1), (target, 3), (base, 2)):
        _add(c1, leaf, r)
    work = {}
    for k in (10**3, 10**30):
        formula = Formula([BlockSum(k, (BlockTerm(0, 0, 1), BlockTerm(1, 2, 0)))], (c1.length,))
        work[k], path = _profile_events(lambda: bouquet._fold(formula, [base, c1]))
        assert path.count == 2 * k * c1.count
        assert len(path.offsets) == 100 and path.length == formula.length
    assert work[10**3] == work[10**30]


def _summary_by_symbols(symbols, lengths):
    """Reference for the summary join: one step per level-m symbol, cycle 1
    the target; the fields of ``_Summary`` as a tuple."""
    copies, dirty, offset = [], [], 0
    for cycle in symbols:
        if cycle == 1:
            copies.append(offset)
        elif cycle:
            dirty.append(offset)
        offset += lengths[cycle]

    def clean(lo, hi):
        return not any(lo <= d < hi for d in dirty)

    if not copies:
        prefix = suffix = (offset, clean(0, offset))
        gaps, gaps_all_base = {}, True
    else:
        ends = [start + lengths[1] for start in copies]
        prefix = (copies[0], clean(0, copies[0]))
        suffix = (offset - ends[-1], clean(ends[-1], offset))
        gaps = {}
        for end, start in zip(ends, copies[1:]):
            gaps[start - end] = gaps.get(start - end, 0) + 1
        gaps_all_base = all(clean(end, start) for end, start in zip(ends, copies[1:]))
    return (offset, len(copies), prefix, suffix, gaps, gaps_all_base,
            copies[:bouquet.MAX_OFFSETS])


symbol_runs = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=6)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.tuples(st.just(1), *[st.integers(1, 4)] * 3),
       st.lists(symbol_runs, min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), min_size=1, max_size=5),
       st.sampled_from([bouquet.MAX_OFFSETS, 3]))
@example((1, 2, 3, 1), [[(1, 2), (1, 3)]], [(0, 1)], 3)  # adjacent target runs
@example((1, 1, 2, 3), [[(2, 1), (0, 2), (1, 1), (0, 1), (3, 2)]], [(0, 2)], 3)  # dirty ends
@example((1, 4, 2, 3), [[(0, 3), (2, 1)]], [(0, 2)], 3)  # no copy
def test_summary_join_equals_the_symbol_by_symbol_scan(lengths, words, top, max_offsets):
    # level-m symbols (cycle 0 a base edge, cycle 1 the target) are folded
    # into one summary per word, the words into the path, as a tower's
    # formulas fold over the level below
    leaves = [bouquet._Summary(lengths[c], int(c == 1), c <= 1) for c in range(4)]
    top = [(w % len(words), r) for w, r in top]
    with mock.patch.object(bouquet, "MAX_OFFSETS", max_offsets):
        summaries = []
        for word in words:
            summary = bouquet._Summary(0, 0, True)
            for cycle, r in word:
                _add(summary, leaves[cycle], r)
            summaries.append(summary)
        path = bouquet._Summary(0, 0, True)
        for w, r in top:
            _add(path, summaries[w], r)
        symbols = [c for w, r in top for _ in range(r) for c, n in words[w] for _ in range(n)]
        assert (path.length, path.count, path.prefix, path.suffix, path.histogram(),
                path.gaps_all_base, path.offsets) == _summary_by_symbols(symbols, lengths)


def _join_copies(path, x, r):
    """Append ``r`` back-to-back copies of the summary ``x`` to ``path``, one
    run at a time: every gap a single-gap record."""
    if not x.count:
        path.suffix = (path.suffix[0] + r * x.length, path.suffix[1] and x.suffix[1])
        if not path.count:
            path.prefix = path.suffix
        path.length += r * x.length
        return
    # one gap at the seam with what came before (or, before any copy, the
    # prefix) and r - 1 inner gaps between the copies of x
    seam = (path.suffix[0] + x.prefix[0], path.suffix[1] and x.prefix[1])
    inner = (x.suffix[0] + x.prefix[0], x.suffix[1] and x.prefix[1])
    path.gaps += [(gap, gap, 1, r * count) for gap, count in x.histogram().items()]
    if r > 1:
        path.gaps.append((inner[0], inner[0], 1, r - 1))
    if path.count:
        path.gaps.append((seam[0], seam[0], 1, 1))
    else:
        path.prefix = seam
    path.gaps_all_base = (path.gaps_all_base and x.gaps_all_base
                          and (r == 1 or inner[1]) and (not path.count or seam[1]))
    for start in range(path.length, path.length + r * x.length, x.length):
        room = bouquet.MAX_OFFSETS - len(path.offsets)
        if room <= 0:
            break
        path.offsets += map(start.__add__, x.offsets[:room])
    path.suffix = x.suffix
    path.count += r * x.count
    path.length += r * x.length


def _fold_block_by_block(formula, below):
    """Reference for ``_fold``: the literal fold, every block sum expanded
    into its runs and each run joined by :func:`_join_copies`."""
    path = bouquet._Summary(0, 0, True)
    for run in formula.iter_runs():
        _join_copies(path, below[run.cycle], run.count)
    return path


def _summary_fields(summary):
    return (summary.length, summary.count, summary.prefix, summary.suffix,
            summary.histogram(), summary.gaps_all_base, summary.offsets)


@st.composite
def formula_items(draw, symbols):
    """A run, or a block sum of 1-4 terms whose constants may be <= 0."""
    if draw(st.booleans()):
        return Run(draw(st.integers(0, symbols - 1)), draw(st.integers(1, 4)))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coef = draw(st.integers(0, 3))
        terms.append(BlockTerm(draw(st.integers(0, symbols - 1)),
                               draw(st.integers(-coef, 3)), coef))
    return BlockSum(draw(st.integers(1, 7)), tuple(terms))


@st.composite
def two_level_formulas(draw):
    """Formulas of 1-3 cycles over the symbols 0-3, and one over those cycles."""
    mids = draw(st.lists(st.lists(formula_items(4), min_size=1, max_size=3),
                         min_size=1, max_size=3))
    return mids, draw(st.lists(formula_items(len(mids) + 1), min_size=1, max_size=3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.tuples(st.just(1), *[st.integers(1, 4)] * 3), two_level_formulas(),
       st.sampled_from([bouquet.MAX_OFFSETS, 3, 7]))
def test_closed_form_fold_equals_the_block_by_block_fold(lengths, formulas, max_offsets):
    # level-m symbols as in find_occurrences (0 a base edge, 1 the target,
    # 2 and 3 foreign), folded twice, so that the top fold scales the ranges
    # of the summaries below it
    mids, top = formulas
    leaves = [bouquet._Summary(lengths[c], int(c == 1), c <= 1) for c in range(4)]
    with mock.patch.object(bouquet, "MAX_OFFSETS", max_offsets):
        closed, literal = leaves[:1], leaves[:1]
        for items in mids:
            try:
                formula = Formula(items, lengths[1:])
            except StructuralError:  # an item of length 0
                assume(False)
            closed.append(bouquet._fold(formula, leaves))
            literal.append(_fold_block_by_block(formula, leaves))
            assert _summary_fields(closed[-1]) == _summary_fields(literal[-1])
        try:
            formula = Formula(top, [c.length for c in closed[1:]])
        except StructuralError:
            assume(False)
        assert _summary_fields(bouquet._fold(formula, closed)) == \
            _summary_fields(_fold_block_by_block(formula, literal))


def test_occurrence_budget_error_names_requirement():
    with pytest.raises(BudgetExceeded) as err:
        find_occurrences(1, 4, 1, 1, budget=10**8)
    assert err.value.required == cycle_length(4, 1)
    assert "70594865633727" in str(err.value)


def test_occurrence_json_fields():
    record = find_occurrences(1, 2, 1, 1).to_json()
    assert record["offsets_truncated"] is False
    assert record["gap_histogram"]["0"] == 22
    assert record["prefix"] == {"length": "1", "all_base": True}
    assert record["suffix"] == {"length": "2", "all_base": True}


@pytest.mark.parametrize("call, message", [
    (lambda: Run(-1, 1), "negative cycle index -1"),
    (lambda: Run(1, 0), "run count must be >= 1, got 0"),
    (lambda: BlockSum(0, (BlockTerm(0, 1, 0),)), "block sum bound must be >= 1, got 0"),
    (lambda: BlockSum(1, ()), "block sum needs a nonempty body"),
    (lambda: BlockTerm(-1, 1, 0), "negative cycle index -1"),
    (lambda: BlockTerm(0, 1, -1), "block term count 1 + -1*j is negative at some j >= 1"),
    (lambda: BlockTerm(1, -2, 1), "block term count -2 + 1*j is negative at some j >= 1"),
    (lambda: materialize_graph(2).addr_to_id(VertexAddr(1, 1, 1)),
     "1:1:1 is not a level-2 address"),
    (lambda: materialize_graph(2).addr_to_id(VertexAddr(2, 0, 3)),
     "base address must have pos 0: 2:0:3"),
    (lambda: materialize_graph(2).addr_to_id(VertexAddr(2, 3, 1)), "no cycle 3 at level 2"),
    (lambda: materialize_graph(2).addr_to_id(VertexAddr(2, 2, 90)),
     "position out of range: 2:2:90"),
    (lambda: materialize_graph(2).id_to_addr(784), "vertex id 784 out of range"),
    (lambda: mixing_gap_report(0, 1), "need m >= 1 and j >= 1"),
    (lambda: next(orbit_rows(new_handle(3, 1, 5), 4, 10)), "depth 4 outside [0, 3]"),
    (lambda: random_handle(0, random.Random(0)), "random handles need at least one cycle"),
], ids=["run-cycle", "run-count", "sum-bound", "sum-body", "term-cycle", "term-coef",
        "term-count", "addr-level", "addr-base-pos",
        "addr-cycle", "addr-pos", "vertex-id", "mixing-gap-m", "orbit-depth", "handle-spine"])
def test_input_checks_raise_their_message(call, message):
    with pytest.raises(StructuralError) as err:
        call()
    assert str(err.value) == message


# -- materialization ----------------------------------------------------------

def test_materialized_sizes(materialized):
    assert materialized[1].graph.vertex_count == 10
    assert materialized[1].graph.edge_count == 11
    assert materialized[2].graph.vertex_count == 784
    assert materialized[3].graph.vertex_count == 3_434_380


def test_materialization_budget_refuses_level_four():
    # level 4 has about 7e13 vertices: past 32-bit ids, so no budget could
    # allow it and the error does not suggest a rerun with a larger one
    with pytest.raises(StructuralError, match=r"^vertex_count (\d+) out of range") as err:
        materialize_graph(4)
    assert int(err.value.args[0].split()[1]) > 7 * 10**13
    with pytest.raises(BudgetExceeded) as err:
        materialize_graph(3, 10**6)
    assert err.value.required == 3_434_380


def test_materialization_refuses_a_cycle_shorter_than_two():
    with pytest.raises(StructuralError):
        materialize_graph(1, spec_for=lambda n: LevelSpec(n, (1,) * n, 2, ()))


def test_materialization_refuses_more_vertices_than_32_bit_ids():
    # refused before anything is allocated, whatever the budget allows
    huge = (1 << 31) + 2
    with pytest.raises(StructuralError, match=f"^vertex_count {huge} out of range"):
        materialize_graph(1, 1 << 40, spec_for=lambda n: LevelSpec(n, (huge,), 0, ()))


def test_materialization_refuses_an_expansion_past_the_last_vertex(monkeypatch):
    # level 2's last cycle has 9 edges, but its formula expands to 14: three
    # passes of level 1's 4-cycle from vertex 7 would write up to id 17 of a
    # 14-vertex map.  That run is refused before it writes, so the map keeps
    # its length, and the count stops at the end of the run, 13 edges in
    level1 = Formula([Run(0, 4)], ())
    level2 = (Formula([Run(0, 1), Run(1, 1), Run(0, 1)], (4,)),
              Formula([Run(0, 1), Run(1, 3), Run(0, 1)], (4,)))
    specs = [LevelSpec(0, (), 2, ()), LevelSpec(1, (4,), 10, (level1,)),
             LevelSpec(2, (6, 9), 32, level2)]
    sizes = []

    class Watched(array):  # each write to the map records its length after it
        def __mul__(self, n):
            return Watched(self.typecode, array.__mul__(self, n))

        def __setitem__(self, key, value):
            array.__setitem__(self, key, value)
            sizes.append(len(self))

    monkeypatch.setattr(bouquet, "array", Watched)
    with pytest.raises(StructuralError) as err:
        materialize_graph(2, spec_for=specs.__getitem__)
    assert str(err.value) == "level 2: a formula expands to at least 13 edges, its cycle has 9"
    assert sizes == [14]  # cycle 1's one pass, then nothing


def test_materialization_refuses_an_expansion_short_of_its_cycle():
    level1 = Formula([Run(0, 4)], ())
    specs = [LevelSpec(0, (), 2, ()), LevelSpec(1, (4,), 10, (level1,)),
             LevelSpec(2, (7,), 16, (Formula([Run(0, 1), Run(1, 1), Run(0, 1)], (4,)),))]
    with pytest.raises(StructuralError, match="^level 2: a formula expands to 6 edges, "
                                              "its cycle has 7$"):
        materialize_graph(2, spec_for=specs.__getitem__)


def test_addr_id_round_trip(materialized):
    level = materialized[2]
    for vid in (0, 1, 693, 694, 782, 783):
        assert level.addr_to_id(level.id_to_addr(vid)) == vid


def test_spec_json_uses_decimal_strings():
    record = level_spec_json(build_level_spec(2))
    assert record["cycle_lengths"] == ["695", "90"]
    assert record["k"] == "1572"
    sum_item = level_spec_json(build_level_spec(3))["image_formulas"][0][0]
    assert sum_item["kind"] == "sum" and sum_item["bound"] == "1572"


def test_spec_cache_is_safe_under_concurrent_builders():
    import threading

    build_level_spec.cache_clear()
    results = []

    def build():
        results.append(build_level_spec(6))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] or r == results[0] for r in results)
    assert cycle_length(2, 1) == 695
