"""Degrees, proximality certificates, Li-Yorke scans, mixing reports."""

from __future__ import annotations

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope import analysis
from chaoscope import (
    SpineExhausted,
    StructuralError,
    base_changes,
    build_level_spec,
    column_of,
    degree_of_column,
    degree_stability_check,
    degree_window_min,
    fixed_point,
    frobenius_number,
    li_yorke_test,
    mixing_gap_report,
    new_handle,
    next_base_time,
    proximal_certificate,
    random_handle,
    random_pair,
    representable,
    return_length_differences,
    step,
)
from chaoscope.bouquet import find_occurrences
from chaoscope.verify import degree_corpus
from orbit_walk import rows_by_walk


def test_fixed_point_degree_is_infinite():
    assert degree_of_column(fixed_point(6)).is_infinite


def test_degree_is_cycle_index_of_the_deepest_level():
    assert degree_of_column(new_handle(2, 1, 1)).index == 1
    assert degree_of_column(new_handle(3, 2, 5)).index == 2


def test_degree_estimates_shrink_with_depth():
    h = new_handle(3, 2, 5)
    estimates = [degree_of_column(h, depth).index for depth in range(4)]
    cleaned = [e for e in estimates if e is not None]
    assert cleaned == sorted(cleaned, reverse=True)


# -- proximality --------------------------------------------------------------

def test_window_at_least_gap_bound_always_hits():
    rng = random.Random(8)
    windows = [(0, 11), (100, 11), (1000, 11)]
    for _ in range(30):
        h = random_handle(8, rng)
        report = proximal_certificate(h, 1, windows)
        assert report.all_hit


def test_fixed_point_hits_everywhere():
    report = proximal_certificate(fixed_point(4), 2, [(0, 1), (17, 1)])
    assert [w.hit for w in report.windows] == [0, 17]


def test_certificate_matches_next_base_time():
    h = new_handle(2, 1, 2)
    report = proximal_certificate(h, 1, [(0, 10)])
    assert report.windows[0].hit == 9
    assert next_base_time(h, 1) == 9


def test_short_window_reports_miss():
    h = new_handle(2, 1, 2)
    report = proximal_certificate(h, 1, [(0, 9)])
    assert report.windows[0].hit is None
    assert not report.all_hit


# -- li-yorke ------------------------------------------------------------------

def test_any_point_is_proximal_to_the_fixed_point():
    rng = random.Random(9)
    for _ in range(10):
        h = random_handle(8, rng)
        report = li_yorke_test(h, fixed_point(8), horizon=2000)
        assert report.proximal_witness is not None
        t, d = report.proximal_witness
        assert (d.level if d.exact else d.level + 1) >= 3  # d <= 2^-3


def _first_joint_base_time(a, b, depth, horizon):
    """Reference for the proximal jumps: walk both orbits step by step."""
    for (t, col_a), (_, col_b) in zip(rows_by_walk(a, depth, horizon),
                                      rows_by_walk(b, depth, horizon)):
        if all(col_a[lvl].is_base and col_b[lvl].is_base
               for lvl in range(1, depth + 1)):
            return t
    return None


def test_proximal_jumps_equal_an_exhaustive_walk():
    rng = random.Random(2016)
    late_hits = misses = 0
    for depth in (1, 2, 3):
        for horizon in (50, 400, 2000):
            for _ in range(4):
                a, b = random_pair(8, rng)
                witness = li_yorke_test(a, b, horizon, prox_depth=depth).proximal_witness
                expected = _first_joint_base_time(a, b, depth, horizon)
                assert (None if witness is None else witness[0]) == expected
                late_hits += bool(expected)
                misses += expected is None
    # the sample reaches both a joint hit after time 0 and a real miss
    assert late_hits and misses


def _first_separation(a, b, depth, horizon):
    """Reference for the separation jumps: walk both orbits step by step."""
    limit = min(depth, a.spine_level, b.spine_level)
    for (t, col_a), (_, col_b) in zip(rows_by_walk(a, limit, horizon),
                                      rows_by_walk(b, limit, horizon)):
        for level in range(1, limit + 1):
            if col_a[level] != col_b[level]:
                return t, level
    return None


def test_separation_jumps_equal_an_exhaustive_walk():
    rng = random.Random(14)
    found = []
    for depth in (1, 2, 3, 4):
        for horizon in (100, 2000, 20_000):
            a, b = random_pair(8, rng)
            high = new_handle(8, 2 + depth % 3, rng.randrange(1, 10**6))
            for pair in ((a, b), (a, fixed_point(8)), (high, b),
                         (high, new_handle(8, 2 + (depth + 1) % 3, 5000))):
                witness = li_yorke_test(*pair, horizon, sep_depth=depth).separation_witness
                expected = _first_separation(*pair, depth, horizon)
                assert (None if witness is None
                        else (witness[0], witness[1].level)) == expected
                found.append(expected)
    # the sample holds separations at time 0, later ones and real misses
    assert None in found
    assert any(w and w[0] == 0 for w in found) and any(w and w[0] > 0 for w in found)


def _base_changes_by_walk(h, level, horizon):
    """Reference for base_changes: walk the orbit step by step."""
    changes = []
    for t, col in rows_by_walk(h, level, horizon):
        if not changes or col[level].is_base != changes[-1][1].is_base:
            changes.append((t, col[level]))
    return changes


def _base_change_coordinates(h, level, horizon):
    """base_changes as ``(t, column[level])``, each column checked to be the
    handle's whole column at t."""
    changes = list(base_changes(h, level, horizon))
    for t, column in changes:
        assert column == column_of(step(h, t))
    return [(t, column[level]) for t, column in changes]


def test_base_changes_equal_an_exhaustive_walk():
    rng = random.Random(15)
    handles = degree_corpus(12, spine=8, seed=15) + [fixed_point(8), new_handle(8, 2, 5000)]
    lengths = []
    for h in handles:
        for level in range(9):
            horizon = rng.choice((0, 7, 400, 3000))
            changes = _base_change_coordinates(h, level, horizon)
            assert changes == _base_changes_by_walk(h, level, horizon)
            lengths.append(len(changes))
    assert 1 in lengths and max(lengths) > 3
    # 8:2:5000's level 2 sits at the base until 20493, so a horizon one step
    # short ends inside a dwell that one jump crosses
    h = new_handle(8, 2, 5000)
    walked = _base_changes_by_walk(h, 2, 20493)
    assert [t for t, _ in walked] == [0, 20493]
    assert _base_change_coordinates(h, 2, 20493) == walked
    assert _base_change_coordinates(h, 2, 20492) == walked[:1]


def _window_min_by_walk(h, level, start, window):
    cycles = [col[level].cycle for _, col in rows_by_walk(step(h, start), level, window)]
    return min((c for c in cycles if c), default=None)


def test_window_min_equals_an_exhaustive_walk():
    rng = random.Random(16)
    # 8:2:5000 keeps level 2 at the base through the first window
    cases = [(new_handle(8, 2, 5000), 2, 0, 3000), (new_handle(8, 2, 5000), 3, 10, 3000),
             (fixed_point(8), 3, 5, 100)]
    for h in degree_corpus(20, spine=8, seed=16):
        for level in range(9):
            cases.append((h, level, rng.randrange(100), rng.choice((0, 1, 50, 2000))))
    for h, level, start, window in cases:
        assert (degree_window_min(h, level, start, window).index
                == _window_min_by_walk(h, level, start, window))


def test_window_min_reads_past_a_higher_cycle_to_cycle_one():
    # level 2 walks two copies of cycle 2 (the tail of a level-3 cycle-1
    # copy), then cycle 1 from 152 on: the scan may stop at 1, not before
    h = new_handle(4, 1, 3_421_491)
    for window, expected in ((100, 2), (151, 2), (152, 1), (400, 1)):
        assert degree_window_min(h, 2, 0, window).index == expected
        assert _window_min_by_walk(h, 2, 0, window) == expected


@pytest.mark.parametrize("start", [0, 2, 4])
def test_window_past_the_spine_raises_as_the_walk_does(start):
    h = new_handle(2, 1, 690)  # exhausts after 4 steps
    with pytest.raises(SpineExhausted) as walked:
        _window_min_by_walk(h, 1, start, 10)
    with pytest.raises(SpineExhausted) as jumped:
        degree_window_min(h, 1, start, 10)
    assert jumped.value.first_invalid_offset == walked.value.first_invalid_offset == 5


def test_identical_handles_never_separate():
    h = new_handle(8, 1, 12345)
    report = li_yorke_test(h, h, horizon=500)
    assert report.separation_witness is None
    assert report.proximal_witness is not None


def test_distinct_cycles_separate_immediately():
    a = new_handle(8, 1, 2_000_000 // 2)
    b = new_handle(8, 2, 777)
    report = li_yorke_test(a, b, horizon=10_000)
    assert report.separation_witness is not None
    t, d = report.separation_witness
    assert d.exact and d.level <= 3


def test_horizon_validity_enforced():
    h = new_handle(2, 1, 690)  # exhausts after 4 steps
    with pytest.raises(StructuralError):
        li_yorke_test(h, fixed_point(2), horizon=100)


def test_report_embeds_reproduction_data():
    a = new_handle(8, 1, 1_500_000)
    b = new_handle(8, 2, 41)
    record = li_yorke_test(a, b, horizon=3000).to_json()
    assert record["a"]["pos"] == "1500000"
    assert record["horizon"] == 3000
    assert record["prox_depth"] == 2 and record["sep_depth"] == 3


def test_same_seed_same_reports():
    def run(seed):
        rng = random.Random(seed)
        a = random_handle(8, rng)
        b = random_handle(8, rng)
        return li_yorke_test(a, b, horizon=2000).to_json()

    assert run(12) == run(12)


# -- mixing ---------------------------------------------------------------------

def test_mixing_report_level_one_depth_one():
    report = mixing_gap_report(1, 1)
    assert report.claimed_max_gap == 22
    assert set(report.realized_gaps) == {0} | set(range(2, 23))
    assert report.missing_gaps == (1,)
    assert report.extra_gaps == ()
    assert report.prefix_matches
    assert report.suffix_within_bound and report.suffix_bound == 21
    assert report.occurrences.suffix_length == 2


def test_mixing_report_level_one_depth_two():
    report = mixing_gap_report(1, 2)
    k2 = build_level_spec(2).k_value
    assert report.claimed_max_gap == k2 == 1572
    # block i to i + 1 of the level-3 sum is a gap of i + 4, up to k2 + 3
    assert set(report.realized_gaps) == {0} | set(range(2, k2 + 4))
    assert report.missing_gaps == (1,)
    assert report.extra_gaps == (k2 + 1, k2 + 2, k2 + 3)
    assert report.prefix_matches  # two base edges then a complete copy
    assert report.occurrences.suffix_length == 184
    assert report.suffix_within_bound and report.suffix_bound == 1570


def test_return_length_differences_generate_the_semigroup():
    report = find_occurrences(1, 2, 1, 1)
    diffs = return_length_differences(report)
    assert {10, 12, 13} <= diffs


def test_frobenius_number_of_10_12_13():
    assert frobenius_number((10, 12, 13)) == 41
    table = representable((10, 12, 13), 141)
    sums = {10 * a + 12 * b + 13 * c
            for a in range(15) for b in range(12) for c in range(11)}
    assert [v for v in range(142) if table[v]] == sorted(v for v in sums if v < 142)
    assert not table[41] and all(table[42:])


def test_frobenius_requires_coprime_generators():
    with pytest.raises(StructuralError):
        frobenius_number((4, 6))


def test_frobenius_numbers_of_known_semigroups():
    assert frobenius_number((2, 3)) == 1
    assert frobenius_number((3, 5)) == 7
    assert frobenius_number((6, 10, 15)) == 29
    assert frobenius_number((10, 12, 13)) == 41
    for a in range(2, 20):
        for b in range(a + 1, 30):
            if gcd(a, b) == 1:  # Sylvester
                assert frobenius_number((a, b)) == a * b - a - b


def test_frobenius_number_with_a_generator_one_or_zero():
    assert frobenius_number((1,)) == frobenius_number((1, 5)) == -1  # nothing is missing
    assert frobenius_number((0, 2, 3)) == 1  # a zero generator adds nothing


@pytest.mark.parametrize("generators", [(), (0,)])
def test_frobenius_refuses_no_positive_generator(generators):
    with pytest.raises(StructuralError):
        frobenius_number(generators)


def combination_sums(generators: tuple[int, ...], upto: int) -> set[int]:
    """Every sum c_1 g_1 + ... + c_n g_n <= upto, enumerating the
    coefficients one generator at a time."""
    sums = {0}
    for g in generators:
        if g:
            sums = {s + c * g for s in sums for c in range((upto - s) // g + 1)}
    return sums


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=4).map(tuple))
def test_semigroup_table_matches_enumerated_combinations(generators):
    positive = [g for g in generators if g]
    if gcd(*positive) != 1:
        with pytest.raises(StructuralError):
            frobenius_number(generators)
        return
    upto = max(positive) ** 2 + max(positive)
    sums = combination_sums(generators, upto)
    assert representable(generators, upto) == bytes(v in sums for v in range(upto + 1))
    # min(positive) representable values in a row leave no gap after them
    assert all(v in sums for v in range(upto - min(positive) + 1, upto + 1))
    gaps = [v for v in range(upto + 1) if v not in sums]
    assert frobenius_number(generators) == (gaps[-1] if gaps else -1)


# -- degree stability and windows -------------------------------------------------

def test_stability_on_seeded_corpus():
    corpus = degree_corpus(100, spine=8, seed=3)
    assert len(corpus) == 100
    assert degree_stability_check(corpus) == []


def test_fixed_point_is_trivially_stable():
    assert degree_stability_check([fixed_point(5)]) == []


def test_stability_check_reports_a_column_that_leaves_its_cycle(monkeypatch):
    # handles whose two top levels share a cycle; a step that drops every
    # level to the base breaks the invariance on each of them
    corpus = degree_corpus(100, spine=8, seed=3)
    tails = [h for h in corpus if column_of(h)[8].cycle == column_of(h)[7].cycle != 0]
    assert tails
    monkeypatch.setattr(analysis, "step", lambda h, delta: fixed_point(h.spine_level))
    assert degree_stability_check(tails) == tails


def test_window_min_zero_window_reads_current_degree():
    h = new_handle(3, 2, 5)
    current = degree_of_column(step(h, 0), 3)
    assert degree_window_min(h, 3, 0, 0).index == current.index


def test_window_min_bounded_by_degree_plus_one():
    for h in degree_corpus(40, spine=8, seed=4):
        deg = degree_of_column(h)
        if deg.is_infinite or deg.index + 1 > 8:
            continue
        result = degree_window_min(h, deg.index + 1, 0, 2000)
        assert result.index is not None and result.index <= deg.index + 1


def test_no_early_column_recurrence():
    # the only periodic point is the fixed point: sampled non-fixed handles
    # never repeat their full column within the scanned window
    rng = random.Random(10)
    for _ in range(10):
        h = random_handle(8, rng)
        base = column_of(h)
        for q in (1, 2, 10, 695, 10_000):
            assert column_of(step(h, q)) != base
