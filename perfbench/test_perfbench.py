"""Quick tests of the benchmark's own correctness checks and tracer.

Each check must reject a wrong answer: a column with one coordinate
altered, a Li-Yorke witness moved by one step, a corrupted cover reported
as clean.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from chaoscope import analysis, bouquet, dynamics

from perfbench import reference, trace, workloads
from perfbench.workloads import OracleWorkload, OrbitScanWorkload, QueryWorkload


@pytest.fixture(scope="module")
def query():
    return QueryWorkload(0)


@pytest.fixture(scope="module")
def orbit():
    return OrbitScanWorkload(0)


@pytest.fixture(scope="module")
def oracle():
    return OracleWorkload(0)


def test_reference_matches_the_published_length_table():
    lengths = reference.tower_lengths(3)
    for n, expected in reference.PUBLISHED_LENGTHS.items():
        assert lengths[n] == expected
    for n, k in reference.PUBLISHED_K.items():
        assert reference.k_value(lengths[n]) == k


def _first_query(workload, label):
    step = next(s for s in workload.steps if s.label.startswith(label))
    q = step.ops[0].__defaults__[0]
    return q, workloads.run_query(q), tuple(dynamics.column_of(q.partner))


@pytest.mark.parametrize("label", ["query s8 band", "query s12 uniform"])
def test_query_check_accepts_the_program_and_rejects_an_altered_coordinate(query, label):
    q, result, partner = _first_query(query, label)
    assert query.check_query(q, result, partner) == []
    for level in (1, 3, q.handle.spine_level - 2):
        column = list(result.column)
        a = column[level]
        column[level] = (bouquet.VertexAddr(level, a.cycle, a.pos + 1) if a.cycle
                         else bouquet.VertexAddr(level, 1, 1))
        wrong = dataclasses.replace(result, column=tuple(column))
        assert query.check_query(q, wrong, partner), f"level {level} change passed"


def test_query_check_rejects_a_late_base_time_and_a_bad_distance(query):
    q, result, partner = _first_query(query, "query s8 band")
    late = dataclasses.replace(result, base_time=result.base_time + 1)
    assert query.check_query(q, late, partner)
    d = result.dist
    far = dataclasses.replace(result, dist=dynamics.DistanceValue(d.exact, d.level + 1))
    assert query.check_query(q, far, partner)


def test_orbit_check_rejects_a_li_yorke_witness_moved_by_one_step(orbit):
    pair = orbit.pairs[0]  # both handles on cycle 1: the pair separates
    report = analysis.li_yorke_test(*pair, 10**4)
    assert report.separation_witness is not None
    assert orbit._check_li_yorke(pair, report) == []
    for shift in (-1, 1):
        for field in ("proximal_witness", "separation_witness"):
            t, dist = getattr(report, field)
            if t + shift < 0:
                continue
            moved = dataclasses.replace(report, **{field: (t + shift, dist)})
            assert orbit._check_li_yorke(pair, moved), f"{field} moved by {shift} passed"


def test_orbit_check_accepts_a_real_miss_and_rejects_a_false_one(orbit):
    # no joint level-2 base hit until t = 51893
    late = dynamics.new_handle(8, 1, 1029275), dynamics.new_handle(8, 1, 1023903)
    report = analysis.li_yorke_test(*late, 10**4)
    assert report.proximal_witness is None
    assert orbit._check_li_yorke(late, report) == []
    pair = orbit.pairs[0]
    missed = dataclasses.replace(analysis.li_yorke_test(*pair, 10**4), proximal_witness=None)
    assert orbit._check_li_yorke(pair, missed)


def test_orbit_check_rejects_a_late_window_hit(orbit):
    h = orbit.proximal[0]
    report = analysis.proximal_certificate(h, 2, list(workloads.PROXIMAL_WINDOWS))
    assert orbit._check_proximal(h, report) == []
    report.windows[3].hit += 1
    assert orbit._check_proximal(h, report)


def _step(workload, label):
    return next(s for s in workload.steps if s.label == label)


def test_oracle_check_rejects_a_corrupted_cover_reported_as_clean(oracle):
    step = _step(oracle, "homomorphism corrupted")
    assert oracle.check_step(step, [[]])
    # each corrupted vertex breaks the edges into and out of it
    full = sorted({edge for vid, _ in oracle.corruptions
                   for edge in ((vid - 1, vid), (vid, vid + 1))})
    assert oracle.check_step(step, [full]) == []
    missing = oracle.corruptions[0][0]
    partial = [edge for edge in full if missing not in edge]
    assert oracle.check_step(step, [partial])


def test_oracle_check_rejects_a_violation_on_a_built_in_cover(oracle):
    assert oracle.check_step(_step(oracle, "homomorphism 2"), [[]]) == []
    assert oracle.check_step(_step(oracle, "homomorphism 2"), [[(1, 2)]])


def test_walked_cycle_lengths_match_the_reference():
    level = bouquet.materialize_graph(2)
    assert workloads.walked_cycle_lengths(level.graph) == reference.tower_lengths(2)[2]


def test_tracer_wraps_every_alias_and_restores_them():
    original = bouquet.project_addr
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert dynamics.project_addr is bouquet.project_addr is not original
        tracer.new_round()
        tracer.active = True
        dynamics.column_of(dynamics.new_handle(4, 1, 5))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert dynamics.project_addr is bouquet.project_addr is original
    assert tracer.current.get("calls", "bouquet.project_addr") == 4
    assert tracer.current.children[("dynamics.column_of", "bouquet.project_addr")] == 4


def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in trace.LAYER_METRICS.items()}
