"""Acceptance suite: one test per criterion, each printing its pass line.

Run just this module with ``pytest tests/test_acceptance.py -v -s``; the same
checks are exposed on the command line as ``chaoscope check``.  Both run a
criterion through ``verify.run_check``, and the checks take no arguments,
so both run the same gates.  Each test pins its
criterion's line, which names the sample sizes, seeds, spines and windows.
"""

from __future__ import annotations

import pytest

from chaoscope import analysis, verify


def _assert(result, line):
    print(result.line())
    assert result.passed, result.detail
    assert result.line() == line


def test_criterion_01_length_table():
    _assert(verify.run_check(1),
            "criterion  1 [PASS] length table: "
            "|c_1,1|=10, |c_2,1|=695, |c_2,2|=90, |c_3,1|=3421640, "
            "|c_3,2|=182, |c_3,3|=12560, k_1=22, k_2=1572")


def test_criterion_02_cover_axioms():
    _assert(verify.run_check(2),
            "criterion  2 [PASS] cover axioms: "
            "level 0: 0 violations; level 1: 0+0+0 violations; level 2: "
            "0+0+0 violations; level 3: 0+0+0 violations")


def test_criterion_03_projection_oracle():
    _assert(verify.run_check(3),
            "criterion  3 [PASS] projection oracle: "
            "10794 addresses compared (levels <=2 exhaustive, 10000 "
            "sampled at level 3, seed 0)")


def test_criterion_04_fixed_point():
    _assert(verify.run_check(4),
            "criterion  4 [PASS] fixed point: "
            "all-base columns at spine 12 for steps 1, 1000000, "
            "1000000000000")


def test_criterion_05_invertibility():
    _assert(verify.run_check(5),
            "criterion  5 [PASS] invertibility: "
            "10000 handles at spine 8, steps up to 1000000, seed 0")


def test_criterion_06_mixing_claims():
    _assert(verify.run_check(6),
            "criterion  6 [PASS] mixing claims: "
            "j=1: 44 copies, missing gaps [1]; j=2: 138336 copies, "
            "missing gaps [1], suffix 184 <= 1570")


def test_criterion_07_cofinite_semigroup():
    _assert(verify.run_check(7),
            "criterion  7 [PASS] cofinite semigroup: "
            "generators (10, 12, 13) from return-length differences, "
            "Frobenius bound 41, [42, 1041] all representable")


def test_criterion_08_proximality():
    _assert(verify.run_check(8),
            "criterion  8 [PASS] proximality: "
            "100/100 handles hit the base at level 2 in all 10 windows of "
            "700 (gap bound 695), seed 0")


def test_criterion_09_li_yorke_sampling():
    _assert(verify.run_check(9),
            "criterion  9 [PASS] li-yorke sampling: "
            "proximal 100/100, separated 93/100 (need 100% / >= 90%), "
            "horizon 10000, seed 0")


def test_criterion_10_degree_properties():
    _assert(verify.run_check(10),
            "criterion 10 [PASS] degree properties: "
            "monotonicity on 10000 columns: True; stability on 100 "
            "handles: True; window minimum <= deg+1 on 92 handles: True "
            "(window 2000, seed 0)")


def test_criterion_11_cover_dsl():
    _assert(verify.run_check(11),
            "criterion 11 [PASS] cover DSL: "
            "levels <= 5 round-trip and generator-equal; 25/25 mutants "
            "rejected (equivalence: 5, syntax: 8, validation: 12)")


# Planted faults: criteria 10 and 11 can fail, each naming what it found.

def test_criterion_10_fails_on_a_degree_that_grows_with_depth(monkeypatch):
    real = analysis.degree_of_column
    monkeypatch.setattr(analysis, "degree_of_column", lambda h, depth=None: (
        analysis.DegreeValue(99) if depth == 8 else real(h, depth)))  # 8: the spine
    result = verify.run_check(10)
    assert not result.passed
    assert result.line() == (
        "criterion 10 [FAIL] degree properties: "
        "monotonicity on 10000 columns: False; stability on 100 "
        "handles: True; window minimum <= deg+1 on 92 handles: True "
        "(window 2000, seed 0)")


def test_criterion_11_fails_on_a_mutant_that_changes_nothing(monkeypatch):
    monkeypatch.setattr(verify, "DSL_MUTATIONS",
                        verify.DSL_MUTATIONS + (("no-op", "mode bouquet", "mode bouquet"),))
    result = verify.run_check(11)
    assert not result.passed
    assert result.line() == (
        "criterion 11 [FAIL] cover DSL: "
        "levels <= 5 round-trip and generator-equal; 25/26 mutants "
        "rejected (equivalence: 5, syntax: 8, validation: 12)")


@pytest.fixture(scope="module", autouse=True)
def _summary_banner():
    yield
    print("\nacceptance criteria complete")
