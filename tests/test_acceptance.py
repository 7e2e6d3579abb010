"""Acceptance suite: one test per criterion, each printing its pass line.

Run just this module with ``pytest tests/test_acceptance.py -v -s``; the same
checks are exposed on the command line as ``chaoscope check``.  The checks
take no arguments, so both run the same gates.  Each test pins its
criterion's line, which names the sample sizes, seeds, spines and windows.
"""

from __future__ import annotations

import pytest

from chaoscope import verify


def _assert(result, line):
    print(result.line())
    assert result.passed, result.detail
    assert result.line() == line


def test_criterion_01_length_table():
    _assert(verify.check_length_table(),
            "criterion  1 [PASS] length table: "
            "|c_1,1|=10, |c_2,1|=695, |c_2,2|=90, |c_3,1|=3421640, "
            "|c_3,2|=182, |c_3,3|=12560, k_1=22, k_2=1572")


def test_criterion_02_cover_axioms():
    _assert(verify.check_cover_axioms(),
            "criterion  2 [PASS] cover axioms: "
            "level 0: 0 violations; level 1: 0+0+0 violations; level 2: "
            "0+0+0 violations; level 3: 0+0+0 violations")


def test_criterion_03_projection_oracle():
    _assert(verify.check_projection_oracle(),
            "criterion  3 [PASS] projection oracle: "
            "10794 addresses compared (levels <=2 exhaustive, 10000 "
            "sampled at level 3, seed 0)")


def test_criterion_04_fixed_point():
    _assert(verify.check_fixed_point(),
            "criterion  4 [PASS] fixed point: "
            "all-base columns at spine 12 for steps 1, 1000000, "
            "1000000000000")


def test_criterion_05_invertibility():
    _assert(verify.check_invertibility(),
            "criterion  5 [PASS] invertibility: "
            "10000 handles at spine 8, steps up to 1000000, seed 0")


def test_criterion_06_mixing_claims():
    _assert(verify.check_mixing_claims(),
            "criterion  6 [PASS] mixing claims: "
            "j=1: 44 copies, missing gaps [1]; j=2: 138336 copies, "
            "missing gaps [1], suffix 184 <= 1570")


def test_criterion_07_cofinite_semigroup():
    _assert(verify.check_semigroup(),
            "criterion  7 [PASS] cofinite semigroup: "
            "generators (10, 12, 13) from return-length differences, "
            "Frobenius bound 41, [42, 1041] all representable")


def test_criterion_08_proximality():
    _assert(verify.check_proximality(),
            "criterion  8 [PASS] proximality: "
            "100/100 handles hit the base at level 2 in all 10 windows of "
            "700 (gap bound 695), seed 0")


def test_criterion_09_li_yorke_sampling():
    _assert(verify.check_li_yorke(),
            "criterion  9 [PASS] li-yorke sampling: "
            "proximal 100/100, separated 93/100 (need 100% / >= 90%), "
            "horizon 10000, seed 0")


def test_criterion_10_degree_properties():
    _assert(verify.check_degree_properties(),
            "criterion 10 [PASS] degree properties: "
            "monotonicity on 10000 columns: True; stability on 100 "
            "handles: True; window minimum <= deg+1 on 92 handles: True "
            "(window 2000, seed 0)")


def test_criterion_11_cover_dsl():
    _assert(verify.check_dsl(),
            "criterion 11 [PASS] cover DSL: "
            "levels <= 5 round-trip and generator-equal; 25/25 mutants "
            "rejected (equivalence: 5, syntax: 8, validation: 12)")


@pytest.fixture(scope="module", autouse=True)
def _summary_banner():
    yield
    print("\nacceptance criteria complete")
