"""CLI surface: subcommands, exit codes, artifact determinism."""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from chaoscope import (
    StructuralError,
    VertexAddr,
    bouquet,
    build_level_spec,
    builtin_document,
    cycle_length,
    dynamics,
    errors,
    fixed_point,
    lift_choices,
    serialize,
    verify,
)
from chaoscope.cli import main, parse_handle
from chaoscope.errors import decimal_text, int_text


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_levels_table_contains_known_lengths(capsys):
    code, out = run(capsys, "levels", "--max", "3")
    assert code == 0
    for value in ("10", "695", "90", "3421640", "182", "12560", "1572"):
        assert value in out


def test_levels_json_format(capsys):
    code, out = run(capsys, "levels", "--max", "2", "--format", "json")
    rows = json.loads(out)
    assert rows[2]["cycle_lengths"] == ["695", "90"]


def test_levels_formulas_expose_specs(capsys):
    code, out = run(capsys, "levels", "--max", "2", "--formulas")
    rows = json.loads(out)
    assert rows[2]["image_formulas"][0][0] == {"kind": "sum", "bound": "22",
                                               "body": [
                                                   {"cycle": 0, "const": "0", "coef": "1"},
                                                   {"cycle": 1, "const": "2", "coef": "0"}]}


def test_validate_passes_small_levels(capsys):
    code, out = run(capsys, "validate", "--max-level", "2")
    assert code == 0
    assert "violations: surjectivity 0, homomorphism 0, bidirectionality 0" in out


def test_orbit_csv_example(capsys):
    code, out = run(capsys, "orbit", "--spine", "2", "--cycle", "1",
                    "--pos", "1", "--obs", "1", "--horizon", "3")
    assert code == 0
    assert out.splitlines() == [
        "t,cycle_0,pos_0,cycle_1,pos_1",
        "0,0,0,0,0",
        "1,0,0,1,1",
        "2,0,0,1,2",
        "3,0,0,1,3",
    ]


def test_orbit_usage_error_without_position(capsys):
    code = main(["orbit", "--spine", "2", "--horizon", "3"])
    assert code == 2


def test_orbit_exhaustion_is_a_budget_class_error(capsys):
    code = main(["orbit", "--spine", "1", "--cycle", "1", "--pos", "5",
                 "--horizon", "100"])
    assert code == 2


def test_distance_command(capsys):
    code, out = run(capsys, "distance", "--a", "2:1:1", "--b", "2:0:0")
    assert code == 0
    assert "2^-2" in out
    # equal columns up to the spine: only a bound below the spine's reach
    code, out = run(capsys, "distance", "--a", "8:0:0", "--b", "8:0:0")
    assert code == 0
    assert out == "d(8:0:0, 8:0:0) = <= 2^-9\n"


def test_degree_command_json(capsys):
    code, out = run(capsys, "degree", "--handle", "3:2:5")
    assert code == 0
    assert json.loads(out)["degree"] == "2"


def test_degree_command_with_window(capsys):
    code, out = run(capsys, "degree", "--handle", "8:1:5000",
                    "--level", "2", "--window", "800")
    assert code == 0
    record = json.loads(out)
    assert record["window_min"]["min"] == "1"


def test_degree_window_requires_level(capsys):
    assert main(["degree", "--handle", "8:1:5000", "--window", "10"]) == 2


def test_lift_command(capsys):
    code, out = run(capsys, "lift", "--level", "1", "--cycle", "1",
                    "--pos", "1", "--max", "5")
    record = json.loads(out)
    assert record["total"] == "44"
    assert record["truncated"] is True
    assert len(record["choices"]) == 5


def test_mixing_gaps_report(capsys):
    code, out = run(capsys, "mixing-gaps", "--m", "1", "--j", "1")
    assert code == 0
    record = json.loads(out)
    assert record["missing_gaps"] == ["1"]
    assert record["prefix_matches"] is True
    assert record["occurrences"]["gap_histogram"]["0"] == 22


def test_mixing_gaps_budget_exceeded(capsys):
    code = main(["mixing-gaps", "--m", "1", "--j", "3", "--budget", "1000000"])
    assert code == 2


def test_proximal_command(capsys):
    code, out = run(capsys, "proximal", "--level", "1", "--handles", "5",
                    "--windows", "3", "--window-len", "11")
    assert code == 0
    assert json.loads(out)["all_hit"] is True


def test_liyorke_small_run(capsys):
    # small samples are sep-noisy; the acceptance-scale run is criterion 9
    code, out = run(capsys, "liyorke", "--pairs", "8", "--horizon", "5000",
                    "--sep-rate", "0.5")
    assert code == 0
    record = json.loads(out)
    assert record["proximal_found"] == 8
    assert record["separation_found"] >= 4
    assert len(record["reports"]) == 8


def test_dsl_check_accepts_builtin(tmp_path, capsys):
    path = tmp_path / "builtin.cover"
    path.write_text(serialize(builtin_document(3)))
    code, out = run(capsys, "dsl-check", str(path), "--equivalence", "3")
    assert code == 0
    assert json.loads(out)["builtin_equivalent"] is True
    path.write_text("cover x mode bouquet level 1 { c1[10] := 10 e; }")
    code, out = run(capsys, "dsl-check", str(path), "--json")
    assert code == 0
    assert json.loads(out)["parsed"]["levels"][0]["cycles"][0]["declared_length"] == "10"


def test_dsl_check_rejects_violations(tmp_path, capsys):
    path = tmp_path / "bad.cover"
    path.write_text("cover x mode bouquet level 1 { c1 := c1 + e; }")
    code, out = run(capsys, "dsl-check", str(path))
    assert code == 1
    assert "EdgeBoundViolation" in out


def test_dsl_check_missing_file(capsys):
    assert main(["dsl-check", "/nonexistent.cover"]) == 2


def test_levels_accepts_cover_file(tmp_path, capsys):
    path = tmp_path / "tiny.cover"
    path.write_text("cover tiny mode bouquet level 1 { c1 := 4 e; }")
    code, out = run(capsys, "levels", "--max", "1", "--cover", str(path))
    assert code == 0
    assert "4" in out


def test_validate_accepts_materialized_cover(tmp_path, capsys):
    path = tmp_path / "tiny.cover"
    path.write_text("""cover tiny mode bouquet
level 1 { c1 := 6 e; }
level 2 { c1 := sum(j=1..k){ j e + 2 c1 } + e + e; c2 := 54 e; }
""")
    code, out = run(capsys, "validate", "--max-level", "2", "--cover", str(path))
    assert code == 0
    assert "bidirectionality 0" in out


def test_materialize_refuses_a_level_past_32_bit_ids(tmp_path, capsys):
    # no --vertex-budget lets a level overflow the 32-bit id columns, so the
    # default budget does not suggest a rerun with a larger one either
    path = tmp_path / "huge.cover"
    path.write_text("cover huge mode bouquet level 1 { c1 := 2147483650 e; }")
    for budget in ([], ["--vertex-budget", str(1 << 40)]):
        code = main(["materialize", "--cover", str(path), "--level", "1"] + budget)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: vertex_count 2147483650 out of range (at most 2**31)\n")


def test_levels_prints_lengths_past_the_int_digit_limit(capsys):
    code, out = run(capsys, "levels", "--max", "16", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 17
    limit = sys.get_int_max_str_digits()  # main restored it: read back with none
    sys.set_int_max_str_digits(0)
    try:
        top = [int(x) for x in rows[16]["cycle_lengths"]]
        assert len(str(top[0])) > 4300
        assert int(rows[16]["k"]) == 2 * (1 + sum(top))
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_leaves_the_int_digit_limit_as_it_found_it(capsys):
    limit = sys.get_int_max_str_digits()
    try:
        for found in (4300, 640, 0):
            sys.set_int_max_str_digits(found)
            assert run(capsys, "levels", "--max", "13")[0] == 0
            assert sys.get_int_max_str_digits() == found
            assert run(capsys, "orbit", "--spine", "3", "--cycle", "1", "--pos", "0",
                       "--horizon", "10")[0] == 2
            assert sys.get_int_max_str_digits() == found
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_text_equals_str_past_the_int_digit_limit():
    # written at the least digit limit Python accepts, read back with none
    rng = random.Random(35)
    numbers = [0, 1, (1 << 2048) - 1, 1 << 2048, 10**50_000 - 1, 10**50_000] + [
        rng.getrandbits(rng.randrange(1, 166_000)) for _ in range(20)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        texts = [decimal_text(n) for n in numbers]
        sys.set_int_max_str_digits(0)
        assert texts == [str(n) for n in numbers]
    finally:
        sys.set_int_max_str_digits(limit)


def test_int_text_writes_ints_by_decimal_text_once_the_limit_is_lifted(monkeypatch):
    # as the CLI runs: repr's text, written in subquadratic time, the sign
    # added to a negative one; what is no int keeps its repr
    rng = random.Random(36)
    numbers = [0, 1, -1, 1 << 2048, -(1 << 2048), 10**50_000, -(10**50_000) + 1] + [
        rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 166_000)) for _ in range(10)]
    written = []
    monkeypatch.setattr(errors, "decimal_text",
                        lambda n: written.append(n) or decimal_text(n))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert [int_text(n) for n in numbers] == [repr(n) for n in numbers]
        assert written == [abs(n) for n in numbers]
        assert (int_text(True), int_text("7"), int_text(2.5)) == ("True", "'7'", "2.5")
    finally:
        sys.set_int_max_str_digits(limit)


def test_levels_formulas_bytes_are_pinned(capsys):
    # the built-in tower's specs of levels 0-6, byte for byte
    code, out = run(capsys, "levels", "--max", "6", "--formulas")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e518f084f040f26fb350009714bfde6943c7522994900be637e6a3be2f317ca8")


def test_levels_of_the_builtin_document_match_the_builtin_tower(tmp_path, capsys):
    path = tmp_path / "builtin.cover"
    path.write_text(serialize(builtin_document(5)))
    code, from_cover = run(capsys, "levels", "--max", "5", "--format", "json",
                           "--cover", str(path))
    assert code == 0
    code, builtin = run(capsys, "levels", "--max", "5", "--format", "json")
    assert code == 0
    assert from_cover == builtin


def test_level_formulas_of_the_builtin_document_match_the_builtin_tower(tmp_path, capsys):
    path = tmp_path / "builtin.cover"
    path.write_text(serialize(builtin_document(5)))
    code, from_cover = run(capsys, "levels", "--max", "5", "--formulas", "--cover", str(path))
    assert code == 0
    code, builtin = run(capsys, "levels", "--max", "5", "--formulas")
    assert code == 0
    assert from_cover == builtin


def test_each_levels_formulas_record_holds_its_own_cycles(capsys):
    # record n holds level n's n formulas; levels 1-6 hold these 21, in order
    code, out = run(capsys, "levels", "--max", "6", "--formulas")
    assert code == 0
    rows = json.loads(out)
    assert [len(row["image_formulas"]) for row in rows] == list(range(7))
    flat = [formula for row in rows[1:] for formula in row["image_formulas"]]
    assert hashlib.sha256(json.dumps(flat).encode()).hexdigest() == (
        "23307cf7a6771ddf3660af14f579ce5183739fa55fc3feb14e3a890d470d5f6b")


@pytest.mark.parametrize("argv, expected", [
    ("levels --max -2", 2),
    ("levels --max 22", 2),  # past LEVEL_LIMIT: refused before any level is built
    ("degree --handle 22:3:5", 2),  # needs spec 22: refused, not warned about
    ("lift --level 21 --cycle 1 --pos 1", 2),  # refused before spec 21 is built
    ("liyorke --pairs -3", 2),
    ("liyorke --pairs 2 --horizon 2000 --sep-rate -1", 2),  # a rate is in [0, 1]
    ("liyorke --pairs 2 --horizon 2000 --sep-rate nan", 2),
    ("liyorke --pairs 2 --horizon 2000 --sep-rate 2", 2),
    ("liyorke --pairs 2 --horizon 2000 --sep-rate abc", 2),
    ("orbit --spine 2 --cycle 1 --pos 1 --obs 1 --horizon -5", 2),
    ("levels", 0),  # CHAOSCOPE_BUDGET is no longer read
    ("validate --cover bad.cover", 2),
    ("levels --max 5 --cover one.cover", 2),
    ("dsl-check bin.cover", 2),  # not UTF-8
    ("levels --cover bin.cover", 2),
    # a --cover file is input, not a checked property: a syntax error is a usage error
    ("levels --cover syn.cover", 2),
    ("validate --cover syn.cover", 2),
    ("materialize --level 1 --cover syn.cover", 2),
    ("dsl-check sup.cover", 1),  # '\u00b2' is a digit int() cannot read
    ("distance --a 2:1:1 --b 2:0:0 --out afile", 2),  # --out names a file
    ("distance --a 2:1:1 --b 2:0:0 --out afile/x", 2),
    ("check \u00b2", 2),  # isdigit() admits '\u00b2', which int() rejects
    ("liyorke --pairs 1 --spine 1 --horizon 5", 2),  # cycle 1 of level 1 is too short
    # a base address deeper than level 21, where no cycle address exists
    ("degree --handle 22:0:0", 2),
    ("orbit --spine 22 --base --horizon 0", 2),  # refused before spec 21 is built
    ("distance --a 300000:0:0 --b 2:0:0", 2),
    # argparse's own errors
    ("liyorke --seed x", 2),
    ("orbit --spine 2 --cycle x --pos 1 --horizon 3", 2),
    ("orbit --spine 2", 2),  # no --horizon
    ("levels --bogus", 2),
    ("frobnicate", 2),
])
def test_bad_input_ends_in_one_line(argv, expected, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHAOSCOPE_BUDGET", "abc")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cover").write_text("cover x mode bouquet level 1 { c1 := c1 + e; }")
    (tmp_path / "one.cover").write_text("cover tiny mode bouquet level 1 { c1 := 4 e; }")
    (tmp_path / "bin.cover").write_bytes(b"\xff\xfe bad")
    (tmp_path / "sup.cover").write_text("cover x mode bouquet level 1 { c1 := \u00b2 e; }",
                                        encoding="utf-8")
    (tmp_path / "syn.cover").write_text("cover x mode bouquet level 1 { c1 := 10 e }")
    (tmp_path / "afile").write_text("")
    assert main(argv.split()) == expected
    err = capsys.readouterr().err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    if "one.cover" in argv:
        assert err == "error: cover document ends at level 1\n"
    if "syn.cover" in argv:
        assert err.startswith("error: cover file: syntax error: 1:43: ")
    if "abc" in argv:
        assert err == "error: expected a rate in [0, 1], got 'abc'\n"
    if "--spine 1" in argv:
        assert "has length 10" in err and not re.search(r"-\d", err)


@pytest.mark.parametrize("argv", [
    "proximal --handles 0", "proximal --windows 0", "liyorke --pairs 0"])
def test_an_empty_sample_is_a_usage_error(argv, capsys):
    # a sample of nothing checks nothing, so it cannot pass
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == "error: expected a positive integer, got '0'\n"


def test_validate_a_cover_with_fewer_cycles_than_levels(tmp_path, capsys):
    path = tmp_path / "few.cover"
    path.write_text("cover few mode bouquet\n"
                    "level 1 { c1 := 4 e; }\n"
                    "level 2 { c1 := e + c1 + e; }\n")
    code, out = run(capsys, "validate", "--cover", str(path), "--max-level", "2")
    assert code == 0
    assert len(out.splitlines()) == 3
    assert out.splitlines()[2].startswith("level 2: 6 vertices, 7 edges")


SMALL = """\
cover small mode bouquet
level 1 { c1 := 4 e; }
level 2 { c1 := sum(j=1..3){ j e + 2 c1 } + e + e; c2 := 5 e; }
level 3 { c1 := sum(j=1..2){ j e + 2 c1 } + e + c2 + e; c2 := e + c1 + c2 + e; c3 := 6 e; }
"""


# Planted faults: each is (owner, attribute, wrap), ``owner.attribute``
# replaced by ``wrap`` of its true value.

def _block_sums_one_edge_long(init):
    """Every block sum over a level of two or more cycles counts one edge
    more than it expands to."""
    def planted(self, items, lengths):
        init(self, items, lengths)
        if len(self.lengths) >= 2:
            self.length += sum(isinstance(item, bouquet.BlockSum) for item in self.items)
    return planted


def _level_2_vertex_5_mapped_to_7(materialize):
    """Level 2's cover sends vertex 5 to level 1's vertex 7 in place of its
    true image."""
    def planted(n, *args, **kwargs):
        level = materialize(n, *args, **kwargs)
        if n == 2:
            level.cover.vertex_map[5] = 7
        return level
    return planted


BLOCK_SUMS_ONE_EDGE_LONG = (bouquet.Formula, "__init__", _block_sums_one_edge_long)
LEVEL_2_VERTEX_5_MAPPED_TO_7 = (bouquet, "materialize_graph", _level_2_vertex_5_mapped_to_7)
# Formula.locate answers for the offset one edge further on
LOCATE_ONE_EDGE_ON = (bouquet.Formula, "locate",
                      lambda locate: lambda self, offset: locate(self, offset + 1))


def _clear_caches():
    build_level_spec.cache_clear()
    verify._materialized.cache_clear()
    dynamics._kept = ()


@contextmanager
def planted(fault):
    """Run under a planted fault.  Specs, materialized levels and the kept
    walk are built afresh under it, and again after it."""
    owner, attribute, wrap = fault
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, attribute, wrap(getattr(owner, attribute)))
            _clear_caches()
            yield
    finally:
        _clear_caches()


# each planted fault fails its criterion, the line naming the criterion's title
@pytest.mark.parametrize("fault, argv, line", [
    (BLOCK_SUMS_ONE_EDGE_LONG, "check 1",
     "criterion  1 [FAIL] length table: StructuralError: level 3: "
     "a formula expands to 3421640 edges, its cycle has 3421641"),
    (LEVEL_2_VERTEX_5_MAPPED_TO_7, "check 2",
     "criterion  2 [FAIL] cover axioms: level 0: 0 violations; level 1: "
     "0+0+0 violations; level 2: 0+2+0 violations; level 3: 0+0+0 violations"),
    # criterion 3's detail names what it compared, not what differed
    (LOCATE_ONE_EDGE_ON, "check 3",
     "criterion  3 [FAIL] projection oracle: 10794 addresses compared "
     "(levels <=2 exhaustive, 10000 sampled at level 3, seed 0)"),
], ids=["block-sums-one-edge-long", "level-2-vertex-5-mapped-to-7", "locate-one-edge-on"])
def test_a_planted_fault_fails_its_criterion(fault, argv, line, capsys):
    with planted(fault):
        assert main(argv.split()) == 1
    assert capsys.readouterr() == (line + "\n", "")


def test_validate_refuses_a_formula_longer_than_its_expansion(tmp_path, capsys):
    # without the expansion's end check, level 3 read 182 vertices, one past
    # the true 181, and every validator passed the cover
    path = tmp_path / "small.cover"
    path.write_text(SMALL)
    with planted(BLOCK_SUMS_ONE_EDGE_LONG):
        assert main(["validate", "--cover", str(path), "--max-level", "3"]) == 2
    assert capsys.readouterr() == (
        "", "error: level 3: a formula expands to 138 edges, its cycle has 139\n")


def test_validate_fails_on_a_broken_vertex_map(capsys):
    with planted(LEVEL_2_VERTEX_5_MAPPED_TO_7):
        code, out = run(capsys, "validate", "--max-level", "2")
    assert code == 1
    assert out.splitlines()[2] == ("level 2: 784 vertices, 786 edges, violations: "
                                   "surjectivity 0, homomorphism 2, bidirectionality 0")


def test_level_limit_is_one_error_for_library_and_cli(monkeypatch, capsys):
    # the refusal does not depend on what the process built before
    monkeypatch.setattr(bouquet, "LEVEL_LIMIT", 3)
    build_level_spec.cache_clear()
    try:
        message = ("level 4 exceeds the practical limit 3; "
                   "cycle lengths roughly double in bit size per level")
        with pytest.raises(StructuralError) as err:
            build_level_spec(4)
        assert str(err.value) == message
        assert main(["levels", "--max", "4"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        # specs and addresses end at the same level
        assert fixed_point(3).address == (3, 0, 0) and cycle_length(3, 1) == 3_421_640
        with pytest.raises(StructuralError, match="^level 4 is past 3, the deepest level"):
            fixed_point(4)
        assert lift_choices(VertexAddr(2, 1, 1), 1).total > 0
        build_level_spec.cache_clear()
        with pytest.raises(StructuralError) as err:
            lift_choices(VertexAddr(3, 1, 1), 1)
        assert str(err.value) == message
        assert build_level_spec.cache_info().currsize == 0  # refused before any spec
    finally:
        build_level_spec.cache_clear()


EMPTY = hashlib.sha256(b"").hexdigest()


# (argv, exit code, sha256 of stdout, stderr): each argv's output, byte for byte
PINNED = [
    ("levels --max 3", 0,
     "1d012122e4f80d1bed45bd30ac96a817c65e528651cc86be698ff35a6dce1df7",
     ""),
    ("levels --max 2 --format json", 0,
     "807d067c208604bfc5c1cd989af05179ede88deceaf4f981ce0e50d68e13552d",
     ""),
    ("levels --max 1 --formulas", 0,
     "b9d4c9c700a5117e51b5dc254edabee395faf0404a1661f509eda12ebf49d904",
     ""),
    ("levels --max 22", 2,
     EMPTY,
     "error: level 22 exceeds the practical limit 21; cycle lengths roughly double"
     " in bit size per level\n"),
    ("levels --cover missing.cover", 2,
     EMPTY,
     "error: cannot read cover file: [Errno 2] No such file or directory: 'missing.cover'\n"),
    ("validate --max-level 1", 0,
     "fffaf4d7dd789ac2bb16dd6c86e7bdb7bf5758a07413ed566ccd4a184c689690",
     ""),
    ("materialize --level 1 --dot", 0,
     "4e8c66bec4e625227b3a070386ecfc238276ebcbd23574b6334cc571efc40b5d",
     ""),
    ("materialize --level 1 --out out", 0,
     "9b312bdde293b9162e60a202531f7dde6f55eca422e55cfb94e16d5ce4e52140",
     ""),
    ("orbit --spine 2 --cycle 1 --pos 1 --obs 1 --horizon 3", 0,
     "4c1aeb2d2f338a3cbcaadb77c04513a4fb1c279790178125dcc90397b4b595f0",
     ""),
    ("orbit --spine 3 --base --horizon 4 --format jsonl", 0,
     "bb216f75e75047b61a8dd60fdaf8eb1ad9419c6b5bfa41d087e69eeda9fb2aef",
     ""),
    ("orbit --spine 2 --cycle 1 --pos 1 --obs 3 --horizon 3", 2,
     EMPTY,
     "error: --obs cannot exceed --spine\n"),
    ("orbit --spine 2 --horizon 3", 2,
     EMPTY,
     "error: orbit needs --cycle and --pos (or --base)\n"),
    ("distance --a 2:1:1 --b 2:0:0", 0,
     "97a5af0257f0241306966de010cc686d5a430dfcd0783a80ff930e1e4b089c28",
     ""),
    ("distance --a 2:1:1@4 --b 3:2:5 --format json", 0,
     "598edffe74a95202004c16053d224ab88a3d4b0d5f6135ffee8eb216a7d48e94",
     ""),
    ("distance --a bad --b 2:0:0", 2,
     EMPTY,
     "error: bad handle spec 'bad', expected SPINE:CYCLE:POS[@T]\n"),
    ("degree --handle 3:2:5", 0,
     "7db69bc32746ca7819b248adde21f46b50cf83459030b717587a319f89c38833",
     ""),
    ("degree --handle 8:1:5000 --level 2 --start 100 --window 800", 0,
     "86e8bc840585b1966b3fef40c9925120fcdadc7a56e4323d96d61e602b11e2a9",
     ""),
    ("degree --handle 8:1:5000 --window 10", 2,
     EMPTY,
     "error: --window needs --level\n"),
    ("lift --level 1 --cycle 1 --pos 1 --max 5", 0,
     "0e9d07f9c8e57ec264261306175a958b1800174a85305757cfcb486108a1ab9a",
     ""),
    ("proximal --level 1 --handles 2 --windows 2 --window-len 11", 0,
     "9d8ce30bd3fac24223ccac9a688481648116f9c5e7f25be30434a7cce8834120",
     ""),
    ("liyorke --pairs 2 --horizon 2000 --seed 3", 0,
     "16192e8048c5b293af6d3a32821c294ac5f1639f00aac8441f6b423e96a54b28",
     "proximal 2/2, separated 2/2\n"),
    ("mixing-gaps --m 1 --j 1", 0,
     "595b32446081e2f8ceac9d92af3b0d748f04dfbefa2159aa23131c3bc57a347c",
     ""),
    ("mixing-gaps --m 1 --j 3 --budget 1000000", 2,
     EMPTY,
     "error: occurrence scan of cycle 1 at level 4: requires 70594865633727, budget"
     " is 1000000 (rerun with a budget of at least 70594865633727)\n"),
    ("dsl-check syntax.cover", 1,
     EMPTY,
     "syntax error: 1:38: expected 'e' or a cycle reference, found ';'\n"),
    ("dsl-check bad.cover", 1,
     "55324ce148ba6b1cbeba8b7602c3f47c7f132ee7a41fbb1ee86f953aac4a3859",
     ""),
    ("dsl-check builtin.cover --json --canonical --equivalence 3", 0,
     "eedfb52632daff6b649e864586e505b84a78ad92aa47b024db2c6739d102186c",
     ""),
    ("dsl-check missing.cover", 2,
     EMPTY,
     "error: cannot read missing.cover: [Errno 2] No such file or directory: 'missing.cover'\n"),
    ("check", 0,
     "ba2795dfb638320d8544124cbc5f892217a97e2a31379e9f8485d1b603c80e50",
     ""),
    ("check --list", 0,
     "0e43044695f13f0d0a75d1bef5ed74fa647a5c04e5a6558cbc64976d2ddb91ae",
     ""),
    ("check 7 fixed-point", 0,
     "1f3e45a4b3fa7bd729f43feb0921696c7db3c79708dbee104b29d8323e088661",
     ""),
    ("check nope", 2,
     EMPTY,
     "error: unknown check 'nope' (try --list)\n"),
]


@pytest.mark.parametrize("argv, code, out_sha, err", PINNED,
                         ids=[pin[0] for pin in PINNED])
def test_cli_output_is_pinned(argv, code, out_sha, err, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "syntax.cover").write_text("cover x mode bouquet level 1 { c1 := ; }")
    (tmp_path / "bad.cover").write_text("cover x mode bouquet level 1 { c1 := c1 + e; }")
    (tmp_path / "builtin.cover").write_text(serialize(builtin_document(3)))
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha
    assert captured.err == err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument command: invalid choice: 'frobnicate'")
    assert len(err.splitlines()) == 1


def test_artifacts_are_deterministic(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        code = main(["liyorke", "--pairs", "3", "--horizon", "2000",
                     "--seed", "9", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
    assert (out1 / "liyorke.json").read_bytes() == (out2 / "liyorke.json").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1 == m2
    assert m1["artifacts"][0]["sha256"] == m2["artifacts"][0]["sha256"]


def test_materialize_writes_dot_and_stats(tmp_path, capsys):
    out = tmp_path / "mat"
    code = main(["materialize", "--level", "1", "--dot", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    names = {a["path"] for a in manifest["artifacts"]}
    assert names == {"level1.stats.json", "level1.dot"}
    assert (out / "level1.dot").read_text().count("->") == 11


def test_materialize_prints_the_stats_record(capsys):
    code, out = run(capsys, "materialize", "--level", "2")
    assert code == 0
    assert json.loads(out) == {"level": 2, "vertex_count": 784, "edge_count": 786,
                               "cycle_lengths": ["695", "90"]}


def test_check_subcommand_single_criterion(capsys):
    code, out = run(capsys, "check", "semigroup")
    assert code == 0
    assert "criterion  7 [PASS]" in out


def test_check_runs_a_repeated_criterion_once(capsys, monkeypatch):
    token, title, check = verify.ALL_CHECKS[4]
    calls = []

    def counting_check():
        calls.append(1)
        return check()

    monkeypatch.setitem(verify.ALL_CHECKS, 4, (token, title, counting_check))
    code, out = run(capsys, "check", "4", "4", "fixed-point")
    assert code == 0
    assert len(calls) == 1
    assert out.count("criterion  4 [PASS]") == 1 and len(out.splitlines()) == 1


def test_a_criterion_that_raises_prints_a_fail_line(capsys, monkeypatch):
    token, title, _ = verify.ALL_CHECKS[4]

    def raising_check():
        raise ZeroDivisionError("planted fault")

    monkeypatch.setitem(verify.ALL_CHECKS, 4, (token, title, raising_check))
    code, out = run(capsys, "check", "7", "4", "semigroup", "fixed-point", "11")
    assert code == 1
    first, failed, last = out.splitlines()
    assert failed == "criterion  4 [FAIL] fixed point: ZeroDivisionError: planted fault"
    assert first.startswith("criterion  7 [PASS]") and last.startswith("criterion 11 [PASS]")


def test_a_mutation_whose_pattern_is_absent_fails_criterion_11(capsys, monkeypatch):
    monkeypatch.setattr(verify, "DSL_MUTATIONS",
                        verify.DSL_MUTATIONS + (("absent", "no such text", "e"),))
    code, out = run(capsys, "check", "11")
    assert code == 1
    assert out == ("criterion 11 [FAIL] cover DSL: "
                   "AssertionError: mutation 'absent': pattern not in document\n")


def test_parse_handle_specs():
    assert parse_handle("8:1:5@3").offset == 3
    assert parse_handle("4:0:0").address.is_base
    with pytest.raises(Exception):
        parse_handle("bad")


@pytest.mark.parametrize("argv, option, values", [
    ("proximal --level 1 --handles 2 --windows 2 --window-len 11",
     "--window-stride", ("1000", "3000")),
    ("liyorke --pairs 2 --horizon 2000", "--sep-depth", ("1", "2")),
    ("degree --handle 8:1:5000 --level 2 --window 50", "--start", ("0", "7")),
], ids=["proximal", "liyorke", "degree"])
def test_manifest_records_every_option(argv, option, values, tmp_path, capsys):
    configs = []
    for value in values:
        out = tmp_path / value
        main([*argv.split(), option, value, "--out", str(out)])
        capsys.readouterr()
        configs.append(json.loads((out / "manifest.json").read_text())["config"])
    assert configs[0] != configs[1]
    assert configs[1][option[2:].replace("-", "_")] == values[1]


def test_python_dash_m_runs_the_command_line():
    # `python -m chaoscope` works from a checkout, with src/ on the path
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "chaoscope", "check", "--list"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == \
        "0e43044695f13f0d0a75d1bef5ed74fa647a5c04e5a6558cbc64976d2ddb91ae"
