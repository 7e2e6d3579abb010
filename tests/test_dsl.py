"""Cover-document parsing, serialization, validation, builtin equivalence."""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope import (
    ChaoscopeError,
    DslSyntaxError,
    Formula,
    StructuralError,
    VertexAddr,
    build_level_spec,
    builtin_document,
    document_json,
    document_tower,
    equals_builtin,
    materialize_graph,
    parse,
    resolve,
    serialize,
)
from chaoscope.dsl import CycleDecl, DocSum, DocTerm, _normalize_items
from chaoscope.verify import DSL_MUTATIONS, rejection_stage

MINIMAL = """\
cover demo mode bouquet

level 1 {
  c1 := 10 e;
}
"""


def test_minimal_document_parses():
    doc = parse(MINIMAL)
    assert doc.name == "demo"
    assert serialize(doc).startswith("cover demo mode bouquet")
    assert doc.levels[0].cycles == (CycleDecl(1, (DocTerm(10, 0),)),)
    assert resolve(doc)[1] == []


def test_comprehension_expands_to_695():
    text = """\
cover demo mode bouquet
level 1 { c1 := 10 e; }
level 2 {
  c1 := sum(j=1..k){ j e + 2 c1 } + e + e;
  c2 := 90 e;
}
"""
    doc = parse(text)
    assert resolve(doc)[1] == []
    tower = document_tower(doc)
    assert tower[2].image_formulas[0].length == 695
    assert tower[2].cycle_lengths == (695, 90)


def test_formula_must_be_edge_bounded():
    doc = parse("cover x mode bouquet level 1 { c1 := c1 + e; }")
    codes = {v.code for v in resolve(doc)[1]}
    assert "EdgeBoundViolation" in codes


def test_syntax_error_carries_location():
    with pytest.raises(DslSyntaxError) as err:
        parse("cover x mode bouquet\nlevel 1 { c1 := ; }")
    assert err.value.line == 2
    assert "found" in str(err.value)


@pytest.mark.parametrize("formula, message, col", [
    ("c1 := \u00b2 e;", "unexpected character '\u00b2'", 38),
    ("c\u00b2 := 10 e;", "expected a cycle declaration like 'c1', found 'c\u00b2'", 32),
], ids=["superscript-count", "superscript-cycle"])
def test_digits_int_cannot_read_are_syntax_errors(formula, message, col):
    # '\u00b2'.isdigit() is true, but int('\u00b2') raises ValueError
    with pytest.raises(DslSyntaxError) as err:
        parse(f"cover x mode bouquet level 1 {{ {formula} }}")
    assert (err.value.line, err.value.col) == (1, col)
    assert str(err.value) == f"1:{col}: {message}"


@pytest.mark.parametrize("limit", [4300, 0], ids=["limit-in-force", "limit-lifted"])
def test_integer_past_the_digit_limit(limit):
    # the command line lifts the limit (0); a library caller may keep it
    text = "cover x mode bouquet level 1 { c1 := " + "1" * 5000 + " e; }"
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        if limit:
            with pytest.raises(DslSyntaxError) as err:
                parse(text)
            assert (err.value.line, err.value.col) == (1, 38)
            assert "5000 digits exceeds Python's int-digit limit 4300" in str(err.value)
        else:
            coef = int("1" * 5000)
            assert parse(text).levels[0].cycles == (CycleDecl(1, (DocTerm(coef, 0),)),)
    finally:
        sys.set_int_max_str_digits(saved)


def test_cycle_index_past_the_digit_limit():
    # the cycle word's digits end the same way as an integer token's
    text = "cover x mode bouquet level 1 { c" + "1" * 5000 + " := 10 e; }"
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(DslSyntaxError) as err:
            parse(text)
    finally:
        sys.set_int_max_str_digits(saved)
    assert str(err.value) == "1:32: integer of 5000 digits exceeds Python's int-digit limit 4300"


def test_decimal_digits_of_any_script_are_integers():
    doc = parse("cover x mode bouquet level 1 { c1 := \u0663 e; }")  # Arabic-Indic 3
    assert doc.levels[0].cycles == (CycleDecl(1, (DocTerm(3, 0),)),)


def test_comments_and_whitespace_are_insignificant():
    text = "cover x mode bouquet  # header\nlevel 1 {\n  # the only cycle\n  c1:=10 e;\n}"
    assert parse(text) == parse("cover x mode bouquet level 1 { c1 := 10 e; }")


def test_declared_length_mismatch():
    doc = parse("cover x mode bouquet level 1 { c1[696] := 10 e; }")
    codes = {v.code for v in resolve(doc)[1]}
    assert codes == {"LengthMismatch"}


def test_unknown_cycle_reference():
    doc = parse("""cover x mode bouquet
level 1 { c1 := 10 e; }
level 2 { c1 := e + 2 c1 + e; c2 := e + 2 c3 + e; }
""")
    codes = {v.code for v in resolve(doc)[1]}
    assert "UnknownCycle" in codes


def test_violation_code_does_not_depend_on_a_variable_name():
    # a loop variable outside a sum is a BadTerm, whatever it is called
    doc = parse("cover x mode bouquet level 1 { c1 := e + nested e + e; }")
    assert [v.code for v in resolve(doc)[1]] == ["BadTerm"]


LEVEL_ONE = "cover x mode bouquet level 1 { c1 := 10 e; } "


@pytest.mark.parametrize("text, expected", [
    (LEVEL_ONE + "level 2 { c1 := e + sum(j=5..3){ j e + c1 } + e; }",
     ["EmptySum (level 2, c1): empty sum: 5..3"]),
    (LEVEL_ONE + "level 2 { c1 := e + sum(j=1..3){ e + sum(i=1..2){ i e } + c1 } + e; }",
     ["NestedSum (level 2, c1): nested sums are not supported"]),
    (LEVEL_ONE + "level 2 { c1 := e + sum(j=1..3){ 0 c1 + e } + e; }",
     ["BadTerm (level 2, c1): count 0 must be positive"]),
    (LEVEL_ONE + "level 2 { c1 := e + sum(j=1..3){ i e + c1 } + e; }",
     ["BadTerm (level 2, c1): unknown variable 'i' in sum over 'j'"]),
    ("cover x mode bouquet level 1 { c1 := e; }",
     ["CycleTooShort (level 1, c1): cycle length 1 (need at least 2)"]),
], ids=["empty-sum", "nested-sum", "zero-count", "unknown-variable", "one-edge-cycle"])
def test_each_violation_path_reports_its_code(text, expected):
    assert [str(v) for v in resolve(parse(text))[1]] == expected


def test_an_empty_sum_body_is_a_violation():
    # parse refuses an empty body, so only a library-built document has one
    doc = parse(LEVEL_ONE + "level 2 { c1 := e + sum(j=1..3){ e } + e; }")
    level = doc.levels[1]
    head, middle, tail = level.cycles[0].terms
    cycle = replace(level.cycles[0], terms=(head, replace(middle, body=()), tail))
    doc = replace(doc, levels=(doc.levels[0], replace(level, cycles=(cycle,))))
    assert [str(v) for v in resolve(doc)[1]] == ["EmptySum (level 2, c1): empty sum body"]


def test_an_empty_formula_is_an_edge_bound_violation():
    # parse never makes an empty formula, so only a library-built cycle has one;
    # it does not begin with an edge term, and the walk goes on to the next cycle
    doc = builtin_document(2)
    level = replace(doc.levels[1], cycles=(CycleDecl(1, ()), CycleDecl(2, ())))
    doc = replace(doc, levels=(doc.levels[0], level))
    assert [str(v) for v in resolve(doc)[1]] == [
        f"EdgeBoundViolation (level 2, c{i}): image formulas must begin and end with an edge term"
        for i in (1, 2)]
    with pytest.raises(ChaoscopeError, match=r"^invalid cover document: EdgeBoundViolation"):
        document_tower(doc)


def test_a_negative_cycle_is_an_unknown_cycle_in_a_formula_and_in_a_sum():
    # parse never makes a negative atom, so only a library-built document has one;
    # both are reported, and the walk goes on to the next cycle
    doc = builtin_document(2)
    level = doc.levels[1]
    block, *edges = level.cycles[0].terms
    in_sum = replace(level.cycles[0], terms=(
        replace(block, body=(block.body[0], DocTerm("j", -1))), *edges))
    in_formula = replace(level.cycles[1], terms=(DocTerm(1, 0), DocTerm(1, -1), DocTerm(88, 0)))
    doc = replace(doc, levels=(doc.levels[0], replace(level, cycles=(in_sum, in_formula))))
    assert [str(v) for v in resolve(doc)[1]] == [
        "UnknownCycle (level 2, c1): unknown cycle c-1 (level below has 1)",
        "UnknownCycle (level 2, c2): unknown cycle c-1 (level below has 1)"]


def test_round_trip_is_structural_identity():
    for depth in (1, 2, 5):
        doc = builtin_document(depth)
        assert parse(serialize(doc)) == doc


def test_levelless_document_serializes_to_header_only():
    from chaoscope.dsl import CoverDocument

    assert serialize(CoverDocument("empty", ())) == \
        "cover empty mode bouquet\n\n"


def test_serialization_is_canonical_fixpoint():
    text = serialize(builtin_document(4))
    assert serialize(parse(text)) == text


def test_comprehension_survives_round_trip_unexpanded():
    doc = builtin_document(3)
    text = serialize(doc)
    assert "sum(j=1..k){ j e + 2 c1 }" in text
    reparsed = parse(text)
    assert isinstance(reparsed.levels[1].cycles[0].terms[0], DocSum)


def test_builtin_document_levels_up_to_five_are_equivalent():
    doc = builtin_document(5)
    tower, problems = resolve(doc)
    assert problems == []
    assert equals_builtin(tower, 5)


def test_each_document_spec_is_the_builtin_spec_of_its_level():
    # spec n holds level n's lengths, its k and its own cycles' formulas
    tower, problems = resolve(builtin_document(6))
    assert problems == [] and len(tower) == 7
    assert tower[0].image_formulas == ()
    for n, spec in enumerate(tower):
        ref = build_level_spec(n)
        assert (spec.level, spec.cycle_lengths, spec.k_value) == (
            ref.level, ref.cycle_lengths, ref.k_value)
        assert [_normalize_items(f.items) for f in spec.image_formulas] == [
            _normalize_items(f.items) for f in ref.image_formulas]


def test_builtin_document_is_written_without_the_generator(monkeypatch):
    # criterion 11 compares the document with build_level_spec, so the
    # document must not borrow its counts from it: each top cycle's length
    # comes from the document's own lower levels
    texts = [serialize(builtin_document(n)) for n in range(1, 9)]
    for n in range(2, 9):
        top = (n + 1) ** 2 * sum(build_level_spec(n - 1).cycle_lengths)
        assert builtin_document(n).levels[-1].cycles[-1].terms == (DocTerm(top, 0),)

    def refuse(n):
        raise AssertionError("builtin_document called build_level_spec")

    monkeypatch.setattr("chaoscope.dsl.build_level_spec", refuse)
    assert [serialize(builtin_document(n)) for n in range(1, 9)] == texts


def test_literal_k_equal_to_derived_k_is_still_equivalent():
    # writing the resolved bound 22 instead of "k" is the same construction
    text = serialize(builtin_document(2)).replace("sum(j=1..k)", "sum(j=1..22)")
    tower, problems = resolve(parse(text))
    assert problems == []
    assert equals_builtin(tower, 2)


def test_split_edge_runs_normalize_before_comparison():
    text = serialize(builtin_document(2)).replace("+ e + e;", "+ 2 e;")
    tower, problems = resolve(parse(text))
    assert problems == []
    assert equals_builtin(tower, 2)


def test_a_shorter_document_is_not_the_builtin_tower():
    tower, problems = resolve(builtin_document(2))
    assert problems == []
    assert equals_builtin(tower, 2)
    assert not equals_builtin(tower, 3)


def test_a_valid_level_with_a_third_cycle_is_not_the_builtin_tower():
    text = serialize(builtin_document(2)).replace("c2 := 90 e;", "c2 := 90 e;\n  c3 := 50 e;")
    tower, problems = resolve(parse(text))
    assert problems == []
    assert [f.length for f in tower[2].image_formulas] == [695, 90, 50]
    assert equals_builtin(tower, 1)
    assert not equals_builtin(tower, 2)


def test_every_mutant_is_rejected():
    canonical = serialize(builtin_document(5))
    assert len(DSL_MUTATIONS) >= 20
    stages = set()
    for name, find, replace in DSL_MUTATIONS:
        assert find in canonical, name
        stage = rejection_stage(canonical.replace(find, replace, 1), 5)
        assert stage is not None, f"mutant accepted: {name}"
        stages.add(stage)
    assert stages == {"syntax", "validation", "equivalence"}


def test_random_documents_round_trip():
    import random

    from chaoscope.dsl import CoverDocument, LevelBlock

    rng = random.Random(77)

    def random_formula(below, var_ok):
        terms = [DocTerm(rng.randrange(1, 50), 0)]
        for _ in range(rng.randrange(0, 4)):
            if below and rng.random() < 0.7:
                terms.append(DocTerm(rng.randrange(1, 4), rng.randrange(1, below + 1)))
            else:
                terms.append(DocTerm(rng.randrange(1, 30), 0))
        if var_ok and below and rng.random() < 0.4:
            body = (DocTerm("j", 0), DocTerm(2, rng.randrange(1, below + 1)))
            terms.insert(rng.randrange(0, len(terms) + 1),
                         DocSum("j", 1, rng.randrange(2, 9), body))
        terms.append(DocTerm(rng.randrange(1, 50), 0))
        return tuple(terms)

    for _ in range(40):
        depth = rng.randrange(1, 4)
        blocks = []
        for n in range(1, depth + 1):
            cycles = tuple(CycleDecl(i, random_formula(n - 1, var_ok=True))
                           for i in range(1, n + 1))
            blocks.append(LevelBlock(n, cycles))
        doc = CoverDocument("fuzz", tuple(blocks))
        assert resolve(doc)[1] == []
        text = serialize(doc)
        assert parse(text) == doc
        assert serialize(parse(text)) == text


def test_document_json_mirrors_grammar():
    record = document_json(builtin_document(2))
    assert record["cover"] == "builtin"
    level2 = record["levels"][1]
    sum_term = level2["cycles"][0]["formula"][0]["sum"]
    assert sum_term["var"] == "j" and sum_term["to"] == "k"
    assert json.dumps(record)  # JSON-serializable throughout


def test_document_tower_materializes():
    doc = builtin_document(2)
    tower = document_tower(doc)
    level = materialize_graph(2, spec_for=lambda n: tower[n])
    assert level.graph.vertex_count == 784


def test_materialized_cover_maps_every_cycle_the_document_declares():
    # level 2 has three cycles here, not two: cycle 3 is mapped as well
    tower = document_tower(parse("""\
cover many mode bouquet
level 1 { c1 := 4 e; c2 := 3 e; }
level 2 { c1 := e + c1 + e; c2 := e + c2 + e; c3 := e + c1 + e + c2 + e; }
"""))
    level1, level2 = (materialize_graph(n, spec_for=tower.__getitem__) for n in (1, 2))
    assert level2.cycle_lengths == (6, 5, 10)
    for vid in range(1, level2.graph.vertex_count):
        addr = level2.id_to_addr(vid)
        cycle, pos = tower[2].image_formulas[addr.cycle - 1].locate(addr.pos)
        assert level2.cover.vertex_map[vid] == level1.addr_to_id(VertexAddr(1, cycle, pos))


def test_document_tower_refuses_levels_it_lacks():
    tower = document_tower(parse(MINIMAL))  # specs of levels 0 and 1
    assert len(tower) == 2 and tower[1].cycle_lengths == (10,)
    negative = "level must be >= 0, got -1"
    past_end = "cover document ends at level 1"
    cases = [
        (lambda: tower[-1], negative),
        (lambda: tower[len(tower)], past_end),
        (lambda: materialize_graph(-1, spec_for=tower.__getitem__), negative),
        (lambda: materialize_graph(len(tower), spec_for=tower.__getitem__), past_end),
        # the built-in tower keeps the same contract for a negative level
        (lambda: build_level_spec(-1), negative),
        (lambda: materialize_graph(-1), negative),
    ]
    for lookup, message in cases:
        with pytest.raises(StructuralError, match=message):
            lookup()


def test_document_tower_builds_one_formula_per_cycle(monkeypatch):
    from chaoscope import dsl

    doc = builtin_document(4)
    built = []

    def counting_formula(*args):
        built.append(args)
        return Formula(*args)

    monkeypatch.setattr(dsl, "Formula", counting_formula)
    document_tower(doc)
    assert len(built) == sum(len(block.cycles) for block in doc.levels) == 10


def test_rejection_stage_builds_one_formula_per_cycle(monkeypatch):
    from chaoscope import dsl

    text = serialize(builtin_document(5))
    built = []

    def counting_formula(*args):
        built.append(args)
        return Formula(*args)

    monkeypatch.setattr(dsl, "Formula", counting_formula)
    assert rejection_stage(text, 5) is None
    assert len(built) == 15


# -- syntax diagnostics ---------------------------------------------------------

HEAD = "cover x mode bouquet "
CYCLE = HEAD + "level 1 { c1 := "


@pytest.mark.parametrize("text, message", [
    ("mode x", "1:1: expected keyword 'cover', found 'mode'"),
    ("cover mode bouquet", "1:7: expected a document name, found 'mode'"),
    ("cover x bouquet", "1:9: expected keyword 'mode', found 'bouquet'"),
    ("cover x mode level", "1:14: expected keyword 'bouquet', found 'level'"),
    ("cover x mode bouquet\n  sum", "2:3: expected keyword 'level', found 'sum'"),
    (HEAD + "level 1 { c1 := 10 e; } c2",
     "1:46: expected 'level' or end of input, found 2"),
    (HEAD + "level one {", "1:28: expected an integer, found 'one'"),
    (HEAD + "level 1 c1", "1:30: expected '{', found 1"),
    (HEAD + "level 1 { c1 := 10 e; ;", "1:44: expected '}', found ';'"),
    (HEAD + "level 1 { c1[10 := 10 e; }", "1:38: expected ']', found ':='"),
    (HEAD + "level 1 { c1 10 e; }", "1:35: expected ':=', found 10"),
    (HEAD + "level 1 { c1 := 10 e }", "1:43: expected ';', found '}'"),
    (HEAD + "level 1 { }", "1:32: expected a cycle declaration like 'c1', found '}'"),
    (CYCLE + "10 ; }", "1:41: expected 'e' or a cycle reference, found ';'"),
    (CYCLE + "sum j", "1:42: expected '(', found 'j'"),
    (CYCLE + "sum(1", "1:42: expected a loop variable, found 1"),
    (CYCLE + "sum(j 1", "1:44: expected '=', found 1"),
    (CYCLE + "sum(j=1 k", "1:46: expected '..', found 'k'"),
    (CYCLE + "sum(j=1..e", "1:47: expected an integer bound or 'k', found 'e'"),
    (CYCLE + "sum(j=1..k{", "1:48: expected ')', found '{'"),
    (CYCLE + "sum(j=1..k) j e", "1:50: expected '{', found 'j'"),
    (CYCLE + "sum(j=1..k){ j e ;", "1:55: expected '}', found ';'"),
    # a trailing comment does not move the end-of-input column
    ("cover x mode bouquet  # no level", "1:23: expected keyword 'level', found end of input"),
    ("cover x mode bouquet\nlevel 1 {\n  c1 := 10 e;\n\t# unclosed",
     "4:2: expected '}', found end of input"),
    (HEAD + "level 1 { c1 := 10 e; }\r\n  \tlevel 2 { c1 := e . c1 }",
     "2:22: unexpected character '.'"),
    (HEAD + "level 1 { c1 : 10 e; }", "1:35: unexpected character ':'"),
    (HEAD + "\f", "1:22: unexpected character '\\x0c'"),
    (HEAD + "level 1 { c1 := 1½ e; }", "1:39: unexpected character '½'"),
], ids=["cover", "name", "mode", "bouquet", "level", "level-or-end", "integer",
        "open-level", "close-level", "close-length", "define", "semicolon",
        "cycle-decl", "atom", "open-sum", "loop-variable", "equals", "range",
        "bound", "close-range", "open-body", "close-body", "end-after-comment",
        "end-after-comment-line", "dot", "colon", "form-feed", "vulgar-half"])
def test_each_syntax_diagnostic_names_its_place(text, message):
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert str(err.value) == message


def _reference_tokenize(text):
    """Reference lexer: the character-by-character walk the regular
    expression replaced, returning (kind, value, line, col) tuples."""
    keywords = {"cover", "mode", "level", "sum", "bouquet"}
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        two = text[i:i + 2]
        if two in (":=", ".."):
            tokens.append(("punct", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in "{}()[];+=":
            tokens.append(("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise DslSyntaxError(
                    f"integer of {j - i} digits exceeds Python's int-digit "
                    f"limit {sys.get_int_max_str_digits()}", start_line, start_col)
            tokens.append(("int", value, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            if word == "e":
                tokens.append(("edge", word, start_line, start_col))
            elif word == "k":
                tokens.append(("kbound", word, start_line, start_col))
            elif word in keywords:
                tokens.append(("kw", word, start_line, start_col))
            elif word[0] == "c" and word[1:].isdecimal():
                tokens.append(("cycle", int(word[1:]), start_line, start_col))
            else:
                tokens.append(("ident", word, start_line, start_col))
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", None, line, col))
    return tokens


# '\u0663' is a decimal digit; '\u00b2', '\u00bd' and '\u216b' are word
# characters but neither letters nor decimal digits; '\u4e00' is a letter
# with a numeric value
LEXEMES = ["cover", "mode", "bouquet", "level", "sum", "e", "k", "c", "c1", "j", "x_",
           "_", "0", "7", "12", "٣", "c٣", "²", "½", "一", "Ⅻ", "{", "}", "(", ")", "[",
           "]", ";", "+", "=", ":", ":=", ".", "..", "#", " ", "\t", "\r", "\n", "\f"]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LEXEMES), max_size=30).map("".join))
def test_lexer_matches_the_reference_walk(text):
    from chaoscope.dsl import _tokenize

    def lex(tokenize, row):
        try:
            return [row(t) for t in tokenize(text)]
        except DslSyntaxError as exc:
            return str(exc)

    assert lex(_tokenize, lambda t: (t.kind, t.value, t.line, t.col)) == \
        lex(_reference_tokenize, tuple)


@pytest.mark.parametrize("limit", [4300, 0], ids=["limit-in-force", "limit-lifted"])
def test_serialize_an_integer_past_the_digit_limit(limit):
    # the command line lifts the limit (0); a library caller may keep it
    from chaoscope.dsl import CoverDocument, LevelBlock

    cycle = CycleDecl(1, (DocTerm(10 ** 4999, 0),))
    long_count = CoverDocument("x", (LevelBlock(1, (cycle,)),))
    cycle = CycleDecl(1, (DocTerm(1, 0), DocSum("j", 10 ** 4999, None, (DocTerm("j", 0),))))
    long_from = CoverDocument("x", (LevelBlock(1, (cycle,)),))
    builtin = builtin_document(14)  # its top count has 7491 digits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for doc, digits in ((long_count, 5000), (long_from, 5000), (builtin, 7491)):
            if limit:
                for write in (serialize, document_json):
                    with pytest.raises(StructuralError) as err:
                        write(doc)
                    assert str(err.value) == \
                        f"integer of {digits} digits exceeds Python's int-digit limit 4300"
            else:
                assert parse(serialize(doc)) == doc
                assert json.loads(json.dumps(document_json(doc)))["cover"] == doc.name
    finally:
        sys.set_int_max_str_digits(saved)
