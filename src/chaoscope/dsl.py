"""Text format for user-defined cover towers (``.cover`` files).

A document names each level's cycles and gives, per cycle, the image formula
over the symbols of the level below.  Grammar (EBNF)::

    document      := header level+
    header        := "cover" IDENT "mode" "bouquet"
    level         := "level" INT "{" cycle+ "}"
    cycle         := "c" INT ("[" INT "]")? ":=" formula ";"
    formula       := term ("+" term)*
    term          := coefficient? atom | comprehension
    coefficient   := INT | IDENT          (IDENT only inside a comprehension)
    atom          := "e" | "c" INT
    comprehension := "sum" "(" IDENT "=" INT ".." BOUND ")" "{" formula "}"
    BOUND         := INT | "k"

``e`` is the base self-loop of the level below, ``cI`` its cycle ``I``; a
coefficient repeats the atom.  ``k`` resolves to twice the total edge count
of the level below.  Integers are decimal; one longer than Python's
int-digit limit is a syntax error (the command line lifts the limit).
Whitespace is insignificant, ``#`` starts a comment.  Level 0 (the single
base vertex) is implicit; blocks must be contiguous from level 1.  The
optional ``[length]`` annotation declares the cycle's expected length and
is checked against the formula.

The public road: :func:`parse` turns text into a :class:`CoverDocument`;
:func:`resolve` walks it once into its :class:`Tower` and every
:class:`Violation`; :func:`document_tower` returns that tower, or raises when
there are violations; :func:`equals_builtin` compares a valid tower with the
built-in construction.  :func:`serialize` and :func:`document_json` write a
document back out.

Comprehensions are the one macro form and stay unexpanded through parse,
serialize and JSON export; validation inverts their quadratic length prefix
instead of expanding, so documents describing astronomically deep levels
stay cheap to check.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

from .bouquet import (
    BlockSum,
    BlockTerm,
    Formula,
    FormulaItem,
    LevelSpec,
    Run,
    build_level_spec,
)
from .errors import ChaoscopeError, StructuralError

class DslSyntaxError(ChaoscopeError):
    """First-error diagnostic with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


# ---------------------------------------------------------------------------
# Document model (mirrors the grammar).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DocTerm:
    coef: int | str  # loop-variable name when symbolic
    atom: int        # 0 = base edge, i >= 1 = cycle i of the level below


@dataclass(frozen=True)
class DocSum:
    var: str
    lo: int
    bound: int | None  # None encodes the symbolic bound "k"
    body: tuple["DocTerm | DocSum", ...]


DocElement = DocTerm | DocSum


@dataclass(frozen=True)
class CycleDecl:
    index: int
    terms: tuple[DocElement, ...]
    declared_length: int | None = None


@dataclass(frozen=True)
class LevelBlock:
    level: int
    cycles: tuple[CycleDecl, ...]


@dataclass(frozen=True)
class CoverDocument:
    name: str
    levels: tuple[LevelBlock, ...]


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    level: int | None = None
    cycle: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.level is not None:
            where = f" (level {self.level}" + (
                f", c{self.cycle})" if self.cycle is not None else ")")
        return f"{self.code}{where}: {self.message}"


# ---------------------------------------------------------------------------
# Lexer.
# ---------------------------------------------------------------------------

_KEYWORDS = {"cover", "mode", "level", "sum", "bouquet"}
_WORD_KINDS = {"e": "edge", "k": "kbound", **dict.fromkeys(_KEYWORDS, "kw")}
# On str patterns \d is str.isdecimal() and \w is str.isalnum() plus '_'
# (isdigit() would also admit '\u00b2', which int() rejects).
_TOKEN = re.compile(r"(?P<skip>[ \t\r\n]+|#[^\n]*)|(?P<punct>:=|\.\.|[{}()\[\];+=])"
                    r"|(?P<int>\d+)|(?P<word>\w+)")


@dataclass(frozen=True)
class _Token:
    kind: str  # int | cycle | edge | kbound | ident | kw | punct | eof
    value: object
    line: int
    col: int


def _word_kind(word: str) -> tuple[str, object]:
    """A word's token kind and value: edge, k, keyword, cycle or identifier."""
    if word[0] == "c" and word[1:].isdecimal():
        return "cycle", word[1:]  # digits: _tokenize converts them
    return _WORD_KINDS.get(word, "ident"), word


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        kind = match.lastgroup if match else None
        col = pos - line_start + 1
        if kind is None or kind == "word" and not (text[pos].isalpha() or text[pos] == "_"):
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        value: object = match.group()
        pos = match.end()
        if kind == "skip":
            if "\n" in value:
                line += value.count("\n")
                line_start = text.rindex("\n", 0, pos) + 1
            continue
        if kind == "word":
            kind, value = _word_kind(value)
        if kind in ("int", "cycle"):
            try:
                value = int(value)
            except ValueError:  # more digits than Python's int-digit limit
                raise DslSyntaxError(
                    f"integer of {len(value)} digits exceeds Python's "
                    f"int-digit limit {sys.get_int_max_str_digits()}", line, col)
        tokens.append(_Token(kind, value, line, col))
    # end of input sits where a trailing comment starts, if there is one
    end = text.find("#", line_start)
    tokens.append(_Token("eof", None, line, (pos if end < 0 else end) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def fail(self, message: str) -> DslSyntaxError:
        tok = self.tokens[self.pos]
        shown = "end of input" if tok.kind == "eof" else repr(tok.value)
        return DslSyntaxError(f"{message}, found {shown}", tok.line, tok.col)

    def accept(self, kind: str, value: object) -> _Token | None:
        """Consume and return the next token if it has this kind and, unless
        ``value`` is None, this value."""
        tok = self.tokens[self.pos]
        if tok.kind != kind or value is not None and tok.value != value:
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, message: str) -> object:
        tok = self.accept(kind, None)
        if tok is None:
            raise self.fail(message)
        return tok.value

    def expect_symbol(self, value: str) -> None:
        """Consume a keyword or a punctuation mark."""
        kind = "kw" if value in _KEYWORDS else "punct"
        if not self.accept(kind, value):
            raise self.fail(("expected keyword " if kind == "kw" else "expected ") + repr(value))

    def document(self) -> CoverDocument:
        self.expect_symbol("cover")
        name = self.expect("ident", "expected a document name")
        self.expect_symbol("mode")
        self.expect_symbol("bouquet")
        self.expect_symbol("level")
        levels = [self.level_block()]
        while self.accept("kw", "level"):
            levels.append(self.level_block())
        self.expect("eof", "expected 'level' or end of input")
        return CoverDocument(name, tuple(levels))

    def level_block(self) -> LevelBlock:
        """A level's number and cycles, after its 'level' keyword."""
        index = self.expect("int", "expected an integer")
        self.expect_symbol("{")
        cycles = [self.cycle_decl()]
        while self.tokens[self.pos].kind == "cycle":
            cycles.append(self.cycle_decl())
        self.expect_symbol("}")
        return LevelBlock(index, tuple(cycles))

    def cycle_decl(self) -> CycleDecl:
        index = self.expect("cycle", "expected a cycle declaration like 'c1'")
        declared = None
        if self.accept("punct", "["):
            declared = self.expect("int", "expected an integer")
            self.expect_symbol("]")
        self.expect_symbol(":=")
        terms = self.formula()
        self.expect_symbol(";")
        return CycleDecl(index, terms, declared)

    def formula(self) -> tuple[DocElement, ...]:
        terms = [self.term()]
        while self.accept("punct", "+"):
            terms.append(self.term())
        return tuple(terms)

    def term(self) -> DocElement:
        if self.accept("kw", "sum"):
            return self.comprehension()
        tok = self.accept("int", None) or self.accept("ident", None)
        coef = 1 if tok is None else tok.value
        if self.accept("edge", None):
            return DocTerm(coef, 0)
        return DocTerm(coef, self.expect("cycle", "expected 'e' or a cycle reference"))

    def comprehension(self) -> DocSum:
        """A sum's range and body, after its 'sum' keyword."""
        self.expect_symbol("(")
        var = self.expect("ident", "expected a loop variable")
        self.expect_symbol("=")
        lo = self.expect("int", "expected an integer")
        self.expect_symbol("..")
        bound = None if self.accept("kbound", None) else \
            self.expect("int", "expected an integer bound or 'k'")
        self.expect_symbol(")")
        self.expect_symbol("{")
        body = self.formula()
        self.expect_symbol("}")
        return DocSum(var, lo, bound, body)


def parse(text: str) -> CoverDocument:
    """Parse a cover document; raises :class:`DslSyntaxError` on the first
    lexical or syntactic problem, with its location."""
    return _Parser(_tokenize(text)).document()


# ---------------------------------------------------------------------------
# Canonical serialization.
# ---------------------------------------------------------------------------

def _decimal(value: int | str) -> str:
    """``str(value)``.  An integer past Python's int-digit limit is one
    :class:`StructuralError` naming its digit count, as :func:`parse`
    reports one it reads."""
    try:
        return str(value)
    except ValueError:  # the bit length leaves two digit counts; 10**d picks one
        digits = int(abs(value).bit_length() * math.log10(2)) + 1
        digits -= abs(value) < 10 ** (digits - 1)
        raise StructuralError(f"integer of {digits} digits exceeds Python's "
                              f"int-digit limit {sys.get_int_max_str_digits()}")


def _render_atom(atom: int) -> str:
    return "e" if atom == 0 else f"c{_decimal(atom)}"


def _render_element(el: DocElement) -> str:
    if isinstance(el, DocTerm):
        if el.coef == 1:
            return _render_atom(el.atom)
        return f"{_decimal(el.coef)} {_render_atom(el.atom)}"
    bound = "k" if el.bound is None else _decimal(el.bound)
    body = " + ".join(_render_element(t) for t in el.body)
    return f"sum({el.var}={_decimal(el.lo)}..{bound}){{ {body} }}"


def serialize(doc: CoverDocument) -> str:
    """Canonical text form; ``parse(serialize(doc))`` is structurally ``doc``."""
    lines = [f"cover {doc.name} mode bouquet", ""]
    for block in doc.levels:
        lines.append(f"level {_decimal(block.level)} {{")
        for cyc in block.cycles:
            ann = "" if cyc.declared_length is None else f"[{_decimal(cyc.declared_length)}]"
            body = " + ".join(_render_element(t) for t in cyc.terms)
            lines.append(f"  c{_decimal(cyc.index)}{ann} := {body};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def document_json(doc: CoverDocument) -> dict:
    """JSON mirror of the parsed document, 1:1 with the grammar."""
    def element(el: DocElement) -> dict:
        if isinstance(el, DocTerm):
            return {"coef": _decimal(el.coef), "atom": _render_atom(el.atom)}
        return {"sum": {"var": el.var, "from": _decimal(el.lo),
                        "to": "k" if el.bound is None else _decimal(el.bound),
                        "body": [element(t) for t in el.body]}}

    return {
        "cover": doc.name,
        "mode": "bouquet",
        "levels": [
            {"level": b.level,
             "cycles": [
                 {"index": c.index,
                  "declared_length": None if c.declared_length is None
                  else _decimal(c.declared_length),
                  "formula": [element(t) for t in c.terms]}
                 for c in b.cycles]}
            for b in doc.levels],
    }


# ---------------------------------------------------------------------------
# Validation and resolution.
# ---------------------------------------------------------------------------

def _end_atom(terms: tuple[DocElement, ...], end: int) -> DocTerm | None:
    """The atom ``terms`` start with (``end`` 0) or end with (``end`` -1),
    looking into sums; None for an empty formula or sum body."""
    while terms:
        if not isinstance(terms[end], DocSum):
            return terms[end]
        terms = terms[end].body
    return None


def _convert_terms(terms: tuple[DocElement, ...], k_below: int, below_cycles: int,
                   errs: list[tuple[str, str]]) -> list[FormulaItem]:
    """Turn document elements into formula items, resolving 'k' bounds and
    shifting comprehension ranges to start at 1.  Each problem found is
    appended to ``errs`` as a (violation code, message) pair."""
    items: list[FormulaItem] = []
    for el in terms:
        if isinstance(el, DocTerm):
            if not isinstance(el.coef, int):
                errs.append(("BadTerm", f"loop variable {el.coef!r} used outside a sum"))
                continue
            if el.coef < 1:
                errs.append(("BadTerm", f"count {el.coef} must be positive"))
                continue
            if not 0 <= el.atom <= below_cycles:
                errs.append(("UnknownCycle", f"unknown cycle c{el.atom} (level "
                                             f"below has {below_cycles})"))
                continue
            items.append(Run(el.atom, el.coef))
            continue
        bound = k_below if el.bound is None else el.bound
        if el.lo < 1:
            errs.append(("BadTerm", f"sum must start at 1 or later, got {el.lo}"))
            continue
        if bound < el.lo:
            errs.append(("EmptySum", f"empty sum: {el.lo}..{bound}"))
            continue
        if not el.body:
            errs.append(("EmptySum", "empty sum body"))
            continue
        body: list[BlockTerm] = []
        shift = el.lo - 1  # rewrite sum(j=lo..b) as sum(j'=1..b-lo+1)
        for sub in el.body:
            if isinstance(sub, DocSum):
                errs.append(("NestedSum", "nested sums are not supported"))
            elif not 0 <= sub.atom <= below_cycles:
                errs.append(("UnknownCycle", f"unknown cycle c{sub.atom} (level "
                                             f"below has {below_cycles})"))
            elif isinstance(sub.coef, int):
                if sub.coef >= 1:
                    body.append(BlockTerm(sub.atom, sub.coef, 0))
                    continue
                errs.append(("BadTerm", f"count {sub.coef} must be positive"))
            elif sub.coef == el.var:
                body.append(BlockTerm(sub.atom, shift, 1))
                continue
            else:
                errs.append(("BadTerm", f"unknown variable {sub.coef!r} in "
                                        f"sum over {el.var!r}"))
            break
        else:
            items.append(BlockSum(bound - shift, tuple(body)))
    return items


class Tower(tuple):
    """A document's level specs, index = level.  Unlike a plain tuple, a
    lookup outside ``0..len - 1`` raises :class:`StructuralError`, as the
    built-in tower does for a negative level."""

    def __getitem__(self, level: int) -> LevelSpec:
        if level < 0:
            raise StructuralError(f"level must be >= 0, got {level}")
        if level >= len(self):
            raise StructuralError(f"cover document ends at level {len(self) - 1}")
        return tuple.__getitem__(self, level)


def resolve(doc: CoverDocument) -> tuple[Tower, list[Violation]]:
    """Walk the document once: its :class:`Tower` and every violation found
    (empty = valid).  Each cycle's terms become a :class:`Formula` exactly
    once; the tower means something only when there are no violations.

    Spec 0 is the implicit base level; each level block adds the spec of its
    level, its cycles' formulas written over the spec before it.
    """
    violations: list[Violation] = []
    specs = [LevelSpec(0, (), ())]
    for expected, block in enumerate(doc.levels, start=1):
        below = specs[-1]
        if block.level != expected:
            violations.append(Violation(
                "NonContiguousLevels",
                f"expected level {expected}, found {block.level}",
                level=block.level))
        indices = [c.index for c in block.cycles]
        if indices != list(range(1, len(indices) + 1)):
            if len(set(indices)) != len(indices):
                violations.append(Violation(
                    "DuplicateCycle", f"duplicate cycle indices {indices}",
                    level=block.level))
            else:
                violations.append(Violation(
                    "NonContiguousCycles",
                    f"cycle indices {indices} are not 1..{len(indices)}",
                    level=block.level))
        formulas: list[Formula] = []
        lengths = []
        for cyc in block.cycles:
            errs: list[tuple[str, str]] = []
            items = _convert_terms(cyc.terms, below.k_value, len(below.cycle_lengths), errs)
            violations.extend(Violation(code, msg, block.level, cyc.index)
                              for code, msg in errs)
            first = _end_atom(cyc.terms, 0)
            last = _end_atom(cyc.terms, -1)
            if first is None or first.atom != 0 or last is None or last.atom != 0:
                violations.append(Violation(
                    "EdgeBoundViolation",
                    "image formulas must begin and end with an edge term",
                    block.level, cyc.index))
            if errs or not items:
                lengths.append(0)
                continue
            try:
                formula = Formula(items, below.cycle_lengths)
            except ChaoscopeError as exc:
                violations.append(Violation("BadTerm", str(exc),
                                            block.level, cyc.index))
                lengths.append(0)
                continue
            if formula.length < 2:
                violations.append(Violation(
                    "CycleTooShort",
                    f"cycle length {formula.length} (need at least 2)",
                    block.level, cyc.index))
            if cyc.declared_length is not None and \
                    cyc.declared_length != formula.length:
                violations.append(Violation(
                    "LengthMismatch",
                    f"declared length {cyc.declared_length} but the formula "
                    f"expands to {formula.length}",
                    block.level, cyc.index))
            formulas.append(formula)
            lengths.append(formula.length)
        specs.append(LevelSpec(block.level, tuple(lengths), tuple(formulas)))
    return Tower(specs), violations


def document_tower(doc: CoverDocument) -> Tower:
    """Resolve a valid document into its :class:`Tower`; raises
    :class:`ChaoscopeError` naming the first violations otherwise."""
    tower, problems = resolve(doc)
    if problems:
        raise ChaoscopeError("invalid cover document: " + "; ".join(
            str(v) for v in problems[:3]))
    return tower


# ---------------------------------------------------------------------------
# The built-in construction as a document.
# ---------------------------------------------------------------------------

def builtin_document(max_level: int) -> CoverDocument:
    """The tower's own definition, written in the DSL up to ``max_level``."""
    def walk(n: int, i: int) -> tuple[DocElement, ...]:
        # level n's cycle i: one base edge, 2 passes of each of cycles i..n-1, one base edge
        return (DocTerm(1, 0), *(DocTerm(2, c) for c in range(i, n)), DocTerm(1, 0))

    blocks = []
    for n in range(1, max_level + 1):
        if n == 1:
            cycles = [CycleDecl(1, (DocTerm(10, 0),))]
        else:
            # cycle 1: the block sum, then cycle 2's walk; cycle n: one base run
            head = DocSum("j", 1, None, (DocTerm("j", 0), DocTerm(2, 1)))
            cycles = [CycleDecl(1, (head, *walk(n, 2)))]
            cycles += [CycleDecl(i, walk(n, i)) for i in range(2, n)]
            below = document_tower(CoverDocument("builtin", tuple(blocks)))[n - 1]
            top = (n + 1) ** 2 * sum(below.cycle_lengths)
            cycles.append(CycleDecl(n, (DocTerm(top, 0),)))
        blocks.append(LevelBlock(n, tuple(cycles)))
    return CoverDocument("builtin", tuple(blocks))


def _normalize_items(items: tuple[FormulaItem, ...]) -> tuple[FormulaItem, ...]:
    out: list[FormulaItem] = []
    for item in items:
        if (isinstance(item, Run) and out and isinstance(out[-1], Run)
                and out[-1].cycle == item.cycle):
            out[-1] = Run(item.cycle, out[-1].count + item.count)
        else:
            out.append(item)
    return tuple(out)


def equals_builtin(tower: Tower, up_to_level: int) -> bool:
    """Whether a valid document's tower matches the programmatic generator
    for every level up to ``up_to_level`` (after run merging and bound
    resolution)."""
    if len(tower) <= up_to_level:
        return False
    for n in range(1, up_to_level + 1):
        doc_spec = tower[n]
        ref_spec = build_level_spec(n)
        if len(doc_spec.image_formulas) != len(ref_spec.image_formulas):
            return False
        for mine, ref in zip(doc_spec.image_formulas, ref_spec.image_formulas):
            if _normalize_items(mine.items) != _normalize_items(ref.items):
                return False
    return True
