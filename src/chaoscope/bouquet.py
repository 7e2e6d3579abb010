"""Symbolic generator for the tower of bouquet graphs and its covers.

Every level ``n`` of the tower is a bouquet: a base vertex with a self-loop
plus ``n`` simple cycles attached at the base.  The cover from level ``n+1``
down to level ``n`` sends each cycle onto a closed walk at the base, given by
one of three fixed formula shapes:

* cycle 1   -> blocks ``j`` base edges + 2 passes of cycle 1, for
  ``j = 1..k``, followed by one base edge, 2 passes of each of cycles
  ``2..n``, and one base edge (``k`` is twice the total edge count of the
  lower level);
* cycle i (2 <= i <= n) -> one base edge, 2 passes of each of cycles
  ``i..n``, one base edge;
* cycle n+1 -> a pure run of base edges of length ``(n+2)^2`` times the sum
  of the lower-level cycle lengths.

Cycle lengths are forced by the formulas (covers preserve edge counts) and
grow doubly exponentially, so deep levels are never expanded: formulas are
kept symbolic and every position query runs through closed-form arithmetic.
In particular the ``j`` base edges + 2 cycles block region of the cycle-1
formula is inverted in closed form instead of enumerating its ``k`` blocks:
a division finds the block when the offset is small next to the block
coefficients, and an integer square root of the quadratic's discriminant
otherwise.  One pass over each formula's items compiles their offsets,
flat tables of its runs and block bodies and each block sum's constants,
so a query costs what its offset needs, not what the cycle's size would.
Every other walk reads an item as a block sum, a run being the one-block
sum of its term.  Occurrence scans never expand a path either: they
compose per-cycle summaries along the image formulas, a level at a time,
and fold each block sum in closed form, so their time does not grow with
the block count.

Positions on a cycle count edges traversed from the base; position 0 is the
base itself and is represented as the base address, never stored.  Addresses
are named tuples: the walks build and compare millions, and tuples do it in C.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, islice
from math import isqrt
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, StructuralError, decimal_text, int_text
from .graphs import CoverMap, MaterializedGraph

INITIAL_CYCLE_LENGTH = 10
DEFAULT_VERTEX_BUDGET = 10**7
DEFAULT_SCAN_BUDGET = 10**8
MAX_OFFSETS = 200_000  # copy offsets an OccurrenceReport keeps
LEVEL_LIMIT = 21  # the deepest level, of specs and addresses alike


# ---------------------------------------------------------------------------
# Formula terms.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Run:
    """``count`` repetitions of one symbol: base edges (cycle 0) or full
    traversals of a cycle of the source level.  Walkers read it as the one-block
    sum ``sum(j=1..1){ count cycle }``: ``bound`` 1, ``body`` its one term."""

    cycle: int
    count: int
    bound = 1

    def __post_init__(self):
        if self.cycle < 0:
            raise StructuralError(f"negative cycle index {int_text(self.cycle)}")
        if self.count < 1:
            raise StructuralError(f"run count must be >= 1, got {int_text(self.count)}")

    @cached_property
    def body(self) -> tuple[BlockTerm]:
        return (BlockTerm(self.cycle, self.count, 0),)

    def __repr__(self) -> str:
        return f"Run(cycle={int_text(self.cycle)}, count={int_text(self.count)})"


@dataclass(frozen=True)
class BlockTerm:
    """One term inside a block sum; its count at iteration j is const + coef*j >= 0."""

    cycle: int
    const: int
    coef: int

    def __post_init__(self):
        if self.cycle < 0:
            raise StructuralError(f"negative cycle index {int_text(self.cycle)}")
        if self.coef < 0 or self.const + self.coef < 0:
            raise StructuralError(f"block term count {int_text(self.const)} + "
                                  f"{int_text(self.coef)}*j is negative at some j >= 1")

    def count_at(self, j: int) -> int:
        return self.const + self.coef * j

    def __repr__(self) -> str:
        return (f"BlockTerm(cycle={int_text(self.cycle)}, const={int_text(self.const)}, "
                f"coef={int_text(self.coef)})")


@dataclass(frozen=True)
class BlockSum:
    """``sum(j=1..bound)`` of the body terms, kept unexpanded.

    The per-iteration edge length is affine in j, so offsets inside the sum
    are located by inverting a quadratic prefix (see ``Formula._block_root``).
    """

    bound: int
    body: tuple[BlockTerm, ...]

    def __post_init__(self):
        if self.bound < 1:
            raise StructuralError(f"block sum bound must be >= 1, got {int_text(self.bound)}")
        if not self.body:
            raise StructuralError("block sum needs a nonempty body")

    def __repr__(self) -> str:
        return f"BlockSum(bound={int_text(self.bound)}, body={self.body!r})"


FormulaItem = Run | BlockSum


class Formula:
    """One cover-image formula: an ordered list of runs and block sums over
    the symbols of a fixed source level.

    ``lengths`` are the source level's cycle lengths; they determine every
    term's edge length.  One pass over the items records what a position
    query needs: each item's start and end offset (the ends are
    binary-searched), its table (``(cycle, clen, count)`` for a run, one
    ``(cycle, clen, const*clen, coef*clen)`` per body term of a block sum)
    and a block sum's constants ``(a, b, c1, fast_bits)``, read off its table.
    Only that pass and ``_run_at`` tell a run from a block sum; every other
    walker reads an item as ``item.bound`` blocks of its terms ``item.body``.
    """

    __slots__ = ("items", "lengths", "_starts", "_ends", "_blocks", "_tables", "length")

    def __init__(self, items: Sequence[FormulaItem], lengths: Sequence[int]):
        self.items = tuple(items)
        self.lengths = tuple(lengths)
        if not self.items:
            raise StructuralError("a formula needs at least one term")
        self._starts, self._ends, self._blocks, self._tables = [], [], [], []
        total = 0
        for item in self.items:
            self._starts.append(total)
            if isinstance(item, Run):
                block, table = None, (item.cycle, self._cycle_len(item.cycle), item.count)
                total += table[1] * item.count
            else:
                table = tuple((t.cycle, clen, t.const * clen, t.coef * clen) for t in item.body
                              for clen in (self._cycle_len(t.cycle),))
                # per-iteration length a + b*j; c1 = b + 2a, and an offset r
                # of at most fast_bits bits has 4*b*r^2 < c1^3 (see _block_root)
                a, b = sum(row[2] for row in table), sum(row[3] for row in table)
                c1 = b + 2 * a
                block = (a, b, c1, (3 * (c1.bit_length() - 1) - b.bit_length() - 2) // 2)
                total += self._prefix(a, b, item.bound)
            self._tables.append(table)
            self._blocks.append(block)
            self._ends.append(total)
        if [0, *self._ends] != sorted({0, *self._ends}):
            raise StructuralError("prefix sums must be strictly increasing")
        self.length = total

    # -- lengths ------------------------------------------------------------

    def _cycle_len(self, cycle: int) -> int:
        if cycle == 0:
            return 1
        if cycle > len(self.lengths):
            raise StructuralError(f"formula references cycle {cycle} of a "
                                  f"{len(self.lengths)}-cycle level")
        return self.lengths[cycle - 1]

    @staticmethod
    def _prefix(a: int, b: int, j: int) -> int:
        """``a*j + b*j(j+1)/2``, the total of ``a + b*i`` over i = 1..j: a block
        sum's edge length or a term's count.  One product; it is even."""
        return j * (2 * a + b * (j + 1)) >> 1

    # -- position queries ----------------------------------------------------

    def locate(self, offset: int) -> tuple[int, int]:
        """Vertex of the source level at ``offset`` edges into the expansion.

        Returns ``(cycle, position)`` with ``(0, 0)`` for the base vertex.
        Formula boundaries and complete-traversal boundaries are all at the
        base, so the result is well defined for any offset in [0, length].
        """
        if not (0 <= offset <= self.length):
            raise StructuralError(f"offset {int_text(offset)} outside [0, {int_text(self.length)}]")
        if offset == 0:
            return (0, 0)
        cycle, clen, r, _ = self._run_at(offset)
        m = r % clen  # 0 on the base, whose edges have length 1
        return (0, 0) if m == 0 else (cycle, m)

    def next_off_base(self, offset: int) -> int | None:
        """Smallest offset in ``(offset, length)`` whose vertex is off the
        base, or None; an edge run or edge block term is skipped whole."""
        q = offset + 1
        while q < self.length:
            cycle, clen, r, run_length = self._run_at(q)
            if cycle == 0:
                q += run_length - r + 1
            elif r % clen == 0:
                q += 1
            else:
                return q
        return None

    def _run_at(self, offset: int) -> tuple[int, int, int, int]:
        """The run or block term holding ``offset`` (in [1, length]): its cycle,
        cycle length, edge count ``r >= 1`` into it and (on the base) length."""
        idx = bisect_left(self._ends, offset)
        r = offset - self._starts[idx]
        block = self._blocks[idx]
        if block is None:
            cycle, clen, count = self._tables[idx]
            return cycle, clen, r, count
        j, before = self._block_iteration(block, r)
        r -= before
        for cycle, clen, const_len, coef_len in self._tables[idx]:
            tlen = const_len + coef_len * j
            if r <= tlen:
                return cycle, clen, r, tlen
            r -= tlen
        raise AssertionError("offset walked past block iteration")

    def _block_iteration(self, block: tuple, r: int) -> tuple[int, int]:
        """Smallest j >= 1 whose cumulative block length reaches r, with the
        cumulative length of iterations 1..j-1.

        ``block`` is the block sum's entry of ``_blocks``.  Starting from
        :meth:`_block_root`'s estimate, never above the index, the correction
        loop walks up to it; :meth:`_block_root` keeps that to one step.
        """
        a, b = block[0], block[1]
        if b == 0:
            j = (r + a - 1) // a
            return j, a * (j - 1)
        j = self._block_root(block, r)
        prefix = self._prefix(a, b, j)
        while prefix < r:
            j += 1
            prefix += a + b * j
        return j, prefix - a - b * j

    @staticmethod
    def _block_root(block: tuple, r: int) -> int:
        """Estimate of the block index for offset ``r`` (needs ``b > 0``).

        The index is ``ceil(j*)`` for the positive root
        ``j* = (sqrt(c1^2 + 8br) - c1) / 2b = 4r / (c1 + sqrt(c1^2 + 8br))``
        of ``b*j^2 + c1*j - 2r``, with ``c1 = b + 2a``.  Each estimate is at
        most one below it and never above, so the correction loop of
        :meth:`_block_iteration` takes at most one step, upwards:

        * when ``4br^2 < c1^3`` (ensured by ``r`` having at most
          ``fast_bits`` bits), ``2r/c1 - 4br^2/c1^3 <= j* <= 2r/c1`` (from
          ``2 / (1 + sqrt(1 + x)) >= 1 - x/4`` at ``x = 8br/c1^2``), so
          ``ceil(j*)`` is ``2r // c1`` or one more.  This skips the square
          root of the discriminant, which is as wide as ``c1^2`` however
          small ``r`` is: at the top of a spine-16 handle ``c1^2`` has about
          199,000 bits and a band offset about 21;
        * otherwise the estimate is ``(isqrt(c1^2 + 8br) - c1) // 2b``, which
          is ``floor(j*)``: ``isqrt`` is at most the square root and at
          least the integer ``2b*floor(j*) + c1`` below it.
        """
        _, b, c1, fast_bits = block
        if r.bit_length() <= fast_bits:
            j = 2 * r // c1
        else:
            j = (isqrt(c1 * c1 + 8 * b * r) - c1) // (2 * b)
        return j if j > 1 else 1

    # -- occurrence counting and enumeration ---------------------------------

    def count_occurrences(self, cycle: int) -> int:
        """Number of offsets in [1, length-1] whose vertex is (cycle, pos);
        every position on one cycle occurs equally often."""
        # a base edge holds one base offset; a traversal of cycle c holds one
        # base offset and one hit of each interior position of c
        total = -1 if cycle == 0 else 0  # the final offset is the upper base
        for item in self.items:
            for t in item.body:
                if cycle in (0, t.cycle):
                    total += self._prefix(t.const, t.coef, item.bound)
        return total

    def iter_occurrences(self, cycle: int, pos: int) -> Iterator[int]:
        """Offsets in [1, length-1] whose vertex is (cycle, pos), ascending.

        Lazy: items are walked block by block, so truncated consumers never
        expand astronomically large bounds.  An item with no body term on a
        target cycle holds none of its positions and is skipped whole.
        Within one term of one block the hits are evenly spaced, one per
        traversal, and come out as one ``range``.
        """
        for item, start in zip(self.items, self._starts):
            body = item.body
            if cycle and cycle not in [t.cycle for t in body]:
                continue
            for j in range(1, item.bound + 1):
                for t in body:
                    clen = self._cycle_len(t.cycle)
                    end = start + t.count_at(j) * clen
                    if cycle == 0:
                        yield from range(start + clen, min(end + 1, self.length), clen)
                    elif t.cycle == cycle:
                        yield from range(start + pos, end, clen)
                    start = end

    # -- literal expansion ----------------------------------------------------

    def iter_runs(self) -> Iterator[Run]:
        """Literal runs of the formula, every item expanded block by block.

        Callers must budget-check first: the cycle-1 formulas of deep levels
        have astronomically many blocks.
        """
        for item in self.items:
            for j in range(1, item.bound + 1):
                for t in item.body:
                    cnt = t.count_at(j)
                    if cnt:
                        yield Run(t.cycle, cnt)

    def __repr__(self) -> str:
        return f"Formula({len(self.items)} items, length={int_text(self.length)})"


# ---------------------------------------------------------------------------
# Level specs.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelSpec:
    """Symbolic description of one level and of the cover from it onto the
    level below.

    ``cycle_lengths`` are the lengths of this level's cycles,
    ``k_value = 2 * (1 + sum(cycle_lengths))`` and ``image_formulas[i-1]`` is
    the image of this level's cycle ``i``, written over the symbols of the
    level below.  There are ``level`` formulas; level 0 has none.

    A tower is any lookup ``spec_for(n)`` (or ``tower[n]``) returning level
    ``n``'s spec; it raises :class:`StructuralError` for a level it lacks.
    """

    level: int
    cycle_lengths: tuple[int, ...]
    k_value: int
    image_formulas: tuple[Formula, ...]


@cache
def build_level_spec(n: int) -> LevelSpec:
    """Level spec for level ``n`` of the built-in tower; memoized, built on
    the spec below it.  A level past ``LEVEL_LIMIT`` is a
    :class:`StructuralError`, raised before anything is built."""
    if type(n) is not int or n < 0:
        raise StructuralError(f"level must be >= 0, got {int_text(n)}")
    if n > LEVEL_LIMIT:
        raise StructuralError(
            f"level {int_text(n)} exceeds the practical limit {LEVEL_LIMIT}; "
            "cycle lengths roughly double in bit size per level")
    if n == 0:
        return LevelSpec(0, (), 2, ())
    below = build_level_spec(n - 1)

    def walk(i: int) -> list[FormulaItem]:
        # one base edge, 2 passes of each of cycles i..n-1, one base edge
        return [Run(0, 1), *(Run(c, 2) for c in range(i, n)), Run(0, 1)]

    if n == 1:  # one run of base edges
        images = [[Run(0, INITIAL_CYCLE_LENGTH)]]
    else:  # cycle 1: the block sum, then cycle 2's walk; cycle n: a pure base run
        images = [[BlockSum(below.k_value, (BlockTerm(0, 0, 1), BlockTerm(1, 2, 0))), *walk(2)]]
        images += [walk(i) for i in range(2, n)]
        images.append([Run(0, (n + 1) ** 2 * sum(below.cycle_lengths))])
    formulas = tuple(Formula(items, below.cycle_lengths) for items in images)
    lengths = tuple(f.length for f in formulas)
    return LevelSpec(n, lengths, 2 * (1 + sum(lengths)), formulas)


def cycle_length(n: int, i: int) -> int:
    """Length of cycle ``i`` at level ``n``; ``i`` an int, bools refused."""
    if type(i) is not int or not 1 <= i <= n:
        raise StructuralError(
            f"level {int_text(n)} has cycles 1..{int_text(n)}, asked for {int_text(i)}")
    return build_level_spec(n).cycle_lengths[i - 1]


def level_spec_json(spec: LevelSpec) -> dict:
    """JSON-ready spec record; large counts are decimal strings."""
    def item_json(item: FormulaItem) -> dict:
        if isinstance(item, Run):
            kind = "edges" if item.cycle == 0 else "cycle"
            rec: dict = {"kind": kind, "count": decimal_text(item.count)}
            if item.cycle:
                rec["index"] = item.cycle
            return rec
        return {
            "kind": "sum",
            "bound": decimal_text(item.bound),
            "body": [{"cycle": t.cycle, "const": str(t.const), "coef": str(t.coef)}
                     for t in item.body],
        }

    return {
        "level": spec.level,
        "k": decimal_text(spec.k_value),
        "cycle_lengths": [decimal_text(length) for length in spec.cycle_lengths],
        "image_formulas": [[item_json(it) for it in f.items]
                           for f in spec.image_formulas],
    }


# ---------------------------------------------------------------------------
# Vertex addresses.
# ---------------------------------------------------------------------------

class VertexAddr(NamedTuple):
    """A vertex of one level: the base (cycle 0, pos 0) or position ``pos``
    along cycle ``cycle``, counting edges from the base.  It equals the plain
    tuple ``(level, cycle, pos)``, and addresses order as such tuples."""

    level: int
    cycle: int
    pos: int

    @property
    def is_base(self) -> bool:
        return self.cycle == 0

    def __str__(self) -> str:
        return f"{int_text(self.level)}:{int_text(self.cycle)}:{int_text(self.pos)}"

    def __repr__(self) -> str:
        return (f"VertexAddr(level={int_text(self.level)}, cycle={int_text(self.cycle)}, "
                f"pos={int_text(self.pos)})")


_BASES = tuple(VertexAddr(n, 0, 0) for n in range(LEVEL_LIMIT + 1))


def base_addr(level: int) -> VertexAddr:
    """The base of a level: shared up to the level limit, else fresh."""
    if type(level) is int and 0 <= level <= LEVEL_LIMIT:
        return _BASES[level]
    return VertexAddr(level, 0, 0)


def check_addr(a: VertexAddr) -> None:
    """Raise unless the address denotes an actual vertex of its level."""
    _image_formula(a)


def _image_formula(a: VertexAddr) -> Formula | None:
    """Check ``a``; its cycle's image formula in spec ``a.level``, or None."""
    level, cycle, pos = a
    if not (type(level) is type(cycle) is type(pos) is int):
        raise StructuralError(f"address coordinates must be ints: {a!r}")
    if level < 0:
        raise StructuralError(f"negative level in {a}")
    if cycle == 0:
        if pos != 0:
            raise StructuralError(f"base address must have pos 0: {a}")
        if level > LEVEL_LIMIT:  # no cycle address is deeper
            raise StructuralError(f"level {int_text(level)} is past {LEVEL_LIMIT}, "
                                  "the deepest level an address can have")
        return None
    if not (1 <= cycle <= level):
        raise StructuralError(
            f"cycle {int_text(cycle)} does not exist at level {int_text(level)}")
    formula = build_level_spec(level).image_formulas[cycle - 1]
    if not (1 <= pos < formula.length):
        raise StructuralError(
            f"position {int_text(pos)} outside [1, {int_text(formula.length - 1)}] "
            f"on cycle {cycle} of level {level}")
    return formula


def project_addr(a: VertexAddr) -> VertexAddr:
    """Image of a level-(n+1) vertex under the cover onto level n."""
    if a.level < 1:
        raise StructuralError("level 0 has nothing below it")
    formula = _image_formula(a)
    if formula is None:
        return base_addr(a.level - 1)
    cycle, pos = formula.locate(a.pos)
    return VertexAddr(a.level - 1, cycle, pos) if cycle else base_addr(a.level - 1)


@dataclass(frozen=True)
class LiftReport:
    """Preimages of an address one level up: a truncated ascending list plus
    the exact total count."""

    address: VertexAddr
    choices: tuple[VertexAddr, ...]
    total: int
    truncated: bool

    def __repr__(self) -> str:
        return (f"LiftReport(address={self.address!r}, choices={self.choices!r}, "
                f"total={int_text(self.total)}, truncated={self.truncated!r})")


def lift_choices(a: VertexAddr, max_results: int) -> LiftReport:
    """All level-(n+1) addresses projecting onto ``a``, in increasing
    (cycle, position) order, truncated to ``max_results``."""
    # spec a.level + 1 first: past the level limit it raises before check_addr
    # builds spec a.level, which at the limit takes seconds
    if type(a.level) is not int:
        check_addr(a)  # refuses it before the level is added to
    up = a.level + 1
    spec = build_level_spec(up)
    check_addr(a)
    lifts = chain([base_addr(up)] if a.is_base else [],
                  (VertexAddr(up, i, p)
                   for i, formula in enumerate(spec.image_formulas, start=1)
                   for p in formula.iter_occurrences(a.cycle, a.pos)))
    # a list, then an exact-size tuple: tuple() over an iterator allocates
    # spare slots, which raised the query benchmark's peak RSS by 0.25 MB
    choices = list(islice(lifts, max(max_results, 0)))
    # a base address also lifts to the upper level's base
    total = a.is_base + sum(f.count_occurrences(a.cycle) for f in spec.image_formulas)
    return LiftReport(a, tuple(choices), total, truncated=total > len(choices))


# ---------------------------------------------------------------------------
# Occurrence scanning.
# ---------------------------------------------------------------------------

@dataclass
class OccurrenceReport:
    """Complete copies of a target cycle inside a projected source cycle.

    Offsets are starts of complete base-to-base traversals; gaps are the edge
    counts between consecutive copy end and copy start.  ``prefix_length`` /
    ``suffix_length`` describe the segments before the first and after the
    last copy (the whole path when there are no copies).
    """

    source_level: int
    source_cycle: int
    target_level: int
    target_cycle: int
    total_length: int
    copy_length: int
    copy_count: int
    offsets: tuple[int, ...]
    offsets_truncated: bool
    gap_histogram: dict[int, int]
    gaps_all_base: bool
    prefix_length: int
    prefix_all_base: bool
    suffix_length: int
    suffix_all_base: bool
    budget: int

    def realized_gaps(self) -> tuple[int, ...]:
        return tuple(sorted(self.gap_histogram))

    def to_json(self) -> dict:
        return {
            "source": {"level": self.source_level, "cycle": self.source_cycle},
            "target": {"level": self.target_level, "cycle": self.target_cycle},
            "total_length": str(self.total_length),
            "copy_length": str(self.copy_length),
            "copy_count": self.copy_count,
            "offsets": [str(p) for p in self.offsets],
            "offsets_truncated": self.offsets_truncated,
            "gap_histogram": {str(g): c for g, c in sorted(self.gap_histogram.items())},
            "gaps_all_base": self.gaps_all_base,
            "prefix": {"length": str(self.prefix_length), "all_base": self.prefix_all_base},
            "suffix": {"length": str(self.suffix_length), "all_base": self.suffix_all_base},
            "budget": self.budget,
        }


class _Summary:
    """What one path contributes to an :class:`OccurrenceReport`: length,
    copy count, prefix and suffix as ``(length, all_base)`` (both the whole
    path while it holds no copy), gaps, ``gaps_all_base`` and the first
    ``MAX_OFFSETS`` copy offsets.  The gaps are one list of records
    ``(first, last, step, count)``: ``count`` of each gap in
    ``range(first, last + 1, step)``, a single gap ``(g, g, 1, count)``.  A
    leaf is a base edge, a foreign cycle or the target (one copy);
    :meth:`add_blocks` joins paths."""

    __slots__ = ("length", "count", "prefix", "suffix", "gaps", "gaps_all_base", "offsets")

    def __init__(self, length: int, count: int, all_base: bool):
        self.length, self.count = length, count
        self.prefix = self.suffix = (0 if count else length, all_base)
        self.gaps: list[tuple[int, int, int, int]] = []
        self.gaps_all_base = True
        self.offsets = [0] if count else []

    def histogram(self) -> dict[int, int]:
        """Every gap with its count, the records expanded."""
        gaps: dict[int, int] = {}
        for first, last, step, count in self.gaps:
            for gap in range(first, last + 1, step):
                gaps[gap] = gaps.get(gap, 0) + count
        return gaps

    def add_blocks(self, terms: list[tuple[_Summary, int, int]], lo: int, hi: int) -> None:
        """Append blocks j = lo..hi in closed form, whatever their number: in
        block j a term ``(x, const, coef)`` is ``const + coef*j >= 1`` copies
        of the path ``x``.  Each seam between two copies is affine in j, so
        it adds one record of gaps."""
        n, prefix, had = hi - lo + 1, Formula._prefix, self.count
        pa = pb = 0  # the next term starts pa + pb*j edges into block j
        a, b, clean = 0, 0, True  # the a + b*j edges since the block's last copy
        lead, held = None, []
        for x, const, coef in terms:
            if x.count:
                total = prefix(const, coef, hi) - prefix(const, coef, lo - 1)
                held.append((x, pa, pb, pa + const * x.length, pb + coef * x.length))
                a, clean = a + x.prefix[0], clean and x.prefix[1]
                if lead is None:
                    lead = (a, b, clean)
                else:  # the seam from the block's previous copy
                    self._seam(a + b * lo, b, n, clean)
                self.gaps += [(f, last, s, c * total) for f, last, s, c in x.gaps]
                if total > n:  # count - 1 inner gaps per block
                    self._seam(x.suffix[0] + x.prefix[0], 0, total - n,
                               x.suffix[1] and x.prefix[1])
                self.gaps_all_base = self.gaps_all_base and x.gaps_all_base
                self.count += total * x.count
                a, b, clean = x.suffix[0], 0, x.suffix[1]
            else:
                a, b, clean = a + const * x.length, b + coef * x.length, clean and x.suffix[1]
            pa, pb = pa + const * x.length, pb + coef * x.length
        start = self.length
        self.length += prefix(pa, pb, hi) - prefix(pa, pb, lo - 1)
        if lead is None:
            self.suffix = (self.suffix[0] + self.length - start, self.suffix[1] and clean)
            if not had:
                self.prefix = self.suffix
            return
        la, lb, lclean = lead
        seam = (self.suffix[0] + la + lb * lo, self.suffix[1] and lclean)
        if had:
            self._seam(seam[0], 0, 1, seam[1])
        else:
            self.prefix = seam
        if n > 1:  # from block j - 1's last copy to block j's first
            self._seam(a + b * lo + la + lb * (lo + 1), b + lb, n - 1, clean and lclean)
        self.suffix = (a + b * hi, clean)
        for j in range(lo, hi + 1):
            room = MAX_OFFSETS - len(self.offsets)
            if room <= 0:
                break
            # each term's copies in edges [xa + xb*j, ya + yb*j), as many as fill the room
            self.offsets += [s + o for x, xa, xb, ya, yb in held
                             for s in islice(range(start + xa + xb * j, start + ya + yb * j,
                                                   x.length), -(-room // len(x.offsets)))
                             for o in x.offsets][:room]
            start += pa + pb * j

    def _seam(self, first: int, step: int, n: int, all_base: bool) -> None:
        """Add the ``n`` gaps ``first + i*step``, i < n, all base or not."""
        self.gaps.append((first, first + step * (n - 1), step, 1) if step else (first, first, 1, n))
        self.gaps_all_base = self.gaps_all_base and all_base


def _fold(formula: Formula, below: list[_Summary]) -> _Summary:
    """Summary of one traversal of the cycle whose image is ``formula``;
    ``below[c]`` summarizes symbol c of the formula's level.  Each item is
    read once, a run as the one-block sum of its term."""
    path = _Summary(0, 0, True)
    for item in formula.items:
        # a term keeps const + coef >= 0 <= coef, so its count is 0 at j = 1
        # alone or at every j: blocks 2..k all hold copies of one set of terms
        for lo, hi in ((1, 1), (2, item.bound))[:item.bound]:
            path.add_blocks([(below[t.cycle], t.const, t.coef) for t in item.body
                             if t.const + t.coef * lo], lo, hi)
    return path


def find_occurrences(m: int, m_prime: int, target_cycle: int, source_cycle: int,
                     budget: int = DEFAULT_SCAN_BUDGET) -> OccurrenceReport:
    """Scan the projection of one source-cycle traversal for complete copies
    of the target cycle.

    The scan composes summaries and never expands the path: each cycle of
    levels m+1 .. m' gets a summary, its image formula's items folded in
    closed form over the summaries of the level below, kept for this call
    only.  Its time grows with the items, the offsets kept and the gaps
    reported, not with the block counts.  The budget still bounds the
    projected path's edge length (which equals the source cycle's length,
    covers being edge-count preserving).
    """
    if not (0 <= m < m_prime):
        raise StructuralError(f"need 0 <= m < m', got {int_text(m)}..{int_text(m_prime)}")
    if not (1 <= target_cycle <= m):
        raise StructuralError(f"level {int_text(m)} has no cycle {int_text(target_cycle)}")
    if not (1 <= source_cycle <= m_prime):
        raise StructuralError(
            f"level {int_text(m_prime)} has no cycle {int_text(source_cycle)}")
    total_length = cycle_length(m_prime, source_cycle)
    if total_length > budget:
        raise BudgetExceeded(
            f"occurrence scan of cycle {source_cycle} at level {m_prime}",
            required=total_length, budget=budget)
    # the level-m leaves; entry 0 is the base edge at every level
    below = [_Summary(1, 0, True)] + [
        _Summary(cycle_length(m, c), int(c == target_cycle), c == target_cycle)
        for c in range(1, m + 1)]
    for n in range(m + 1, m_prime):
        below = below[:1] + [_fold(f, below) for f in build_level_spec(n).image_formulas]
    path = _fold(build_level_spec(m_prime).image_formulas[source_cycle - 1], below)
    return OccurrenceReport(
        source_level=m_prime, source_cycle=source_cycle,
        target_level=m, target_cycle=target_cycle,
        total_length=total_length, copy_length=cycle_length(m, target_cycle),
        copy_count=path.count, offsets=tuple(path.offsets),
        offsets_truncated=path.count > len(path.offsets), gap_histogram=path.histogram(),
        gaps_all_base=path.gaps_all_base,
        prefix_length=path.prefix[0], prefix_all_base=path.prefix[1],
        suffix_length=path.suffix[0], suffix_all_base=path.suffix[1],
        budget=budget)


# ---------------------------------------------------------------------------
# Materialization bridge.
# ---------------------------------------------------------------------------

@dataclass
class MaterializedLevel:
    """Explicit bouquet graph for one level plus the cover onto the level
    below (None at level 0)."""

    level: int
    graph: MaterializedGraph
    cover: CoverMap | None
    cycle_starts: tuple[int, ...]  # first vertex id of each cycle
    cycle_lengths: tuple[int, ...]

    def addr_to_id(self, a: VertexAddr) -> int:
        if a.level != self.level:
            raise StructuralError(f"{a} is not a level-{self.level} address")
        if a.is_base:
            if a.pos != 0:
                raise StructuralError(f"base address must have pos 0: {a}")
            return 0
        if not (1 <= a.cycle <= len(self.cycle_lengths)):
            raise StructuralError(f"no cycle {a.cycle} at level {self.level}")
        if not (1 <= a.pos < self.cycle_lengths[a.cycle - 1]):
            raise StructuralError(f"position out of range: {a}")
        return self.cycle_starts[a.cycle - 1] + a.pos - 1

    def id_to_addr(self, vid: int) -> VertexAddr:
        if not (0 <= vid < self.graph.vertex_count):
            raise StructuralError(f"vertex id {vid} out of range")
        if vid == 0:
            return base_addr(self.level)
        i = bisect_left(self.cycle_starts, vid + 1)
        return VertexAddr(self.level, i, vid - self.cycle_starts[i - 1] + 1)


def materialize_graph(n: int, vertex_budget: int = DEFAULT_VERTEX_BUDGET,
                      spec_for=build_level_spec) -> MaterializedLevel:
    """Materialize level ``n`` (and the cover onto level ``n-1``) explicitly.

    ``spec_for`` is a tower lookup (see :class:`LevelSpec`) and defaults to
    the built-in construction.  Refuses levels whose vertex count exceeds the
    budget, and as out of range any past 2**31; level 4 of the built-in tower
    is already around 7e13 vertices and must never be materialized.  A formula
    whose literal expansion does not end at its cycle's end is a :class:`StructuralError`.
    """
    spec = spec_for(n)
    lengths = spec.cycle_lengths
    starts = []
    next_id = 1
    for length in lengths:
        starts.append(next_id)
        next_id += length - 1
    vertex_count = next_id
    if vertex_count > vertex_budget:
        MaterializedGraph(vertex_count, ())  # refuses a count no budget could allow
        raise BudgetExceeded(f"materialize level {n}", required=vertex_count,
                             budget=vertex_budget)
    if any(length < 2 for length in lengths):
        raise StructuralError(f"level {n} has a cycle of length {min(lengths)} "
                              "(need at least 2)")

    graph = MaterializedGraph._bouquet(starts, lengths)

    cover = None
    if n >= 1:
        below = materialize_graph(n - 1, vertex_budget, spec_for)
        vm = array("q", [0]) * vertex_count  # zero-filled: base image
        ids = array("q", range(below.graph.vertex_count))
        for formula, start, length in zip(spec.image_formulas, starts, lengths):
            # vid: one edge past the walk cursor, which must stop at end; no run past end writes
            vid, end = start, start + length
            for run in formula.iter_runs():
                clen = below.cycle_lengths[run.cycle - 1] if run.cycle else 1
                stop = vid + run.count * clen
                if run.cycle and stop <= end:  # base positions keep image 0
                    img_start = below.cycle_starts[run.cycle - 1]
                    block = ids[img_start:img_start + clen - 1]  # the cycle's interior
                    for v in range(vid, stop, clen):  # one traversal each; its
                        vm[v:v + clen - 1] = block  # end maps to the base, image 0
                vid = stop
                if vid > end:
                    break
            if vid != end:
                raise StructuralError(
                    f"level {n}: a formula expands to {'at least ' * (vid > end)}{vid - start} "
                    f"edges, its cycle has {length}")
        cover = CoverMap._from_array(graph, below.graph, vm)
    return MaterializedLevel(n, graph, cover, tuple(starts), lengths)
