"""The benchmark's three workloads: inputs, timed steps and output checks.

A workload is a fixed list of steps, each a list of operations (thunks).
The harness runs the whole list once per round and times each step; every
round repeats the same operations on the same seeded inputs.  After each
step, untimed, :meth:`Workload.inspect` checks the step's outputs: in full
against :mod:`perfbench.reference` or against properties the method must
have in the first round, and by digest against the first round later.

The program is reached through module attributes at call time
(``dyn.column_of``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from typing import Callable

from chaoscope import analysis as ana
from chaoscope import bouquet as bq
from chaoscope import dsl
from chaoscope import dynamics as dyn
from chaoscope import graphs as gr
from chaoscope import verify

from . import reference as ref


@dataclass
class Step:
    label: str
    ops: list[Callable[[], object]]


class Failed:
    """Output slot of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failed({self.error})"

    def __hash__(self) -> int:
        return hash(self.error)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Failed) and other.error == self.error


def failed(x: object) -> bool:
    return isinstance(x, Failed)


class Workload:
    """Base class: subclasses fill ``steps`` and implement ``check_step``."""

    name = ""
    deepest_level = 0

    def __init__(self):
        self.steps: list[Step] = []
        self._digests: dict[int, int] = {}
        self._lengths: list[tuple[int, ...]] | None = None

    @property
    def lengths(self) -> list[tuple[int, ...]]:
        """Reference cycle lengths, computed when a check first needs them."""
        if self._lengths is None:
            self._lengths = ref.tower_lengths(self.deepest_level)
        return self._lengths

    def inspect(self, index: int, outputs: list, first: bool) -> list[str]:
        if first:
            problems = self.check_step(self.steps[index], outputs)
            self._digests[index] = self.digest(outputs)
            return problems
        if self.digest(outputs) != self._digests[index]:
            return [f"{self.steps[index].label}: outputs differ from round 1"]
        return []

    def end_round(self, first: bool) -> list[str]:
        return []

    def check_step(self, step: Step, outputs: list) -> list[str]:
        raise NotImplementedError

    def digest(self, outputs: list) -> int:
        return hash(tuple(self.key(x) for x in outputs))

    def key(self, output: object) -> object:
        return output

    def shape(self) -> dict[str, int]:
        """Work-shape counts of one round, read off the first round."""
        return {}


def band_handle(spine: int, k: int, rng: random.Random) -> dyn.PointHandle:
    """The ``k``-th seeded handle in random_handle's position bands.

    Three in four lie on cycle 1, the share random_handle gives it; the
    fourth rotates through cycles ``2..spine``, so the cycle make-up, which
    sets the cost, is the same for every seed.
    """
    if k % 4 != 3:
        return dyn.random_handle(spine, rng, cycle_one_weight=1.0)
    lo, hi = dyn.HIGH_CYCLE_BAND
    return dyn.new_handle(spine, 2 + (k // 4) % (spine - 1), rng.randrange(lo, hi + 1))


def _first_difference(col_a, col_b, depth: int) -> dyn.DistanceValue:
    for level in range(1, depth + 1):
        if col_a[level] != col_b[level]:
            return dyn.DistanceValue(exact=True, level=level)
    return dyn.DistanceValue(exact=False, level=depth)


# ---------------------------------------------------------------------------
# query: random-access symbolic queries.
# ---------------------------------------------------------------------------

# (spine, band) -> (queries per round, queries per step).  Nearly all the
# cost is in cycle-1 handles, whose coordinates sit in the quadratic block
# region at every level; counts are set so that each class takes a similar
# share of run_s.  Band handles come from band_handle; uniform handles
# rotate through the cycles, so a class has the same cycle make-up
# whatever the seed.
QUERY_CLASSES = {
    (8, "band"): (1440, 80),
    (8, "uniform"): (4400, 200),
    (12, "band"): (336, 12),
    (12, "uniform"): (1344, 48),
    (16, "band"): (4, 1),
    (16, "uniform"): (32, 16),
}
STEP_EXPONENTS = 13  # |delta| cycles through 10**0 .. 10**12
LIFT_EVERY = 4
LIFT_RESULTS = 16
UNIFORM_MARGIN = 10**12  # uniform positions leave room for a step of 10**12


@dataclass(frozen=True)
class QueryInput:
    handle: dyn.PointHandle
    partner: dyn.PointHandle
    delta: int
    lift: bool


@dataclass(frozen=True)
class QueryResult:
    column: tuple
    base_time: int
    moved: dyn.PointHandle
    back: dyn.PointHandle
    dist: dyn.DistanceValue
    lifted: bq.LiftReport | None


def run_query(q: QueryInput) -> QueryResult:
    h = q.handle
    column = dyn.column_of(h)
    base_time = dyn.next_base_time(h, 2)
    moved = dyn.step(h, q.delta)
    back = dyn.step(moved, -q.delta)
    dist = dyn.distance(h, q.partner)
    lifted = bq.lift_choices(column[3], LIFT_RESULTS) if q.lift else None
    return QueryResult(tuple(column), base_time, moved, back, dist, lifted)


class QueryWorkload(Workload):
    name = "query"
    deepest_level = 16

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        serial = 0
        for (spine, band), (count, per_step) in QUERY_CLASSES.items():
            bq.build_level_spec(spine)
            handles = [self._handle(spine, band, i, rng) for i in range(count)]
            inputs = []
            for i, h in enumerate(handles):
                group = i - i % per_step
                # a one-query step pairs the query with its neighbour's handle
                partner = handles[group + (i + 1 - group) % per_step if per_step > 1
                                  else i ^ 1]
                delta = 10 ** (serial % STEP_EXPONENTS)
                if rng.random() < 0.5 and h.address.pos - delta >= 1:
                    delta = -delta
                inputs.append(QueryInput(h, partner, delta, serial % LIFT_EVERY == 0))
                serial += 1
            for start in range(0, count, per_step):
                chunk = inputs[start:start + per_step]
                self.steps.append(Step(
                    f"query s{spine} {band} {start}",
                    [lambda q=q: run_query(q) for q in chunk]))

    @staticmethod
    def _handle(spine: int, band: str, i: int, rng: random.Random) -> dyn.PointHandle:
        if band == "band":
            return band_handle(spine, i, rng)
        lengths = bq.build_level_spec(spine).cycle_lengths
        cycle = 1 + i % spine
        length = lengths[cycle - 1]
        pos = rng.randrange(1 + UNIFORM_MARGIN, length - UNIFORM_MARGIN)
        return dyn.new_handle(spine, cycle, pos)

    def check_step(self, step: Step, outputs: list) -> list[str]:
        queries = [op.__defaults__[0] for op in step.ops]
        columns = {q.handle: r.column for q, r in zip(queries, outputs) if not failed(r)}
        problems = []
        for q, out in zip(queries, outputs):
            if failed(out):
                continue
            partner = columns.get(q.partner) or self.reference_column(q.partner)
            for problem in self.check_query(q, out, partner):
                problems.append(f"{step.label}: {q.handle}: {problem}")
        return problems

    def reference_column(self, h: dyn.PointHandle) -> tuple:
        """Column of ``h`` by the reference, or by the program's random
        access where the reference is unaffordable."""
        level, cycle, pos = h.spine_level, h.address.cycle, h.address.pos + h.offset
        column = [bq.VertexAddr(level, cycle, pos)]
        try:
            while level > 0:
                cycle, pos = ref.project(self.lengths, level, cycle, pos)
                level -= 1
                column.append(bq.VertexAddr(level, cycle, pos))
        except ref.Unaffordable:
            return tuple(dyn.column_of(h))
        return tuple(reversed(column))

    def check_query(self, q: QueryInput, r: QueryResult, partner_col) -> list[str]:
        lengths = self.lengths
        h = q.handle
        spine = h.spine_level
        problems = []
        col = r.column
        top = bq.VertexAddr(spine, h.address.cycle, h.address.pos + h.offset)
        if len(col) != spine + 1 or col[spine] != top:
            return [f"column has {len(col)} entries, top {col[-1]}"]
        for k in range(spine - 1, -1, -1):
            above = col[k + 1]
            try:
                expected = ref.project(lengths, k + 1, above.cycle, above.pos)
            except ref.Unaffordable:
                if k < 4:
                    problems.append(f"level {k} left unchecked")
                continue
            if col[k] != bq.VertexAddr(k, *expected):
                problems.append(f"level {k} is {col[k]}, reference {expected}")
        problems += self._check_base_time(h, r.base_time)
        if r.moved != dyn.PointHandle(spine, h.address, h.offset + q.delta):
            problems.append(f"step by {q.delta} gave {r.moved}")
        if r.back != h:
            problems.append(f"round trip by {q.delta} gave {r.back}")
        if r.dist != _first_difference(col, partner_col, min(spine, q.partner.spine_level)):
            problems.append(f"distance {r.dist} to {q.partner}")
        if r.lifted is not None:
            problems += self._check_lift(col[3], r.lifted)
        return problems

    def _level2_is_base(self, h: dyn.PointHandle, t: int) -> bool:
        moved = dyn.PointHandle(h.spine_level, h.address, h.offset + t)
        return self.reference_column(moved)[2].is_base

    def _check_base_time(self, h: dyn.PointHandle, d: int) -> list[str]:
        if d < 0 or not self._level2_is_base(h, d):
            return [f"next_base_time {d} is not a level-2 base hit"]
        if d > 0 and self._level2_is_base(h, d - 1):
            return [f"next_base_time {d} has an earlier base hit"]
        return []

    def _check_lift(self, source: bq.VertexAddr, report: bq.LiftReport) -> list[str]:
        problems = []
        keys = [(c.cycle, c.pos) for c in report.choices]
        if keys != sorted(set(keys)) or len(keys) > LIFT_RESULTS:
            problems.append("lift choices not strictly ascending")
        if report.truncated != (report.total > len(keys)) or report.total < len(keys):
            problems.append(f"lift total {report.total} for {len(keys)} choices")
        for c in report.choices:
            if c.level != source.level + 1 or ref.project(
                    self.lengths, c.level, c.cycle, c.pos) != (source.cycle, source.pos):
                problems.append(f"lift choice {c} does not project onto {source}")
        return problems


# ---------------------------------------------------------------------------
# orbit-scan: step-by-step scans at spine 8.
# ---------------------------------------------------------------------------

ORBIT_SPINE = 8
HORIZON = 10**4
# cycle strata of a pair's two handles, in the proportions random_handle's
# 3/4 cycle-1 weight gives: 9 (1,1), 3 (1,h), 3 (h,1), 1 (h,h) in 16
PAIR_PATTERN = ("11", "1h", "11", "h1", "11", "11", "1h", "11",
                "h1", "11", "11", "1h", "11", "h1", "11", "hh")
PAIR_BLOCKS = 3
PAIRS_PER_STEP = 5
PROXIMAL_HANDLES = 96
PROXIMAL_PER_STEP = 24
PROXIMAL_WINDOWS = tuple((w * 1000, 700) for w in range(10))
PROXIMAL_LEVEL = 2
DEGREE_HANDLES = 24
DEGREE_WINDOW = 2000
SEPARATION_RATE = 0.9
# a pair the scan finds no joint base hit for within HORIZON must have one
# by this time
LATE_PROXIMAL_LIMIT = 10**7
CURSOR_HANDLES = 3
CURSOR_STEPS = 600
CURSOR_EVERY = 50


class OrbitScanWorkload(Workload):
    name = "orbit-scan"
    deepest_level = 3

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        spine = ORBIT_SPINE
        bq.build_level_spec(spine)

        count = itertools.count()

        def handle(kind: str) -> dyn.PointHandle:
            # band_handle's k % 4 == 3 slots are its higher-cycle handles
            k = next(count)
            return band_handle(spine, 4 * k + (3 if kind == "h" else 0), rng)

        self.pairs = []
        for _ in range(PAIR_BLOCKS):
            light = []
            for kind in PAIR_PATTERN:
                a = handle(kind[0])
                b = handle(kind[1])
                while b.address == a.address:
                    b = handle(kind[1])
                self.pairs.append((a, b))
                if kind == "hh":
                    # a pair on two higher cycles walks the whole horizon
                    self._add("li-yorke", [(a, b)], self._li_yorke)
                else:
                    light.append((a, b))
            for start in range(0, len(light), PAIRS_PER_STEP):
                self._add("li-yorke", light[start:start + PAIRS_PER_STEP], self._li_yorke)

        self.proximal = [handle("1" if i % 4 != 3 else "h") for i in range(PROXIMAL_HANDLES)]
        for start in range(0, PROXIMAL_HANDLES, PROXIMAL_PER_STEP):
            self._add("proximal", self.proximal[start:start + PROXIMAL_PER_STEP],
                      lambda h: ana.proximal_certificate(h, PROXIMAL_LEVEL,
                                                         list(PROXIMAL_WINDOWS)))

        self.degree = []
        corpus = verify.degree_corpus(4 * DEGREE_HANDLES, spine, rng.randrange(2**32))
        for h in corpus:
            deg = ana.degree_of_column(h)
            if not deg.is_infinite and deg.index + 1 <= spine:
                self.degree.append((h, deg.index))
            if len(self.degree) == DEGREE_HANDLES:
                break
        for h, index in self.degree:
            self._add("degree", [(h, index)],
                      lambda x: ana.degree_window_min(x[0], x[1] + 1, 0, DEGREE_WINDOW))

        for j in (1, 2):
            self._add("mixing", [j], lambda j: ana.mixing_gap_report(1, j))
        self.separated = 0
        self.full_horizon = 0

    def _add(self, kind: str, items: list, fn) -> None:
        self.steps.append(Step(f"{kind} {len(self.steps)}",
                               [lambda x=x: fn(x) for x in items]))

    @staticmethod
    def _li_yorke(pair) -> ana.LiYorkeReport:
        return ana.li_yorke_test(pair[0], pair[1], HORIZON)

    def key(self, out: object) -> object:
        if isinstance(out, ana.LiYorkeReport):
            return (out.proximal_witness, out.separation_witness)
        if isinstance(out, ana.ProximalReport):
            return tuple((w.start, w.length, w.hit) for w in out.windows)
        if isinstance(out, ana.MixingGapReport):
            return (out.realized_gaps, out.occurrences.copy_count, out.prefix_matches,
                    out.suffix_within_bound)
        return out

    def check_step(self, step: Step, outputs: list) -> list[str]:
        kind = step.label.split()[0]
        problems = []
        for op, out in zip(step.ops, outputs):
            if failed(out):
                continue
            item = op.__defaults__[0]
            check = getattr(self, "_check_" + kind.replace("-", "_"))
            problems += [f"{step.label}: {p}" for p in check(item, out)]
        return problems

    @staticmethod
    def _columns(a: dyn.PointHandle, b: dyn.PointHandle, t: int):
        return dyn.column_of(dyn.step(a, t)), dyn.column_of(dyn.step(b, t))

    def _check_li_yorke(self, pair, report: ana.LiYorkeReport) -> list[str]:
        a, b = pair
        problems = []
        depth = min(a.spine_level, b.spine_level)
        prox = report.proximal_witness
        if prox is None:
            problems += self._check_late_proximal(a, b, report.prox_depth)
        else:
            t, dist = prox
            ca, cb = self._columns(a, b, t)
            if not (0 <= t <= HORIZON and ca[report.prox_depth].is_base
                    and cb[report.prox_depth].is_base):
                problems.append(f"proximal witness {t} of {a} {b} is not a joint base hit")
            elif dist != _first_difference(ca, cb, depth):
                problems.append(f"proximal distance {dist} at {t} of {a} {b}")
            elif t > 0:
                pa, pb = self._columns(a, b, t - 1)
                if pa[report.prox_depth].is_base and pb[report.prox_depth].is_base:
                    problems.append(f"proximal witness {t} of {a} {b} is not the "
                                    "first moment of its joint base dwell")
        sep = report.separation_witness
        if sep is None:
            self.full_horizon += 1
            return problems
        self.separated += 1
        t, dist = sep
        ca, cb = self._columns(a, b, t)
        limit = min(report.sep_depth, depth)
        found = _first_difference(ca, cb, limit)
        if not (0 <= t <= HORIZON and found.exact and found == dist):
            problems.append(f"separation witness {t} {dist} of {a} {b}: columns give {found}")
        elif t > 0 and _first_difference(*self._columns(a, b, t - 1), limit).exact:
            problems.append(f"separation witness {t} of {a} {b} is not the first")
        return problems

    @staticmethod
    def _check_late_proximal(a: dyn.PointHandle, b: dyn.PointHandle, depth: int) -> list[str]:
        """A pair the scan reports not proximal within the horizon: the miss
        must be real, and a joint base hit must come later, as every pair
        is proximal."""
        ca, cb = dyn.OrbitCursor(a), dyn.OrbitCursor(b)
        for t in range(HORIZON + 1):
            if ca.column[depth].is_base and cb.column[depth].is_base:
                return [f"pair {a} {b}: joint base hit at {t} missed"]
            if t < HORIZON:
                ca.advance()
                cb.advance()
        t = HORIZON
        while t <= LATE_PROXIMAL_LIMIT:
            da = dyn.next_base_time(dyn.step(a, t), depth)
            db = dyn.next_base_time(dyn.step(b, t), depth)
            if da == db == 0:
                ca, cb = OrbitScanWorkload._columns(a, b, t)
                if ca[depth].is_base and cb[depth].is_base:
                    return []
                break
            t += max(da, db)
        return [f"pair {a} {b} not proximal by {LATE_PROXIMAL_LIMIT}"]

    def _check_proximal(self, h: dyn.PointHandle, report: ana.ProximalReport) -> list[str]:
        lengths = self.lengths[PROXIMAL_LEVEL]
        problems = []
        if [(w.start, w.length) for w in report.windows] != list(PROXIMAL_WINDOWS):
            return [f"{h}: windows {report.windows}"]
        for w in report.windows:
            at_start = dyn.column_of(dyn.step(h, w.start), PROXIMAL_LEVEL)[PROXIMAL_LEVEL]
            if at_start.is_base:
                expected = w.start
            else:
                # a non-base coordinate walks its cycle one position per step
                expected = w.start + lengths[at_start.cycle - 1] - at_start.pos
            if expected >= w.start + w.length:
                problems.append(f"{h}: window at {w.start} has no base hit "
                                f"(gap bound {max(lengths)})")
            elif w.hit != expected:
                problems.append(f"{h}: window at {w.start} hit {w.hit}, first base hit "
                                f"at {expected}")
            elif not dyn.column_of(dyn.step(h, w.hit), PROXIMAL_LEVEL)[PROXIMAL_LEVEL].is_base:
                problems.append(f"{h}: hit {w.hit} is not at the base")
        return problems

    def _check_degree(self, item, value: ana.DegreeValue) -> list[str]:
        h, index = item
        level = index + 1
        if not value <= level:
            return [f"{h}: window minimum {value} above degree + 1 = {level}"]
        for t in range(0, DEGREE_WINDOW + 1, DEGREE_WINDOW // 10):
            cycle = dyn.column_of(dyn.step(h, t), level)[level].cycle
            if cycle and cycle < value.index:
                return [f"{h}: cycle {cycle} at {t} below the window minimum {value}"]
        return []

    def _check_mixing(self, j: int, report: ana.MixingGapReport) -> list[str]:
        lengths = self.lengths
        k = {n: ref.k_value(lengths[n]) for n in (1, 2)}
        # copies of cycle 1 of level 1: 2 per block of cycle 1 of level 2,
        # and 2 traversals of that cycle per block one level further up
        copies = 2 * k[1] if j == 1 else 2 * k[2] * 2 * k[1]
        problems = []
        occ = report.occurrences
        if occ.copy_count != copies or occ.total_length != lengths[1 + j][0]:
            problems.append(f"j={j}: {occ.copy_count} copies in {occ.total_length} edges")
        if not (report.prefix_matches and report.suffix_within_bound):
            problems.append(f"j={j}: prefix or suffix claim fails")
        # j=1: blocks of cycle 1 of level 2 put 2..k1 base edges between
        # copies.  j=2 adds gaps of 3 (e + e closing one lower cycle-1 copy,
        # e opening the next) and of j' + 4 for j' = 1..k2 between blocks.
        top_gap = k[1] if j == 1 else k[2] + 3
        if set(report.realized_gaps) != {0} | set(range(2, top_gap + 1)):
            problems.append(f"j={j}: gap set {report.realized_gaps}")
        return problems

    def end_round(self, first: bool) -> list[str]:
        if not first:
            return []
        problems = []
        pairs = len(self.pairs)
        if self.separated + self.full_horizon == pairs and self.separated < SEPARATION_RATE * pairs:
            problems.append(f"only {self.separated}/{pairs} pairs separate within {HORIZON}")
        for h, _ in self.degree[:CURSOR_HANDLES]:
            cursor = dyn.OrbitCursor(h)
            for t in range(CURSOR_STEPS + 1):
                if t % CURSOR_EVERY == 0 and cursor.column != dyn.column_of(dyn.step(h, t)):
                    problems.append(f"{h}: cursor row at {t} differs from column_of")
                    break
                if t < CURSOR_STEPS:
                    cursor.advance()
        return problems

    def shape(self) -> dict[str, int]:
        return {"analysis.separation.full_horizon_pairs": self.full_horizon}


# ---------------------------------------------------------------------------
# oracle: materialized levels 0..3 and the cover validators.
# ---------------------------------------------------------------------------

ORACLE_LEVEL = 3
PROJECTION_SAMPLES = 2000
CORRUPTED_VERTICES = 1000


class OracleWorkload(Workload):
    name = "oracle"
    deepest_level = ORACLE_LEVEL

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        top = ORACLE_LEVEL
        bq.build_level_spec(top)
        self.cover_text = dsl.serialize(dsl.builtin_document(top))
        lengths = self.lengths
        self.samples = []
        for _ in range(PROJECTION_SAMPLES):
            cycle = rng.randrange(1, top + 1)
            self.samples.append(bq.VertexAddr(top, cycle,
                                              rng.randrange(1, lengths[top][cycle - 1])))
        self.corruptions = self._corruptions(rng)
        self.state: dict = {}
        s = self.state
        steps = [(f"materialize {n}", lambda n=n: s.__setitem__(("level", n),
                                                                bq.materialize_graph(n)))
                 for n in range(top + 1)]
        for n in range(top + 1):
            steps.append((f"surjective {n}", lambda n=n: gr.validate_edge_surjective(
                s["level", n].graph)))
            if n:
                steps.append((f"homomorphism {n}", lambda n=n: gr.validate_homomorphism(
                    s["level", n].cover)))
                steps.append((f"bidirectional {n}", lambda n=n: gr.validate_bidirectional(
                    s["level", n].cover)))
        self.steps = [Step(label, [op]) for label, op in steps]
        self.steps.append(Step("project", [lambda a=a: bq.project_addr(a)
                                           for a in self.samples]))
        doc_steps = [
            ("parse", lambda: s.__setitem__("doc", dsl.parse(self.cover_text))),
            ("document_tower", lambda: s.__setitem__("tower", dsl.document_tower(s["doc"]))),
            ("materialize document", lambda: s.__setitem__("doc level", bq.materialize_graph(
                top, spec_for=s["tower"].__getitem__))),
            ("corrupt", lambda: s.__setitem__("corrupt", self._corrupted_cover(
                s["level", top].cover))),
            ("homomorphism corrupted", lambda: gr.validate_homomorphism(s["corrupt"])),
            ("bidirectional corrupted", lambda: gr.validate_bidirectional(s["corrupt"])),
        ]
        self.steps += [Step(label, [op]) for label, op in doc_steps]

    def _corruptions(self, rng: random.Random) -> list[tuple[int, int]]:
        """Seeded ``(vertex, wrong image)`` pairs for the level-3 cover.

        Corrupted vertices are interior to their cycle and at least three
        ids apart, and each wrong image breaks both edges through the
        vertex, so the homomorphism validator must name every one.
        """
        top = ORACLE_LEVEL
        lengths = self.lengths
        starts = ref.cycle_starts(lengths[top])
        below = lengths[top - 1]
        below_starts = ref.cycle_starts(below)
        below_count = ref.vertex_count(below)

        def image(cycle: int, pos: int) -> int:
            c, p = ref.project(lengths, top, cycle, pos)
            return 0 if c == 0 else below_starts[c - 1] + p - 1

        def successors(v: int) -> set[int]:
            if v == 0:
                return {0, *below_starts}
            i = max(i for i, s in enumerate(below_starts) if s <= v)
            return {0 if v == below_starts[i] + below[i] - 2 else v + 1}

        chosen: dict[int, int] = {}
        taken: set[int] = set()
        while len(chosen) < CORRUPTED_VERTICES:
            cycle = rng.choice((1, 1, 2, 3))
            pos = rng.randrange(2, lengths[top][cycle - 1] - 1)
            vid = starts[cycle - 1] + pos - 1
            if taken & {vid - 2, vid - 1, vid, vid + 1, vid + 2}:
                continue
            before, here, after = (image(cycle, pos + d) for d in (-1, 0, 1))
            wrong = rng.randrange(1, below_count)
            if wrong == here or wrong in successors(before) or after in successors(wrong):
                continue
            chosen[vid] = wrong
            taken.add(vid)
        return sorted(chosen.items())

    def _corrupted_cover(self, cover: gr.CoverMap) -> gr.CoverMap:
        vertex_map = array("q", cover.vertex_map)
        for vid, wrong in self.corruptions:
            vertex_map[vid] = wrong
        return gr.CoverMap(cover.source, cover.target, vertex_map)

    def inspect(self, index: int, outputs: list, first: bool) -> list[str]:
        step = self.steps[index]
        if any(failed(x) for x in outputs):
            return []
        return [f"{step.label}: {p}" for p in self.check_step(step, outputs, first)]

    def check_step(self, step: Step, outputs: list, first: bool = True) -> list[str]:
        kind, _, arg = step.label.partition(" ")
        s = self.state
        lengths = self.lengths
        if kind == "materialize" and arg != "document":
            n = int(arg)
            level = s["level", n]
            g = level.graph
            if (g.vertex_count, g.edge_count) != (ref.vertex_count(lengths[n]),
                                                  ref.edge_count(lengths[n])):
                return [f"{g.vertex_count} vertices, {g.edge_count} edges"]
            if first and walked_cycle_lengths(g) != lengths[n]:
                return ["cycle lengths walked on the graph differ from the table"]
        elif kind in ("surjective", "homomorphism", "bidirectional"):
            if outputs[0]:
                if arg == "corrupted":
                    return self._check_corrupted(kind, outputs[0])
                return [f"{len(outputs[0])} violations, first {outputs[0][0]}"]
            if arg == "corrupted" and kind == "homomorphism":
                return ["no violation reported for the corrupted cover"]
        elif kind == "project":
            level, below = s["level", ORACLE_LEVEL], s["level", ORACLE_LEVEL - 1]
            vertex_map = level.cover.vertex_map
            for a, got in zip(self.samples, outputs):
                expected = vertex_map[level.addr_to_id(a)]
                if below.addr_to_id(got) != expected or (got.cycle, got.pos) != ref.project(
                        lengths, a.level, a.cycle, a.pos):
                    return [f"{a} projects to {got}, materialized image {expected}"]
        elif step.label == "materialize document":
            mine, doc = s["level", ORACLE_LEVEL], s["doc level"]
            if not (doc.graph == mine.graph and doc.cover.target == mine.cover.target
                    and doc.cover.vertex_map == mine.cover.vertex_map):
                return ["the .cover tower differs from the built-in one"]
        return []

    def _check_corrupted(self, kind: str, violations: list) -> list[str]:
        corrupted = {vid for vid, _ in self.corruptions}
        if kind == "homomorphism":
            named = {v for edge in violations for v in edge}
            missed = corrupted - named
            if missed:
                return [f"{len(missed)} corrupted vertices not reported, e.g. {min(missed)}"]
            if any(u not in corrupted and v not in corrupted for u, v in violations):
                return ["a violation names no corrupted vertex"]
            return []
        return [f"{len(violations)} bidirectionality violations, first {violations[0]}"]

    def end_round(self, first: bool) -> list[str]:
        self.state.clear()
        return []


def walked_cycle_lengths(g: gr.MaterializedGraph) -> tuple[int, ...]:
    """Cycle lengths re-measured by walking edges from the base."""
    succ = array("q", bytes(8 * g.vertex_count))
    for u, v in g.edges():
        if u:
            succ[u] = v
    lengths = []
    for start in sorted(set(g.successors(0)) - {0}):
        steps, v = 1, start
        while v:
            v = succ[v]
            steps += 1
        lengths.append(steps)
    return tuple(lengths)


WORKLOADS = {w.name: w for w in (QueryWorkload, OrbitScanWorkload, OracleWorkload)}
