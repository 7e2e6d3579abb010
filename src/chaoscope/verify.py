"""Acceptance battery: every headline property as one runnable check.

``ALL_CHECKS`` holds each criterion's command-line token, title and check.  A
check returns a pass flag and a detail line; :func:`run_check` makes them a
:class:`CriterionResult`, which the test suite asserts on and the CLI prints.
Where a check verifies the symbolic machinery, the oracle here deliberately
takes the other road: cycle lengths are held to the literal formula
expansions that write the materialized vertex maps, projections are compared
against those maps, and set memberships are recomputed by brute force.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from . import analysis, bouquet, dsl, dynamics, graphs
from .bouquet import MaterializedLevel, VertexAddr, build_level_spec, cycle_length
from .dynamics import PointHandle, column_of, fixed_point, step

EXPECTED_LENGTHS = {(1, 1): 10, (2, 1): 695, (2, 2): 90,
                    (3, 1): 3_421_640, (3, 2): 182, (3, 3): 12_560}
EXPECTED_K = {1: 22, 2: 1572}
SEMIGROUP_GENERATORS = (10, 12, 13)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.title}: {self.detail}"


@cache
def _materialized(n: int) -> MaterializedLevel:
    return bouquet.materialize_graph(n)


# ---------------------------------------------------------------------------
# 1. Length table.
# ---------------------------------------------------------------------------

def check_length_table() -> tuple[bool, str]:
    ok = True
    details = []
    for (n, i), expected in sorted(EXPECTED_LENGTHS.items()):
        got = cycle_length(n, i)
        ok &= got == expected
        details.append(f"|c_{n},{i}|={got}")
    for n, expected in sorted(EXPECTED_K.items()):
        got = build_level_spec(n).k_value
        ok &= got == expected
        details.append(f"k_{n}={got}")

    # oracle: lengths that materialize_graph held to the literal expansions,
    # recombined with the defining shapes, not the symbolic recurrences
    measured = {n: list(_materialized(n).cycle_lengths) for n in (1, 2, 3)}
    for n in (1, 2):
        below = measured[n]
        k = 2 * (1 + sum(below))
        derived = [sum(j + 2 * below[0] for j in range(1, k + 1))
                   + 2 + 2 * sum(below[1:])]
        for i in range(2, n + 1):
            derived.append(2 + 2 * sum(below[i - 1:]))
        derived.append((n + 2) ** 2 * sum(below))
        ok &= derived == measured[n + 1]
    return ok, ", ".join(details)


# ---------------------------------------------------------------------------
# 2. Cover axioms on materialized levels.
# ---------------------------------------------------------------------------

def cover_violations(level: MaterializedLevel) -> tuple[list, list, list]:
    """The surjectivity, homomorphism and bidirectionality violations of one
    materialized level; the cover's two lists are empty at level 0."""
    if level.cover is None:
        return graphs.validate_edge_surjective(level.graph), [], []
    return (graphs.validate_edge_surjective(level.graph),
            graphs.validate_homomorphism(level.cover), graphs.validate_bidirectional(level.cover))


def check_cover_axioms() -> tuple[bool, str]:
    ok = True
    counts = []
    for n in range(4):
        found = cover_violations(_materialized(n))
        ok &= not any(found)
        shown = found if n else found[:1]  # level 0 has no cover
        counts.append(f"level {n}: {'+'.join(str(len(v)) for v in shown)} violations")
    return ok, "; ".join(counts)


# ---------------------------------------------------------------------------
# 3. Symbolic projection vs materialized vertex maps.
# ---------------------------------------------------------------------------

def check_projection_oracle() -> tuple[bool, str]:
    samples, seed = 10_000, 0
    rng = random.Random(seed)
    lengths = build_level_spec(3).cycle_lengths
    # every vertex of levels 1 and 2, then level-3 samples drawn cycle first
    addresses = [_materialized(n).id_to_addr(vid) for n in (1, 2)
                 for vid in range(_materialized(n).graph.vertex_count)]
    addresses += [VertexAddr(3, cycle, rng.randrange(1, lengths[cycle - 1]))
                  for _ in range(samples) for cycle in [rng.randrange(1, 4)]]
    ok = True
    for addr in addresses:
        level, below = _materialized(addr.level), _materialized(addr.level - 1)
        expected = level.cover.vertex_map[level.addr_to_id(addr)]
        ok &= below.addr_to_id(bouquet.project_addr(addr)) == expected
    return ok, (f"{len(addresses)} addresses compared (levels <=2 exhaustive, "
                f"{samples} sampled at level 3, seed {seed})")


# ---------------------------------------------------------------------------
# 4. Fixed point.
# ---------------------------------------------------------------------------

def check_fixed_point() -> tuple[bool, str]:
    spine, deltas = 12, (1, 10**6, 10**12)
    p = fixed_point(spine)
    ok = True
    for delta in deltas:
        column = column_of(step(p, delta))
        ok &= all(addr.is_base for addr in column)
    return ok, (f"all-base columns at spine {spine} for steps "
                + ", ".join(str(d) for d in deltas))


# ---------------------------------------------------------------------------
# 5. Invertibility at desk scale.
# ---------------------------------------------------------------------------

def check_invertibility() -> tuple[bool, str]:
    count, seed, spine, max_delta = 10_000, 0, 8, 10**6
    rng = random.Random(seed)
    ok = True
    for _ in range(count):
        h = dynamics.random_handle(spine, rng)
        delta = rng.randrange(1, max_delta + 1)
        ok &= step(step(h, delta), -delta) == h
    return ok, (f"{count} handles at spine {spine}, steps up to "
                f"{max_delta}, seed {seed}")


# ---------------------------------------------------------------------------
# 6. Mixing claims.
# ---------------------------------------------------------------------------

def check_mixing_claims() -> tuple[bool, str]:
    r1 = analysis.mixing_gap_report(1, 1)
    gaps1 = set(r1.realized_gaps)
    ok = gaps1 == {0} | set(range(2, 23))
    ok &= r1.prefix_matches and r1.suffix_within_bound
    r2 = analysis.mixing_gap_report(1, 2)
    gaps2 = set(r2.realized_gaps)
    ok &= {0, 2, 3} <= gaps2
    ok &= set(range(5, 101)) <= gaps2
    ok &= r2.prefix_matches and r2.suffix_within_bound
    return ok, (f"j=1: {r1.occurrences.copy_count} copies, missing gaps "
                f"{list(r1.missing_gaps)}; j=2: {r2.occurrences.copy_count} copies, "
                f"missing gaps {list(r2.missing_gaps)[:5]}, suffix "
                f"{r2.occurrences.suffix_length} <= {r2.suffix_bound}")


# ---------------------------------------------------------------------------
# 7. Cofinite return-length differences.
# ---------------------------------------------------------------------------

def check_semigroup() -> tuple[bool, str]:
    extra_range = 1000
    report = bouquet.find_occurrences(1, 2, 1, 1)
    diffs = analysis.return_length_differences(report)
    ok = set(SEMIGROUP_GENERATORS) <= diffs
    frob = analysis.frobenius_number(SEMIGROUP_GENERATORS)
    table = analysis.representable(SEMIGROUP_GENERATORS, frob + extra_range)
    ok &= not table[frob]
    ok &= all(table[frob + 1:])
    return ok, (f"generators {SEMIGROUP_GENERATORS} from return-length "
                f"differences, Frobenius bound {frob}, "
                f"[{frob + 1}, {frob + extra_range}] all representable")


# ---------------------------------------------------------------------------
# 8. Proximality windows.
# ---------------------------------------------------------------------------

def check_proximality() -> tuple[bool, str]:
    handles, spine, target_level, seed = 100, 8, 2, 0
    windows, window_len = 10, 700
    spans = [(w * 1000, window_len) for w in range(windows)]
    reports = analysis.proximal_sample(spine, target_level, spans, handles, seed)
    hit_all = sum(report.all_hit for report in reports)
    ok = hit_all == handles
    gap_bound = cycle_length(target_level, 1)
    return ok, (f"{hit_all}/{handles} handles hit the base at level "
                f"{target_level} in all {windows} windows of {window_len} "
                f"(gap bound {gap_bound}), seed {seed}")


# ---------------------------------------------------------------------------
# 9. Li-Yorke sampling.
# ---------------------------------------------------------------------------

def check_li_yorke() -> tuple[bool, str]:
    pairs, spine, horizon, seed, sep_rate = 100, 8, 10_000, 0, 0.9
    reports = analysis.li_yorke_sample(spine, pairs, horizon, analysis.DEFAULT_PROX_DEPTH,
                                       analysis.DEFAULT_SEP_DEPTH, seed)
    prox_found = sum(report.proximal_witness is not None for report in reports)
    sep_found = sum(report.separation_witness is not None for report in reports)
    ok = prox_found == pairs and sep_found >= sep_rate * pairs
    return ok, (f"proximal {prox_found}/{pairs}, separated "
                f"{sep_found}/{pairs} (need 100% / >= {sep_rate:.0%}), "
                f"horizon {horizon}, seed {seed}")


# ---------------------------------------------------------------------------
# 10. Degree properties.
# ---------------------------------------------------------------------------

def degree_corpus(count: int, spine: int, seed: int) -> list[PointHandle]:
    """Handles with small cycle positions: every coordinate then sits in the
    dense early region of its expansion, which keeps degree scan windows
    short."""
    rng = random.Random(seed)
    return [dynamics.random_handle(spine, rng, band=(1, 100_000), reserve=0,
                                   cycle_one_weight=0.5) for _ in range(count)]


def check_degree_properties() -> tuple[bool, str]:
    samples, corpus_size, spine, seed, window = 10_000, 100, 8, 0, 2000
    rng = random.Random(seed)
    mono_ok = True
    for _ in range(samples):
        h = dynamics.random_handle(spine, rng)
        column = column_of(h)
        seen_cycle = None
        for addr in column:
            if addr.cycle == 0:
                mono_ok &= seen_cycle is None  # base never reappears below a cycle
            else:
                if seen_cycle is not None:
                    mono_ok &= addr.cycle <= seen_cycle
                seen_cycle = addr.cycle
        estimates = [analysis.degree_of_column(h, depth).index
                     for depth in range(spine + 1)]
        for shallow, deep in zip(estimates, estimates[1:]):
            if shallow is not None and (deep is None or deep > shallow):
                mono_ok = False

    corpus = degree_corpus(corpus_size, spine, seed + 1)
    stable = not analysis.degree_stability_check(corpus)

    window_ok = True
    window_checked = 0
    for h in corpus:
        deg = analysis.degree_of_column(h)
        if deg.is_infinite or deg.index + 1 > spine:
            continue
        result = analysis.degree_window_min(h, deg.index + 1, 0, window)
        window_ok &= result <= deg.index + 1
        window_checked += 1

    ok = mono_ok and stable and window_ok
    return ok, (f"monotonicity on {samples} columns: {mono_ok}; "
                f"stability on {corpus_size} handles: {stable}; "
                f"window minimum <= deg+1 on {window_checked} handles: "
                f"{window_ok} (window {window}, seed {seed})")


# ---------------------------------------------------------------------------
# 11. DSL.
# ---------------------------------------------------------------------------

DSL_MUTATIONS: tuple[tuple[str, str, str], ...] = (
    ("length change", "10 e", "11 e"),
    ("cycle ref at level 1", "10 e", "10 c1"),
    ("drops trailing edge", "c1 := sum(j=1..k){ j e + 2 c1 } + e + e;",
     "c1 := sum(j=1..k){ j e + 2 c1 };"),
    ("renames c2 to c3", "c2 := 90 e;", "c3 := 90 e;"),
    ("unknown mode", "mode bouquet", "mode banana"),
    ("missing semicolon", "c2 := 90 e;", "c2 := 90 e"),
    ("level gap", "level 2 {", "level 7 {"),
    ("= for :=", "c1 := 10 e;", "c1 = 10 e;"),
    ("sum from 0", "sum(j=1..k){ j e + 2 c1 } + e + 2 c2 + e",
     "sum(j=0..k){ j e + 2 c1 } + e + 2 c2 + e"),
    ("unknown cycle in sum", "{ j e + 2 c1 } + e + e", "{ j e + 2 c2 } + e + e"),
    ("sum body starts with cycle", "{ j e + 2 c1 } + e + e",
     "{ j c1 + 2 c1 } + e + e"),
    ("extra edge", "+ e + e;", "+ e + e + e;"),
    ("swapped coefficient", "90 e", "e 90"),
    ("literal bound off by one", "sum(j=1..k){ j e + 2 c1 } + e + e",
     "sum(j=1..21){ j e + 2 c1 } + e + e"),
    ("deletes a cycle", "c2 := e + 2 c2 + e;", ""),
    ("doubled brace", "level 1 {", "level 1 {{"),
    ("swapped header", "cover builtin", "builtin cover"),
    ("empty sum body", "sum(j=1..k){ j e + 2 c1 } + e + e",
     "sum(j=1..k){ } + e + e"),
    ("drops trailing edge mid-level", "c3 := e + 2 c3 + e;", "c3 := e + 2 c3;"),
    ("top cycle length change", "12560 e", "12561 e"),
    ("coefficient change", "2 c2 + e;", "3 c2 + e;"),
    ("broken range dots", "..", "."),
    ("duplicate declaration", "c1 := 10 e;", "c1 := 10 e;\n  c1 := 10 e;"),
    ("zero count", "10 e", "0 e"),
    ("wrong declared length", "c1 :=", "c1[696] :="),
)


def rejection_stage(text: str, max_level: int) -> str | None:
    """Where a document is rejected: 'syntax', 'validation', 'equivalence',
    or None if it is accepted as the built-in construction."""
    try:
        doc = dsl.parse(text)
    except dsl.DslSyntaxError:
        return "syntax"
    tower, problems = dsl.resolve(doc)  # one walk for both stages
    if problems:
        return "validation"
    if not dsl.equals_builtin(tower, min(len(doc.levels), max_level)):
        return "equivalence"
    return None


def check_dsl() -> tuple[bool, str]:
    max_level = 5
    doc = dsl.builtin_document(max_level)
    text = dsl.serialize(doc)
    ok = dsl.parse(text) == doc
    ok &= rejection_stage(text, max_level) is None  # valid and generator-equal
    ok &= dsl.serialize(dsl.parse(text)) == text  # canonical form is a fixpoint

    stages: dict[str, int] = {}
    rejected = 0
    for name, find, replace in DSL_MUTATIONS:
        if find not in text:
            raise AssertionError(f"mutation {name!r}: pattern not in document")
        stage = rejection_stage(text.replace(find, replace, 1), max_level)
        if stage is None:
            ok = False
        else:
            rejected += 1
            stages[stage] = stages.get(stage, 0) + 1
    ok &= rejected == len(DSL_MUTATIONS)
    return ok, (f"levels <= {max_level} round-trip and generator-equal; "
                f"{rejected}/{len(DSL_MUTATIONS)} mutants rejected "
                f"({', '.join(f'{k}: {v}' for k, v in sorted(stages.items()))})")


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------

ALL_CHECKS = {
    1: ("lengths", "length table", check_length_table),
    2: ("axioms", "cover axioms", check_cover_axioms),
    3: ("projections", "projection oracle", check_projection_oracle),
    4: ("fixed-point", "fixed point", check_fixed_point),
    5: ("invertibility", "invertibility", check_invertibility),
    6: ("mixing", "mixing claims", check_mixing_claims),
    7: ("semigroup", "cofinite semigroup", check_semigroup),
    8: ("proximal", "proximality", check_proximality),
    9: ("liyorke", "li-yorke sampling", check_li_yorke),
    10: ("degree", "degree properties", check_degree_properties),
    11: ("dsl", "cover DSL", check_dsl),
}


def run_check(n: int) -> CriterionResult:
    """Criterion ``n``'s result; a check that raises fails, naming the exception."""
    _, title, check = ALL_CHECKS[n]
    try:
        passed, detail = check()
    except Exception as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CriterionResult(n, title, passed, detail)
