"""Empirical chaos analysis: degrees, proximality, Li-Yorke pairs, mixing.

Finite computation cannot decide asymptotic behavior, so this module
reports only certificates: things a finite scan genuinely witnesses, such as
base-hit times (proximality), moments of small distance, moments of
separation and realized gap sets of cover images.

Every report embeds the handles, depths, horizons and budgets needed to
reproduce it exactly, and ``proximal_sample`` and ``li_yorke_sample`` draw
a seeded corpus of them.  ``frobenius_number`` reads one ``representable``
table up to Schur's bound (a - 1)(b - 1): from there on, every integer is a
combination of coprime generators whose least is a and greatest b (Brauer,
Amer. J. Math. 64, 1942).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .bouquet import (
    DEFAULT_SCAN_BUDGET,
    OccurrenceReport,
    build_level_spec,
    find_occurrences,
)
from .dynamics import (
    DistanceValue,
    PointHandle,
    base_changes,
    column_of,
    distance,
    exhaustion_time,
    next_base_time,
    random_handle,
    random_pair,
    step,
)
from .errors import StructuralError

DEFAULT_PROX_DEPTH = 2   # both columns at the base through level 2: d <= 2^-3
DEFAULT_SEP_DEPTH = 3    # a difference at level <= 3: d >= 2^-3
DEFAULT_HORIZON = 10**4


# ---------------------------------------------------------------------------
# Degrees.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeValue:
    """Cycle-index degree; ``index`` is None for an all-base column."""

    index: int | None

    @property
    def is_infinite(self) -> bool:
        return self.index is None

    def __str__(self) -> str:
        return "inf" if self.index is None else str(self.index)

    def __le__(self, bound: int) -> bool:
        return self.index is not None and self.index <= bound


def degree_of_column(h: PointHandle, depth: int | None = None) -> DegreeValue:
    """Minimum vertex degree over levels ``0..depth`` at the current time.

    This is the depth-limited estimate of the point's true degree (an upper
    bound that is exact once the column has stabilized on one cycle).
    """
    best: int | None = None
    for addr in column_of(h, depth):
        if addr.cycle and (best is None or addr.cycle < best):
            best = addr.cycle
    return DegreeValue(best)


# ---------------------------------------------------------------------------
# Proximality certificates.
# ---------------------------------------------------------------------------

@dataclass
class WindowHit:
    start: int
    length: int
    hit: int | None  # absolute time of the first base-hit inside the window

    def to_json(self) -> dict:
        return {"start": str(self.start), "length": str(self.length),
                "hit": None if self.hit is None else str(self.hit)}


@dataclass
class ProximalReport:
    handle: PointHandle
    target_level: int
    windows: list[WindowHit]

    @property
    def all_hit(self) -> bool:
        return all(w.hit is not None for w in self.windows)

    def to_json(self) -> dict:
        return {"handle": self.handle.to_json(),
                "target_level": self.target_level,
                "all_hit": self.all_hit,
                "windows": [w.to_json() for w in self.windows]}


def proximal_certificate(h: PointHandle, target_level: int,
                         windows: list[tuple[int, int]]) -> ProximalReport:
    """First base-hit time of the level-``target_level`` coordinate in each
    window.

    A hit at time ``t`` certifies distance at most ``2**-(target_level+1)``
    to the fixed point at that moment.  Windows at least one full cycle
    length wide are guaranteed a hit by the base-gap bound.
    """
    results = []
    for start, length in windows:
        d = next_base_time(step(h, start), target_level)
        hit = start + d if d < length else None
        results.append(WindowHit(start, length, hit))
    return ProximalReport(h, target_level, results)


def proximal_sample(spine: int, level: int, windows: list[tuple[int, int]],
                    count: int, seed: int) -> list[ProximalReport]:
    """Certificates of ``count`` handles drawn in turn from one seeded rng."""
    rng = random.Random(seed)
    return [proximal_certificate(random_handle(spine, rng), level, windows)
            for _ in range(count)]


# ---------------------------------------------------------------------------
# Li-Yorke pair scanning.
# ---------------------------------------------------------------------------

@dataclass
class LiYorkeReport:
    """Scan outcome for one pair: a moment of closeness and a moment of
    separation, each with the time and the measured distance."""

    handle_a: PointHandle
    handle_b: PointHandle
    horizon: int
    prox_depth: int
    sep_depth: int
    proximal_witness: tuple[int, DistanceValue] | None
    separation_witness: tuple[int, DistanceValue] | None

    def to_json(self) -> dict:
        def witness(w):
            if w is None:
                return None
            t, d = w
            return {"time": str(t), "distance": str(d)}

        return {
            "a": self.handle_a.to_json(),
            "b": self.handle_b.to_json(),
            "horizon": self.horizon,
            "prox_depth": self.prox_depth,
            "sep_depth": self.sep_depth,
            "proximal_witness": witness(self.proximal_witness),
            "separation_witness": witness(self.separation_witness),
        }


def _find_proximal(a: PointHandle, b: PointHandle, depth: int,
                   horizon: int) -> tuple[int, DistanceValue] | None:
    # jump between synchronized base-hit times: both coordinates at the base
    # through `depth` bounds the distance by 2^-(depth+1).  The jumps skip
    # no joint hit, so a miss is a real miss: next_base_time is the first
    # hit, and before t + max(da, db) one of the two is off the base
    t = 0
    while t <= horizon:
        ha = step(a, t)
        hb = step(b, t)
        da = next_base_time(ha, depth)
        db = next_base_time(hb, depth)
        if da == 0 and db == 0:
            return t, distance(ha, hb)
        t += max(da, db)
    return None


def _find_separation(a: PointHandle, b: PointHandle, depth: int,
                     horizon: int) -> tuple[int, DistanceValue] | None:
    # columns equal through `limit` stay equal until either handle's
    # level-`limit` coordinate enters or leaves the base, so a first
    # difference shows at t = 0 or at such a change.  Each such time is
    # compared once, and only a handle without a change then is projected
    limit = min(depth, a.spine_level, b.spine_level)
    handles = (a, b)
    streams = [base_changes(h, limit, horizon) for h in handles]
    done = (horizon + 1, None)
    heads = [next(stream, done) for stream in streams]
    while (t := min(heads[0][0], heads[1][0])) <= horizon:
        col_a, col_b = (column if s == t else column_of(step(h, t))
                        for h, (s, column) in zip(handles, heads))
        level = next((n for n in range(1, limit + 1) if col_a[n] != col_b[n]), None)
        if level is not None:
            return t, DistanceValue(exact=True, level=level)
        heads = [next(stream, done) if head[0] == t else head
                 for stream, head in zip(streams, heads)]
    return None


def li_yorke_test(a: PointHandle, b: PointHandle,
                  horizon: int,
                  prox_depth: int = DEFAULT_PROX_DEPTH,
                  sep_depth: int = DEFAULT_SEP_DEPTH) -> LiYorkeReport:
    """Search one horizon for both halves of Li-Yorke behavior.

    Neither search walks step by step: the proximal search jumps between
    base-hit times, the separation search compares the columns only at the
    times ``base_changes`` gives for either handle at level ``sep_depth``,
    the only times at which they can first differ.
    """
    for h in (a, b):
        ex = exhaustion_time(h)
        if ex is not None and ex <= horizon:
            raise StructuralError(
                f"handle {h} exhausts at +{ex}, too early for horizon {horizon}")
    return LiYorkeReport(
        handle_a=a, handle_b=b, horizon=horizon,
        prox_depth=prox_depth, sep_depth=sep_depth,
        proximal_witness=_find_proximal(a, b, prox_depth, horizon),
        separation_witness=_find_separation(a, b, sep_depth, horizon),
    )


def li_yorke_sample(spine: int, pairs: int, horizon: int, prox_depth: int,
                    sep_depth: int, seed: int) -> list[LiYorkeReport]:
    """Scans of ``pairs`` pairs drawn in turn from one seeded rng."""
    rng = random.Random(seed)
    return [li_yorke_test(*random_pair(spine, rng), horizon, prox_depth, sep_depth)
            for _ in range(pairs)]


# ---------------------------------------------------------------------------
# Mixing gap reports.
# ---------------------------------------------------------------------------

@dataclass
class MixingGapReport:
    """Occurrence scan of the first cycle across ``depth`` cover levels,
    checked against the three structural claims that drive mixing:

    * gaps between consecutive copies realize (almost) every length up to
      ``claimed_max_gap``;
    * the projected path starts with ``depth`` base edges followed by a
      complete copy;
    * the trailing segment after the last copy is at most
      ``claimed_max_gap - depth`` edges.

    The literal expansion misses gap 1 (a single base edge only ever occurs
    before the first copy); ``missing_gaps`` records that deviation.  For
    ``m = 1, j = 2`` gaps also run past ``claimed_max_gap`` (k): between
    blocks ``i`` and ``i + 1`` of the top cycle's sum the gap is ``i + 4``
    edges (``e + e`` closing a level-2 copy, ``i + 1`` base edges, the ``e``
    opening the next), so blocks ``k - 3 .. k - 1`` give ``extra_gaps``
    ``k + 1 .. k + 3``.
    """

    base_level: int
    depth: int
    occurrences: OccurrenceReport
    claimed_max_gap: int
    realized_gaps: tuple[int, ...]
    missing_gaps: tuple[int, ...]
    extra_gaps: tuple[int, ...]
    prefix_matches: bool
    suffix_bound: int
    suffix_within_bound: bool

    def to_json(self) -> dict:
        return {
            "base_level": self.base_level,
            "depth": self.depth,
            "claimed_max_gap": str(self.claimed_max_gap),
            "realized_gap_count": len(self.realized_gaps),
            "missing_gaps": [str(g) for g in self.missing_gaps],
            "extra_gaps": [str(g) for g in self.extra_gaps],
            "prefix_matches": self.prefix_matches,
            "suffix_bound": str(self.suffix_bound),
            "suffix_within_bound": self.suffix_within_bound,
            "occurrences": self.occurrences.to_json(),
        }


def mixing_gap_report(m: int, j: int,
                      budget: int = DEFAULT_SCAN_BUDGET) -> MixingGapReport:
    """Scan copies of cycle 1 of level ``m`` inside the projection of cycle 1
    of level ``m + j`` and evaluate the mixing claims."""
    if m < 1 or j < 1:
        raise StructuralError("need m >= 1 and j >= 1")
    report = find_occurrences(m, m + j, target_cycle=1, source_cycle=1,
                              budget=budget)
    k_top = build_level_spec(m + j - 1).k_value
    realized = report.realized_gaps()
    realized_set = set(realized)
    missing = tuple(g for g in range(0, k_top + 1) if g not in realized_set)
    extra = tuple(g for g in realized if g > k_top)
    prefix_ok = (report.copy_count > 0 and report.prefix_length == j
                 and report.prefix_all_base)
    suffix_bound = k_top - j
    suffix_ok = (report.copy_count > 0 and report.suffix_length <= suffix_bound
                 and report.suffix_all_base)
    return MixingGapReport(
        base_level=m, depth=j, occurrences=report,
        claimed_max_gap=k_top, realized_gaps=realized,
        missing_gaps=missing, extra_gaps=extra,
        prefix_matches=prefix_ok,
        suffix_bound=suffix_bound, suffix_within_bound=suffix_ok)


def return_length_differences(report: OccurrenceReport) -> set[int]:
    """Positive differences of start-to-start return lengths of the target
    cycle; the generated numerical semigroup being cofinite is the
    transitivity-to-mixing witness."""
    returns = sorted(report.copy_length + g for g in report.realized_gaps())
    return {r2 - r1 for i, r1 in enumerate(returns) for r2 in returns[i + 1:]}


# ---------------------------------------------------------------------------
# Numerical semigroup arithmetic.
# ---------------------------------------------------------------------------

def representable(generators: tuple[int, ...], upto: int) -> bytes:
    """Byte v is 1 when v is a nonnegative integer combination of the
    generators, else 0, for v = 0..upto, each read off the smaller values."""
    table = bytearray(upto + 1)
    for v in range(upto + 1):
        table[v] = v == 0 or any(table[v - g] for g in generators if 0 < g <= v)
    return bytes(table)


def frobenius_number(generators: tuple[int, ...]) -> int:
    """The largest integer that is no combination of the generators, or -1,
    read off the table to Schur's bound; zeros are ignored, the rest coprime."""
    positive = tuple(g for g in generators if g > 0)
    if gcd(*positive) != 1:
        raise StructuralError("generators must be coprime overall")
    return representable(positive, (min(positive) - 1) * (max(positive) - 1)).rfind(0)


# ---------------------------------------------------------------------------
# Degree invariance along orbits.
# ---------------------------------------------------------------------------

def degree_stability_check(handles: list[PointHandle]) -> list[PointHandle]:
    """One-step degree invariance on the cycle-stable tail of each column;
    returns the handles that break it (empty: all stable).

    For a column whose levels ``N..M`` all sit on cycle ``i``, one step keeps
    levels ``N+1..M`` on cycle ``i`` (image formulas start and end with base
    edges, so a coordinate can only fall to the base if the one below it is
    already there).  The fixed point is trivially stable.
    """
    unstable = []
    for h in handles:
        col = column_of(h)
        top = h.spine_level
        i = col[top].cycle
        if i == 0:
            continue
        stable_from = top
        while stable_from > 1 and col[stable_from - 1].cycle == i:
            stable_from -= 1
        col2 = column_of(step(h, 1))
        if any(col2[lvl].cycle != i for lvl in range(stable_from + 1, top + 1)):
            unstable.append(h)
    return unstable


def degree_window_min(h: PointHandle, level: int, start: int,
                      window: int) -> DegreeValue:
    """Minimum degree of the level-``level`` coordinate over times
    ``start..start+window`` (inclusive).  The coordinate keeps one cycle
    from a base exit to the next base hit, so the scan reads the cycle at
    each of ``base_changes``' exits and stops at cycle 1, the lowest index."""
    h = step(h, start)
    step(h, window)  # a window past the spine's reach raises as a walk would
    best: int | None = None
    for _, column in base_changes(h, level, window):
        addr = column[level]
        if addr.cycle and (best is None or addr.cycle < best):
            best = addr.cycle
            if best == 1:
                break
    return DegreeValue(best)
