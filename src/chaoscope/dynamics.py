"""Truncated inverse-limit points and their exact dynamics.

A point of the limit space is a coherent sequence of vertices, one per
level.  Because every cover maps base to base and non-base vertices have a
forced successor, a point truncated at level ``M`` is fully determined by a
single level-``M`` address (the *spine*) plus a time offset: all shallower
coordinates are projections, and the level-``M`` coordinate just advances
along its cycle.  That makes the shift map a random-access operation: moving
``10**12`` steps costs one big-integer addition, not a walk, and an orbit
scan projects one column per dwell (see ``_dwell``), not one per step.

The representation is only valid while the spine coordinate stays strictly
inside its cycle.  Driving it to the base is an explicit
:class:`~chaoscope.errors.SpineExhausted` event, never silently resolved:
what happens after the base-hit depends on deeper levels the spine does not
know.  Callers can extend the spine with ``lift_choices`` and re-seed.

``column_of``, ``next_base_time`` and ``distance`` share one kept walk of
projections (see ``_walk``): a repeat pays one check and one compare, and
a jump along the spine's cycle re-projects only the levels it moves out of
their traversals.
Handles and addresses are named tuples: the walk, the columns and the orbit
rows build and compare them in C.

Distances follow the standard product metric: ``2**-k`` where ``k`` is the
first level at which two columns differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple, TextIO

from .bouquet import (
    LEVEL_LIMIT,
    VertexAddr,
    base_addr,
    build_level_spec,
    check_addr,
    cycle_length,
    project_addr,
)
from .errors import SpineExhausted, StructuralError, int_text

DEFAULT_SPINE_LEVEL = 8
DEFAULT_POSITION_RESERVE = 10**6
# position bands for sampled points, chosen so desk-scale scans can see
# something happen: on cycle 1 the band sits where the level-2 coordinate's
# base dwells are hundreds of steps long (blocks several hundred deep into
# the quadratic region), which is what lets two independent orbits reach the
# base simultaneously within a 1e4 horizon; on higher cycles any position
# works for proximity (their shallow coordinates pin to the base) and small
# positions keep at least the degree-index levels moving
CYCLE_ONE_BAND = (10**6, 2 * 10**6)
HIGH_CYCLE_BAND = (1, 10**6)
_BASES = tuple(map(base_addr, range(LEVEL_LIMIT + 1)))  # a column's base levels


class PointHandle(NamedTuple):
    """A truncated limit point: one spine address plus a time offset.

    ``address`` is the coordinate at time 0; the coordinate at the current
    time is ``address.pos + offset`` along the same cycle.  A base spine is
    the fixed point (valid at every time); a cycle spine is valid while the
    position stays in ``[1, cycle_length - 1]``.
    """

    spine_level: int
    address: VertexAddr
    offset: int = 0

    def __str__(self) -> str:
        return f"{self.address}@{int_text(self.offset)}"

    def __repr__(self) -> str:
        return (f"PointHandle(spine_level={int_text(self.spine_level)}, "
                f"address={self.address!r}, offset={int_text(self.offset)})")

    def to_json(self) -> dict:
        return {
            "spine_level": self.spine_level,
            "cycle": self.address.cycle,
            "pos": str(self.address.pos),
            "offset": str(self.offset),
        }


def fixed_point(spine_level: int) -> PointHandle:
    """The unique fixed point, truncated at the given level."""
    return new_handle(spine_level, 0, 0)


def new_handle(spine_level: int, cycle: int, pos: int, offset: int = 0) -> PointHandle:
    addr = VertexAddr(spine_level, cycle, pos)
    check_addr(addr)
    h = PointHandle(spine_level, addr, offset)
    _spine_position(h)  # validates the offset
    return h


def _spine_position(h: PointHandle) -> int:
    """The one check of a handle (int fields, no bools, then the range) and
    its current position along the spine cycle, 0 for the fixed point."""
    spine, (_, cycle, start), offset = h
    if not (type(spine) is type(cycle) is type(start) is type(offset) is int):
        raise StructuralError(f"address coordinates must be ints: {h!r}")
    if not cycle:
        return 0
    pos = start + offset
    length = cycle_length(spine, cycle)
    if not (1 <= pos <= length - 1):
        # the spine reaches the base at position `length` going forward, 0 going back
        bad = length - start if pos > 0 else -start
        raise SpineExhausted(
            f"offset {int_text(offset)} drives spine position to {int_text(pos)}, outside "
            f"[1, {int_text(length - 1)}] on cycle {cycle} of level {spine}",
            first_invalid_offset=bad)
    return pos


def exhaustion_time(h: PointHandle) -> int | None:
    """Smallest forward step that exhausts the spine: the cycle length minus
    the current position (None for the fixed point, which never exhausts).
    Steps strictly below this value are valid."""
    pos = _spine_position(h)
    return cycle_length(h.spine_level, h.address.cycle) - pos if pos else None


def step(h: PointHandle, delta: int) -> PointHandle:
    """Advance the point ``delta`` steps (negative for the inverse map).

    Random access: the cost does not depend on ``|delta|``.  Raises
    :class:`SpineExhausted` with the first invalid offset if the motion
    leaves the spine's valid range.
    """
    moved = PointHandle(h.spine_level, h.address, h.offset + delta)
    _spine_position(moved)
    return moved


_kept: tuple[VertexAddr, ...] = ()  # the last walk: one slot, replaced whole


def _walk(h: PointHandle, stop: int) -> tuple[VertexAddr, ...]:
    """Coordinates from the spine down to level ``stop`` or the first base
    one, entry ``i`` at level ``spine_level - i``.  After the one check of
    ``h``, an equal coordinate's kept walk is reused as it is.  A spine ``d``
    steps on moves each ``(n, c, q)`` to ``(n, c, q + d)`` while off the base
    and ``0 < q + d < cycle_length(n, c)``: its image stays in one traversal."""
    global _kept
    pos = _spine_position(h)
    if not pos:
        return (h.address,)
    addr = VertexAddr(h.spine_level, h.address.cycle, pos)
    walk = _kept
    if not walk or walk[0] != addr:
        if walk and walk[0][:2] == addr[:2]:
            d, moved = pos - walk[0].pos, [addr]
            for level, cycle, q in walk[1:]:
                if not cycle or not 0 < q + d < cycle_length(level, cycle):
                    break  # projection goes on from the last that moved
                moved.append(VertexAddr(level, cycle, q + d))
            _kept = walk = tuple(moved)  # kept even if it reaches far enough
        else:
            walk = (addr,)
    last = walk[-1]
    if not last.cycle or last.level <= stop:
        return walk  # it reaches far enough: returned as it is
    tail = list(walk)
    while last.level > stop and last.cycle:
        last = project_addr(last)
        tail.append(last)
    _kept = walk = tuple(tail)
    return walk


def column_of(h: PointHandle, depth: int | None = None) -> list[VertexAddr]:
    """Coordinates at levels ``0..depth`` for the current time.

    The list index is the level.  Coherence is by construction: entry ``n``
    is the projection of entry ``n+1``, down to the first base entry.
    """
    if depth is None:
        depth = h.spine_level
    if not (0 <= depth <= h.spine_level):
        raise StructuralError(f"depth {int_text(depth)} outside [0, {int_text(h.spine_level)}]")
    walk = _walk(h, 0)  # below its last, base entry, covers keep the base
    low = walk[-1].level
    column = [*(_BASES[:low] if low < len(_BASES) else map(base_addr, range(low))), *walk[::-1]]
    del column[depth + 1:]
    return column


@dataclass(frozen=True)
class DistanceValue:
    """Distance between two columns.

    ``exact`` means a first differing level ``level`` was witnessed and the
    distance is exactly ``2**-level``.  Otherwise the columns agree on every
    compared level and the distance is at most ``2**-(level + 1)``.
    """

    exact: bool
    level: int

    def __str__(self) -> str:
        if self.exact:
            return f"2^-{self.level}"
        return f"<= 2^-{self.level + 1}"


def distance(a: PointHandle, b: PointHandle) -> DistanceValue:
    """Product-metric distance from the columns, compared level by level."""
    depth = min(a.spine_level, b.spine_level)
    for level, (x, y) in enumerate(zip(column_of(a, depth), column_of(b, depth))):
        if x != y:  # never at level 0, which is all base
            return DistanceValue(exact=True, level=level)
    return DistanceValue(exact=False, level=depth)


def next_base_time(h: PointHandle, target_level: int) -> int:
    """Smallest ``d >= 0`` whose step puts the level-``target_level``
    coordinate at the base.

    The coordinate's forward walk around its cycle is forced, so the answer
    is the distance to the end of the current cycle copy; no scan happens.

    The answer never exceeds ``exhaustion_time(h)``: at that offset the
    spine coordinate is at the base, covers map the base to the base, so
    every lower coordinate is at the base too, and a forced walk reaches
    the base first at this answer.
    """
    if not (0 <= target_level <= h.spine_level):
        raise StructuralError(
            f"target level {int_text(target_level)} outside [0, {int_text(h.spine_level)}]")
    walk = _walk(h, target_level)
    addr = walk[min(h.spine_level - target_level, len(walk) - 1)]  # a short walk ends at the base
    if not addr.cycle:  # the base projects to the base
        return 0
    return cycle_length(target_level, addr.cycle) - addr.pos


# ---------------------------------------------------------------------------
# Orbit scans, one projection per dwell.
# ---------------------------------------------------------------------------

def _dwell(column: list[VertexAddr]) -> int | None:
    """Steps in which ``column`` moves by arithmetic alone, None if never.
    Its lowest off-base level ``M`` hits the base no later than those above;
    the levels below ``M`` stay at the base until ``M``'s image leaves it."""
    upper = next((a for a in column if a.cycle), None)
    if upper is None:
        return None
    formula = build_level_spec(upper.level).image_formulas[upper.cycle - 1]
    q = formula.next_off_base(upper.pos)
    return (formula.length if q is None else q) - upper.pos


def base_changes(h: PointHandle, level: int,
                 horizon: int) -> Iterator[tuple[int, list[VertexAddr]]]:
    """Yield ``(t, column_of(step(h, t)))`` at ``t = 0`` and at each later
    ``t <= horizon`` where the level-``level`` coordinate enters or leaves
    the base.

    An off-base coordinate walks its cycle to the base hit.  A base one
    stays there for the column's dwell (see :func:`_dwell`), so the walk
    jumps by it.  Level 0 and the fixed point never leave the base, so they
    yield once."""
    if not (0 <= level <= h.spine_level):
        raise StructuralError(f"level {int_text(level)} outside [0, {int_text(h.spine_level)}]")
    t, on_base = 0, None
    while t <= horizon:
        column = column_of(step(h, t))
        addr = column[level]
        if addr.is_base != on_base:
            yield t, column
            on_base = addr.is_base
        if not on_base:
            t += cycle_length(level, addr.cycle) - addr.pos
            continue
        if not level or (dwell := _dwell(column)) is None:
            return
        t += dwell


def orbit_rows(h: PointHandle, depth: int, horizon: int) -> Iterator[tuple[int, list[VertexAddr]]]:
    """Yield ``(t, column[0..depth])`` for t = 0..horizon.

    Each dwell (see :func:`_dwell`) costs one ``column_of``; inside it each
    off-base coordinate moves one position per step and each base one stays
    put.  A row past the spine's reach raises :class:`SpineExhausted`."""
    if not (0 <= depth <= h.spine_level):
        raise StructuralError(f"depth {int_text(depth)} outside [0, {int_text(h.spine_level)}]")
    t = 0
    while t <= horizon:
        column = column_of(step(h, t))
        dwell = _dwell(column)
        end = horizon + 1 if dwell is None else min(t + dwell, horizon + 1)
        base = [a for a in column[: depth + 1] if not a.cycle]  # a prefix: see column_of
        moving = column[len(base): depth + 1]
        for s in range(end - t):
            yield t + s, base + [VertexAddr(level, cycle, pos + s) for level, cycle, pos in moving]
        t = end


class OrbitCursor:
    """Reads :func:`orbit_rows` row by row, up to the spine's reach."""

    def __init__(self, handle: PointHandle):
        self.handle = handle
        self.time = handle.offset
        self._rows = orbit_rows(handle, handle.spine_level, exhaustion_time(handle) or 0)
        self.column = next(self._rows)[1]

    def advance(self) -> None:
        self.time += 1
        if not self.handle.address.is_base:  # the fixed point's column stays
            row = next(self._rows, None)
            if row is None:  # the rows ended past the spine's reach: raise again
                step(self.handle, self.time - self.handle.offset)
            self.column = row[1]


def write_orbit_csv(out: TextIO, h: PointHandle, depth: int, horizon: int) -> None:
    """Orbit trace as CSV: t, then cycle index and position per level."""
    header = ["t"]
    for lvl in range(depth + 1):
        header.append(f"cycle_{lvl}")
        header.append(f"pos_{lvl}")
    out.write(",".join(header) + "\n")
    for t, column in orbit_rows(h, depth, horizon):
        row = [str(t)]
        for addr in column:
            row.append(str(addr.cycle))
            row.append(str(addr.pos))
        out.write(",".join(row) + "\n")


def write_orbit_jsonl(out: TextIO, h: PointHandle, depth: int, horizon: int) -> None:
    """Orbit trace as JSON lines with the same fields as the CSV."""
    for t, column in orbit_rows(h, depth, horizon):
        record = {"t": t,
                  "column": [[addr.cycle, str(addr.pos)] for addr in column]}
        out.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Reproducible point corpora.
# ---------------------------------------------------------------------------

def random_handle(spine_level: int, rng: random.Random,
                  band: tuple[int, int] | None = None,
                  reserve: int = DEFAULT_POSITION_RESERVE,
                  cycle_one_weight: float = 0.75) -> PointHandle:
    """Seeded random handle with at least ``reserve`` steps of forward
    validity.

    Cycle 1 is favored: it has by far the longest horizons and its shallow
    coordinates keep moving.  A point sampled on cycle ``i >= 2`` eventually
    projects onto the top cycle of some level, whose image is one pure base
    run, so its shallow coordinates sit at the base for runs far beyond any
    desk-scale horizon; such points still witness proximity trivially but
    nothing shallow ever separates.  The default position bands (see module
    constants) are chosen so sampled orbits have observable behavior.
    """
    if spine_level < 1:
        raise StructuralError("random handles need at least one cycle")
    if spine_level == 1 or rng.random() < cycle_one_weight:
        cycle = 1
    else:
        cycle = rng.randrange(2, spine_level + 1)
    if band is None:
        lo, hi = CYCLE_ONE_BAND if cycle == 1 else HIGH_CYCLE_BAND
    else:
        lo, hi = band
    length = cycle_length(spine_level, cycle)
    hi = min(hi, length - 1 - reserve)
    if hi < lo:
        raise StructuralError(
            f"cycle {cycle} at level {spine_level} has length {length}; a draw "
            f"needs a position of at least {lo} plus a reserve of {reserve} steps")
    return new_handle(spine_level, cycle, rng.randrange(lo, hi + 1))


def random_pair(spine_level: int, rng: random.Random) -> tuple[PointHandle, PointHandle]:
    """Two distinct seeded handles at the same spine level."""
    a = random_handle(spine_level, rng)
    while True:
        b = random_handle(spine_level, rng)
        if b.address != a.address:
            return a, b
