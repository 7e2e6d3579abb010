"""Reference arithmetic for the bouquet tower, kept apart from ``chaoscope``.

Everything here is derived from the construction's three formula shapes and
nothing else: the cover image of cycle 1 is ``j`` base edges + 2 passes of
cycle 1 for ``j = 1..k``, then one base edge, 2 passes of each higher cycle
and one base edge; cycle ``i >= 2`` maps to one base edge, 2 passes of each
of cycles ``i..n`` and one base edge; the top cycle maps to a pure base run.
The block index is found by galloping and bisection on the quadratic block
prefix, not by the integer square root the program uses, so agreement
between the two is evidence rather than a restatement.

This module never imports ``chaoscope``.
"""

from __future__ import annotations

INITIAL_CYCLE_LENGTH = 10

# The length table and block bounds published with the construction.
PUBLISHED_LENGTHS = {1: (10,), 2: (695, 90), 3: (3_421_640, 182, 12_560)}
PUBLISHED_K = {1: 22, 2: 1572}

# Galloping stops after this many doublings of the block index: deeper
# block regions are left to the program and reported as unchecked.
MAX_DOUBLINGS = 256


class Unaffordable(Exception):
    """The reference would need more than ``MAX_DOUBLINGS`` doublings."""


def tower_lengths(max_level: int) -> list[tuple[int, ...]]:
    """Cycle lengths of levels ``0..max_level`` (index = level)."""
    lengths: list[tuple[int, ...]] = [()]
    if max_level >= 1:
        lengths.append((INITIAL_CYCLE_LENGTH,))
    for n in range(1, max_level):
        below = lengths[n]
        k = k_value(below)
        first = k * (k + 1) // 2 + 2 * below[0] * k + 2 + 2 * sum(below[1:])
        middle = [2 + 2 * sum(below[i - 1:]) for i in range(2, n + 1)]
        top = (n + 2) ** 2 * sum(below)
        lengths.append((first, *middle, top))
    return lengths


def k_value(lengths: tuple[int, ...]) -> int:
    """Block bound of the cover formulas written over a level with these
    cycle lengths: twice the level's edge count."""
    return 2 * (1 + sum(lengths))


def vertex_count(lengths: tuple[int, ...]) -> int:
    return 1 + sum(length - 1 for length in lengths)


def edge_count(lengths: tuple[int, ...]) -> int:
    return 1 + sum(lengths)


def cycle_starts(lengths: tuple[int, ...]) -> list[int]:
    """First vertex id of each cycle in the dense layout: the base is 0 and
    cycle ``i``'s interior positions ``1..L-1`` are consecutive ids."""
    starts = []
    next_id = 1
    for length in lengths:
        starts.append(next_id)
        next_id += length - 1
    return starts


def project(lengths: list[tuple[int, ...]], level: int, cycle: int,
            pos: int) -> tuple[int, int]:
    """Image ``(cycle, pos)`` at ``level - 1`` of the level-``level`` vertex
    ``(cycle, pos)``; ``(0, 0)`` is the base.  Raises :class:`Unaffordable`
    when the block index lies beyond the galloping budget."""
    if cycle == 0 or cycle == level:
        return (0, 0)  # the base, or the top cycle's pure base run
    below = lengths[level - 1]
    n = level - 1
    if cycle == 1:
        a = 2 * below[0]
        k = k_value(below)

        def prefix(j: int) -> int:
            return j * (j + 1) // 2 + a * j

        region = prefix(k)
        if pos <= region:
            j = _first_block(prefix, pos, k)
            r = pos - prefix(j - 1)
            if r <= j:
                return (0, 0)
            return _in_passes(1, below[0], r - j)
        r = pos - region
        first_cycle = 2
    else:
        r = pos
        first_cycle = cycle
    if r <= 1:
        return (0, 0)
    r -= 1
    for i in range(first_cycle, n + 1):
        span = 2 * below[i - 1]
        if r <= span:
            return _in_passes(i, below[i - 1], r)
        r -= span
    return (0, 0)


def _in_passes(cycle: int, length: int, r: int) -> tuple[int, int]:
    m = r % length
    return (0, 0) if m == 0 else (cycle, m)


def _first_block(prefix, pos: int, k: int) -> int:
    """Smallest ``j`` in ``[1, k]`` with ``prefix(j) >= pos``."""
    lo, hi = 0, 1
    doublings = 0
    while hi < k and prefix(hi) < pos:
        lo, hi = hi, 2 * hi
        doublings += 1
        if doublings > MAX_DOUBLINGS:
            raise Unaffordable(pos)
    hi = min(hi, k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prefix(mid) >= pos:
            hi = mid
        else:
            lo = mid
    return hi
