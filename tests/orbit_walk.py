"""Step-by-step orbit walk: the reference the jump-based scans are checked
against.

``WalkingCursor`` is the per-step cursor the package used before orbit rows
were built on dwells.  It shares no code with ``dynamics._dwell``: each step
increments the off-base coordinates and re-projects the base ones.
"""

from __future__ import annotations

from chaoscope import (
    PointHandle,
    SpineExhausted,
    VertexAddr,
    base_addr,
    build_level_spec,
    column_of,
    project_addr,
)


class WalkingCursor:
    """Walks an orbit one step at a time, keeping the whole column.

    Stepping increments each level's position along its forced cycle walk
    and only re-projects a level when it sits at the base (where the next
    move is dictated by the level above).
    """

    def __init__(self, handle: PointHandle):
        self.handle = handle
        self.time = handle.offset
        self.column = column_of(handle)
        self._lengths = [build_level_spec(lvl).cycle_lengths
                         for lvl in range(handle.spine_level + 1)]

    def advance(self) -> None:
        col = self.column
        top = len(col) - 1
        self.time += 1
        for lvl in range(top, -1, -1):
            cur = col[lvl]
            if cur.is_base:
                if lvl == top:
                    continue  # fixed-point spine stays put
                col[lvl] = project_addr(col[lvl + 1])
            else:
                nxt = cur.pos + 1
                if nxt == self._lengths[lvl][cur.cycle - 1]:
                    if lvl == top:
                        raise SpineExhausted(
                            f"spine base-hit at offset {self.time}",
                            first_invalid_offset=self.time)
                    col[lvl] = base_addr(lvl)
                else:
                    col[lvl] = VertexAddr(lvl, cur.cycle, nxt)


def rows_by_walk(h: PointHandle, depth: int, horizon: int):
    """``orbit_rows`` by the walking cursor: ``(t, column[0..depth])`` for
    t = 0..horizon."""
    cursor = WalkingCursor(h)
    for t in range(horizon + 1):
        yield t, cursor.column[: depth + 1]
        if t < horizon:
            cursor.advance()
