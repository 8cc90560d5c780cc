"""Warp-level memory access coalescing.

The memory access units merge the per-thread addresses of one warp
instruction into the minimum set of aligned segments: 128-byte cache
lines on the cached global/local path (Section 2.1: "the cache uses
128-byte cache lines ... and only supports aligned accesses"), and
32-byte sectors when counting DRAM transactions (the minimum DRAM fetch
the paper alludes to when noting that line fills can fetch unneeded
data, Section 3.1).
"""

from __future__ import annotations

from collections.abc import Iterable

#: Cache line size in bytes.
LINE_BYTES = 128
#: Minimum DRAM transfer in bytes.
SECTOR_BYTES = 32


def coalesce_lines(addrs: Iterable[int], line_bytes: int = LINE_BYTES) -> list[int]:
    """Distinct aligned line base addresses touched by a warp access.

    Returns the base addresses sorted ascending; the length of the result
    is the number of tag lookups the access needs.
    """
    return sorted({a - a % line_bytes for a in addrs})


def coalesce_sectors(addrs: Iterable[int], sector_bytes: int = SECTOR_BYTES) -> list[int]:
    """Distinct aligned 32-byte sector base addresses of a warp access."""
    return sorted({a - a % sector_bytes for a in addrs})


def sectors_per_line(addrs: Iterable[int], line_bytes: int = LINE_BYTES) -> tuple[int, ...]:
    """Distinct sectors of a warp access in each line it touches.

    One count per line of :func:`coalesce_lines`, in ascending line
    order: with a cache in front, the memory controller combines a
    store's write-through traffic into one DRAM burst per touched line.
    """
    per_line: dict[int, int] = {}
    for sector in coalesce_sectors(addrs):
        line = sector - sector % line_bytes
        per_line[line] = per_line.get(line, 0) + 1
    return tuple(per_line.values())


def sectors_in_line(line_base: int, line_bytes: int = LINE_BYTES,
                    sector_bytes: int = SECTOR_BYTES) -> int:
    """DRAM transactions needed to fill one cache line."""
    if line_bytes % sector_bytes:
        raise ValueError("line size must be a multiple of the sector size")
    return line_bytes // sector_bytes
