"""Large scratch arrays on memory maps of their own.

glibc serves a large allocation by mmap and, when it is freed, raises its mmap
threshold to that size, so that later allocations up to that size come from
the heap, which keeps them resident after they are freed.  The peak memory of
a process then depends on the order of its earlier calls: buffers of tens of
MB that find freed heap reuse it, and ones that do not add to it.  The Monte
Carlo routes therefore take their largest arrays from maps of their own, which
go back to the system when the last view of them is released and leave the
allocator's threshold where it was.
"""

from __future__ import annotations

import mmap

import numpy as np


def mapped_zeros(shape):
    """A zeroed float64 array of `shape` on an anonymous private map of its own.

    The map is marked for transparent huge pages, as numpy marks its own large
    arrays.
    """
    size = int(np.prod(shape)) * 8
    if hasattr(mmap, "MAP_PRIVATE"):
        buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:
        buf = mmap.mmap(-1, size)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=float).reshape(shape)
