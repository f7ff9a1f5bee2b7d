"""Resident bytes of a file's mappings in this process, read from /proc/self/smaps.

Linux only; tests that use it are marked with :data:`needs_smaps`.  A map of
``n`` bytes at an offset inside a page spans at most ``n + 2 * PAGE`` bytes.
"""

import mmap
import os
from pathlib import Path

import pytest

SMAPS = Path("/proc/self/smaps")
PAGE = mmap.PAGESIZE
needs_smaps = pytest.mark.skipif(not SMAPS.exists(), reason="needs /proc/self/smaps")


def mapped_rss(path) -> int:
    """Sum of ``Rss:`` over this process's mappings of ``path``, in bytes."""
    target = os.path.realpath(path)
    total = 0
    ours = False
    for line in SMAPS.read_text().splitlines():
        key, _, rest = line.partition(" ")
        if not key.endswith(":"):  # a mapping's header: range perms offset dev inode [path]
            fields = line.split(None, 5)
            ours = len(fields) == 6 and fields[5] == target
        elif ours and key == "Rss:":
            total += int(rest.split()[0]) * 1024
    return total
