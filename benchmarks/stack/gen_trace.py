"""Seeded MSR-Cambridge-format block trace for the ``timed_replay`` workload.

Record mix: 70 % writes, requests of 1-8 pages, 80 % of requests start in
the first 10 % of the logical space. The file is written by the benchmark's
parent process before any child starts, so generating it is never part of
``setup_s``; its SHA-256 goes into the result so two runs can prove they
replayed the same bytes.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Union

WRITE_SHARE = 0.7
MAX_REQUEST_PAGES = 8
HOT_SPACE_SHARE = 0.1
HOT_TRAFFIC_SHARE = 0.8


def write_trace(path: Union[str, Path], seed: int, records: int,
                logical_pages: int, page_size: int) -> str:
    """Write ``records`` MSR lines to ``path``; return the file's SHA-256.

    Every request lies inside ``logical_pages`` pages of ``page_size`` bytes,
    so the replay can run with ``oor='error'`` and no operation fails.
    """
    rng = random.Random(seed)
    hot_pages = max(1, int(logical_pages * HOT_SPACE_SHARE))
    timestamp = 128166372000000000
    digest = hashlib.sha256()
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        for _ in range(records):
            pages = rng.randint(1, MAX_REQUEST_PAGES)
            if rng.random() < HOT_TRAFFIC_SHARE:
                first = rng.randrange(hot_pages)
            else:
                first = hot_pages + rng.randrange(logical_pages - hot_pages)
            first = min(first, logical_pages - pages)
            kind = "Write" if rng.random() < WRITE_SHARE else "Read"
            timestamp += rng.randint(1_000, 200_000)
            line = (f"{timestamp},bench,0,{kind},{first * page_size},"
                    f"{pages * page_size},{rng.randint(500, 5_000)}\n")
            handle.write(line)
            digest.update(line.encode("ascii"))
    return digest.hexdigest()
