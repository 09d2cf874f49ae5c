"""Block Validity Counter (BVC).

The BVC is a small RAM-resident array with one counter per flash block giving
the number of *valid* (live) pages in that block. It is what the greedy
garbage-collection victim-selection policy consults: the block with the fewest
valid pages costs the fewest migrations to reclaim.

All of the flash-resident-validity FTLs in the paper (GeckoFTL, µ-FTL, IB-FTL)
keep a BVC in integrated RAM; at 2 bytes per block it is their dominant RAM
cost but still ~45x smaller than a RAM-resident PVB.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional


class BlockValidityCounter:
    """Per-block count of valid pages.

    The counters live in a flat ``array('q')`` column so that greedy victim
    selection can argmin over the whole device in one pass.
    """

    def __init__(self, num_blocks: int, pages_per_block: int) -> None:
        self.num_blocks = num_blocks
        self.pages_per_block = pages_per_block
        self._counts = array("q", bytes(8 * num_blocks))

    def valid_count(self, block_id: int) -> int:
        """Number of valid pages currently accounted to ``block_id``."""
        return self._counts[block_id]

    def increment(self, block_id: int, amount: int = 1) -> None:
        """Record that ``amount`` pages in ``block_id`` became valid."""
        self._counts[block_id] += amount
        if self._counts[block_id] > self.pages_per_block:
            raise ValueError(
                f"BVC for block {block_id} exceeded {self.pages_per_block}")

    def decrement(self, block_id: int, amount: int = 1) -> None:
        """Record that ``amount`` pages in ``block_id`` became invalid."""
        self._counts[block_id] -= amount
        if self._counts[block_id] < 0:
            raise ValueError(f"BVC for block {block_id} went negative")

    def set_count(self, block_id: int, count: int) -> None:
        """Overwrite the counter (used by recovery when rebuilding the BVC)."""
        if not 0 <= count <= self.pages_per_block:
            raise ValueError(f"count {count} out of range for a block")
        self._counts[block_id] = count

    def reset(self) -> None:
        """Zero every counter (power failure loses the BVC)."""
        self._counts = array("q", bytes(8 * self.num_blocks))

    def victim_candidates(self, block_ids: Iterable[int]) -> Optional[int]:
        """Return the block among ``block_ids`` with the fewest valid pages."""
        best: Optional[int] = None
        best_count = None
        for block_id in block_ids:
            count = self._counts[block_id]
            if best_count is None or count < best_count:
                best, best_count = block_id, count
        return best

    @property
    def ram_bytes(self) -> int:
        """RAM footprint of the BVC (2 bytes per block, per Appendix B)."""
        return 2 * self.num_blocks
