"""Garbage collection: victim selection and block reclamation.

Two victim-selection policies are implemented:

``GREEDY``
    The policy used by existing page-associative FTLs: always pick the block
    with the fewest valid pages anywhere in the device, including blocks that
    hold flash-resident metadata (translation pages, PVB pages, log pages).

``METADATA_AWARE``
    GeckoFTL's policy (Section 4.2): never pick a metadata block as a greedy
    victim. Metadata is updated 2-3 orders of magnitude more often than user
    data, so its blocks become fully invalid on their own; GeckoFTL simply
    waits and erases them for free once every page is superseded.

The collector itself is shared: it determines the victim's live pages (via the
validity store for user blocks, via the owning metadata structure for metadata
blocks), migrates them, and erases the victim. The FTL supplies callbacks for
migrating pages because migration must create dirty cached mapping entries
exactly like an application write would.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

from ..flash.address import PhysicalAddress
from ..flash.device import FlashDevice
from ..flash.stats import IOPurpose
from .block_manager import (METADATA_TYPES, USER_CODE, BlockManager,
                            BlockType)
from .bvc import BlockValidityCounter
from .validity.base import ValidityStore


class VictimPolicy(str, Enum):
    """How garbage collection chooses which block to reclaim."""

    GREEDY = "greedy"
    METADATA_AWARE = "metadata_aware"


@dataclass
class GCResult:
    """Outcome of one garbage-collection operation, for tests and reporting."""

    victim_block: int
    victim_type: BlockType
    migrated_pages: int
    reclaimed_pages: int


class GarbageCollector:
    """Reclaims invalid flash space on behalf of a page-mapped FTL."""

    def __init__(self,
                 device: FlashDevice,
                 block_manager: BlockManager,
                 bvc: BlockValidityCounter,
                 validity_store: ValidityStore,
                 migrate_user_page: Callable[[PhysicalAddress], None],
                 migrate_metadata_page: Callable[[PhysicalAddress, BlockType], None],
                 policy: VictimPolicy = VictimPolicy.GREEDY,
                 free_block_threshold: int = 6,
                 migrate_user_pages: Optional[
                     Callable[[int, List[int]], None]] = None) -> None:
        self.device = device
        self.block_manager = block_manager
        self.bvc = bvc
        self.validity_store = validity_store
        self.migrate_user_page = migrate_user_page
        #: Optional batch form of ``migrate_user_page``: called once per
        #: victim with its live offsets (ascending), letting the FTL hoist
        #: per-victim state out of the per-page loop. Must be observably
        #: identical to calling ``migrate_user_page`` per offset in order.
        self.migrate_user_pages = migrate_user_pages
        self.migrate_metadata_page = migrate_metadata_page
        self.policy = policy
        self.free_block_threshold = free_block_threshold
        self.collections = 0
        #: Fault-injection hook for crash scenarios: when set, it is invoked
        #: as ``crash_hook("gc", victim_block)`` mid-collection — after the
        #: victim's live pages have been migrated but *before* the erase —
        #: and may raise to model a power failure at the nastiest moment
        #: (two live-looking copies on flash, victim not yet reclaimed).
        self.crash_hook: Optional[Callable[[str, int], None]] = None
        #: Victim of the collection currently in flight, if any. Stays set
        #: when a crash hook aborts the collection mid-way, so recovery can
        #: tell that an erase is outstanding (battery-backed FTLs complete
        #: it; scan-based recovery rediscovers the state from flash).
        self.in_flight_victim: Optional[int] = None
        #: Observability hook (same discovery idiom as ``crash_hook``): when
        #: an observer attaches to the owning FTL it sets itself here, and
        #: ``collect_block`` reports cycle boundaries to it. ``None`` —
        #: the default — costs one predicted branch per collection.
        self.obs = None

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def needs_collection(self) -> bool:
        """True when the free-block pool has shrunk below the threshold."""
        return self.block_manager.free_block_count < self.free_block_threshold

    def collect_until_safe(self, max_operations: int = 64) -> List[GCResult]:
        """Run garbage-collection operations until the free pool recovers."""
        results: List[GCResult] = []
        operations = 0
        while self.needs_collection() and operations < max_operations:
            result = self.collect_once()
            operations += 1
            if result is None:
                break
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------
    def _candidate_blocks(self) -> List[int]:
        candidates = []
        for block_id in range(self.device.config.num_blocks):
            block_type = self.block_manager.block_type(block_id)
            if block_type is BlockType.FREE:
                continue
            if self.block_manager.is_active(block_id):
                continue
            if (self.policy is VictimPolicy.METADATA_AWARE
                    and block_type in METADATA_TYPES):
                continue
            candidates.append(block_id)
        return candidates

    def _victim_cost(self, block_id: int) -> int:
        """Number of live pages the collector would need to migrate."""
        block_type = self.block_manager.block_type(block_id)
        if block_type in METADATA_TYPES:
            return len(self.block_manager.metadata_valid_offsets(block_id))
        return self.bvc.valid_count(block_id)

    def choose_victim(self) -> Optional[int]:
        """Pick the cheapest victim under the configured policy.

        GeckoFTL's metadata-aware policy first looks for a *free* victim — a
        metadata block whose pages are all superseded (checked over the
        block manager's metadata-block set, ascending = lowest id) — and
        only then argmins the maintained BVC column over the user blocks.
        The argmin preserves the historical ascending-scan tie-break
        exactly: the lowest block id among equal valid counts wins.
        ``tests/test_victim_selection.py`` locks both the tie-break and full
        victim sequences against the pre-argmin scan.
        """
        block_manager = self.block_manager
        type_codes = block_manager._type_codes
        counts = self.bvc._counts
        if self.policy is VictimPolicy.METADATA_AWARE:
            # Free-victim check: only metadata blocks, typically a handful.
            info = block_manager.info
            blocks = self.device.blocks
            active = block_manager.active_blocks.values()
            for block_id in block_manager.metadata_blocks_sorted:
                block = blocks[block_id]
                written = block.next_free_offset
                if block_id in active and written < block.pages_per_block:
                    continue
                if written > 0 and \
                        len(info[block_id].invalid_metadata_offsets) >= written:
                    return block_id
            # Greedy argmin over the user blocks (metadata never competes).
            active_user = block_manager.active_blocks[BlockType.USER]
            # Stdlib argmin without a per-block Python loop: copy the
            # maintained BVC column (a C-level array slice), poke a sentinel
            # into the few non-candidate slots (free blocks, metadata
            # blocks, the active user block — a dozen indices, not a
            # 96-element scan), then let ``min``/``index`` run at C speed.
            # ``index`` of the minimum returns the first occurrence, which
            # preserves the lowest-block-id tie-break exactly.
            masked = counts[:]
            sentinel = 1 << 62
            for block_id in block_manager.free_blocks:
                masked[block_id] = sentinel
            for block_id in block_manager.metadata_blocks:
                masked[block_id] = sentinel
            if active_user is not None:
                masked[active_user] = sentinel
            best_cost = min(masked)
            if best_cost == sentinel:
                return None
            return masked.index(best_cost)
        # Greedy policy: metadata blocks compete, costed by their live
        # metadata pages (written minus superseded).
        info = block_manager.info
        blocks = self.device.blocks
        active = set(block_manager.active_blocks.values())
        best = None
        best_cost = None
        for block_id, code in enumerate(type_codes):
            if code == 0 or block_id in active:
                continue
            if code == USER_CODE:
                cost = counts[block_id]
            else:
                cost = (blocks[block_id].next_free_offset
                        - len(info[block_id].invalid_metadata_offsets))
            if best_cost is None or cost < best_cost:
                best = block_id
                best_cost = cost
        return best

    def _fully_invalid_metadata_block(self) -> Optional[int]:
        for block_id in range(self.device.config.num_blocks):
            if self.block_manager.is_fully_invalid_metadata_block(block_id):
                return block_id
        return None

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect_once(self) -> Optional[GCResult]:
        """Run a single garbage-collection operation."""
        victim = self.choose_victim()
        if victim is None:
            return None
        return self.collect_block(victim)

    def collect_block(self, victim: int) -> GCResult:
        """Reclaim one specific block (victim selection already done)."""
        self.collections += 1
        self.in_flight_victim = victim
        victim_type = self.block_manager.block_type(victim)
        block = self.device.block(victim)
        written = block.written_pages
        obs = self.obs
        if obs is not None:
            obs.on_gc_start(victim, victim_type.value)

        if victim_type in METADATA_TYPES:
            migrated = self._collect_metadata_block(victim, victim_type)
        else:
            migrated = self._collect_user_block(victim)

        if self.crash_hook is not None:
            self.crash_hook("gc", victim)
        self.block_manager.release_block(victim, purpose=IOPurpose.GC)
        self.bvc.set_count(victim, 0)
        self.in_flight_victim = None
        if obs is not None:
            obs.on_gc_end(victim, migrated, written - migrated)
        return GCResult(victim_block=victim, victim_type=victim_type,
                        migrated_pages=migrated,
                        reclaimed_pages=written - migrated)

    def complete_interrupted(self) -> Optional[int]:
        """Finish a collection that a crash hook aborted mid-way.

        By construction the only interruption point sits between the
        migrations and the erase, so completion is exactly the outstanding
        erase. Battery-backed recovery calls this (the battery keeps the
        controller alive long enough to finish the ~2 ms erase); scan-based
        recovery does not need to — it rediscovers the un-erased victim's
        stale copies from flash. Returns the erased victim, if any.
        """
        victim = self.in_flight_victim
        if victim is None:
            return None
        self.in_flight_victim = None
        self.block_manager.release_block(victim, purpose=IOPurpose.GC)
        self.bvc.set_count(victim, 0)
        return victim

    def _collect_user_block(self, victim: int) -> int:
        """Migrate live user pages (identified by a GC query), then erase."""
        block = self.device.block(victim)
        written = block.written_pages
        bitmap_query = getattr(self.validity_store, "invalid_bitmap", None)
        if bitmap_query is not None:
            # Packed-int query: the live set is the complement of the
            # invalid bitmap over the written range, walked set-bit by
            # set-bit (ascending, like the historical offset scan).
            valid = ~bitmap_query(victim) & ((1 << written) - 1)
            live = []
            append_live = live.append
            while valid:
                low_bit = valid & -valid
                append_live(low_bit.bit_length() - 1)
                valid ^= low_bit
        else:
            invalid = self.validity_store.invalid_offsets(victim)
            live = [offset for offset in range(written)
                    if offset not in invalid]
        if self.migrate_user_pages is not None:
            self.migrate_user_pages(victim, live)
        else:
            migrate = self.migrate_user_page
            for offset in live:
                migrate(PhysicalAddress(victim, offset))
        # A garbage-collection operation reports the erase to the validity
        # store (for Logarithmic Gecko this is the erase-flag insertion).
        self.validity_store.note_erase(victim)
        return len(live)

    def _collect_metadata_block(self, victim: int,
                                victim_type: BlockType) -> int:
        """Migrate live metadata pages via the owning structure, then erase."""
        migrated = 0
        for offset in self.block_manager.metadata_valid_offsets(victim):
            self.migrate_metadata_page(PhysicalAddress(victim, offset),
                                       victim_type)
            migrated += 1
        return migrated
