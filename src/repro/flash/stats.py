"""IO accounting for the flash simulator.

Every internal flash operation is attributed to a *purpose* so that the
benchmark suite can reproduce the paper's stacked write-amplification bars
(Figure 13 bottom, Figure 14): user writes, garbage-collection migrations,
translation-table synchronization, page-validity metadata, wear-leveling and
recovery are all counted separately.

The counters are stored as one plain ``{purpose: int}`` dictionary per
operation kind so the device can bump them inline (a single dict-increment
per flash operation on the hot path); the historical ``Counter`` keyed by
``(kind, purpose)`` survives as the read-only :attr:`IOStats.counts` view.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Dict, Iterable, Optional


class IOPurpose(str, Enum):
    """Why an internal flash operation happened."""

    USER = "user"
    GC = "gc"
    TRANSLATION = "translation"
    VALIDITY = "validity"
    WEAR = "wear"
    RECOVERY = "recovery"
    OTHER = "other"


class IOKind(str, Enum):
    """What kind of flash operation happened."""

    PAGE_READ = "page_read"
    PAGE_WRITE = "page_write"
    BLOCK_ERASE = "block_erase"
    SPARE_READ = "spare_read"
    SPARE_WRITE = "spare_write"


#: Template for a fully zeroed per-kind purpose map. Pre-populating every
#: purpose keeps the device's inline increment branch-free
#: (``counts[purpose] += 1`` never needs a membership check).
_ZERO_COUNTS: Dict[IOPurpose, int] = {purpose: 0 for purpose in IOPurpose}

#: Kinds in their canonical reporting order (sorted by value, which is the
#: order the historical ``sorted(counts.items())`` produced).
_KINDS_SORTED = sorted(IOKind, key=lambda kind: kind.value)
_PURPOSES_SORTED = sorted(IOPurpose, key=lambda purpose: purpose.value)

#: Per-tenant counter fields, in canonical reporting order. The per-tenant
#: ledger is deliberately coarse (totals, not per-purpose maps): it exists to
#: attribute write amplification and op counts to tenants of a mixed
#: workload, not to reproduce the full purpose breakdown per tenant.
TENANT_FIELDS = ("host_writes", "host_reads", "host_trims",
                 "page_writes", "page_reads", "block_erases")


class IOStats:
    """Mutable counter of flash operations grouped by kind and purpose.

    The device owns one instance and bumps the per-kind dictionaries inline;
    FTLs additionally record host-level writes/reads so write-amplification
    can be computed. ``snapshot``/``diff`` support measuring a single
    experiment interval (the paper reports per-10000-write intervals in
    Figure 9).
    """

    __slots__ = ("page_read_counts", "page_write_counts",
                 "block_erase_counts", "spare_read_counts",
                 "spare_write_counts", "host_writes", "host_reads",
                 "tenant_counts")

    def __init__(self) -> None:
        self.page_read_counts: Dict[IOPurpose, int] = _ZERO_COUNTS.copy()
        self.page_write_counts: Dict[IOPurpose, int] = _ZERO_COUNTS.copy()
        self.block_erase_counts: Dict[IOPurpose, int] = _ZERO_COUNTS.copy()
        self.spare_read_counts: Dict[IOPurpose, int] = _ZERO_COUNTS.copy()
        self.spare_write_counts: Dict[IOPurpose, int] = _ZERO_COUNTS.copy()
        self.host_writes = 0
        self.host_reads = 0
        #: Lazily populated ``{tenant: {field: count}}`` ledger (see
        #: :data:`TENANT_FIELDS`); ``None`` until the first tenant-tagged
        #: batch so single-tenant runs pay nothing.
        self.tenant_counts: Optional[Dict[str, Dict[str, int]]] = None

    def _counts_of(self, kind: IOKind) -> Dict[IOPurpose, int]:
        if kind is IOKind.PAGE_READ:
            return self.page_read_counts
        if kind is IOKind.PAGE_WRITE:
            return self.page_write_counts
        if kind is IOKind.BLOCK_ERASE:
            return self.block_erase_counts
        if kind is IOKind.SPARE_READ:
            return self.spare_read_counts
        if kind is IOKind.SPARE_WRITE:
            return self.spare_write_counts
        raise KeyError(kind)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: IOKind, purpose: IOPurpose = IOPurpose.OTHER,
               amount: int = 1) -> None:
        """Record ``amount`` operations of ``kind`` attributed to ``purpose``."""
        self._counts_of(kind)[purpose] += amount

    def record_host_write(self, amount: int = 1) -> None:
        """Record a logical write issued by the application."""
        self.host_writes += amount

    def record_host_read(self, amount: int = 1) -> None:
        """Record a logical read issued by the application."""
        self.host_reads += amount

    def record_tenant_batch(self, tenant: str, host_writes: int,
                            host_reads: int, host_trims: int,
                            delta: "IOStats") -> None:
        """Attribute one submitted batch's IO to ``tenant``.

        ``delta`` is the :class:`IOStats` window the batch produced (e.g.
        :attr:`~repro.ftl.operations.BatchResult.stats_delta`); only its
        kind totals are folded into the tenant ledger. Called by the
        workload runner once per same-tenant run of a mixed stream.
        """
        ledger = self.tenant_counts
        if ledger is None:
            ledger = self.tenant_counts = {}
        counts = ledger.get(tenant)
        if counts is None:
            counts = ledger[tenant] = dict.fromkeys(TENANT_FIELDS, 0)
        counts["host_writes"] += host_writes
        counts["host_reads"] += host_reads
        counts["host_trims"] += host_trims
        counts["page_writes"] += sum(delta.page_write_counts.values())
        counts["page_reads"] += sum(delta.page_read_counts.values())
        counts["block_erases"] += sum(delta.block_erase_counts.values())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def counts(self) -> Counter:
        """Read-only ``Counter`` keyed by ``(kind, purpose)`` (legacy view).

        Only non-zero entries appear, matching the historical behaviour of
        recording straight into a ``Counter``.
        """
        view: Counter = Counter()
        for kind in _KINDS_SORTED:
            for purpose, count in self._counts_of(kind).items():
                if count:
                    view[(kind, purpose)] = count
        return view

    def total(self, kind: IOKind,
              purpose: Optional[IOPurpose] = None) -> int:
        """Total count of ``kind`` operations, optionally for one purpose."""
        counts = self._counts_of(kind)
        if purpose is not None:
            return counts[purpose]
        return sum(counts.values())

    @property
    def page_reads(self) -> int:
        return sum(self.page_read_counts.values())

    @property
    def page_writes(self) -> int:
        return sum(self.page_write_counts.values())

    @property
    def block_erases(self) -> int:
        return sum(self.block_erase_counts.values())

    @property
    def spare_reads(self) -> int:
        return sum(self.spare_read_counts.values())

    def purposes(self) -> Iterable[IOPurpose]:
        """Purposes that have at least one recorded operation."""
        seen = {purpose for kind in _KINDS_SORTED
                for purpose, count in self._counts_of(kind).items() if count}
        return sorted(seen, key=lambda purpose: purpose.value)

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """Nested ``{purpose: {kind: count}}`` dictionary for reporting."""
        result: Dict[str, Dict[str, int]] = {}
        for kind in _KINDS_SORTED:
            counts = self._counts_of(kind)
            for purpose in _PURPOSES_SORTED:
                count = counts[purpose]
                if count:
                    result.setdefault(purpose.value, {})[kind.value] = count
        return result

    # ------------------------------------------------------------------
    # Write amplification
    # ------------------------------------------------------------------
    def write_amplification(self, delta: float,
                            include_purposes: Optional[Iterable[IOPurpose]] = None,
                            host_writes: Optional[int] = None) -> float:
        """Write amplification per the paper: ``(i_writes + i_reads/delta) / host_writes``.

        Internal writes include garbage-collection migrations and metadata
        writes but exclude nothing else; ``include_purposes`` restricts the
        computation to a subset of purposes (used when comparing only the
        page-validity component, as in Figure 9).
        """
        writes_denominator = self.host_writes if host_writes is None else host_writes
        if writes_denominator == 0:
            return 0.0
        if include_purposes is None:
            internal_writes = sum(self.page_write_counts.values())
            internal_reads = sum(self.page_read_counts.values())
        else:
            purposes = set(include_purposes)
            internal_writes = sum(
                count for purpose, count in self.page_write_counts.items()
                if purpose in purposes)
            internal_reads = sum(
                count for purpose, count in self.page_read_counts.items()
                if purpose in purposes)
        return (internal_writes + internal_reads / delta) / writes_denominator

    def tenant_write_amplification(self, tenant: str, delta: float) -> float:
        """Write amplification of one tenant's share of the IO.

        Same formula as :meth:`write_amplification` but over the tenant
        ledger's totals; 0.0 for unknown tenants or tenants that wrote
        nothing.
        """
        ledger = getattr(self, "tenant_counts", None)
        counts = ledger.get(tenant) if ledger else None
        if not counts or not counts["host_writes"]:
            return 0.0
        return ((counts["page_writes"] + counts["page_reads"] / delta)
                / counts["host_writes"])

    def latency_us(self, latency) -> float:
        """Total simulated time of all recorded operations, in microseconds.

        Full-page reads and programs additionally pay the channel-bus
        transfer when the latency model defines one (see
        :class:`~repro.flash.config.LatencyConfig.bus_transfer_us`; the
        default paper model folds it into the page constants).
        """
        bus = getattr(latency, "bus_transfer_us", 0.0)
        return ((latency.page_read_us + bus)
                * sum(self.page_read_counts.values())
                + (latency.page_write_us + bus)
                * sum(self.page_write_counts.values())
                + latency.block_erase_us * sum(self.block_erase_counts.values())
                + latency.spare_read_us * sum(self.spare_read_counts.values())
                + latency.spare_write_us * sum(self.spare_write_counts.values()))

    # ------------------------------------------------------------------
    # Interval measurement
    # ------------------------------------------------------------------
    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        copy = IOStats.__new__(IOStats)
        copy.page_read_counts = self.page_read_counts.copy()
        copy.page_write_counts = self.page_write_counts.copy()
        copy.block_erase_counts = self.block_erase_counts.copy()
        copy.spare_read_counts = self.spare_read_counts.copy()
        copy.spare_write_counts = self.spare_write_counts.copy()
        copy.host_writes = self.host_writes
        copy.host_reads = self.host_reads
        ledger = self.tenant_counts
        copy.tenant_counts = (None if ledger is None else
                              {tenant: counts.copy()
                               for tenant, counts in ledger.items()})
        return copy

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return the operations recorded since ``earlier`` was snapshotted.

        Negative intermediate values (possible when diffing across a
        :meth:`reset`, or between unrelated instances) clamp to zero,
        matching the historical ``+Counter`` behaviour of dropping
        non-positive entries. The result always carries every
        :class:`IOPurpose` key — even against a hand-built ``earlier`` whose
        purpose dictionaries are missing keys — so downstream consumers
        (interval windows, nested diffs, the metrics recorder) can index
        purposes unconditionally.
        """
        result = IOStats.__new__(IOStats)
        for slot in ("page_read_counts", "page_write_counts",
                     "block_erase_counts", "spare_read_counts",
                     "spare_write_counts"):
            mine: Dict[IOPurpose, int] = getattr(self, slot)
            theirs: Dict[IOPurpose, int] = getattr(earlier, slot)
            window = _ZERO_COUNTS.copy()
            for purpose, count in mine.items():
                delta = count - theirs.get(purpose, 0)
                if delta > 0:
                    window[purpose] = delta
            setattr(result, slot, window)
        result.host_writes = self.host_writes - earlier.host_writes
        result.host_reads = self.host_reads - earlier.host_reads
        # Hand-built instances (``IOStats.__new__`` without the tenant slot
        # stored) diff like untagged ones.
        mine = getattr(self, "tenant_counts", None)
        theirs = getattr(earlier, "tenant_counts", None) or {}
        if mine is None:
            result.tenant_counts = None
        else:
            window: Dict[str, Dict[str, int]] = {}
            for tenant, counts in mine.items():
                base = theirs.get(tenant)
                entry = {}
                for field in TENANT_FIELDS:
                    value = counts[field] - (base.get(field, 0) if base else 0)
                    entry[field] = value if value > 0 else 0
                if any(entry.values()):
                    window[tenant] = entry
            result.tenant_counts = window or None
        return result

    @classmethod
    def merged(cls, parts: Iterable["IOStats"]) -> "IOStats":
        """Sum several independent counters into one fresh instance.

        Used by multi-device data planes (:mod:`repro.flash.device_array`):
        each shard device keeps its own ledger and reporting merges them, so
        the combined counters are exactly the element-wise sum of what N
        independent devices would have recorded.
        """
        merged = cls()
        for part in parts:
            for slot in ("page_read_counts", "page_write_counts",
                         "block_erase_counts", "spare_read_counts",
                         "spare_write_counts"):
                into: Dict[IOPurpose, int] = getattr(merged, slot)
                for purpose, count in getattr(part, slot).items():
                    if count:
                        into[purpose] += count
            merged.host_writes += part.host_writes
            merged.host_reads += part.host_reads
            ledger = getattr(part, "tenant_counts", None)
            if ledger:
                into_ledger = merged.tenant_counts
                if into_ledger is None:
                    into_ledger = merged.tenant_counts = {}
                for tenant, counts in ledger.items():
                    entry = into_ledger.get(tenant)
                    if entry is None:
                        entry = into_ledger[tenant] = dict.fromkeys(
                            TENANT_FIELDS, 0)
                    for field in TENANT_FIELDS:
                        entry[field] += counts.get(field, 0)
        return merged

    def reset(self) -> None:
        """Clear all counters."""
        self.page_read_counts = _ZERO_COUNTS.copy()
        self.page_write_counts = _ZERO_COUNTS.copy()
        self.block_erase_counts = _ZERO_COUNTS.copy()
        self.spare_read_counts = _ZERO_COUNTS.copy()
        self.spare_write_counts = _ZERO_COUNTS.copy()
        self.host_writes = 0
        self.host_reads = 0
        self.tenant_counts = None
