"""Figure 9 — Logarithmic Gecko vs a flash-resident PVB, sweeping the size ratio T.

The paper drives both structures with the page-validity update/query stream
produced by a uniformly-random update workload (the adversarial case for
Gecko's buffer) and reports, per interval of application writes, the internal
flash reads and writes caused by page-validity maintenance and the resulting
write-amplification. Gecko wins for every T, and T = 2 is the best tuning.

Here the same comparison is run standalone: the two structures receive an
identical stream of invalidations, erases and GC queries generated by a
reference FTL-like driver, so the comparison isolates exactly the component
Figure 9 isolates.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.reporting import print_report
from repro.core.gecko_entry import EntryLayout
from repro.core.logarithmic_gecko import GeckoConfig, LogarithmicGecko
from repro.core.storage import InMemoryGeckoStorage
from repro.flash.config import simulation_configuration

SIZE_RATIOS = [2, 3, 4, 8, 16]
APPLICATION_WRITES = 30_000


def generate_validity_stream(config, writes, seed=7):
    """Produce the (update / erase+query) stream a page-mapped FTL would emit.

    A lightweight steady-state FTL model drives the stream: every logical page
    starts out mapped, each application write relocates its logical page to
    the append point and invalidates the previous copy, and whenever the pool
    of free blocks runs low a greedy garbage-collection operation (one GC
    query, the migration of the victim's live pages to the append point, and
    one erase) reclaims the block with the most invalid pages. This is the
    same update-to-query ratio and victim fullness a real page-mapped FTL
    exhibits, without tying the comparison to any particular FTL.
    """
    rng = random.Random(seed)
    logical_pages = config.logical_pages
    pages_per_block = config.pages_per_block
    num_blocks = config.num_blocks
    events = []

    # Physical state: which logical page occupies each slot (None = invalid
    # or free), per block, plus the mapping from logical page to slot.
    occupants = [[None] * pages_per_block for _ in range(num_blocks)]
    mapping = {}
    invalid_per_block = [0] * num_blocks
    free_blocks = list(range(num_blocks))
    active_block = free_blocks.pop()
    active_offset = 0

    def append(logical):
        nonlocal active_block, active_offset
        occupants[active_block][active_offset] = logical
        mapping[logical] = (active_block, active_offset)
        active_offset += 1
        if active_offset == pages_per_block:
            active_block = free_blocks.pop()
            active_offset = 0

    def collect():
        nonlocal active_block, active_offset
        candidates = [block for block in range(num_blocks)
                      if block != active_block and invalid_per_block[block] > 0]
        if not candidates:
            return
        victim = max(candidates, key=lambda block: invalid_per_block[block])
        events.append(("gc", victim))
        survivors = [logical for logical in occupants[victim]
                     if logical is not None and mapping.get(logical) is not None
                     and mapping[logical][0] == victim]
        occupants[victim] = [None] * pages_per_block
        invalid_per_block[victim] = 0
        free_blocks.append(victim)
        for logical in survivors:
            append(logical)

    # Fill the device to its logical capacity (steady state) without emitting
    # events: the paper's measurement also starts from a full device.
    for logical in range(logical_pages):
        append(logical)

    for _ in range(writes):
        logical = rng.randrange(logical_pages)
        old_block, old_offset = mapping[logical]
        events.append(("invalidate", (old_block, old_offset)))
        occupants[old_block][old_offset] = None
        invalid_per_block[old_block] += 1
        while len(free_blocks) < 2:
            collect()
        append(logical)
    return events


def drive(structure_updates, structure_query, structure_erase, events):
    for kind, payload in events:
        if kind == "invalidate":
            structure_updates(payload[0], payload[1])
        else:
            structure_query(payload)
            structure_erase(payload)


def run_gecko(config, events, size_ratio):
    layout = EntryLayout.recommended(config.pages_per_block, config.page_size)
    gecko = LogarithmicGecko(GeckoConfig(size_ratio=size_ratio, layout=layout),
                             storage=InMemoryGeckoStorage())
    drive(gecko.record_invalid, gecko.gc_query, gecko.record_erase, events)
    return gecko.storage.reads, gecko.storage.writes


def run_flash_pvb(config, events):
    """Cost model of a flash-resident PVB: RMW per update, read per query."""
    reads = writes = 0
    for kind, _payload in events:
        if kind == "invalidate":
            reads += 1
            writes += 1
        else:
            reads += 1
    return reads, writes


def figure9_rows():
    config = simulation_configuration(num_blocks=4096, pages_per_block=32,
                                      page_size=512)
    events = generate_validity_stream(config, APPLICATION_WRITES)
    host_writes = APPLICATION_WRITES
    delta = config.delta
    rows = []
    pvb_reads, pvb_writes = run_flash_pvb(config, events)
    rows.append({
        "technique": "flash PVB",
        "validity_reads": pvb_reads,
        "validity_writes": pvb_writes,
        "wa_contribution": round((pvb_writes + pvb_reads / delta) / host_writes, 4),
    })
    for size_ratio in SIZE_RATIOS:
        reads, writes = run_gecko(config, events, size_ratio)
        rows.append({
            "technique": f"Logarithmic Gecko (T={size_ratio})",
            "validity_reads": reads,
            "validity_writes": writes,
            "wa_contribution": round((writes + reads / delta) / host_writes, 4),
        })
    return rows


def test_fig09_series(benchmark):
    rows = benchmark.pedantic(figure9_rows, iterations=1, rounds=1)
    print_report("Figure 9: Logarithmic Gecko vs flash-resident PVB "
                 "(page-validity IO per application write)", rows)
    by_technique = {row["technique"]: row for row in rows}
    pvb = by_technique["flash PVB"]["wa_contribution"]
    gecko_by_ratio = {ratio: by_technique[f"Logarithmic Gecko (T={ratio})"]
                      ["wa_contribution"] for ratio in SIZE_RATIOS}
    # The flash PVB costs ~1 + 1/delta per application update (paper: ~1.1).
    assert pvb == pytest.approx(1.1, rel=0.25)
    # Gecko wins for every tuning of T...
    assert all(value < pvb for value in gecko_by_ratio.values())
    # ...by a large margin. (The paper reports ~98% at its 2 TB scale, where
    # the buffer holds ~500 entries; at this scaled-down geometry the buffer
    # holds ~63, so the reduction lands near ~90%.)
    assert gecko_by_ratio[2] < 0.15 * pvb
    # ...and T = 2 is the best (or tied-best) tuning, with cost increasing in T.
    assert gecko_by_ratio[2] <= min(gecko_by_ratio.values()) + 1e-9
    ordered = [gecko_by_ratio[ratio] for ratio in SIZE_RATIOS]
    assert ordered == sorted(ordered)
