"""Ablation — GeckoFTL's metadata-aware GC victim selection (Section 4.2).

The same FTL is run twice: once with the paper's metadata-aware policy (never
pick translation/Gecko blocks as greedy victims; erase them only when fully
invalid) and once with the conventional greedy policy that treats every block
equally. The paper's claim is that the metadata-aware policy reduces overall
write-amplification by eliminating migrations of frequently-updated metadata
pages that would soon be invalidated anyway.
"""

from __future__ import annotations

from repro.api import SimulationSession
from repro.bench.reporting import print_report
from repro.flash.config import simulation_configuration
from repro.ftl.garbage_collector import VictimPolicy
from repro.workloads import UniformRandomWrites

MEASURED_WRITES = 4000


def ablation_rows():
    device = simulation_configuration(num_blocks=96, pages_per_block=16,
                                      page_size=256)
    rows = []
    for label, policy in (("metadata-aware (GeckoFTL)", VictimPolicy.METADATA_AWARE),
                          ("greedy (conventional)", VictimPolicy.GREEDY)):
        with SimulationSession("GeckoFTL", device=device,
                               interval_writes=1000,
                               ftl_kwargs={"cache_capacity": 128,
                                           "victim_policy": policy}) as session:
            session.warmup()
            session.run(UniformRandomWrites(device.logical_pages, seed=42),
                        MEASURED_WRITES)
            snapshot = session.snapshot()
        breakdown = snapshot.wa_breakdown
        rows.append({
            "gc_policy": label,
            "wa_total": round(snapshot.write_amplification, 3),
            "wa_gc": round(breakdown.get("gc", 0.0), 3),
            "wa_translation": round(breakdown.get("translation", 0.0), 3),
            "wa_validity": round(breakdown.get("validity", 0.0), 3),
        })
    return rows


def test_ablation_gc_policy(benchmark):
    rows = benchmark.pedantic(ablation_rows, iterations=1, rounds=1)
    print_report("Ablation: GC victim-selection policy (GeckoFTL)", rows)
    by_policy = {row["gc_policy"]: row for row in rows}
    aware = by_policy["metadata-aware (GeckoFTL)"]
    greedy = by_policy["greedy (conventional)"]
    # The metadata-aware policy should not be worse overall, and it should
    # not increase GC migration cost.
    assert aware["wa_total"] <= greedy["wa_total"] * 1.05
    assert aware["wa_gc"] <= greedy["wa_gc"] * 1.10
