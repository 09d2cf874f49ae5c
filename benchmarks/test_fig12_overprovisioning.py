"""Figure 12 — over-provisioning level does not significantly affect Gecko's WA.

Lower over-provisioning (higher logical-to-physical ratio R) makes garbage
collection run more often relative to application writes, which increases the
number of GC queries Logarithmic Gecko must answer. Because GC queries cost
flash *reads* (an order of magnitude cheaper than writes), the overall
write-amplification contributed by page-validity maintenance rises only
mildly across the whole practical range of R.

The figure's grid is declared as a :class:`repro.engine.SweepPlan` — one
device geometry per over-provisioning ratio — rather than a loop of one-off
sessions; the sweep engine owns execution and row layout.
"""

from __future__ import annotations


from repro.bench.reporting import print_report
from repro.engine import SweepExecutor, SweepPlan, device_dict

RATIOS = [0.5, 0.6, 0.7, 0.8]
MEASURED_WRITES = 4000

#: Figure 12 as data: GeckoFTL x one device geometry per ratio R.
PLAN = SweepPlan(
    ftls=["GeckoFTL"],
    workloads=["UniformRandomWrites"],
    devices=[device_dict(num_blocks=96, pages_per_block=16, page_size=256,
                         logical_ratio=ratio) for ratio in RATIOS],
    cache_capacities=[128],
    seeds=[42],
    write_operations=MEASURED_WRITES,
    interval_writes=1000,
)


def figure12_rows():
    report = SweepExecutor().run(PLAN)
    return [{
        "logical_ratio_R": row["device"]["logical_ratio"],
        "wa_total": round(row["wa_total"], 4),
        "wa_validity": round(row["wa_breakdown"].get("validity", 0.0), 4),
        "wa_gc": round(row["wa_breakdown"].get("gc", 0.0), 4),
    } for row in report.rows]


def test_fig12_series(benchmark):
    rows = benchmark.pedantic(figure12_rows, iterations=1, rounds=1)
    print_report("Figure 12: GeckoFTL write-amplification vs over-provisioning "
                 "(R = logical/physical ratio)", rows)
    assert [row["logical_ratio_R"] for row in rows] == RATIOS
    validity = [row["wa_validity"] for row in rows]
    totals = [row["wa_total"] for row in rows]
    # The page-validity component stays small across the whole range of R...
    assert max(validity) < 0.5
    # ...and varies only mildly (well within one order of magnitude).
    positive = [value for value in validity if value > 0]
    if positive:
        assert max(positive) <= 10 * min(positive)
    # Overall WA grows as over-provisioning shrinks (more GC migrations),
    # which is the expected FTL-wide behaviour, not a Gecko artefact.
    assert totals[-1] >= totals[0]
