#!/usr/bin/env python3
"""Quickstart — run GeckoFTL through a SimulationSession, inspect the costs.

This example walks through the library's public API in five minutes:

1. open a :class:`SimulationSession` (it owns the simulated device + FTL),
2. serve application reads and writes,
3. warm the device up and run a random-update workload,
4. look at the write-amplification breakdown and RAM footprint, and
5. pull the device's plug and recover with GeckoRec.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SimulationSession, UniformRandomWrites, simulation_configuration
from repro.bench.reporting import format_bytes, format_seconds, print_report


def main() -> None:
    # 1. A scaled-down device: 256 blocks x 32 pages of 512 bytes (the
    #    simulation_configuration docstring explains why scaled-down
    #    geometry preserves the paper's shapes).
    #    The session builds the device and puts GeckoFTL on top; the spec
    #    string carries any FTL constructor arguments.
    config = simulation_configuration(num_blocks=256, pages_per_block=32,
                                      page_size=512)
    session = SimulationSession("GeckoFTL(cache_capacity=1024)", device=config)
    print("Device:", config.describe())

    # 2. Serve some application IO directly...
    session.write(42, data=b"hello flash")
    assert session.read(42) == b"hello flash"

    # 3. ...then fill the logical space and run a random-update workload, the
    #    adversarial pattern the paper evaluates with. warmup() excludes the
    #    fill from the measured stats, matching the paper's steady state.
    session.warmup()
    workload = UniformRandomWrites(config.logical_pages, seed=1)
    result = session.run(workload, 10_000)

    # 4. Inspect what it cost.
    snapshot = session.snapshot()
    print_report("Write-amplification by purpose", [{
        "purpose": purpose, "wa": round(value, 4),
    } for purpose, value in sorted(snapshot.wa_breakdown.items())])
    print("\nTotal write-amplification:",
          round(result.write_amplification(config.delta), 3))
    ftl = session.ftl
    print("Logarithmic Gecko levels:", ftl.gecko.num_levels,
          "| runs:", ftl.gecko.num_runs)
    print_report("Integrated-RAM footprint", [{
        "structure": name, "bytes": format_bytes(size)}
        for name, size in snapshot.ram_breakdown.items()])

    # 5. Pull the plug and recover. Flash contents survive; RAM is lost.
    session.write(42, data=b"written moments before the crash")
    session.crash()
    report = session.recover()
    print_report("GeckoRec recovery steps", [{
        "step": name, "page_reads": reads, "page_writes": writes,
        "spare_reads": spare, "time": format_seconds(duration / 1e6)}
        for name, reads, writes, spare, duration in report.as_rows()])
    print("\nRecovered", report.recovered_mapping_entries,
          "dirty mapping entries in",
          format_seconds(report.total_duration_us / 1e6))
    assert session.read(42) == b"written moments before the crash"
    print("Data intact after recovery.")


if __name__ == "__main__":
    main()
