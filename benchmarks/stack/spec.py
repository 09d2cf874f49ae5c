"""Fixed inputs of the stack benchmark: geometry, op counts, spec strings.

Op counts were sized on the commit that added the benchmark so that every
measured region takes 5.5-6.5 s on the 2-core reference machine
(``run_seconds`` in ``BENCHMARK.json`` is 6). They are identical on both
sides of any comparison; ``--seconds`` and ``--smoke`` scale all of them by
one factor and nothing else. There are no geometry flags on purpose:
GeckoFTL with ``page_size=512`` and ``num_blocks >= 1024`` runs out of free
blocks mid-run on this code base (see README.md), and G below stays clear
of that.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Geometry G: 131 072 physical / 91 750 logical pages.
GEOMETRY: Dict[str, Any] = {"num_blocks": 2048, "pages_per_block": 64,
                            "page_size": 4096, "logical_ratio": 0.7}

#: Run length the op counts below were sized for; ``--seconds S`` scales
#: every count by ``S / NOMINAL_SECONDS``.
NOMINAL_SECONDS = 6.0

#: ``--smoke`` divides every op count by 50.
SMOKE_SCALE = 0.02

#: Untraced runs per workload behind every end-to-end median, in the full
#: run and in one driver run alike. Three is what fits: the driver allows
#: 30 s per run on average and every measured region is to last 5 s or more.
REPEATS = 3

#: LPNs read back and compared after each generator workload.
READBACK_PROBES = 2048

SWEEP_FTLS = ("GeckoFTL", "DFTL", "LazyFTL", "uFTL", "IB-FTL")

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "gecko_update": {
        "cache": 2048, "ops": 290_000,
        "stream": "UniformRandomWrites"},
    "read_mostly": {
        "cache": 16_384, "ops": 1_800_000,
        "stream": ("MixedReadWrite(write='ZipfianWrites(theta=0.9)', "
                   "read_fraction=0.9)")},
    "timed_replay": {
        "cache": 2048, "ops": 235_000, "records": 94_000,
        "timing": "slc", "obs": "full"},
    "crash_recover": {
        "cache": 2048, "warm_updates": 20_000, "cycles": 100,
        "cycle_writes": 1024, "stream": "UniformRandomWrites"},
    "sweep_grid": {
        "grid": f"ftl={','.join(SWEEP_FTLS)} cache=256,1024",
        "cells": 2 * len(SWEEP_FTLS),
        "blocks": 512, "pages_per_block": 32, "page_size": 2048,
        "writes": 18_000, "interval_writes": 6_000},
}

#: End-to-end metrics of a result that ``BENCHMARK.json`` cannot hold under
#: ``end_to_end``: the driver takes every end-to-end metric from every
#: workload and measures its spread across different seeds, so a metric of
#: one workload only, or one that is exact per seed (bound 0) and differs
#: between seeds, is listed there under ``per_layer``. ``result.json`` and
#: ``--compare`` treat them as the end-to-end metrics they are.
EXACT = {"better": "lower", "bound": 0.0}
RESULT_END_TO_END: Dict[str, List[Dict[str, Any]]] = {
    "every workload": [
        {"name": "sim_wa", "unit": "ratio", **EXACT},
        {"name": "sim_ram_bytes", "unit": "bytes", **EXACT}],
    "crash_recover": [
        {"name": "recover_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.08},
        {"name": "sim_recover_ms", "unit": "ms", **EXACT}],
    "timed_replay": [
        {"name": "sim_p99_us", "unit": "us", **EXACT}],
}


def scaled(count: int, scale: float) -> int:
    """``count`` scaled by the run's one scale factor, never below 1."""
    return max(1, round(count * scale))
