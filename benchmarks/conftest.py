"""Shared configuration for the benchmark suite.

Each benchmark module regenerates one table or figure from the paper's
evaluation section. The benchmarks use ``pytest-benchmark`` so they can be run
with ``pytest benchmarks/ --benchmark-only``; alongside the timing numbers,
every benchmark prints the rows/series the corresponding figure plots
(write-amplification breakdowns, RAM footprints, recovery times), which is the
actual reproduction output.

Simulated experiments run on scaled-down devices (the
``simulation_configuration`` docstring gives the ratio argument for why the
shapes are preserved; whether that premise holds across scales is still
open, see ROADMAP item 2); analytical experiments use the paper's 2 TB
configuration exactly.
"""

from __future__ import annotations

import pytest

from repro.flash.config import simulation_configuration


def bench_device(num_blocks=96, pages_per_block=16, page_size=256,
                 logical_ratio=0.7):
    """Default scaled-down device used by the simulation benchmarks."""
    return simulation_configuration(num_blocks=num_blocks,
                                    pages_per_block=pages_per_block,
                                    page_size=page_size,
                                    logical_ratio=logical_ratio)


#: Number of measured application writes per simulated experiment. Large
#: enough to reach steady state on the scaled-down device, small enough that
#: the whole benchmark suite finishes in a few minutes.
MEASURED_WRITES = 4000


@pytest.fixture(scope="session")
def report_sink():
    """Collects printed experiment rows so they appear once, after the run."""
    lines = []
    yield lines
    if lines:
        print("\n".join(lines))
