"""The batched submission queue must be IO-trace equivalent to per-op calls.

Acceptance criterion of the SimulationSession redesign: for a fixed seed,
``PageMappedFTL.submit`` must produce *identical* IOStats — total write
amplification and the per-purpose breakdown — to dispatching the same
operations one at a time through ``write``/``read``/``trim``.
"""

import random

import pytest

from repro.api import FTLSpec
from repro.flash.config import simulation_configuration
from repro.flash.device import FlashDevice
from repro.workloads.base import Operation, OpKind, WorkloadRunner, fill_device


def build(ftl_name, config):
    return FTLSpec.of(ftl_name).build(FlashDevice(config), cache_capacity=64)


def small_config():
    return simulation_configuration(num_blocks=64, pages_per_block=8,
                                    page_size=256)


def mixed_operations(logical_pages, count, seed):
    """Deterministic mixed write/read/trim stream over a filled device."""
    rng = random.Random(seed)
    operations = []
    for index in range(count):
        roll = rng.random()
        logical = rng.randrange(logical_pages)
        if roll < 0.70:
            operations.append(Operation(OpKind.WRITE, logical,
                                        ("v", logical, index)))
        elif roll < 0.90:
            operations.append(Operation(OpKind.READ, logical))
        else:
            operations.append(Operation(OpKind.TRIM, logical))
    return operations


def run_per_op(ftl, operations):
    for operation in operations:
        if operation.kind is OpKind.WRITE:
            ftl.write(operation.logical, operation.payload)
        elif operation.kind is OpKind.READ:
            ftl.read(operation.logical)
        else:
            ftl.trim(operation.logical)


def run_batched(ftl, operations, batch_size):
    for start in range(0, len(operations), batch_size):
        ftl.submit(operations[start:start + batch_size])


def fill_per_op(ftl):
    for logical in range(ftl.config.logical_pages):
        ftl.write(logical, ("init", logical))


@pytest.mark.parametrize("ftl_name", ["DFTL", "LazyFTL", "uFTL", "IB-FTL",
                                      "GeckoFTL"])
@pytest.mark.parametrize("batch_size", [1, 7, 4096])
def test_submit_matches_per_op_iostats(ftl_name, batch_size):
    config = small_config()
    operations = mixed_operations(config.logical_pages, 1200, seed=17)

    reference = build(ftl_name, config)
    fill_per_op(reference)
    reference.stats.reset()
    run_per_op(reference, operations)

    batched = build(ftl_name, config)
    fill_device(batched)  # the batched warm-up path
    batched.stats.reset()
    run_batched(batched, operations, batch_size)

    assert batched.stats.counts == reference.stats.counts
    assert batched.stats.host_writes == reference.stats.host_writes
    assert batched.stats.host_reads == reference.stats.host_reads
    delta = config.delta
    assert batched.stats.write_amplification(delta) == pytest.approx(
        reference.stats.write_amplification(delta))
    assert batched.stats.breakdown() == reference.stats.breakdown()


def test_batched_warmup_matches_per_op_fill():
    config = small_config()
    reference = build("GeckoFTL", config)
    fill_per_op(reference)
    batched = build("GeckoFTL", config)
    fill_device(batched)
    assert batched.stats.counts == reference.stats.counts
    for logical in (0, config.logical_pages - 1):
        assert batched.read(logical) == reference.read(logical)


def test_runner_batching_matches_per_op_dispatch():
    """The runner's batch cutting must not change interval measurements."""
    config = small_config()
    operations = mixed_operations(config.logical_pages, 900, seed=3)

    class FixedWorkload:
        logical_pages = config.logical_pages

        def operations(self, count):
            return iter(operations[:count])

        def reset(self):
            pass

    reference = build("DFTL", config)
    fill_per_op(reference)
    reference.stats.reset()
    ref_stats = reference.stats
    ref_start = ref_stats.snapshot()
    run_per_op(reference, operations)
    reference_total = ref_stats.diff(ref_start)

    batched = build("DFTL", config)
    fill_device(batched)
    batched.stats.reset()
    runner = WorkloadRunner(batched, interval_writes=100, max_batch_ops=64)
    result = runner.run(FixedWorkload(), len(operations))

    assert result.operations_executed == len(operations)
    assert result.final_stats.counts == reference_total.counts
    assert result.host_writes == reference_total.host_writes
    assert sum(i.host_writes for i in result.intervals) == result.host_writes


def test_submit_returns_batch_accounting():
    config = small_config()
    ftl = build("DFTL", config)
    fill_device(ftl)
    operations = [Operation(OpKind.WRITE, 1, ("v", 1, 0)),
                  Operation(OpKind.READ, 1),
                  Operation(OpKind.TRIM, 2),
                  Operation(OpKind.READ, 2)]
    result = ftl.submit(operations, collect_payloads=True)
    assert result.submitted == 4
    assert result.host_writes == 1
    assert result.host_reads == 2
    assert result.host_trims == 1
    assert result.payloads == [("v", 1, 0), None]
    assert result.stats_delta.host_writes == 1
    assert result.stats_delta.page_writes >= 1


def test_submit_rejects_out_of_range_writes():
    config = small_config()
    ftl = build("DFTL", config)
    with pytest.raises(ValueError):
        ftl.submit([Operation(OpKind.WRITE, config.logical_pages, None)])
