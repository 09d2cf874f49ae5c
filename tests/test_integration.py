"""Integration tests spanning FTLs, workloads, sessions, and recovery.

These exercise the scenarios the paper's evaluation is built on end to end:
sustained random-update traffic over a full device with garbage collection,
head-to-head FTL comparisons, and crash/recover cycles under load.
"""

import random

from repro.api import SimulationSession
from repro.core.gecko_ftl import GeckoFTL
from repro.core.recovery import GeckoRecovery
from repro.flash.config import simulation_configuration
from repro.flash.device import FlashDevice
from repro.ftl.dftl import DFTL
from repro.ftl.mu_ftl import MuFTL
from repro.workloads.base import WorkloadRunner, fill_device
from repro.workloads.generators import (
    HotColdWrites,
    MixedReadWrite,
    UniformRandomWrites,
    ZipfianWrites,
)


def device_config(num_blocks=96):
    return simulation_configuration(num_blocks=num_blocks, pages_per_block=16,
                                    page_size=256)


def measure(ftl_name, cache_capacity=128, writes=4000):
    """Warm up, run ``writes`` uniform updates, and snapshot the session."""
    config = device_config()
    with SimulationSession(ftl_name, device=config, interval_writes=1000,
                           ftl_kwargs={"cache_capacity": cache_capacity}
                           ) as session:
        session.warmup()
        session.run(UniformRandomWrites(config.logical_pages, seed=42),
                    writes)
        return session.snapshot()


class TestSustainedOperation:
    def test_gecko_ftl_survives_multiple_device_overwrites(self):
        config = device_config()
        ftl = GeckoFTL(FlashDevice(config), cache_capacity=128)
        fill_device(ftl)
        shadow = {logical: ("init", logical)
                  for logical in range(config.logical_pages)}
        workload = UniformRandomWrites(config.logical_pages, seed=41)
        writes = 3 * config.logical_pages  # several logical overwrites
        for operation in workload.operations(writes):
            ftl.write(operation.logical, operation.payload)
            shadow[operation.logical] = operation.payload
        mismatches = sum(1 for logical, payload in shadow.items()
                         if ftl.read(logical) != payload)
        assert mismatches == 0
        assert ftl.garbage_collector.collections > 10

    def test_skewed_workloads_also_preserve_data(self):
        config = device_config()
        for workload_class in (ZipfianWrites, HotColdWrites):
            ftl = GeckoFTL(FlashDevice(config), cache_capacity=128)
            fill_device(ftl)
            shadow = {logical: ("init", logical)
                      for logical in range(config.logical_pages)}
            workload = workload_class(config.logical_pages, seed=43)
            for operation in workload.operations(3000):
                ftl.write(operation.logical, operation.payload)
                shadow[operation.logical] = operation.payload
            mismatches = sum(1 for logical, payload in shadow.items()
                             if ftl.read(logical) != payload)
            assert mismatches == 0

    def test_mixed_read_write_workload(self):
        config = device_config()
        ftl = GeckoFTL(FlashDevice(config), cache_capacity=128)
        fill_device(ftl)
        base = UniformRandomWrites(config.logical_pages, seed=47)
        workload = MixedReadWrite(base, read_fraction=0.4, seed=47)
        runner = WorkloadRunner(ftl, interval_writes=500)
        result = runner.run(workload, 3000)
        assert result.host_reads > 0
        assert result.host_writes > 0


class TestPaperShapeComparisons:
    """Coarse 'who wins' checks mirroring the evaluation's qualitative claims."""

    def test_gecko_validity_wa_is_far_below_flash_pvb(self):
        """Figure 9's core claim, measured through full FTLs."""
        measurements = {name: measure(name).wa_breakdown.get("validity", 0.0)
                        for name in ("GeckoFTL", "uFTL")}
        assert measurements["GeckoFTL"] < 0.5 * measurements["uFTL"]

    def test_gecko_total_wa_is_lowest_among_flash_validity_ftls(self):
        """Figure 13 (bottom): GeckoFTL beats µ-FTL and IB-FTL overall."""
        wa = {name: measure(name).write_amplification
              for name in ("GeckoFTL", "uFTL", "IB-FTL")}
        assert wa["GeckoFTL"] < wa["uFTL"]
        assert wa["GeckoFTL"] < wa["IB-FTL"]

    def test_ram_footprint_ordering(self):
        """Figure 13 (top): flash-validity FTLs need far less integrated RAM.

        The advantage comes from replacing the PVB, whose size grows linearly
        with capacity, so the comparison is made on the validity component at
        a device size large enough for the linear term to dominate.
        """
        config = simulation_configuration(num_blocks=4096, pages_per_block=64,
                                          page_size=2048)
        gecko = GeckoFTL(FlashDevice(config), cache_capacity=128)
        dftl = DFTL(FlashDevice(config), cache_capacity=128)
        assert gecko.ram_breakdown()["validity"] < \
            dftl.ram_breakdown()["validity"]

    def test_bigger_cache_reduces_translation_overhead(self):
        """Figure 14's mechanism: freed RAM -> bigger cache -> fewer syncs."""
        measurements = {
            label: measure("GeckoFTL", cache).wa_breakdown.get(
                "translation", 0.0)
            for label, cache in (("small", 64), ("large", 512))}
        assert measurements["large"] < measurements["small"]


class TestCrashRecoveryUnderLoad:
    def test_crash_mid_benchmark_then_resume(self):
        config = device_config()
        ftl = GeckoFTL(FlashDevice(config), cache_capacity=96)
        fill_device(ftl)
        shadow = {logical: ("init", logical)
                  for logical in range(config.logical_pages)}
        rng = random.Random(59)
        for phase in range(3):
            for i in range(1200):
                logical = rng.randrange(config.logical_pages)
                payload = (phase, logical, i)
                ftl.write(logical, payload)
                shadow[logical] = payload
            recovery = GeckoRecovery(ftl)
            recovery.simulate_power_failure()
            report = recovery.recover()
            assert report.total_duration_us > 0
            mismatches = sum(1 for logical, payload in shadow.items()
                             if ftl.read(logical) != payload)
            assert mismatches == 0

    def test_recovery_cost_scales_with_device_not_with_history(self):
        """Recovery IO should not grow with how long the device has been running."""
        costs = []
        for writes in (1000, 4000):
            config = device_config()
            ftl = GeckoFTL(FlashDevice(config), cache_capacity=96)
            fill_device(ftl)
            workload = UniformRandomWrites(config.logical_pages, seed=61)
            for operation in workload.operations(writes):
                ftl.write(operation.logical, operation.payload)
            recovery = GeckoRecovery(ftl)
            recovery.simulate_power_failure()
            report = recovery.recover()
            costs.append(report.total_spare_reads + report.total_page_reads)
        # Allow generous slack: the longer history may leave more obsolete
        # metadata pages to scan, but cost must not grow with write count.
        assert costs[1] < costs[0] * 2


class TestBatteryVsBatteryless:
    def test_flush_makes_battery_ftl_state_durable(self):
        config = device_config()
        ftl = DFTL(FlashDevice(config), cache_capacity=96)
        fill_device(ftl, fraction=0.5)
        for logical in range(0, 100, 3):
            ftl.write(logical, ("durable", logical))
        ftl.flush()          # what the battery pays for at power failure
        ftl.cache.clear()    # power failure: RAM is gone
        for logical in range(0, 100, 3):
            assert ftl.read(logical) == ("durable", logical)

    def test_mu_ftl_validity_survives_ram_loss_without_flush(self):
        config = device_config()
        ftl = MuFTL(FlashDevice(config), cache_capacity=96)
        fill_device(ftl, fraction=0.5)
        ftl.write(5, "one")
        ftl.write(5, "two")
        # The flash-resident PVB's content survives losing RAM; only its small
        # directory would need recovery (not simulated for µ-FTL).
        assert ftl.validity_store.ram_bytes() < config.pvb_bytes
