"""Tests for the SimulationSession facade."""

import pytest

from repro import (
    DFTL,
    GeckoFTL,
    Operation,
    OpKind,
    SimulationSession,
    UniformRandomWrites,
    simulation_configuration,
)
from repro.api import write_amplification_breakdown
from repro.core.recovery import RecoveryReport
from repro.flash.device import FlashDevice
from repro.flash.stats import IOKind, IOPurpose, IOStats


def tiny_config():
    return simulation_configuration(num_blocks=64, pages_per_block=8,
                                    page_size=256)


class TestConstruction:
    def test_defaults_build_geckoftl_on_a_default_device(self):
        session = SimulationSession()
        assert isinstance(session.ftl, GeckoFTL)
        assert session.config.logical_pages > 0

    def test_accepts_spec_string_with_kwargs(self):
        session = SimulationSession("DFTL(cache_capacity=32)",
                                    device=tiny_config())
        assert isinstance(session.ftl, DFTL)
        assert session.ftl.cache.capacity == 32

    def test_ftl_kwargs_are_defaults_spec_wins(self):
        session = SimulationSession("DFTL(cache_capacity=32)",
                                    device=tiny_config(),
                                    ftl_kwargs={"cache_capacity": 512})
        assert session.ftl.cache.capacity == 32

    def test_accepts_prebuilt_ftl_and_device(self):
        device = FlashDevice(tiny_config())
        ftl = DFTL(device, cache_capacity=64)
        session = SimulationSession(ftl, device=device)
        assert session.ftl is ftl
        assert session.spec is None

    def test_rejects_ftl_on_a_foreign_device(self):
        ftl = DFTL(FlashDevice(tiny_config()), cache_capacity=64)
        with pytest.raises(ValueError, match="different device"):
            SimulationSession(ftl, device=FlashDevice(tiny_config()))

    def test_rejects_bogus_device(self):
        with pytest.raises(TypeError):
            SimulationSession("DFTL", device="not-a-device")

    def test_unknown_ftl_name_raises(self):
        with pytest.raises(ValueError, match="unknown FTL"):
            SimulationSession("NopeFTL", device=tiny_config())


class TestLifecycle:
    def test_warmup_fills_and_resets_stats(self):
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config())
        pages = session.warmup()
        assert pages == session.config.logical_pages
        assert session.stats.host_writes == 0
        assert session.read(pages - 1) is not None

    def test_warmup_can_keep_stats(self):
        session = SimulationSession("DFTL(cache_capacity=64)",
                                    device=tiny_config())
        pages = session.warmup(reset_stats=False)
        assert session.stats.host_writes == pages

    def test_run_measures_intervals(self):
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config(),
                                    interval_writes=100)
        session.warmup()
        workload = UniformRandomWrites(session.config.logical_pages, seed=1)
        result = session.run(workload, 450)
        assert result.host_writes == 450
        assert len(result.intervals) == 5

    def test_snapshot_reports_wa_and_ram(self):
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config())
        session.warmup()
        session.run(UniformRandomWrites(session.config.logical_pages, seed=1),
                    300)
        snapshot = session.snapshot()
        assert snapshot.write_amplification > 0
        assert "user" in snapshot.wa_breakdown
        assert snapshot.ram_bytes == sum(snapshot.ram_breakdown.values())
        assert snapshot.row()["ftl"] == "GeckoFTL"
        # The snapshot is frozen in time: more IO must not change it.
        session.run(UniformRandomWrites(session.config.logical_pages, seed=2),
                    100)
        assert snapshot.stats.host_writes == 300

    def test_wa_breakdown_sums_to_total(self):
        stats = IOStats()
        stats.record_host_write(100)
        stats.record(IOKind.PAGE_WRITE, IOPurpose.USER, amount=100)
        stats.record(IOKind.PAGE_WRITE, IOPurpose.VALIDITY, amount=20)
        stats.record(IOKind.PAGE_READ, IOPurpose.GC, amount=10)
        breakdown = write_amplification_breakdown(stats, delta=10)
        assert sum(breakdown.values()) == pytest.approx(
            stats.write_amplification(10))

    def test_submit_and_host_passthrough(self):
        session = SimulationSession("DFTL(cache_capacity=64)",
                                    device=tiny_config())
        result = session.submit([Operation(OpKind.WRITE, 3, "three")])
        assert result.host_writes == 1
        assert session.read(3) == "three"
        session.write(4, "four")
        session.trim(3)
        assert session.read(3) is None

    def test_context_manager_flushes_on_exit(self):
        with SimulationSession("GeckoFTL(cache_capacity=64)",
                               device=tiny_config()) as session:
            session.warmup()
            session.run(
                UniformRandomWrites(session.config.logical_pages, seed=1), 200)
        assert session.ftl.cache.dirty_count == 0

    def test_describe_includes_spec_and_device(self):
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config())
        description = session.describe()
        assert description["spec"] == "GeckoFTL(cache_capacity=64)"
        assert "device" in description


class TestCrashRecovery:
    def test_gecko_crash_and_recover_round_trip(self):
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config())
        session.warmup()
        session.write(7, "precious")
        session.crash()
        report = session.recover()
        assert isinstance(report, RecoveryReport)
        assert session.read(7) == "precious"

    def test_battery_ftl_crash_is_a_flush(self):
        session = SimulationSession("DFTL(cache_capacity=64)",
                                    device=tiny_config())
        session.warmup()
        session.write(7, "precious")
        session.crash()
        assert session.ftl.cache.dirty_count == 0
        report = session.recover()
        assert isinstance(report, RecoveryReport)
        assert [step.name for step in report.steps] == ["battery_flush"]
        assert session.read(7) == "precious"

    def test_unbatteried_competitors_recover_by_scanning(self):
        session = SimulationSession("LazyFTL(cache_capacity=64)",
                                    device=tiny_config())
        session.warmup()
        session.write(7, "precious")
        session.crash()
        report = session.recover()
        assert isinstance(report, RecoveryReport)
        # The full scan reads at least one spare area per written page.
        assert report.total_spare_reads >= session.config.logical_pages
        assert session.read(7) == "precious"

    def test_recover_without_crash_is_a_noop(self):
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config())
        assert session.recover() is None

    def test_close_after_crash_is_a_noop(self):
        # Regression: close()/__exit__ used to flush() the power-failed FTL,
        # which reprograms flash from wiped RAM state.
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config())
        session.warmup()
        session.write(7, "precious")
        session.crash()
        writes_after_crash = session.stats.page_writes
        session.close()
        assert session.stats.page_writes == writes_after_crash
        assert session.crashed
        # The session is still closable for real once recovered.
        session.recover()
        session.close()
        assert session.ftl.cache.dirty_count == 0

    def test_context_manager_exit_after_crash_does_not_flush(self):
        with SimulationSession("LazyFTL(cache_capacity=64)",
                               device=tiny_config()) as session:
            session.warmup()
            session.write(7, "precious")
            session.crash()
            writes_after_crash = session.stats.page_writes
        assert session.stats.page_writes == writes_after_crash

    def test_host_io_refused_while_crashed(self):
        session = SimulationSession("DFTL(cache_capacity=64)",
                                    device=tiny_config())
        session.warmup()
        session.crash()
        with pytest.raises(RuntimeError, match="recover"):
            session.write(1, "x")
        with pytest.raises(RuntimeError, match="recover"):
            session.read(1)
        session.recover()
        session.write(1, "x")
        assert session.read(1) == "x"

    def test_crash_clears_stale_recovery_before_dispatch(self):
        # Regression: a failed crash dispatch used to leave the previous
        # crash's adapter in place, so a later recover() replayed it.
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config())
        session.warmup()
        session.crash()
        session.recover()
        def broken():
            raise RuntimeError("adapter construction failed")
        session.ftl.make_recovery = broken
        with pytest.raises(RuntimeError, match="adapter construction"):
            session.crash()
        # No power failure actually happened: the session is not crashed,
        # recover() is a no-op, and host IO still works.
        assert not session.crashed
        assert session.recover() is None
        session.write(1, "still alive")
        assert session.read(1) == "still alive"

    def test_failed_power_failure_simulation_is_loud(self):
        # If the wipe itself dies mid-way the state is indeterminate;
        # recover() must say so instead of silently returning None.
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config())
        session.warmup()
        class ExplodingAdapter:
            def simulate_power_failure(self):
                raise OSError("wipe interrupted")
        session.ftl.make_recovery = ExplodingAdapter
        with pytest.raises(OSError, match="wipe interrupted"):
            session.crash()
        assert session.crashed
        with pytest.raises(RuntimeError, match="indeterminate"):
            session.recover()

    def test_second_crash_replaces_recovery_adapter(self):
        session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                    device=tiny_config())
        session.warmup()
        session.write(7, "precious")
        session.crash()
        session.crash()
        report = session.recover()
        assert isinstance(report, RecoveryReport)
        assert session.read(7) == "precious"
        assert session.recover() is None
