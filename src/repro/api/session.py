"""SimulationSession: the single front door for running FTL experiments.

Every consumer of the library — the benchmark suite, the CLI, the examples
and ad-hoc scripts — used to hand-wire the same plumbing: build a
``FlashDevice``, instantiate an FTL on it, fill the logical space, reset the
stats, construct a ``WorkloadRunner`` and finally dispatch operations one call
at a time. :class:`SimulationSession` owns that whole lifecycle::

    from repro import SimulationSession, UniformRandomWrites

    with SimulationSession("GeckoFTL(cache_capacity=2048)") as session:
        session.warmup()
        result = session.run(
            UniformRandomWrites(session.config.logical_pages, seed=7), 20_000)
        print(session.snapshot().write_amplification)

Operations flow through the FTL's batched submission queue
(:meth:`~repro.ftl.base.PageMappedFTL.submit`), and the session exposes a
crash/recovery cycle for *every* registered FTL: GeckoRec (the paper's
Appendix C) for GeckoFTL, the battery-paid flush for DFTL/µ-FTL, and the
full-device spare-area scan rebuild for the battery-less baselines
(LazyFTL, IB-FTL). Each ``crash()``/``recover()`` round trip returns a
:class:`~repro.ftl.recovery.RecoveryReport` with per-step IO and simulated
duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..flash.config import DeviceConfig, simulation_configuration
from ..flash.device import FlashDevice
from ..flash.stats import IOPurpose, IOStats
from ..ftl.base import PageMappedFTL
from ..ftl.operations import BatchResult, Operation
from ..obs.device import ObservedFlashDevice, ObservedTimedFlashDevice
from ..obs.recorder import Observer
from ..obs.spec import ObsSpec
from ..timing.device import TimedFlashDevice
from ..timing.model import TimingModel
from ..timing.spec import TimingSpec
from ..workloads.base import RunResult, Workload, WorkloadRunner, fill_device
from .registry import FTLSpec


def tenant_breakdown(stats: IOStats,
                     delta: float) -> Optional[Dict[str, Dict[str, Any]]]:
    """Per-tenant counters and write amplification, or ``None`` if untagged.

    Reads the :attr:`IOStats.tenant_counts` ledger the workload runner fills
    for tenant-tagged workloads; each tenant's entry carries its host/flash
    counters plus ``"wa"`` (the tenant's write amplification at ``delta``).
    """
    ledger = getattr(stats, "tenant_counts", None)
    if not ledger:
        return None
    breakdown: Dict[str, Dict[str, Any]] = {}
    for tenant in sorted(ledger):
        counters: Dict[str, Any] = dict(ledger[tenant])
        counters["wa"] = round(
            stats.tenant_write_amplification(tenant, delta), 4)
        breakdown[tenant] = counters
    return breakdown


def write_amplification_breakdown(stats: IOStats, delta: float,
                                  host_writes: Optional[int] = None
                                  ) -> Dict[str, float]:
    """Write-amplification attributed to each IO purpose (Figure 13 bottom)."""
    breakdown: Dict[str, float] = {}
    for purpose in IOPurpose:
        value = stats.write_amplification(delta, include_purposes=[purpose],
                                          host_writes=host_writes)
        if value:
            breakdown[purpose.value] = value
    return breakdown


@dataclass
class SessionSnapshot:
    """Point-in-time measurements of a session (cheap, pure-RAM)."""

    ftl_description: Dict[str, Any]
    stats: IOStats
    write_amplification: float
    wa_breakdown: Dict[str, float]
    ram_breakdown: Dict[str, int]
    #: Full latency/throughput summary (see ``TimingModel.summary``), or
    #: ``None`` when the session runs without a timing model.
    latency: Optional[Dict[str, Any]] = None
    #: Per-shard measurement rows (dicts with ``shard``, host/flash counters
    #: and ``wa_total``), or ``None`` for single-device sessions. Only
    #: :class:`~repro.flash.device_array.DeviceArraySession` fills this.
    shards: Optional[List[Dict[str, Any]]] = None
    #: Per-tenant breakdown (``{tenant: {counters..., "wa"}}``), or ``None``
    #: when no tenant-tagged operations ran (the historical single-tenant
    #: case). Only multi-tenant mixes (:class:`repro.workloads.TenantMix`)
    #: populate the underlying ledger.
    tenants: Optional[Dict[str, Dict[str, Any]]] = None

    @property
    def ram_bytes(self) -> int:
        return sum(self.ram_breakdown.values())

    def row(self) -> Dict[str, Any]:
        """Flat dictionary for tabular reporting."""
        row: Dict[str, Any] = {
            "ftl": self.ftl_description.get("ftl"),
            "wa_total": round(self.write_amplification, 4),
            "ram_bytes": self.ram_bytes,
        }
        for purpose, value in sorted(self.wa_breakdown.items()):
            row[f"wa_{purpose}"] = round(value, 4)
        if self.latency is not None:
            # Virtual-time QoS columns: deterministic for a given seed and
            # spec, so they are part of the canonical (cross-worker) row.
            for field in ("throughput_ops_s", "p50_us", "p99_us", "p999_us"):
                row[field] = self.latency[field]
        if self.shards is not None:
            # Array columns follow the timing pattern: only array sessions
            # emit them, so single-device rows keep their historical shape.
            row["array_shards"] = len(self.shards)
            row["shard_wa_max"] = max(
                (shard["wa_total"] for shard in self.shards), default=0.0)
        if self.tenants is not None:
            # Tenant columns likewise appear only for tenant-tagged runs,
            # keeping untagged rows byte-identical to their historical shape.
            row["tenants"] = ",".join(sorted(self.tenants))
            for tenant in sorted(self.tenants):
                counters = self.tenants[tenant]
                row[f"tenant_wa_{tenant}"] = counters["wa"]
                row[f"tenant_writes_{tenant}"] = counters["host_writes"]
                row[f"tenant_reads_{tenant}"] = counters["host_reads"]
        return row


class SimulationSession:
    """Owns a device, an FTL and a runner, with a full experiment lifecycle.

    Parameters
    ----------
    ftl:
        What to simulate: an :class:`FTLSpec`, a spec string such as
        ``"GeckoFTL(cache_capacity=2048)"``, a bare registered name, or an
        already-built :class:`PageMappedFTL` (which must sit on ``device``).
    device:
        A :class:`DeviceConfig`, a ready :class:`FlashDevice`, or ``None``
        for the default scaled-down simulation geometry.
    interval_writes:
        Measurement-interval length used by :meth:`run`.
    ftl_kwargs:
        Defaults passed to the FTL factory; the spec's own kwargs win.
    timing:
        Optional device timing model: a :class:`TimingModel`, a
        :class:`TimingSpec`, a preset/shorthand string (``"slc"``,
        ``"mlc(channels=8)"``) or a spec dict. When given (and ``device``
        is a config or ``None``) the session builds a
        :class:`TimedFlashDevice` and every flash operation is sequenced
        onto the virtual clock; :meth:`latency_summary` then reports
        p50/p99/p999 and throughput. When omitted the session uses the
        plain :class:`FlashDevice` fast paths with zero timing overhead.
    obs:
        Optional observability capture: an :class:`Observer`, an
        :class:`ObsSpec`, a preset/shorthand string (``"trace"``,
        ``"metrics(sample_every=250)"``, ``"full"``), a spec dict, or
        ``True`` for the full default. When given (and ``device`` is a
        config or ``None``) the session builds an observed device variant
        so every flash operation also feeds the event trace and/or the
        metrics recorder; :attr:`obs` then exposes them. When omitted the
        plain device classes are used — zero observability overhead, the
        same structural guarantee as ``timing=``.
    """

    def __new__(cls, ftl: Any = "GeckoFTL", device: Any = None,
                **kwargs: Any) -> "SimulationSession":
        # Multi-device front door: an ``"array(n=4)"`` spec string, a device
        # dict carrying ``array_shards``, or a ready DeviceArray routes to
        # the array subclass (one FTL stack per shard, merged reporting).
        # Other strings fall through to __init__'s TypeError.
        if cls is SimulationSession and device is not None:
            routed = (isinstance(device, str)
                      and device.lstrip().startswith("array(")) or (
                isinstance(device, dict) and "array_shards" in device)
            if not routed and not isinstance(device,
                                             (DeviceConfig, FlashDevice)):
                from ..flash.device_array import DeviceArray
                routed = isinstance(device, DeviceArray)
            if routed:
                from ..flash.device_array import DeviceArraySession
                return object.__new__(DeviceArraySession)
        return object.__new__(cls)

    def __init__(self,
                 ftl: Union[FTLSpec, str, PageMappedFTL] = "GeckoFTL",
                 device: Union[DeviceConfig, FlashDevice, None] = None,
                 *,
                 interval_writes: int = 10_000,
                 ftl_kwargs: Optional[Dict[str, Any]] = None,
                 timing: Union[TimingModel, TimingSpec, str,
                               Dict[str, Any], None] = None,
                 obs: Union[Observer, ObsSpec, str,
                            Dict[str, Any], bool, None] = None) -> None:
        if timing is not None and not isinstance(timing, TimingModel):
            timing = TimingModel(timing)
        if obs is not None and not isinstance(obs, Observer):
            obs = Observer(ObsSpec.of(obs))
        if device is None or isinstance(device, DeviceConfig):
            config = (device if isinstance(device, DeviceConfig)
                      else simulation_configuration())
            if obs is not None:
                self.device = (
                    ObservedFlashDevice(config, obs=obs) if timing is None
                    else ObservedTimedFlashDevice(config, timing=timing,
                                                  obs=obs))
            else:
                self.device = (FlashDevice(config) if timing is None
                               else TimedFlashDevice(config, timing=timing))
        elif isinstance(device, FlashDevice):
            device_timing = getattr(device, "timing", None)
            if timing is not None and device_timing is not timing:
                raise ValueError(
                    "timing= conflicts with the ready-made device; pass a "
                    "TimedFlashDevice carrying the desired timing model (or "
                    "a DeviceConfig and let the session build one)")
            timing = device_timing
            device_obs = getattr(device, "obs", None)
            if obs is not None and device_obs is not obs:
                raise ValueError(
                    "obs= conflicts with the ready-made device; pass an "
                    "ObservedFlashDevice carrying the desired observer (or "
                    "a DeviceConfig and let the session build one)")
            obs = device_obs
            self.device = device
        else:
            raise TypeError("device must be a DeviceConfig or FlashDevice, "
                            f"not {type(device).__name__}")
        #: The session's :class:`TimingModel`, or ``None`` when disabled.
        self.timing: Optional[TimingModel] = timing
        #: The session's :class:`Observer`, or ``None`` when disabled.
        self.obs: Optional[Observer] = obs
        #: Virtual microseconds the last :meth:`recover` took (timing only).
        self.recovery_virtual_us: Optional[float] = None
        self.config: DeviceConfig = self.device.config

        if isinstance(ftl, PageMappedFTL):
            if ftl.device is not self.device:
                raise ValueError(
                    "the provided FTL instance sits on a different device "
                    "than the session's")
            self.spec: Optional[FTLSpec] = None
            self.ftl = ftl
        else:
            self.spec = FTLSpec.of(ftl)
            self.ftl = self.spec.build(self.device, **(ftl_kwargs or {}))
        self.interval_writes = interval_writes
        self.runner = WorkloadRunner(self.ftl,
                                     interval_writes=interval_writes)
        self._recovery = None
        self._crashed = False
        self._closed = False

    @classmethod
    def from_task(cls, task) -> "SimulationSession":
        """Build the session a :class:`~repro.engine.plan.SweepTask` describes.

        This is the constructor sweep workers use: the task carries only
        serializable specs (FTL spec string, device geometry dict, cache
        capacity, interval length), and this method rebuilds the live device
        and FTL from them. The task's ``cache_capacity`` is a default the FTL
        spec's own ``cache_capacity`` kwarg overrides.
        """
        from ..engine.plan import build_device_config
        if cls is SimulationSession and isinstance(task.device, dict) \
                and "array_shards" in task.device:
            from ..flash.device_array import DeviceArraySession
            return DeviceArraySession.from_task(task)
        return cls(task.ftl,
                   device=build_device_config(task.device),
                   interval_writes=task.interval_writes,
                   ftl_kwargs={"cache_capacity": task.cache_capacity},
                   timing=getattr(task, "timing", None))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def warmup(self, fraction: float = 1.0,
               payload_factory: Optional[Callable[[int], Any]] = None,
               reset_stats: bool = True) -> int:
        """Fill the logical space through the batched path (steady state).

        Returns the number of pages written. By default the warm-up IO is
        excluded from subsequent measurements, matching how the paper reports
        steady-state behaviour.
        """
        self._check_not_crashed()
        pages = fill_device(self.ftl, fraction=fraction,
                            payload_factory=payload_factory)
        if reset_stats:
            self.stats.reset()
            if self.timing is not None:
                # Same contract as the stats reset: drop the warm-up
                # samples, keep the steady state (clock and busy units).
                self.timing.reset_capture()
            if self.obs is not None:
                # Likewise: warm-up events/samples are not measurements.
                self.obs.reset_capture()
        return pages

    def run(self, workload: Workload, operation_count: int,
            on_interval: Optional[Callable[..., None]] = None) -> RunResult:
        """Drive the FTL with ``operation_count`` ops of ``workload``."""
        self._check_not_crashed()
        return self.runner.run(workload, operation_count,
                               on_interval=on_interval)

    def snapshot(self) -> SessionSnapshot:
        """Measurements accumulated since the last stats reset."""
        stats = self.stats.snapshot()
        delta = self.config.delta
        return SessionSnapshot(
            ftl_description=self.ftl.describe(),
            stats=stats,
            write_amplification=stats.write_amplification(delta),
            wa_breakdown=write_amplification_breakdown(stats, delta),
            ram_breakdown=self.ftl.ram_breakdown(),
            latency=self.latency_summary(),
            tenants=tenant_breakdown(stats, delta))

    def latency_summary(self) -> Optional[Dict[str, Any]]:
        """Latency/throughput figures for the capture window, or ``None``.

        The dictionary mirrors :meth:`TimingModel.summary`: request count,
        virtual seconds, ``throughput_ops_s``, the full-distribution
        mean/min/max/p50/p99/p999 (microseconds) and a per-request-kind
        breakdown under ``"kinds"``. Sessions built without ``timing=``
        return ``None``.
        """
        return self.timing.summary() if self.timing is not None else None

    @property
    def crashed(self) -> bool:
        """True between :meth:`crash` and the next successful :meth:`recover`."""
        return self._crashed

    def crash(self) -> None:
        """Simulate a power failure (integrated RAM is lost, flash survives).

        Every registered FTL supports this through its recovery adapter
        (:meth:`~repro.ftl.base.PageMappedFTL.make_recovery`): GeckoFTL
        wipes its RAM structures for GeckoRec, battery-backed FTLs (DFTL,
        µ-FTL) perform the flush their battery pays for, and battery-less
        baselines (LazyFTL, IB-FTL) lose their RAM and will rebuild by
        scanning the whole device. Call :meth:`recover` to run the recovery
        algorithm; until then the session refuses host IO and :meth:`close`
        is a no-op (there is no RAM state left worth flushing).
        """
        # Any adapter left over from an earlier crash is stale: replaying
        # its recovery against the new failure state would be wrong, so it
        # is dropped before dispatching (even if dispatch itself fails).
        self._recovery = None
        # If adapter construction fails, no power failure has happened yet
        # and the session stays fully usable; only once the failure is
        # actually simulated is the session considered crashed.
        adapter = self.ftl.make_recovery()
        self._crashed = True
        if self.timing is not None:
            # A power failure may interrupt a host request mid-submit;
            # abandon it so the clock stays consistent without recording a
            # latency sample for a request that never completed.
            self.timing.abort_request()
        if self.obs is not None:
            self.obs.on_crash()
        adapter.simulate_power_failure()
        self._recovery = adapter

    def recover(self):
        """Run the recovery algorithm after :meth:`crash`.

        Returns the adapter's :class:`~repro.ftl.recovery.RecoveryReport`
        (for battery-backed FTLs it carries the single ``battery_flush``
        step the battery paid for), or ``None`` when no crash is pending.
        """
        if self._recovery is None:
            if self._crashed:
                # simulate_power_failure itself failed mid-wipe: the FTL's
                # RAM state is indeterminate and no adapter can fix it.
                raise RuntimeError(
                    "the simulated power failure did not complete; the "
                    "session's FTL state is indeterminate and cannot be "
                    "recovered (a fresh crash() re-runs the failure and "
                    "installs a new recovery adapter)")
            return None
        # The adapter is only dropped once recovery succeeds: if recover()
        # raises mid-rebuild the session stays crashed with the adapter in
        # place, so a retry (or an accurate diagnostic) is still possible.
        start_us = self.timing.now if self.timing is not None else None
        report = self._recovery.recover()
        if start_us is not None:
            # Recovery IO runs outside host requests, so it sequences as
            # bare foreground work; the clock delta is the outage's
            # virtual recovery time under this timing spec.
            self.recovery_virtual_us = round(self.timing.now - start_us, 3)
        self._recovery = None
        self._crashed = False
        return report

    def close(self) -> None:
        """Clean shutdown: synchronize all dirty state with flash.

        After a :meth:`crash` that has not been :meth:`recover`-ed the FTL's
        RAM is gone, so there is nothing to synchronize and flushing would
        corrupt the crash state; close is then a no-op (and the session can
        still be closed for real after a later recovery).
        """
        if not self._closed and not self._crashed:
            self._closed = True
            self.ftl.flush()

    def _check_not_crashed(self) -> None:
        if self._crashed:
            raise RuntimeError(
                "the session's simulated power failure has not been "
                "recovered; call recover() before issuing host IO")

    def __enter__(self) -> "SimulationSession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Host IO (all routed through the batched submission queue or the FTL)
    # ------------------------------------------------------------------
    def submit(self, batch: Sequence[Operation],
               collect_payloads: bool = False) -> BatchResult:
        """Submit a batch of operations to the FTL's submission queue."""
        self._check_not_crashed()
        return self.ftl.submit(batch, collect_payloads=collect_payloads)

    def write(self, logical: int, data: Any = None):
        self._check_not_crashed()
        return self.ftl.write(logical, data)

    def read(self, logical: int) -> Any:
        self._check_not_crashed()
        return self.ftl.read(logical)

    def trim(self, logical: int) -> None:
        self._check_not_crashed()
        self.ftl.trim(logical)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IOStats:
        return self.device.stats

    def write_amplification(self) -> float:
        return self.stats.write_amplification(self.config.delta)

    def wa_breakdown(self) -> Dict[str, float]:
        return write_amplification_breakdown(self.stats, self.config.delta)

    def ram_breakdown(self) -> Dict[str, int]:
        return self.ftl.ram_breakdown()

    def describe(self) -> Dict[str, Any]:
        description = dict(self.ftl.describe())
        if self.spec is not None:
            description["spec"] = str(self.spec)
        description["device"] = self.config.describe()
        return description
