"""Constant-memory trace replay.

:class:`StreamingTraceWorkload` replays a trace file — plain text or
``.gz`` — in a single lazy pass: one line is parsed at a time, the file is
reopened on ``reset()`` (and on each wrap-around), and nothing is ever
materialized, so a multi-GB MSR-Cambridge trace replays in O(1) memory.

Byte-addressed records are windowed onto the device's logical pages: a
request touching byte range ``[offset, offset+size)`` becomes one operation
per ``lpn_scale``-byte page it spans (``lpn = offset // lpn_scale``). Pages
outside the device take the ``oor`` policy: ``"clip"`` clamps them to the
edge of the address space, ``"wrap"`` folds them in modulo the device size,
``"error"`` raises a line-numbered :class:`TraceFormatError`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from ..base import Operation, OpKind, Workload
from ..registry import register_workload
from .formats import (TraceFormat, TraceFormatError, TraceRecord,
                      get_trace_format, iter_trace_records)

_OOR_POLICIES = ("clip", "wrap", "error")


class StreamingTraceWorkload(Workload):
    """Replay a trace file lazily, line by line, in constant memory.

    ``wrap=True`` restarts the file from the beginning when it ends, turning
    a finite trace into an unbounded stream; ``reset()`` rewinds by
    reopening, never by buffering.
    """

    def __init__(self, path: Union[str, Path], logical_pages: int,
                 format: Union[str, TraceFormat] = "native",
                 lpn_scale: int = 4096, oor: str = "clip",
                 wrap: bool = False, seed: int = 42) -> None:
        super().__init__(logical_pages, seed)
        if not str(path):
            raise ValueError("StreamingTraceWorkload needs a trace path")
        if lpn_scale <= 0:
            raise ValueError("lpn_scale must be positive")
        if oor not in _OOR_POLICIES:
            raise ValueError(f"oor must be one of {_OOR_POLICIES}, "
                             f"not {oor!r}")
        self.path = str(path)
        self.format = get_trace_format(format)
        self.lpn_scale = lpn_scale
        self.oor = oor
        self.wrap = wrap

    # ------------------------------------------------------------------
    # Record → operations
    # ------------------------------------------------------------------
    def _record_lpns(self, record: TraceRecord,
                     line_number: int) -> Iterator[int]:
        """Logical pages a record touches, after windowing and ``oor``."""
        if self.format.byte_addressed:
            scale = self.lpn_scale
            first = record.offset // scale
            last = (record.offset + record.size - 1) // scale \
                if record.size > 0 else first
        else:
            first = last = record.offset
        pages = self.logical_pages
        oor = self.oor
        for lpn in range(first, last + 1):
            if lpn >= pages:
                if oor == "clip":
                    lpn = pages - 1
                elif oor == "wrap":
                    lpn = lpn % pages
                else:
                    raise TraceFormatError(
                        f"logical page {lpn} out of range (device exposes "
                        f"{pages} pages; oor='error')",
                        line_number, self.path)
            yield lpn

    def _operations(self) -> Iterator[Operation]:
        """One full pass over the file (opened fresh, closed at the end)."""
        write_kind = OpKind.WRITE
        for record, line_number in iter_trace_records(self.path, self.format):
            kind = record.kind
            for lpn in self._record_lpns(record, line_number):
                payload = ("trace", lpn) if kind is write_kind else None
                yield Operation(kind, lpn, payload)

    # ------------------------------------------------------------------
    # OpStream protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Operation]:
        while True:
            emitted = False
            for operation in self._operations():
                emitted = True
                yield operation
            if not self.wrap or not emitted:
                return

    def timed_iter(self) -> Iterator[Tuple[float, Operation]]:
        """Single timestamped pass: yields ``(timestamp, operation)``.

        Used by :class:`~repro.workloads.ingest.TenantMix` for
        timestamp-ordered mixing; timestamps are the trace's own clock
        (0.0 throughout for the untimestamped native format).
        """
        write_kind = OpKind.WRITE
        for record, line_number in iter_trace_records(self.path, self.format):
            kind = record.kind
            timestamp = record.timestamp
            for lpn in self._record_lpns(record, line_number):
                payload = ("trace", lpn) if kind is write_kind else None
                yield timestamp, Operation(kind, lpn, payload)

    def remaining_hint(self) -> Optional[int]:
        return None  # unknown without a full scan; wrap makes it unbounded


# "TraceWorkload" stays an alias so stored plans that name it still resolve.
@register_workload("Trace", "TraceWorkload", "replay", "StreamingTrace",
                   "stream")
def _streaming_trace(logical_pages: int, path: str = "",
                     format: str = "native", lpn_scale: int = 4096,
                     oor: str = "error", wrap: bool = False,
                     seed: int = 42) -> StreamingTraceWorkload:
    """Registry factory: ``Trace(path='trace.txt.gz', wrap=True)``.

    The trace is re-read from ``path`` in whichever process builds the
    workload, so a :class:`~repro.engine.plan.SweepTask` naming a trace stays
    a few bytes of spec string rather than an embedded operation list.
    ``oor`` defaults to ``'error'`` here (the historical ``Trace`` spec
    rejected out-of-range pages); the real-trace specs below default to
    ``'clip'``.
    """
    if not path:
        raise ValueError(
            "the Trace workload needs a path, e.g. \"Trace(path='t.txt')\"")
    return StreamingTraceWorkload(path, logical_pages, format=format,
                                  lpn_scale=lpn_scale, oor=oor, wrap=wrap,
                                  seed=seed)


def _real_trace_factory(format_name: str):
    def factory(logical_pages: int, path: str = "", lpn_scale: int = 4096,
                oor: str = "clip", wrap: bool = False,
                seed: int = 42) -> StreamingTraceWorkload:
        if not path:
            raise ValueError(
                f"the {format_name} workload needs a path, e.g. "
                f"\"{format_name}(path='trace.csv.gz')\"")
        return StreamingTraceWorkload(path, logical_pages,
                                      format=format_name,
                                      lpn_scale=lpn_scale, oor=oor,
                                      wrap=wrap, seed=seed)
    factory.__name__ = f"_{format_name}_trace"
    factory.__doc__ = (f"Registry factory: "
                       f"``{format_name}(path=..., lpn_scale=...)``.")
    return factory


register_workload("msr", "msr-cambridge")(_real_trace_factory("msr"))
register_workload("fiu", "spc")(_real_trace_factory("fiu"))
register_workload("blktrace", "blkparse")(_real_trace_factory("blktrace"))
