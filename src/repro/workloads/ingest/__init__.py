"""Real-trace ingestion: streaming replay, format adapters, tenant mixing.

The package splits trace handling into three layers:

- :mod:`~repro.workloads.ingest.formats` — pure line parsers for the
  supported trace dialects (native, MSR-Cambridge CSV, FIU/SPC, blktrace
  text), normalizing each line into a :class:`TraceRecord`;
- :mod:`~repro.workloads.ingest.streaming` —
  :class:`StreamingTraceWorkload`, a constant-memory
  :class:`~repro.workloads.base.OpStream` over a trace file with
  byte-offset→LPN windowing and out-of-range policies;
- :mod:`~repro.workloads.ingest.mixer` — :class:`TenantMix`, deterministic
  interleaving of N tenant streams with per-operation attribution.
"""

from .formats import (TRACE_FORMATS, TraceFormat, TraceFormatError,
                      TraceRecord, get_trace_format, iter_trace_records,
                      parse_trace_line, record_trace)
from .mixer import TenantMix
from .streaming import StreamingTraceWorkload

__all__ = [
    "TRACE_FORMATS",
    "StreamingTraceWorkload",
    "TenantMix",
    "TraceFormat",
    "TraceFormatError",
    "TraceRecord",
    "get_trace_format",
    "iter_trace_records",
    "parse_trace_line",
    "record_trace",
]
