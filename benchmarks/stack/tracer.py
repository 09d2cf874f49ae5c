"""Span tracer for the stack benchmark: wrappers installed from outside.

Every span records name, start, end and the span that was open when it
started (its parent). Spans are aggregated in memory per ``(name, parent)``
as calls / total / self time, where self time is the span's duration minus
the part of it covered by child spans; the longest spans per name are kept
whole so a tail can be looked at individually. Nothing is written until
:meth:`Tracer.export` is called after the measured region.

The program under test is single-threaded, so one stack is the whole state.
A wrapper costs about 0.8 us per call; the device wrappers fire per page on
some workloads, which is why ``trace.overhead_ratio`` is reported.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept whole (start, end, parent) per name, longest first.
LONGEST_KEPT = 32


class Tracer:
    """Aggregating span recorder with parent tracking."""

    def __init__(self) -> None:
        #: ``(name, parent) -> [calls, total_s, self_s]``
        self.aggregate: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: ``name -> min-heap of (duration, start, parent)``
        self.longest: Dict[str, List[Tuple[float, float,
                                           Optional[str]]]] = {}
        # Open spans, innermost last: ``[name, seconds covered by children]``.
        # The bottom frame is a sentinel, so a span always has a parent frame.
        self._stack: List[List[Any]] = [[None, 0.0]]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, name: str, function: Callable) -> Callable:
        """Return ``function`` wrapped in a span called ``name``."""
        stack = self._stack
        aggregate = self.aggregate
        heap = self.longest.setdefault(name, [])
        clock = time.perf_counter
        push, replace = heapq.heappush, heapq.heapreplace

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent_frame = stack[-1]
                parent_frame[1] += duration
                parent = parent_frame[0]
                record = aggregate.get((name, parent))
                if record is None:
                    record = aggregate[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if len(heap) < LONGEST_KEPT:
                    push(heap, (duration, start, parent))
                elif duration > heap[0][0]:
                    replace(heap, (duration, start, parent))

        traced.__wrapped__ = function
        return traced

    def wrap_iterator(self, name: str, factory: Callable) -> Callable:
        """Wrap a generator function: every ``next()`` on it is one span.

        The time a lazy stream takes is spent inside the consumer's
        ``next()`` calls, not inside the call that created it.
        """
        def traced(*args, **kwargs) -> Iterator[Any]:
            advance = self.wrap(name, factory(*args, **kwargs).__next__)
            while True:
                try:
                    item = advance()
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = factory
        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not measured).

        Cleared in place: the installed wrappers hold these containers.
        """
        self.aggregate.clear()
        for heap in self.longest.values():
            heap.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def layer_seconds(self, outer: Tuple[str, ...]) -> float:
        """Time under layer spans: every span not named in ``outer`` that
        started at top level or directly under an ``outer`` span.

        The ``outer`` spans enclose the whole measured region, so their own
        self time is time no layer wrapper saw; it must not count as
        attributed, or a wrapper that stopped firing would go unnoticed.
        """
        return sum(record[1] for (name, parent), record
                   in self.aggregate.items()
                   if name not in outer and (parent is None
                                             or parent in outer))

    def export(self, origin: float) -> Dict[str, Any]:
        """JSON-ready dump; times are relative to ``origin``."""
        spans = [{"name": name, "parent": parent, "calls": record[0],
                  "total_s": record[1], "self_s": record[2]}
                 for (name, parent), record in sorted(
                     self.aggregate.items(), key=lambda item: -item[1][2])]
        longest = {
            name: [{"start_s": start - origin,
                    "end_s": start + duration - origin, "parent": parent}
                   for duration, start, parent in sorted(heap, reverse=True)]
            for name, heap in sorted(self.longest.items()) if heap}
        return {"spans": spans, "longest": longest}
