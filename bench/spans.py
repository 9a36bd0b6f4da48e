"""Per-pass recording of the benchmark's calls into gordonlab.

Every public call a workload makes goes through `Pass.call`, which times it
(wall and CPU, child processes included) and keeps its result, or the
exception it raised.  With tracing on, the pass also keeps spans in memory:
one per call, named after the gordonlab layer and function, and one per
pipeline stage of the benchmark itself, each with its parent span.
"""

from __future__ import annotations

import contextlib
import resource
import time
import traceback


def _cpu_now() -> float:
    """CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def span_name(fn) -> str:
    """'<layer>.<function>' for a gordonlab function, e.g. 'spectral.truncated_spectrum'."""
    explicit = getattr(fn, "span_name", None)
    if explicit:
        return explicit
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Pass:
    """One run of a workload's job list."""

    def __init__(self, index: int, tracing: bool, clock_origin: float):
        self.index = index
        self.tracing = tracing
        self.origin = clock_origin
        self.outputs: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.metric: dict[str, str] = {}
        self.tracebacks: dict[str, str] = {}
        # (span_id, parent_id, name, label, start, end), times from clock_origin
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.total_wall = 0.0

    def call(self, label: str, metric: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as the operation `label`; None if it raised.

        `metric` names the per-layer time metric the call counts towards.
        """
        if label in self.outputs:
            raise ValueError(f"operation label {label!r} used twice in one pass")
        self.metric[label] = metric
        span_id = self._open() if self.tracing else None
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing call is data: it counts as a failed operation
            result = None
            self.errors[label] = f"{type(exc).__name__}: {exc}"
            self.tracebacks[label] = traceback.format_exc()
        t1 = time.perf_counter()
        self.cpu[label] = _cpu_now() - cpu0
        self.wall[label] = t1 - t0
        self.outputs[label] = result
        if span_id is not None:
            self._close(span_id, span_name(fn), label, t0, t1)
        return result

    @contextlib.contextmanager
    def stage(self, name: str):
        """A pipeline span of the benchmark's own, around a group of calls."""
        if not self.tracing:
            yield
            return
        span_id = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, f"bench.{name}", None, t0, time.perf_counter())

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id, name, label, t0, t1) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, name, label, t0 - self.origin, t1 - self.origin))

    @property
    def labels(self) -> list[str]:
        return list(self.outputs)

    def keep_summaries_only(self, summarize) -> None:
        """Replace results by their summaries, so memory does not grow with passes."""
        self.outputs = {label: summarize(out) for label, out in self.outputs.items()}


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the time its direct children cover."""
    covered: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0.0) for sid, _, _, _, start, end in spans}
