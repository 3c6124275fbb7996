"""Timing, span tracing, memory passes and result bookkeeping.

Spans are recorded from the benchmark's side, around calls into the
program's public functions; no file of the program changes.  In an
untraced run the functions are called directly and nothing is recorded
beyond the benchmark's own stopwatch readings.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import fourlqs.cli
import fourlqs.dlfront
import fourlqs.engine
import fourlqs.hocqa
import fourlqs.oracle
import fourlqs.syntax
from hostspeed import HostSpeed

perf_counter = time.perf_counter

# attribute -> (module, function name, span name)
LAYER_FUNCTIONS = {
    "parse_kb": (fourlqs.syntax, "parse_kb", "syntax.parse_kb"),
    "parse_query": (fourlqs.syntax, "parse_query", "syntax.parse_query"),
    "render_answer_set": (fourlqs.syntax, "render_answer_set",
                          "syntax.render_answer_set"),
    "render_model_report": (fourlqs.syntax, "render_model_report",
                            "syntax.render_model_report"),
    "parse_dl": (fourlqs.dlfront, "parse_dl", "dlfront.parse_dl"),
    "translate_kb": (fourlqs.dlfront, "translate_kb", "dlfront.translate_kb"),
    "saturate": (fourlqs.engine, "saturate", "engine.saturate"),
    "answer": (fourlqs.hocqa, "answer", "hocqa.answer"),
    "task_query": (fourlqs.hocqa, "task_query", "hocqa.task_query"),
    "extract_model": (fourlqs.oracle, "extract_model", "oracle.extract_model"),
    "cli_main": (fourlqs.cli, "main", "cli.main"),
}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request", "phase",
                 "attrs")

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request, "phase": self.phase,
                "attrs": self.attrs}


class Tracer:
    """Spans kept in memory until the run ends.  Each span has a name,
    start, end, parent span, the request it belongs to and the phase of
    the run (set-up or measurement) it was recorded in."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.request: Optional[int] = None
        self.requests: Dict[int, Tuple[str, str]] = {}
        self.phase = "setup"

    @contextlib.contextmanager
    def new_request(self, op: str, key: str):
        rid = len(self.requests)
        self.requests[rid] = (op, key)
        self.request = rid
        try:
            yield
        finally:
            self.request = None

    def wrap(self, name: str, fn: Callable, annotate=None) -> Callable:
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            s = Span()
            s.sid = len(spans)
            s.name = name
            s.parent = stack[-1] if stack else None
            s.request = self.request
            s.phase = self.phase
            s.attrs = None
            spans.append(s)
            stack.append(s.sid)
            s.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()
            if annotate is not None:
                s.attrs = annotate(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> List[float]:
        """Per span, its duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - covered[s.sid] for s in self.spans]


def _saturate_attrs(args, kwargs, result) -> dict:
    """Every traced caller, the benchmark and ``cli``, passes
    ``saturate(kb, opts, engine=...)``."""
    opts = args[1]
    return {"engine": kwargs["engine"], "workers": opts.workers,
            "collect": opts.collect_branches,
            "explore_s": result.stats.wall_seconds,
            "leaves": result.open_count + result.closed_count}


class Layers:
    """The program's public functions as the benchmark calls them.

    Untraced, each attribute is the function itself.  Traced, each is
    wrapped in a span, and ``installed()`` also swaps the wrapped
    versions into ``fourlqs.cli`` so the calls ``cli.main`` makes get
    spans as children of the ``cli.main`` span.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        for attr, (module, fname, span_name) in LAYER_FUNCTIONS.items():
            fn = getattr(module, fname)
            if tracer is not None:
                fn = tracer.wrap(span_name, fn, _saturate_attrs
                                 if attr == "saturate" else None)
            setattr(self, attr, fn)

    def request(self, op: str, key: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.new_request(op, key)

    @contextlib.contextmanager
    def installed(self):
        if self.tracer is None:
            yield
            return
        saved = {}
        for attr, (_module, fname, _span) in LAYER_FUNCTIONS.items():
            if attr != "cli_main" and hasattr(fourlqs.cli, fname):
                saved[fname] = getattr(fourlqs.cli, fname)
                setattr(fourlqs.cli, fname, getattr(self, attr))
        try:
            yield
        finally:
            for fname, fn in saved.items():
                setattr(fourlqs.cli, fname, fn)


def allocation(fn: Callable):
    """Run ``fn`` under tracemalloc; return its result, the peak bytes
    allocated during the call and the bytes still held when it returned."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, current - base


class Results:
    """What the measured operations did.

    Every call's start and measured time is kept per metric in flat
    arrays, so the bookkeeping of a long run stays a few bytes per call;
    times are scaled by the host's speed (``hostspeed``) only when read,
    once the readings after the call exist.  Per (operation, input) the
    first output is kept for the reference checks, and every later output
    is compared with it, so a repeat that differs counts as a failure
    without keeping every output.
    """

    def __init__(self, speed: Optional[HostSpeed] = None):
        self.speed = speed or HostSpeed()
        self.keys: Dict[str, int] = {}
        self.key_ids: Dict[str, array] = defaultdict(lambda: array("i"))
        self.starts: Dict[str, array] = defaultdict(lambda: array("d"))
        self.durations: Dict[str, array] = defaultdict(lambda: array("d"))
        self.first: Dict[Tuple[str, str], object] = {}
        self.first_stats: Dict[Tuple[str, str], object] = {}
        self.calls: Counter = Counter()
        self.repeat_mismatch: Counter = Counter()
        self.errors: Counter = Counter()
        self.error_text: Dict[Tuple[str, str], str] = {}
        self.attempted = 0

    def time(self, metric: str, key: str, start: float,
             seconds: float) -> None:
        self.key_ids[metric].append(self.keys.setdefault(key, len(self.keys)))
        self.starts[metric].append(start)
        self.durations[metric].append(seconds)

    def metrics(self) -> List[str]:
        return sorted(self.durations)

    def samples(self, metric: str, raw: bool = False) -> List[float]:
        """Every call's time, scaled to the reference host unless ``raw``."""
        pairs = zip(self.starts[metric], self.durations[metric])
        if raw:
            return [seconds for _start, seconds in pairs]
        return [self.speed.scale(start, seconds) for start, seconds in pairs]

    def figure(self, metric: str, raw: bool = False) -> float:
        """One figure for a metric: each input's mean time per call, then
        the median over the inputs.

        The median over inputs keeps a few heavy inputs of a random pool
        from setting the figure: over five seeds the mean over kb-stream's
        2,048 KBs moved 40% with the pool drawn, foke's 2.4x.
        """
        totals: Dict[int, List[float]] = {}
        for key, seconds in zip(self.key_ids[metric],
                                self.samples(metric, raw)):
            acc = totals.setdefault(key, [0.0, 0])
            acc[0] += seconds
            acc[1] += 1
        return statistics.median(total / calls
                                 for total, calls in totals.values())

    def output(self, op: Tuple[str, str], value, stats=None) -> None:
        self.attempted += 1
        self.calls[op] += 1
        if op not in self.first:
            self.first[op] = value
            if stats is not None:
                self.first_stats[op] = stats
        elif self.first[op] != value:
            self.repeat_mismatch[op] += 1

    def merge_outputs(self, other: "Results") -> None:
        """Fold another phase's outputs into this one, so that each
        distinct output is checked once; its times stay where they are."""
        self.attempted += other.attempted
        self.errors.update(other.errors)
        self.repeat_mismatch.update(other.repeat_mismatch)
        for op, text in other.error_text.items():
            self.error_text.setdefault(op, text)
        for op, n in other.calls.items():
            self.calls[op] += n
            if op not in other.first:
                continue
            if op not in self.first:
                self.first[op] = other.first[op]
                if op in other.first_stats:
                    self.first_stats[op] = other.first_stats[op]
            elif self.first[op] != other.first[op]:
                self.repeat_mismatch[op] += (n - other.errors[op]
                                             - other.repeat_mismatch[op])

    def error(self, op: Tuple[str, str], err: BaseException) -> None:
        self.attempted += 1
        self.calls[op] += 1
        self.errors[op] += 1
        self.error_text.setdefault(op, f"{type(err).__name__}: {err}")


def tail(values: List[float]) -> Optional[Tuple[float, float]]:
    """The highest of p99.9, p99, p90 that has at least ten samples
    beyond it, with its value; None below 20 samples."""
    n = len(values)
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            idx = min(n - 1, max(0, math.ceil(n * pct / 100.0) - 1))
            return pct, ordered[idx]
    return None
