"""Outside-in tracing: spans recorded around calls into the program.

Nothing under src/ changes. A probe replaces one attribute the program calls
through (a module function such as `spjscc.training.encode`, or a class
attribute such as `Tape.apply`) with a wrapper that records a span, and
`ProbeSet.remove` puts every original back. A probe whose target is missing
is reported by `ProbeSet.missing`; the runner counts each as a failure, so a
rename in the program cannot silently drop a layer's numbers.

A span has a name, start, end, the id of the span open when it began
(its parent) and a group id. Groups are units of work such as one training
step or one evaluation batch: a probe marked as a unit start opens a new
group, and every later span joins it until the next unit start.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass
from typing import Callable


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "group")

    def __init__(self, sid, name, start, end, parent, group):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.group = group

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.samples: dict[str, list[float]] = {}
        self._stack: list[Span] = []
        self._group = 0

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self.clock(), None, parent, self._group)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} ended while {top.name!r} was open")

    def start_unit(self, span: Span) -> None:
        """Open a new group at `span`; spans that begin after it join the group."""
        self._group += 1
        span.group = self._group

    def discard(self, span: Span) -> None:
        """Drop the most recent span, already ended and without children."""
        if not self.spans or self.spans[-1] is not span or span.end is None:
            raise RuntimeError(f"only the last ended span can be discarded, not {span.name!r}")
        self.spans.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def take(self) -> tuple[list[Span], dict[str, list[float]]]:
        """Hand over what was recorded since the last call and start afresh."""
        if self._stack:
            raise RuntimeError(f"take() with span {self._stack[-1].name!r} still open")
        spans, samples = self.spans, self.samples
        self.spans, self.samples = [], {}
        return spans, samples


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    `spans[i].sid` must equal i, as `Tracer` records them.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def ancestors(spans: list[Span], span: Span):
    """The spans enclosing `span`, innermost first."""
    sid = span.parent
    while sid is not None:
        yield spans[sid]
        sid = spans[sid].parent


@dataclass(frozen=True)
class Probe:
    """One wrapped call site.

    `target` is "module:attr" or "module:Class.attr". `span` is the span
    name, or a function of the bound call arguments returning it. `unit`,
    if given, decides from the bound arguments whether the call opens a new
    group. `enter` runs before the call with the tracer and the bound
    arguments, to record counts at the boundary. `generator` probes time
    each item an iterator yields instead of the call itself.
    """

    target: str
    span: str | Callable
    unit: Callable | None = None
    enter: Callable | None = None
    generator: bool = False


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class ProbeSet:
    """Installs and removes a list of probes around one tracer."""

    def __init__(self, tracer: Tracer, probes):
        self.tracer = tracer
        self.probes = list(probes)
        self.missing: list[str] = []
        self._resolved = []
        for p in self.probes:
            try:
                owner, attr, orig = _resolve(p.target)
            except (ImportError, AttributeError):
                self.missing.append(p.target)
                continue
            if not callable(orig):
                self.missing.append(p.target)
                continue
            self._resolved.append((p, owner, attr, orig))
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("probes already installed")
        for p, owner, attr, orig in self._resolved:
            wrapper = _wrap_generator(self.tracer, p, orig) if p.generator else _wrap_call(self.tracer, p, orig)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, orig))

    def remove(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)


def _binder(p: Probe, orig):
    """Bound-arguments view of a call, built only if the probe needs one."""
    if isinstance(p.span, str) and p.unit is None and p.enter is None:
        return None
    sig = inspect.signature(orig)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def _wrap_call(tracer: Tracer, p: Probe, orig):
    bind = _binder(p, orig)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        bound = bind(args, kwargs) if bind else None
        if p.enter is not None:
            p.enter(tracer, bound)
        span = tracer.begin(p.span if isinstance(p.span, str) else p.span(bound))
        if p.unit is not None and p.unit(bound):
            tracer.start_unit(span)
        try:
            return orig(*args, **kwargs)
        finally:
            tracer.end(span)

    return wrapper


def _wrap_generator(tracer: Tracer, p: Probe, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        it = orig(*args, **kwargs)
        while True:
            span = tracer.begin(p.span)
            try:
                item = next(it)
            except StopIteration:
                tracer.end(span)
                tracer.discard(span)  # the exhausted fetch is not an item
                return
            except BaseException:
                tracer.end(span)
                raise
            tracer.end(span)
            if p.unit is not None and p.unit(None):
                tracer.start_unit(span)
            yield item

    return wrapper
