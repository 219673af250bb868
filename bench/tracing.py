"""In-memory span tracer and the wrappers that attach it to ``tubeplan``.

The benchmark never edits the package.  Instead it replaces functions with
timing wrappers at every place they are bound: modules import functions by
name (``from .trajopt import solve_qp``), so ``tubeplan.mpcsim.solve_qp``
and ``tubeplan.tube.solve_qp`` are separate attributes that both have to
be rebound.  ``install`` finds every such binding by identity and
``Installation.restore`` puts the originals back.

A span's self time is its inclusive time minus the inclusive time of the
wrapped calls made inside it.  Calls run on one thread (the benchmark
runs ``--threads 1``), so children never overlap and a running sum of
their durations is exactly the interval they cover.
"""

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    durations: list | None = None     # inclusive duration of each call


class Tracer:
    """Collects span aggregates and counters.

    Spans are aggregated as they close rather than kept one by one: the
    member workload makes well over 100k evaluation calls per pass.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def stats(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def span_wrapper(self, name: str, fn, hook=None, keep_durations=False):
        """Wrap fn so each call records a span named ``name``.

        hook(tracer, args, kwargs, result) runs after a successful call,
        outside the span, to record counters such as matrix sizes.
        """
        stats = self.stats(name)
        if keep_durations and stats.durations is None:
            stats.durations = []
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.inclusive += elapsed
                stats.self_time += elapsed - children[0]
                if stats.durations is not None:
                    stats.durations.append(elapsed)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn, hook=None):
        """Wrap fn so each call only increments the counter ``name``.

        Used for calls too frequent and too cheap to time individually;
        their time stays in the caller's self time.
        """
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0.0) + 1.0
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``attr`` is a module attribute (``"solve_qp"``) or a class method
    (``"ObstacleSet.segment_free"``).  Several targets may share one span
    name, which then sums them (for example the three assembly routines).
    """

    module: str
    attr: str
    name: str
    kind: str = "span"            # "span" or "count"
    hook: object = None
    keep_durations: bool = False


@dataclass
class Installation:
    """The bindings replaced by ``install``, for ``restore``."""

    replaced: list = field(default_factory=list)   # (owner, attr, original)
    missing: list = field(default_factory=list)    # targets not found

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def _package_modules(package: str) -> list:
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None
            and (key == package or key.startswith(package + "."))]


def install(tracer: Tracer, targets, package: str = "tubeplan"
            ) -> Installation:
    """Bind a wrapper for every target at every module attribute that
    holds the original function; methods are rebound on their class."""
    inst = Installation()
    modules = _package_modules(package)
    try:
        for target in targets:
            home = sys.modules.get(f"{package}.{target.module}")
            owner_name, _, method = target.attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, method or target.attr, None)
            if owner is None or not callable(original):
                inst.missing.append(f"{target.module}.{target.attr}")
                continue
            if target.kind == "count":
                wrapper = tracer.count_wrapper(target.name, original,
                                               target.hook)
            else:
                wrapper = tracer.span_wrapper(target.name, original,
                                              target.hook,
                                              target.keep_durations)
            if owner_name:
                inst.replaced.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        inst.replaced.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    except BaseException:
        inst.restore()
        raise
    return inst
