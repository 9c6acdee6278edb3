"""Span tracing from outside the program.

``Tracer.install`` replaces each layer's public callables with thin
wrappers that record one span per call -- name, start, end, parent -- in
per-thread lists held in memory. Nothing inside ``repro`` is edited and the
in-tree ``repro.obs`` profiler is not used; ``uninstall`` puts every
original back. Wrappers are installed only for the traced part of a run,
after set-up, so processes forked during set-up never carry them.

A span's *self time* is its duration minus the part of it covered by its
direct children, so self times over a thread add up to the duration of that
thread's root spans exactly (integer nanoseconds). A call nested directly
inside a span of the same name (``VerletList.candidates`` building through
``pairs_kdtree``) is not recorded a second time.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: One recorded span: [name, start_ns, end_ns, parent index or -1].
Span = list


@dataclass
class ThreadTrace:
    """Spans of one thread, in start order; parents index into ``spans``."""

    thread: str
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)


class Tracer:
    """Installs span wrappers and collects what they record."""

    def __init__(self) -> None:
        self.threads: list[ThreadTrace] = []
        #: Values captured from wrapped calls' return values, by span name.
        self.captured: dict[str, list[float]] = {}
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _thread_trace(self) -> ThreadTrace:
        trace = getattr(self._local, "trace", None)
        if trace is None:
            trace = ThreadTrace(threading.current_thread().name)
            self._local.trace = trace
            self.threads.append(trace)  # list.append is atomic under the GIL
        return trace

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        capture: Callable[[Any], float] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class; for a class the attribute is
        wrapped where the MRO defines it, so subclasses inherit the wrapper.
        ``capture`` maps the call's return value to a number kept under
        ``self.captured[name]``.
        """
        if isinstance(owner, type):
            owner = next(c for c in owner.__mro__ if attr in c.__dict__)
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if any(o is owner and a == attr for o, a, _ in self._installed):
            return
        thread_trace = self._thread_trace
        clock = time.perf_counter_ns
        captured = self.captured.setdefault(name, []) if capture is not None else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            trace = thread_trace()
            spans, stack = trace.spans, trace.stack
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][0] == name:
                return original(*args, **kwargs)
            span = [name, 0, 0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if capture is not None:
                captured.append(capture(result))
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer's public callables (see ``ledger/README.md``)."""
        import repro.core.accounting as accounting
        import repro.md.forces as forces
        import repro.md.neighbors as neighbors
        from repro.campaign.store import RunStore
        from repro.core.results import RunResult
        from repro.core.runner import DrivenLoadRunner, ParallelMDRunner
        from repro.decomp.assignment import CellAssignment
        from repro.dlb.balancer import DynamicLoadBalancer
        from repro.engine.base import Engine
        from repro.engine.forcefield import EngineForceField
        from repro.engine.multiprocess import MultiprocessEngine
        from repro.engine.sequential import SequentialEngine
        from repro.md.celllist import CellList
        from repro.md.integrator import VelocityVerlet
        from repro.md.kernels import create_kernel, resolve_kernel_name
        from repro.md.thermostat import VelocityRescale
        from repro.parallel.costmodel import ComputeCostModel
        from repro.service.client import ServiceClient

        for module in (forces, neighbors):
            for function in ("pairs_kdtree", "pairs_celllist"):
                self.wrap(module, function, "md.pair_search")
        self.wrap(neighbors.VerletList, "candidates", "md.pair_search")
        kernel = type(create_kernel(resolve_kernel_name(None)))
        self.wrap(kernel, "evaluate", "md.kernel")
        self.wrap(forces.ForceField, "compute", "md.force")
        self.wrap(EngineForceField, "compute", "md.force")
        self.wrap(VelocityVerlet, "step", "md.integrate")
        self.wrap(VelocityRescale, "maybe_rescale", "md.thermostat")
        self.wrap(CellList, "counts", "md.cell_counts")
        self.wrap(ParallelMDRunner, "step", "core.step")
        self.wrap(DrivenLoadRunner, "run", "core.step")
        self.wrap(accounting.StepAccountant, "account_step", "core.accounting")
        self.wrap(accounting.StepAccountant, "charge_moves", "core.charge_moves")
        self.wrap(RunResult, "digest", "core.digest")
        self.wrap(ComputeCostModel, "per_pe_work", "parallel.cost_model")
        self.wrap(accounting, "compute_halo", "decomp.halo")
        self.wrap(CellAssignment, "transfer", "decomp.transfer")
        self.wrap(DynamicLoadBalancer, "step", "dlb.decide")
        for engine in (SequentialEngine, MultiprocessEngine):
            self.wrap(
                engine, "force_pass", "engine.force_pass",
                capture=lambda result: float(result.per_pe_seconds.sum()),
            )
        self.wrap(Engine, "bind", "engine.bind")
        for method in ("register", "acquire_lease", "complete", "get"):
            self.wrap(RunStore, method, f"campaign.store.{method}")
        self.wrap(ServiceClient, "submit", "service.submit_rtt")
        self.wrap(ServiceClient, "wait", "service.wait")
        self.wrap(ServiceClient, "result", "service.result_rtt")

    def uninstall(self) -> None:
        """Restore every original, newest wrapper first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return summarize(self.threads)


@dataclass
class TraceSummary:
    """Per-name totals over every thread of a trace."""

    #: Self time per span name, nanoseconds.
    self_ns: dict[str, int]
    #: Recorded calls per span name.
    calls: dict[str, int]
    #: Every span's duration per name, nanoseconds, in start order.
    durations_ns: dict[str, list[int]]
    #: Sum of root-span durations per thread name, nanoseconds.
    root_ns: dict[str, int]

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def durations_ms(self, name: str) -> list[float]:
        return [d / 1e6 for d in self.durations_ns.get(name, [])]


def summarize(threads: list[ThreadTrace]) -> TraceSummary:
    """Self times, call counts and root totals of a finished trace.

    Raises ``ValueError`` when the trace is malformed: an unfinished span, a
    child reaching outside its parent, or self times that do not add up to
    the root-span total.
    """
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    root_ns: dict[str, int] = {}
    for trace in threads:
        spans = trace.spans
        if trace.stack:
            raise ValueError(f"thread {trace.thread}: {len(trace.stack)} span(s) still open")
        covered = [0] * len(spans)
        roots = 0
        for name, start, end, parent in spans:
            if end < start:
                raise ValueError(f"span {name} ends before it starts")
            if parent < 0:
                roots += end - start
                continue
            p_name, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {name} reaches outside its parent {p_name}")
            covered[parent] += end - start
        total_self = 0
        for (name, start, end, _), child_ns in zip(spans, covered):
            own = end - start - child_ns
            if own < 0:
                raise ValueError(f"span {name}: children cover more than the span")
            total_self += own
            self_ns[name] = self_ns.get(name, 0) + own
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(end - start)
        if total_self != roots:
            raise ValueError(
                f"thread {trace.thread}: self times sum to {total_self} ns, "
                f"root spans to {roots} ns"
            )
        root_ns[trace.thread] = root_ns.get(trace.thread, 0) + roots
    return TraceSummary(self_ns, calls, durations, root_ns)
