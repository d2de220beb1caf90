"""Outside-in per-layer wall-time tracer for the end-to-end benchmark.

The benchmark never edits the simulator to measure it. Instead
:class:`LayerTracer` replaces the public entry points of each layer
(:data:`LAYERS`) with ``perf_counter`` wrappers for the duration of one
traced pass, then puts every original back. Per layer it keeps

- ``calls``  -- completed calls;
- ``busy_s`` -- wall time inside the layer, counting only the outermost
  call when a layer re-enters itself;
- ``self_s`` -- busy time minus the time spent in wrapped child calls, so
  the self times of all layers partition the time under the outermost
  wrapped calls exactly.

Job-level entry points (``kind == "span"``) also record one span per call
with its parent span, so a pass's job tree can be rebuilt afterwards;
per-command entry points (``kind == "agg"``) are only aggregated, because
a span per DRAM command would cost more than the command. Every layer
also counts calls that returned ``False`` (``false_returns``), which is
how a rejected ``can_accept`` shows.

The tracer is single-threaded: every traced workload calls into the
simulator from one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

#: (layer, target, kind). ``target`` is ``module:function`` or
#: ``module:Class.method``; a layer may name several targets.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("harness.plan", "repro.harness.planner:plan", "span"),
    ("harness.plan_units", "repro.harness.planner:plan_units", "span"),
    ("harness.job_fingerprint", "repro.harness.fingerprint:job_fingerprint", "agg"),
    ("harness.execute_jobs", "repro.harness.executor:execute_jobs", "span"),
    (
        "workloads.make_trace",
        "repro.workloads.generator:SyntheticTraceGenerator.generate",
        "span",
    ),
    ("core.allocator", "repro.core.api:_build_remapper", "span"),
    ("sim.construct", "repro.sim.engine:SystemSimulator.__init__", "span"),
    ("sim.run", "repro.sim.engine:SystemSimulator.run", "span"),
    ("sim.collect", "repro.sim.engine:SystemSimulator._collect_results", "span"),
    ("dram.timing_domain", "repro.dram.timing:TimingDomain.__init__", "agg"),
    ("dram.refresh_plan", "repro.dram.refresh:RefreshPlan.__init__", "agg"),
    ("dram.apply", "repro.dram.device:ChannelState.apply_activate", "agg"),
    ("dram.apply", "repro.dram.device:ChannelState.apply_column", "agg"),
    ("dram.apply", "repro.dram.device:ChannelState.apply_precharge", "agg"),
    ("dram.apply", "repro.dram.device:ChannelState.apply_refresh", "agg"),
    ("controller.decode", "repro.controller.address_mapping:AddressMapper.decode", "agg"),
    ("controller.can_accept", "repro.controller.controller:MemoryController.can_accept", "agg"),
    ("controller.enqueue", "repro.controller.controller:MemoryController.enqueue", "agg"),
    (
        "controller.next_action_cycle",
        "repro.controller.controller:MemoryController.next_action_cycle",
        "agg",
    ),
    ("controller.execute", "repro.controller.controller:MemoryController.execute", "agg"),
    ("cpu.advance", "repro.cpu.core:Core.advance", "agg"),
    ("batch.construct", "repro.batch.kernel:BatchKernel.__init__", "span"),
    ("batch.spread_schedule", "repro.batch.tables:spread_schedule", "agg"),
    ("batch.lane_step", "repro.batch.lane:Lane.step", "agg"),
    ("batch.run", "repro.batch.kernel:BatchKernel.run", "span"),
    ("verify.self_check", "repro.verify.cli:run_self_check", "span"),
    ("verify.identities", "repro.verify.cli:run_identities", "span"),
    ("verify.oracle", "repro.verify.oracle:run_case_with_oracle", "span"),
    ("verify.oracle", "repro.verify.oracle:ProtocolOracle.check", "agg"),
    ("verify.batched_round", "repro.verify.batched:run_batched_round", "span"),
)


def layer_names() -> list[str]:
    """Every layer once, in :data:`LAYERS` order."""
    return list(dict.fromkeys(name for name, _, _ in LAYERS))


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    false_returns: int = 0
    depth: int = 0


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


class LayerTracer:
    """Wrap :data:`LAYERS` while installed; see the module docstring.

    Use as a context manager, or call :meth:`install` / :meth:`uninstall`.
    ``top_busy_s`` accumulates the duration of outermost wrapped calls:
    it equals the sum of all self times when the bookkeeping is right,
    and a pass's wall time minus it is the time no layer claimed.
    """

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {name: LayerStat() for name in layer_names()}
        self.spans: list[Span] = []
        self.top_busy_s = 0.0
        #: Child-time accumulators of the wrapped calls now on the stack.
        self._stack: list[float] = []
        #: Span ids of the open span-kind calls (innermost last).
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------

    def install(self) -> "LayerTracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, target, kind in LAYERS:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            stat = self.stats[name]
            if "." in qualname:
                class_name, method = qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                wrapper = self._wrap(original, stat, name, kind)
                setattr(owner, method, wrapper)
                self._patches.append((owner, method, original, wrapper))
            else:
                original = getattr(module, qualname)
                wrapper = self._wrap(original, stat, name, kind)
                # Patch every module that imported the function by name,
                # not just the defining one.
                for owner, attr in _bindings(original):
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original, wrapper))
        return self

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in reversed(self._patches):
            setattr(owner, attr, original)
        # A module imported while tracing may have bound a wrapper by
        # name; point those at the originals too.
        originals = {id(wrapper): original for _, _, original, wrapper in self._patches}
        for owner, attr, value in _repro_attributes():
            if id(value) in originals:
                setattr(owner, attr, originals[id(value)])
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every live patch."""
        return [(owner, attr, original) for owner, attr, original, _ in self._patches]

    # ------------------------------------------------------------------

    def _wrap(self, fn, stat: LayerStat, name: str, kind: str):
        stack = self._stack
        tracer = self

        if kind == "agg":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                stat.depth += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(stat, perf_counter() - start, stack.pop())
                if result is False:
                    stat.false_returns += 1
                return result

            return wrapper

        spans = self.spans
        open_spans = self._open_spans

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            span_id = len(spans) + len(open_spans) + 1
            parent = open_spans[-1] if open_spans else None
            open_spans.append(span_id)
            stack.append(0.0)
            stat.depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(stat, end - start, stack.pop())
                open_spans.pop()
                spans.append(Span(span_id, parent, name, start, end))

        return span_wrapper

    def _close(self, stat: LayerStat, elapsed: float, child: float) -> None:
        stat.depth -= 1
        stat.calls += 1
        stat.self_s += elapsed - child
        if stat.depth == 0:
            stat.busy_s += elapsed
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self.top_busy_s += elapsed

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of the counters (for differencing windows)."""
        return {
            "top_busy_s": self.top_busy_s,
            "layers": {
                name: {
                    "calls": s.calls,
                    "busy_s": s.busy_s,
                    "self_s": s.self_s,
                    "false_returns": s.false_returns,
                }
                for name, s in self.stats.items()
            },
        }


def _repro_attributes():
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            yield module, attr, value


def _bindings(function) -> list[tuple[object, str]]:
    return [
        (module, attr)
        for module, attr, value in _repro_attributes()
        if value is function
    ]
