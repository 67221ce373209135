"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps the public entry points of each layer at run time, from
the benchmark's own files; no source file is patched.  Methods are wrapped
on their class, so ``_Pool`` methods cover serving pools and fleet replicas
alike.  Functions are replaced in every loaded ``repro`` module that holds
them, because ``from ... import name`` copies the reference (``uniform_slices``
is called through ``repro.sim.providers``, not ``repro.core.slicing``).
:meth:`Tracer.uninstall` puts every original back.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it encloses; time inside no span at all is the run's
unattributed time.  A call that returns a generator is traced per step, so
a lazy trace generator is timed where the simulation pulls from it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span -> entry points.  ``module:Class.method`` and ``module:function`` name
#: one entry point; ``*`` stands for every public method of a class, every
#: public function of a module, or (``*.name``) every class of the module
#: that defines ``name`` itself.
SPANS: Dict[str, Tuple[str, ...]] = {
    "batcher.plan": ("repro.serving.batcher:ContinuousBatcher.plan",),
    "batcher.commit": ("repro.serving.batcher:ContinuousBatcher.commit",),
    "batcher.enqueue": ("repro.serving.batcher:ContinuousBatcher.enqueue",),
    "paged_kv.reserve": ("repro.serving.paged_kv:PagedKVAllocator.reserve",),
    "paged_kv.bulk": (
        "repro.serving.paged_kv:PagedKVAllocator.advance_decode_step",
        "repro.serving.paged_kv:PagedKVAllocator.bulk_reserve_decode",
    ),
    "paged_kv.release": ("repro.serving.paged_kv:PagedKVAllocator.release",),
    "engine.pricing": (
        "repro.serving.engine:_Pool.iteration_time",
        "repro.serving.engine:_Pool.decode_iteration_time",
    ),
    "engine.prefill_budget": ("repro.serving.engine:_Pool.prefill_budget",),
    "engine.stretch_plan": ("repro.serving.engine:_Pool.decode_stretch_length",),
    "engine.loop": ("repro.serving.engine:_Pool.run",),
    "columnar": (
        "repro.serving.columnar:DecodeColumns.__init__",
        "repro.serving.columnar:DecodeColumns.*",
    ),
    "metrics.observe": ("repro.serving.metrics:StreamingMetrics.observe",),
    "metrics.compute": (
        "repro.serving.metrics:compute_metrics",
        "repro.serving.metrics:compute_tenant_metrics",
    ),
    "prefix_cache": ("repro.serving.prefix_cache:PrefixCache.*",),
    "workload.next": ("repro.serving.workload:*",),
    "fleet.loop": ("repro.fleet.cluster:FleetEngine.run",),
    "fleet.route": ("repro.fleet.router:*.route",),
    "fleet.autoscale": ("repro.fleet.autoscaler:*.desired",),
    "core.slicing": ("repro.core.slicing:*",),
    "sim.providers": (
        "repro.sim.providers:ModelCostProvider.*",
        "repro.sim.providers:ModelActivationAccountant.*",
        "repro.sim.providers:PipelineModelSpec.*",
    ),
    "sim.engine": ("repro.sim.engine:SimulationEngine.run",),
    "sim.memory": ("repro.sim.memory_tracker:MemoryTracker.*",),
    "schedules.build": (
        "repro.core.schedule:build_slimpipe_schedule",
        "repro.schedules.registry:build_schedule",
    ),
    "systems.search": ("repro.systems.base:TrainingSystem.best_configuration",),
    "systems.evaluate": (
        "repro.systems.pipeline_systems:*.evaluate",
        "repro.systems.deepspeed:*.evaluate",
    ),
}

#: Spans whose results are classified: the tracer counts the calls whose
#: result satisfies the predicate (wasted plans, stretch probes that found
#: steps, feasible configurations).
HITS: Dict[str, Callable[[object], bool]] = {
    "batcher.plan": lambda plan: plan.empty,
    "engine.stretch_plan": lambda steps: steps > 0,
    "systems.evaluate": lambda estimate: estimate.feasible,
}


def _public_functions(namespace: dict, module_name: Optional[str] = None) -> List[str]:
    return [
        name
        for name, value in namespace.items()
        if inspect.isfunction(value)
        and not name.startswith("_")
        and (module_name is None or value.__module__ == module_name)
    ]


def _resolve(entry: str) -> List[Tuple[object, str]]:
    """``(owner, attribute)`` pairs an entry point names; never empty."""
    module_name, _, qualname = entry.partition(":")
    module = importlib.import_module(module_name)
    owner, _, attribute = qualname.rpartition(".")
    if not owner:
        names = _public_functions(vars(module), module_name) if attribute == "*" else [attribute]
        found = [(module, name) for name in names]
    else:
        if owner == "*":
            classes = [
                value
                for value in vars(module).values()
                if inspect.isclass(value) and value.__module__ == module_name
            ]
        else:
            classes = [getattr(module, owner)]
        found = []
        for cls in classes:
            if attribute == "*":
                names = _public_functions(vars(cls))
            else:
                names = [attribute] if inspect.isfunction(vars(cls).get(attribute)) else []
            found.extend((cls, name) for name in names)
    if not found:
        raise LookupError(f"entry point {entry!r} names nothing to trace")
    return found


class _TracedIterator:
    """A generator whose every step runs as a span."""

    __slots__ = ("_iterator", "_step")

    def __init__(self, iterator, step):
        self._iterator = iterator
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._iterator)


class Tracer:
    """Per-span call counts, self times and result hits for one process."""

    def __init__(self) -> None:
        # span -> [calls, self seconds, hits]
        self._cells: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0])
        # Per open span, the time its child spans took.  The bottom entry
        # collects the top-level spans, i.e. the attributed time.
        self._stack: List[float] = [0.0]
        self._undo: List[Tuple[object, str, object]] = []

    def calls(self, span: str) -> int:
        return self._cells[span][0]

    def self_s(self, span: str) -> float:
        return self._cells[span][1]

    def hits(self, span: str) -> int:
        return self._cells[span][2]

    @property
    def attributed_s(self) -> float:
        return self._stack[0]

    def wrap(self, span: str, function: Callable) -> Callable:
        stack = self._stack
        cell = self._cells[span]
        hit = HITS.get(span)
        clock = time.perf_counter
        generator = types.GeneratorType
        step: List[Callable] = []

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed - children
            if hit is not None and hit(result):
                cell[2] += 1
            if type(result) is generator:
                if not step:
                    step.append(self.wrap(span, next))
                return _TracedIterator(result, step[0])
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`SPANS`."""
        for span, entries in SPANS.items():
            for entry in entries:
                for owner, name in _resolve(entry):
                    original = vars(owner)[name]
                    traced = self.wrap(span, original)
                    if inspect.isclass(owner):
                        self._replace(owner, name, original, traced)
                        continue
                    for module_name, module in list(sys.modules.items()):
                        if module_name.split(".")[0] != "repro":
                            continue
                        for attribute, value in list(vars(module).items()):
                            if value is original:
                                self._replace(module, attribute, original, traced)

    def _replace(self, owner, name: str, original, traced) -> None:
        setattr(owner, name, traced)
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def wrapper_cost_ns(calls: int = 100_000, repeats: int = 5) -> float:
    """Median extra cost of one traced call over a bare call, in ns."""

    def bare(value):
        return value

    traced = Tracer().wrap("probe", bare)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        start = clock()
        for index in range(calls):
            bare(index)
        middle = clock()
        for index in range(calls):
            traced(index)
        end = clock()
        costs.append(((end - middle) - (middle - start)) / calls * 1e9)
    return statistics.median(costs)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, counters: Dict[str, int], wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced process."""
    calls = tracer.calls
    self_s = tracer.self_s
    hits = tracer.hits
    plans = calls("batcher.plan")
    iterations = counters["iterations"]
    return {
        "batcher.plan.calls": plans,
        "batcher.plan.self_s": self_s("batcher.plan"),
        "batcher.commit.self_s": self_s("batcher.commit"),
        "batcher.enqueue.self_s": self_s("batcher.enqueue"),
        "batcher.plan.empty_frac": _ratio(hits("batcher.plan"), plans),
        "batcher.requeued_token_frac": _ratio(
            counters["tokens_requeued"], counters["tokens_admitted"]
        ),
        "paged_kv.reserve.calls": calls("paged_kv.reserve"),
        "paged_kv.reserve.self_s": self_s("paged_kv.reserve"),
        "paged_kv.bulk.calls": calls("paged_kv.bulk"),
        "paged_kv.bulk.self_s": self_s("paged_kv.bulk"),
        "paged_kv.release.self_s": self_s("paged_kv.release"),
        "engine.pricing.calls": calls("engine.pricing"),
        "engine.pricing.self_s": self_s("engine.pricing"),
        "engine.prefill_budget.calls": calls("engine.prefill_budget"),
        "engine.prefill_budget.self_s": self_s("engine.prefill_budget"),
        "engine.stretch_plan.calls": calls("engine.stretch_plan"),
        "engine.stretch_plan.self_s": self_s("engine.stretch_plan"),
        "engine.stretch_plan.hit_frac": _ratio(
            hits("engine.stretch_plan"), calls("engine.stretch_plan")
        ),
        "engine.iterations": iterations,
        "engine.plan_iter_frac": _ratio(plans - hits("batcher.plan"), iterations),
        "engine.loop.self_s": self_s("engine.loop"),
        "columnar.calls": calls("columnar"),
        "columnar.self_s": self_s("columnar"),
        "metrics.observe.calls": calls("metrics.observe"),
        "metrics.observe.self_s": self_s("metrics.observe"),
        "metrics.compute.self_s": self_s("metrics.compute"),
        "prefix_cache.calls": calls("prefix_cache"),
        "prefix_cache.self_s": self_s("prefix_cache"),
        "prefix_cache.hit_rate": _ratio(
            counters["prefix_hit_tokens"],
            counters["prefix_hit_tokens"] + counters["tokens_prefilled"],
        ),
        "prefix_cache.evicted_blocks": counters["prefix_evictions"],
        "workload.next.calls": calls("workload.next"),
        "workload.next.self_s": self_s("workload.next"),
        "fleet.loop.self_s": self_s("fleet.loop"),
        "fleet.route.calls": calls("fleet.route"),
        "fleet.route.self_s": self_s("fleet.route"),
        "fleet.autoscale.calls": calls("fleet.autoscale"),
        "fleet.autoscale.self_s": self_s("fleet.autoscale"),
        "fleet.rerouted_frac": _ratio(counters["rerouted"], counters["requests"]),
        "core.slicing.calls": calls("core.slicing"),
        "core.slicing.self_s": self_s("core.slicing"),
        "sim.providers.self_s": self_s("sim.providers"),
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.memory.self_s": self_s("sim.memory"),
        "schedules.build.calls": calls("schedules.build"),
        "schedules.build.self_s": self_s("schedules.build"),
        "sim.passes": counters["passes"],
        "systems.search.self_s": self_s("systems.search") + self_s("systems.evaluate"),
        "systems.configs": calls("systems.evaluate"),
        "systems.feasible_frac": _ratio(hits("systems.evaluate"), calls("systems.evaluate")),
        "unattributed_s": wall_s - tracer.attributed_s,
    }
