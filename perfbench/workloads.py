"""The benchmark's four workloads, their oracles and their digests.

Each workload is a batch job for one fresh interpreter.  ``prepare(seed)``
does the registry lookups a CLI call does before it simulates anything;
``simulate()`` is the timed region and returns ``{unit key: result}``;
``check(results)`` runs untimed afterwards and turns every unit into its
simulated statistics plus the oracle violations it showed.

A *unit* is one simulation a user would ask for: a serving slice, one fleet
scenario, one ``SlimPipePlanner.run()`` or one grid search.  Its key names
its inputs, so the pinned digest of a unit can be looked up by key.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import islice
from typing import Dict, List, Tuple

from repro.core.planner import SlimPipePlanner
from repro.fleet import get_fleet_scenario, run_fleet_scenario
from repro.hardware.topology import hopper_cluster
from repro.model import get_model_config
from repro.parallel.config import ParallelConfig, WorkloadConfig
from repro.serving import get_scenario, run_scenario
from repro.systems import DeepSpeedSystem, MegatronSystem, SlimPipeSystem

#: Counters summed over a workload's units; the traced run turns them into
#: per-layer ratios (requeued tokens, prefix hits, reroutes, passes).
COUNTERS = (
    "requests",
    "iterations",
    "tokens_admitted",
    "tokens_prefilled",
    "tokens_requeued",
    "prefix_hit_tokens",
    "prefix_evictions",
    "rerouted",
    "passes",
)


class Checked:
    """One unit after the run: statistics, counters and oracle violations."""

    def __init__(self, stats: Dict[str, float], counters: Dict[str, int], problems: List[str]):
        self.stats = stats
        self.counters = counters
        self.problems = problems

    @property
    def digest(self) -> str:
        """Hash of the simulated statistics, floats to 12 significant digits."""
        rounded = {
            name: float(f"{value:.12g}") if isinstance(value, float) else value
            for name, value in self.stats.items()
        }
        text = json.dumps(rounded, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _serving_check(result, generated: int) -> Checked:
    """Oracles and statistics shared by serving and fleet results."""
    metrics = result.metrics
    stats = {
        "requests": metrics.num_requests,
        "iterations": result.iterations,
        "makespan": metrics.duration,
        "ttft_p50": metrics.ttft_p50,
        "ttft_p99": metrics.ttft_p99,
        "tpot_p50": metrics.tpot_p50,
        "tpot_p99": metrics.tpot_p99,
        "goodput": metrics.goodput_fraction,
        "preemptions": result.preemptions,
        "tokens_admitted": result.tokens_admitted,
        "prefix_hit_tokens": result.prefix_hit_tokens,
    }
    counters = {
        "requests": metrics.num_requests,
        "iterations": result.iterations,
        "tokens_admitted": result.tokens_admitted,
        "tokens_prefilled": result.tokens_prefilled,
        "tokens_requeued": result.tokens_preempted_requeued,
        "prefix_hit_tokens": result.prefix_hit_tokens,
        "prefix_evictions": result.prefix_evictions,
    }
    problems = []
    if not result.token_accounting_balanced:
        problems.append(
            f"token accounting: admitted {result.tokens_admitted} != prefilled "
            f"{result.tokens_prefilled} + requeued {result.tokens_preempted_requeued}"
        )
    if metrics.num_requests != generated:
        problems.append(f"departed {metrics.num_requests} of {generated} generated requests")
    if not (_finite(metrics.duration) and metrics.duration > 0):
        problems.append(f"makespan {metrics.duration!r} is not finite and positive")
    return Checked(stats, counters, problems)


class MassiveSlice:
    """A leading slice of a streamed ``massive-*`` serving scenario."""

    def __init__(self, scenario: str, requests: int):
        self.scenario_name = scenario
        self.requests = requests

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.scenario = get_scenario(self.scenario_name)

    def simulate(self) -> Dict[str, object]:
        result = run_scenario(self.scenario, seed=self.seed, max_requests=self.requests)
        return {f"{self.scenario_name}@{self.seed}": result}

    def check(self, results: Dict[str, object]) -> Dict[str, Checked]:
        generated = sum(1 for _ in islice(self.scenario.make_stream(self.seed), self.requests))
        return {key: _serving_check(result, generated) for key, result in results.items()}


#: The fleet scenarios registered today, fixed here so that a scenario added
#: later changes no benchmark input.  Scenario ``i`` runs on seed ``seed + i``.
FLEET_SCENARIOS = (
    "canary-chat",
    "steady-chat",
    "bursty-long",
    "flash-crowd",
    "unreliable",
    "hetero-mixed",
    "shared-system-prompt",
    "rag-shared-corpus",
    "agentic-prefix-tree",
)


#: The serving scenario run beside the fleet ones: two GPUs hold ~145K KV
#: tokens against a ~400K-token corpus, so the prefix cache evicts LRU-first.
#: The fleet's three replicas hold the same corpus without eviction.
EVICTING_SCENARIO = "rag-shared-corpus"


class FleetSuite:
    """Every fleet scenario on consecutive seeds, record mode, and the
    evicting serving scenario on the seed after them."""

    def prepare(self, seed: int) -> None:
        self.runs = [
            (f"{name}@{seed + index}", get_fleet_scenario(name), seed + index)
            for index, name in enumerate(FLEET_SCENARIOS)
        ]
        serving_seed = seed + len(FLEET_SCENARIOS)
        self.serving = (
            f"serving:{EVICTING_SCENARIO}@{serving_seed}",
            get_scenario(EVICTING_SCENARIO),
            serving_seed,
        )

    def simulate(self) -> Dict[str, object]:
        results = {
            key: run_fleet_scenario(scenario, seed=seed) for key, scenario, seed in self.runs
        }
        key, scenario, seed = self.serving
        results[key] = run_scenario(scenario, seed=seed)
        return results

    def check(self, results: Dict[str, object]) -> Dict[str, Checked]:
        key, scenario, seed = self.serving
        checked = {key: _serving_check(results[key], len(scenario.make_trace(seed)))}
        for key, scenario, seed in self.runs:
            result = results[key]
            unit = _serving_check(result, len(scenario.make_trace(seed)))
            unit.stats["gpu_hours"] = result.fleet.gpu_hours
            unit.stats["rerouted"] = result.fleet.rerouted_requests
            unit.counters["rerouted"] = result.fleet.rerouted_requests
            checked[key] = unit
        return checked


#: Slice-level 1F1B points from the paper's Llama 13B/70B evaluation:
#: (model, TP, PP, virtual stages, slices, context K, microbatches).  Sized
#: so the set simulates in under two seconds on a 2-core host (simulation
#: cost grows super-linearly with passes).
PLANS: Tuple[Tuple[str, int, int, int, int, int, int], ...] = (
    ("llama-13b", 8, 4, 1, 16, 64, 4),
    ("llama-13b", 8, 4, 5, 8, 128, 2),
    ("llama-70b", 8, 8, 1, 16, 128, 2),
    ("llama-70b", 8, 8, 1, 32, 256, 4),
    ("llama-70b", 8, 4, 5, 16, 512, 2),
    ("llama-70b", 8, 8, 1, 16, 256, 8),
)

#: Grid searches: (system, model, GPUs, context K), four sequences per
#: iteration, as in the paper's end-to-end comparison.
SEARCHES = tuple(
    (system, model, gpus, context_k)
    for system in ("slimpipe", "megatron-lm", "deepspeed")
    for model, gpus, context_k in (("llama-13b", 32, 128), ("llama-70b", 64, 256))
)

_SYSTEMS = {
    "slimpipe": SlimPipeSystem,
    "megatron-lm": MegatronSystem,
    "deepspeed": DeepSpeedSystem,
}


class SlimPipeTrain:
    """Planner runs and grid searches; the seed only shuffles their order.

    Results must not depend on the order (the process-global FLOPs caches
    fill differently), so every unit has one pinned digest for all seeds.
    """

    def prepare(self, seed: int) -> None:
        jobs = []
        for name, tp, pp, v, n, context_k, microbatches in PLANS:
            model = get_model_config(name)
            sequence = context_k * 1024
            jobs.append((
                f"plan:{name}/tp{tp}/pp{pp}/v{v}/n{n}/{context_k}k/m{microbatches}",
                SlimPipePlanner(
                    model,
                    hopper_cluster(tp * pp),
                    ParallelConfig(
                        tensor_parallel_size=tp,
                        pipeline_parallel_size=pp,
                        virtual_pipeline_size=v,
                        num_slices=n,
                    ),
                    WorkloadConfig(
                        sequence_length=sequence,
                        tokens_per_iteration=sequence * microbatches,
                    ),
                ).run,
            ))
        for system, name, gpus, context_k in SEARCHES:
            sequence = context_k * 1024
            jobs.append((
                f"search:{system}/{name}/{gpus}gpu/{context_k}k",
                _search(
                    _SYSTEMS[system](),
                    get_model_config(name),
                    hopper_cluster(gpus),
                    WorkloadConfig(sequence_length=sequence, tokens_per_iteration=sequence * 4),
                ),
            ))
        random.Random(seed).shuffle(jobs)
        self.jobs = jobs

    def simulate(self) -> Dict[str, object]:
        return {key: job() for key, job in self.jobs}

    def check(self, results: Dict[str, object]) -> Dict[str, Checked]:
        checked = {}
        for key, result in results.items():
            counters = {"requests": 1}
            problems = []
            if key.startswith("plan:"):
                passes = result.schedule.total_passes()
                counters["passes"] = passes
                stats = {
                    "passes": passes,
                    "iteration_time": result.iteration_time,
                    "mfu": result.mfu,
                    "bubble_fraction": result.metrics.bubble_fraction,
                    "peak_memory_bytes": result.peak_memory_bytes,
                }
                if len(result.timeline.spans) != passes:
                    problems.append(
                        f"timeline holds {len(result.timeline.spans)} passes, schedule {passes}"
                    )
                if not (_finite(result.iteration_time) and result.iteration_time > 0):
                    problems.append(f"makespan {result.iteration_time!r} is not finite and positive")
            else:
                stats = {
                    "feasible": result.feasible,
                    "reason": result.reason,
                    "mfu": result.mfu,
                    "iteration_time": result.iteration_time,
                    "peak_memory_bytes": result.peak_memory_bytes,
                    "config": result.describe(),
                }
                if result.feasible and not (
                    _finite(result.iteration_time) and result.iteration_time > 0
                ):
                    problems.append(f"iteration time {result.iteration_time!r} is not finite")
            checked[key] = Checked(stats, counters, problems)
        return checked


def _search(system, model, cluster, workload):
    return lambda: system.best_configuration(model, cluster, workload)


#: Workload name -> factory.  Each simulates for 1-2 s of host time on a
#: 2-core host, so one run holds ten or more fresh processes.
WORKLOADS = {
    "massive-chat": lambda: MassiveSlice("massive-chat", 6000),
    "massive-diurnal": lambda: MassiveSlice("massive-diurnal", 8000),
    "fleet-suite": FleetSuite,
    "slimpipe-train": SlimPipeTrain,
}
