"""One benchmark process: set up a workload, simulate it once, check it.

``run.py`` starts this script in a fresh interpreter for every measured
unit, because the process-global ``lru_cache``s in ``repro.model`` and
``repro.serving`` would make any later run in the same process warm, and a
user pays for them on every CLI call.  It prints one JSON object as its last
line of output: set-up and simulation time, departed requests, peak RSS and,
per unit, the digest of the simulated statistics and any oracle violation.
Times are given in host seconds (``host_*``) and in reference seconds, the
host seconds scaled by the core speed that ``probe.py`` sampled meanwhile.
With ``--trace 1`` the layer entry points are wrapped (see ``tracer.py``)
and the object also carries the per-layer metrics, in host seconds.

    PYTHONPATH=src python3 perfbench/unit.py --workload fleet-suite --seed 0 \\
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from probe import Probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run(workload_name: str, seed: int, trace: bool, spawned_at: float, probe: Probe) -> dict:
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"imported repro from {repro.__file__}, not from {SRC}")
    from workloads import COUNTERS, WORKLOADS

    pinned = json.loads((HERE / "pinned.json").read_text()).get(workload_name, {})
    workload = WORKLOADS[workload_name]()
    workload.prepare(seed)
    ready = time.monotonic()
    setup_s = probe.reference_seconds(ready - spawned_at, 0)
    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics, wrapper_cost_ns

        call_cost_ns = wrapper_cost_ns()
        tracer = Tracer()
        tracer.install()
    first = probe.mark()
    start = time.perf_counter()
    try:
        results = workload.simulate()
    finally:
        host_wall_s = time.perf_counter() - start
        probe.stop()
        if tracer is not None:
            tracer.uninstall()

    units = {}
    counters = dict.fromkeys(COUNTERS, 0)
    for key, unit in workload.check(results).items():
        problems = list(unit.problems)
        expected = pinned.get(key)
        if expected is not None and expected != unit.digest:
            problems.append(f"digest {unit.digest} != pinned {expected}: {unit.stats}")
        units[key] = {"digest": unit.digest, "problems": problems}
        for name, value in unit.counters.items():
            counters[name] += value
    outcome = {
        "host_setup_s": ready - spawned_at,
        "setup_s": setup_s,
        "host_wall_s": host_wall_s - sum(probe.samples[first:]),
        "wall_s": probe.reference_seconds(host_wall_s, first),
        "requests": counters["requests"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": units,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, counters, host_wall_s)
        layers["trace.wrapper_ns_per_call"] = call_cost_ns
        outcome["layers"] = layers
    return outcome


def main() -> int:
    probe = Probe()
    probe.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.monotonic() of the parent just before it started this process",
    )
    args = parser.parse_args()
    try:
        outcome = run(args.workload, args.seed, bool(args.trace), args.spawned_at, probe)
    except Exception:  # the parent counts the unit as failed and shows why
        traceback.print_exc()
        print(json.dumps({"error": traceback.format_exc(limit=3)}))
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
