"""Host-time benchmark of the simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload massive-chat --seed 0 --seconds 20 --trace 0

The run starts ``unit.py`` in a fresh interpreter, one process at a time,
until ``--seconds`` have passed, and checks every simulated unit against the
repository's oracles, the other processes of the run and, at the pinned
seeds, ``pinned.json``.  It prints a table, a provenance line and, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``
(medians over the processes; times in the reference seconds of
``probe.py``), with ``--trace 1`` its per-layer metrics, measured by pairs
of a plain and a traced process whose digests must agree.
See ``NOTES.md`` for the workloads, metrics and baseline shares.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: A process takes 1.5-3 s; this only stops a hung one.
UNIT_TIMEOUT_S = 120.0


def spawn(workload: str, seed: int, trace: bool) -> dict:
    """Run one ``unit.py`` process to completion and return its outcome."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONPYCACHEPREFIX", None)  # read the bytecode main() compiled
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "unit.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--spawned-at", repr(spawned_at),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=UNIT_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"unit process exceeded {UNIT_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        outcome = {}
    if proc.returncode != 0 or "units" not in outcome:
        return {"error": outcome.get("error") or f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return outcome


class Ledger:
    """Attempted and failed units, with each unit's first digest as reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}

    def add(self, outcome: dict) -> bool:
        """Count one process's units; ``False`` when the process failed."""
        if "error" in outcome:
            self.attempted += 1
            self.failed += 1
            print(f"FAILED process: {outcome['error']}", file=sys.stderr)
            return False
        for key, unit in outcome["units"].items():
            self.attempted += 1
            problems = list(unit["problems"])
            reference = self.digests.setdefault(key, unit["digest"])
            if unit["digest"] != reference:
                problems.append(f"digest {unit['digest']} != {reference} of an earlier process")
            if problems:
                self.failed += 1
                print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
        return True


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Processes for ``seconds``; returns the ledger, the metrics and the count.

    A process (a plain/traced pair with ``trace``) is started only when a
    median one still fits before the deadline, so a run ends on time.
    """
    ledger = Ledger()
    deadline = time.monotonic() + seconds
    plain: List[dict] = []
    traced: List[dict] = []
    durations: List[float] = []
    while True:
        started = time.monotonic()
        outcome = spawn(workload, seed, False)
        if not ledger.add(outcome):
            break
        plain.append(outcome)
        if trace:
            outcome = spawn(workload, seed, True)
            if not ledger.add(outcome):
                break
            overhead = outcome["wall_s"] / plain[-1]["wall_s"] - 1.0
            outcome["layers"]["trace_overhead_frac"] = overhead
            traced.append(outcome)
        durations.append(time.monotonic() - started)
        if time.monotonic() + statistics.median(durations) > deadline:
            break
    if trace:
        names = traced[0]["layers"] if traced else {}
        metrics = {
            name: statistics.median(outcome["layers"][name] for outcome in traced)
            for name in names
        }
    elif plain:
        metrics = {
            "wall_s": statistics.median(o["wall_s"] for o in plain),
            "sim_requests_per_s": statistics.median(o["requests"] / o["wall_s"] for o in plain),
            "setup_s": statistics.median(o["setup_s"] for o in plain),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in plain),
            "host_wall_s": statistics.median(o["host_wall_s"] for o in plain),
            "host_setup_s": statistics.median(o["host_setup_s"] for o in plain),
        }
    else:
        metrics = {}
    return ledger, metrics, len(plain) + len(traced)


def calibration_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python plus numpy kernel (not gated)."""
    import numpy as np

    matrix = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    values = np.sin(np.arange(200_000, dtype=np.float64))

    def kernel() -> float:
        total = 0
        table = {}
        for index in range(150_000):
            total = (total * 31 + index) % 1_000_003
            table[index & 1023] = total
        product = matrix
        for _ in range(10):
            product = (product @ matrix) / 160.0
        return float(np.sort(values)[-1]) + float(product[0, 0]) + total + len(table)

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_sha() -> Optional[str]:
    """HEAD's commit; ``None`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict:
    code = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        code.update(str(path.relative_to(SRC)).encode())
        code.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "code_sha256": code.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibration_s(),
    }


def main() -> int:
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator source at {SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    # Compile once, in the tree, so that every process imports cached bytecode
    # as an installed package would, whatever PYTHONDONTWRITEBYTECODE says.
    sys.pycache_prefix = None
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    ledger, measured, processes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    missing = sorted(set(declared) - set(measured))
    if missing and ledger.failed == 0:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    fraction = ledger.failed / ledger.attempted
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  processes {processes}")
    for name, unit in declared.items():
        if name in measured:
            print(f"  {name:32s} {measured[name]:>16.6g} {unit}")
    for name in ("host_wall_s", "host_setup_s"):
        if name in measured:
            print(f"  {name:32s} {measured[name]:>16.6g} s (not gated)")
    print(f"  {'failed_fraction':32s} {fraction:>16.6g} ratio")
    print(json.dumps({"provenance": provenance()}))
    result = {
        "correct": ledger.failed == 0 and not missing,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in declared.items()
            if name in measured
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
