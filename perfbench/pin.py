"""Regenerate ``pinned.json``: the digests the benchmark checks at its pinned seeds.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only when a change is meant to alter simulated outputs, and say so
in the change.  Seeds 0-31 are pinned for the serving and fleet workloads
(fleet scenario ``i`` of base seed ``s`` runs on ``s + i``); the training
units do not depend on the seed.  Seed 1000 stays unpinned: a performance
claim must also hold there (see ``NOTES.md``).
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

PINNED_SEEDS = range(32)


def main() -> None:
    pinned = {}
    for name, factory in WORKLOADS.items():
        digests = {}
        for seed in PINNED_SEEDS if name != "slimpipe-train" else (0,):
            workload = factory()
            workload.prepare(seed)
            for key, unit in workload.check(workload.simulate()).items():
                if unit.problems:
                    raise SystemExit(f"{key} breaks an oracle: {unit.problems}")
                digests[key] = unit.digest
        pinned[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} units pinned")
    path = Path(__file__).resolve().parent / "pinned.json"
    path.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
