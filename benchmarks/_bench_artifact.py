"""Shared machine-readable benchmark artifact writer (``BENCH_*.json``).

The serving, fleet and massive-scale benchmark modules each archive their
recorded rows through one :class:`BenchArtifact` so the artifact format —
output path from an environment variable, the ``{"benchmarks": {...}}``
payload, sorted keys, trailing newline — lives in exactly one place and the
JSON files cannot drift apart.

Nothing is written unless the module's environment variable names a path,
so a plain ``pytest`` run never overwrites the committed ``BENCH_*.json``
baselines.  Refreshing one is explicit, for example::

    BENCH_SERVING_JSON=BENCH_serving.json PYTHONPATH=src \
        python -m pytest benchmarks/test_serving_throughput.py
"""

import json
import os
from pathlib import Path


class BenchArtifact:
    """Accumulates benchmark rows, written as one JSON file at teardown."""

    def __init__(self, env_var: str):
        self.env_var = env_var
        self.results = {}

    def record(self, name: str, row: dict) -> None:
        self.results[name] = row

    def write(self) -> None:
        """Write the rows to ``$<env_var>``; a no-op when it is unset."""
        target = os.environ.get(self.env_var)
        if not target or not self.results:
            return
        Path(target).write_text(
            json.dumps({"benchmarks": self.results}, indent=1, sort_keys=True) + "\n"
        )
