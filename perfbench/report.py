"""Metric assembly and failure reports shared by the workloads."""
from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

E2E_UNITS = {
    "setup_s": "s",
    "phase1_s": "s",
    "estpm_s": "s",
    "astpm_s": "s",
    "aps_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, read from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_failures(verdicts) -> None:
    for v in verdicts:
        if not v.ok:
            print(f"FAILED {v.job}: {v.n_failed} check(s) failed", file=sys.stderr)
            for msg in v.errors[:5]:
                print(f"    {msg}", file=sys.stderr)


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def add_overhead(layers: dict, untraced: dict, traced: dict) -> None:
    """Tracing overhead: traced end-to-end seconds minus untraced ones."""
    base = sum(untraced.values())
    layers["trace.overhead_s"] = sum(traced.values()) - base
    layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_s"] / base


def fill_absent(layers: dict) -> None:
    """Layers a workload does not run read 0 (e.g. Spark on a pure workload)."""
    for name in layer_units():
        layers.setdefault(name, 0.0)
