"""``BENCHMARK.json``: loading, the naming and count limits, result shape."""

from __future__ import annotations

import json
import re
from typing import Dict, List

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


class SpecError(ValueError):
    """``BENCHMARK.json`` breaks one of its limits."""


def validate(spec: Dict[str, object]) -> None:
    """Raise :class:`SpecError` unless ``spec`` meets every limit."""
    workloads = spec.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        raise SpecError("2 to 8 workloads required")
    end_to_end = spec.get("end_to_end", [])
    per_layer = spec.get("per_layer", [])
    if not 1 <= len(end_to_end) <= MAX_END_TO_END:
        raise SpecError(f"1 to {MAX_END_TO_END} end-to-end metrics required")
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        raise SpecError(f"1 to {MAX_PER_LAYER} per-layer metrics required")
    seen = set()
    for entry in list(workloads) + list(end_to_end) + list(per_layer):
        name = entry.get("name", "")
        if not NAME_RE.fullmatch(name):
            raise SpecError(f"bad name {name!r}")
        if name in seen:
            raise SpecError(f"name {name!r} used twice")
        seen.add(name)
    for workload in workloads:
        why = workload.get("why", "")
        if set(workload) != {"name", "why"} or not why or len(why) > 200 \
                or "\n" in why:
            raise SpecError(f"workload {workload.get('name')!r}: bad keys or why")
    for metric in list(end_to_end) + list(per_layer):
        if not UNIT_RE.fullmatch(metric.get("unit", "")):
            raise SpecError(f"metric {metric['name']!r}: bad unit")
        if metric.get("better") not in ("higher", "lower"):
            raise SpecError(f"metric {metric['name']!r}: bad direction")
    for metric in end_to_end:
        if set(metric) != {"name", "unit", "better", "bound"}:
            raise SpecError(f"metric {metric['name']!r}: bad keys")
        if not 0 < metric["bound"] <= MAX_BOUND:
            raise SpecError(f"metric {metric['name']!r}: bound out of range")
    for metric in per_layer:
        if set(metric) != {"name", "unit", "better"}:
            raise SpecError(f"metric {metric['name']!r}: bad keys")
    if "setup_s" not in {m["name"] for m in end_to_end}:
        raise SpecError("end-to-end metrics must include setup_s")


def load(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    validate(spec)
    return spec


def metric_names(spec: Dict[str, object], trace: bool) -> List[str]:
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(spec: Dict[str, object], *, trace: bool, correct: bool,
                attempted: int, failed: int,
                values: Dict[str, float]) -> Dict[str, object]:
    """The final result object; ``values`` must hold every metric named."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise SpecError(f"metrics not measured: {missing}")
    return {
        "correct": bool(correct),
        "attempted": max(1, int(attempted)),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in metrics},
    }
