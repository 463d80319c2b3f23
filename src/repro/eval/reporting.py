"""Reporting helpers: plain-text tables and JSON artifacts.

The text formatters serve the benchmarks and examples; the JSON helpers
serialise sweep/benchmark payloads into the artifacts CI uploads per PR so
the performance trajectory stays inspectable over time.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.utils.host import effective_cpus


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], *,
                 float_format: str = "{:.3g}") -> str:
    """Render a list of rows as an aligned plain-text table."""
    headers = [str(h) for h in headers]
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[float], ys: Sequence[float], *,
                  x_label: str = "x", y_label: str = "y") -> str:
    """Render one figure series as labelled (x, y) pairs."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    pairs = ", ".join(f"({x:g}, {y:.4g})" for x, y in zip(xs, ys))
    return f"{name} [{x_label} -> {y_label}]: {pairs}"


def format_ratio_summary(label: str, values: Dict[str, float]) -> str:
    """Render a {name: ratio} mapping as a one-line summary."""
    body = ", ".join(f"{key}={value:.3g}x" for key, value in values.items())
    return f"{label}: {body}"


def host_info() -> Dict[str, object]:
    """Hardware context of a benchmark run: this host's CPU budget.

    Recorded in every ``BENCH_*`` artifact header so performance gates
    can condition their floors on the cores the measuring run actually
    had.  ``effective_cpus`` honours the scheduler affinity mask — the
    number CI containers actually constrain — while ``cpu_count`` is the
    raw host total.
    """
    return {"cpu_count": os.cpu_count() or 1,
            "effective_cpus": effective_cpus()}


def write_json_report(path: str, payload: Mapping[str, object]) -> None:
    """Write ``payload`` to ``path`` as deterministic, human-diffable JSON.

    Keys are sorted and the file ends with a newline so repeated runs with
    identical results produce byte-identical artifacts (the property the
    sweep determinism tests and the CI artifact diffing rely on).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def summarise_sweep_stream(records: Iterable[Mapping[str, object]], *,
                           metric: str = "speedup_vs_baseline"
                           ) -> Dict[str, object]:
    """One-pass summary of a *stream* of sweep records.

    Built for the columnar streaming reader
    (:func:`repro.eval.columnar.iter_sweep_rows` — pass the records as
    dicts): the stream is consumed exactly once, O(1) memory beyond the
    running aggregates, so a 10^7-row store summarises without ever
    materialising the record set.  Returns the record count, the best
    record (by ``metric``), stream means and the axis values seen —
    the fields ``benchmarks/record_trend.py`` and the sharded-sweep
    benchmark publish.
    """
    count = 0
    best: Dict[str, object] = {}
    latency_sum = 0.0
    metric_sum = 0.0
    designs: set = set()
    networks: set = set()
    for record in records:
        count += 1
        value = float(record[metric])  # type: ignore[arg-type]
        metric_sum += value
        latency_sum += float(record["latency_s"])  # type: ignore[arg-type]
        if not best or value > float(best[metric]):  # type: ignore[arg-type]
            best = dict(record)
        designs.add(str(record["design"]))
        networks.add(str(record["network"]))
    return {
        "records": count,
        "metric": metric,
        "best": best or None,
        f"best_{metric}": float(best[metric]) if best else 0.0,
        f"mean_{metric}": metric_sum / count if count else 0.0,
        "mean_latency_s": latency_sum / count if count else 0.0,
        "designs": sorted(designs),
        "networks": sorted(networks),
    }


def format_sweep_table(records: Iterable[Mapping[str, object]]) -> str:
    """Render sweep records (as dicts) as an aligned plain-text table."""
    headers = [
        "network", "design", "size", "K", "noise", "latency[us]",
        "speedup", "energy ratio", "popcount err", "nodes", "util",
    ]
    rows = []
    for record in records:
        noise = record.get("noise_sigma")
        error = record.get("popcount_error")
        utilisation = record.get("node_utilisation")
        rows.append([
            record["network"],
            record["design"],
            int(record["crossbar_size"]),
            int(record["wdm_capacity"]),
            "-" if noise is None else f"{noise:g}",
            float(record["latency_s"]) * 1e6,
            float(record["speedup_vs_baseline"]),
            float(record["energy_ratio_vs_baseline"]),
            "-" if error is None else f"{error:.3g}",
            int(record.get("nodes_required", 1)),
            "-" if utilisation is None else f"{utilisation:.2f}",
        ])
    return format_table(headers, rows)
