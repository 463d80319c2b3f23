"""Where the traced run places its spans, and how spans become metrics.

:func:`install` wraps the public entry points of every layer the
benchmark measures (``eval.sweep``, ``arch``, ``core.schedule``,
``bnn.workload``, ``eval.robustness``, ``eval.shard``, ``eval.columnar``,
``runtime.queue``, ``runtime.store``, ``bnn`` engine/kernels/layers and
``serving``).  :func:`derive` turns the recorded spans plus a workload's own
counters into the per-layer metrics ``BENCHMARK.json`` names; a layer a
workload never calls reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from tracing import Span, Tracer, self_time_by_name

#: store verbs grouped into the five reported families; the other
#: ``QueueStore`` methods count toward ``runtime.store.self_s`` only
STORE_VERBS = {
    "put": ("put", "put_if_absent", "write_lease"),
    "get": ("get", "read_lease"),
    "list": ("list_dir", "list_children", "list_layouts"),
    "move": ("move", "move_read"),
    "delete": ("delete", "remove_tree"),
    "other": ("exists", "object_mtime", "renew_lease", "lease_deadline",
              "init_layout", "is_layout"),
}

QUEUE_FUNCTIONS = ("enqueue_task", "claim_tasks", "run_claimed_batch",
                   "collect_results")

KERNELS = ("fused_conv2d_sign", "fused_matmul_sign", "packed_maxpool2d",
           "inject_bit_flips")

#: span-name prefix of each layer, for the self-time share per layer
LAYER_PREFIXES = ("eval.sweep", "arch", "core", "bnn.workload",
                  "eval.robustness", "eval.shard", "eval.columnar",
                  "runtime.queue", "runtime.store", "bnn.engine",
                  "bnn.xnor_ops", "bnn.layers", "bnn.pipeline", "serving")


def _nbytes(args: tuple, kwargs: dict, result: object) -> Dict[str, object]:
    return {"bytes": int(getattr(args[1], "nbytes", 0))}


def _request_id(args: tuple, kwargs: dict, result: object) -> Dict[str, object]:
    return {"trace_id": getattr(result, "request_id", 0)}


def _batch_stamps(args: tuple, kwargs: dict, result: object
                  ) -> Dict[str, object]:
    stamps = args[1]
    return {
        "rows": len(stamps),
        "max_batch": kwargs.get("max_batch", len(stamps)),
        "waits": [s.flush - s.enqueue for s in stamps],
        "services": [s.complete - s.flush for s in stamps],
    }


def _trigger(args: tuple, kwargs: dict, result: object) -> Dict[str, object]:
    return {"trigger": kwargs.get("trigger", "")}


def _reason(args: tuple, kwargs: dict, result: object) -> Dict[str, object]:
    return {"reason": args[1]}


def install(tracer: Tracer) -> None:
    """Patch every measured layer entry point with ``tracer`` spans.

    Call before building engines and services: compiled plans keep
    references to the kernels they were built with.
    """
    from repro.arch import accelerator, compiler, energy, hierarchy, timing
    from repro.bnn import layers, model, pipeline, workload, xnor_ops
    from repro.core import schedule
    from repro.eval import columnar, robustness, shard, sweep
    from repro.runtime import queue, store
    from repro.serving import metrics, service

    point_counter = iter(range(1 << 62))
    tracer.patch_function(sweep, "evaluate_point", "eval.sweep.evaluate_point",
                          trace_id=lambda a, k: next(point_counter))
    tracer.patch_method(accelerator.AcceleratorModel, "run_inference",
                        "arch.run_inference")
    tracer.patch_function(compiler, "compile_network", "arch.compile_network")
    tracer.patch_method(timing.LatencyModel, "estimate", "arch.timing.estimate")
    tracer.patch_method(energy.EnergyModel, "estimate", "arch.energy.estimate")
    tracer.patch_method(hierarchy.EinsteinBarrierSystem, "allocate",
                        "arch.hierarchy.allocate")
    tracer.patch_function(schedule, "build_layer_schedule", "core.schedule")
    tracer.patch_function(schedule, "build_network_schedule",
                          "core.schedule.network")
    tracer.patch_function(workload, "get_workload",
                          "bnn.workload.get_workload")
    tracer.patch_function(robustness, "popcount_error_rate",
                          "eval.robustness.popcount_error_rate")

    tracer.patch_function(shard, "prepare_sweep", "eval.shard.prepare_sweep")
    tracer.patch_function(shard, "aggregate_sweep", "eval.shard.aggregate_sweep")
    tracer.patch_function(columnar, "task_identity",
                          "eval.columnar.task_identity")
    tracer.patch_method(columnar.ColumnarStore, "append",
                        "eval.columnar.append", attrs=_nbytes)
    tracer.patch_method(columnar.ColumnarStore, "scan", "eval.columnar.scan")
    tracer.patch_method(columnar.ColumnarStore, "published_identities",
                        "eval.columnar.published_identities")
    for fn in QUEUE_FUNCTIONS:
        tracer.patch_function(queue, fn, f"runtime.queue.{fn}")
    for cls in (store.ObjectStore, store.DirStore):
        for verb, methods in STORE_VERBS.items():
            for method in methods:
                tracer.patch_method(cls, method, f"runtime.store.{verb}")

    tracer.patch_method(model.InferenceEngine, "__init__", "bnn.engine.build")
    tracer.patch_method(model.InferenceEngine, "forward_batch",
                        "bnn.engine.forward_batch")
    for fn in KERNELS:
        tracer.patch_function(xnor_ops, fn, f"bnn.xnor_ops.{fn}")
    tracer.patch_method(xnor_ops.PackedTensor, "pack_signs",
                        "bnn.xnor_ops.pack_signs")
    for cls in (layers.Linear, layers.Conv2d, layers.BatchNorm,
                layers.HardTanh):
        tracer.patch_method(cls, "forward", "bnn.layers.dense")
    tracer.patch_method(pipeline.StreamingPipeline, "run", "bnn.pipeline.run",
                        adopt=True)

    tracer.patch_method(service.InferenceService, "submit", "serving.submit",
                        attrs=_request_id)
    tracer.patch_method(metrics.ServingMetrics, "record_batch_done",
                        "serving.flush", attrs=_batch_stamps)
    tracer.patch_method(metrics.ServingMetrics, "record_flush",
                        "serving.flush_trigger", attrs=_trigger)
    tracer.patch_method(metrics.ServingMetrics, "record_reject",
                        "serving.reject", attrs=_reason)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def flush_stats(spans: List[Span]) -> Dict[str, float]:
    """Flushes, their triggers, queue wait, service time and occupancy.

    ``spans`` are the ``serving.flush`` and ``serving.flush_trigger``
    spans of the stretch of serving to describe.
    """
    flushes = [s for s in spans if s.name == "serving.flush"]
    triggers = [s.attrs.get("trigger") for s in spans
                if s.name == "serving.flush_trigger"]
    out = {"serving.flush.calls": float(len(flushes)),
           "serving.flush_triggers.size": float(triggers.count("size")),
           "serving.flush_triggers.deadline": float(triggers.count("deadline"))}
    if not flushes:
        return out
    waits = [w for s in flushes for w in s.attrs["waits"]]
    services = [v for s in flushes for v in s.attrs["services"]]
    out.update({
        "serving.queue_wait_ms.p50": percentile(waits, 50) * 1e3,
        "serving.queue_wait_ms.p99": percentile(waits, 99) * 1e3,
        "serving.service_ms.p50": percentile(services, 50) * 1e3,
        "serving.service_ms.p99": percentile(services, 99) * 1e3,
        "serving.batch_occupancy": sum(
            s.attrs["rows"] / max(s.attrs["max_batch"], 1)
            for s in flushes) / len(flushes),
    })
    return out


def _is_top_store_call(span: Span, names: Mapping[int, str]) -> bool:
    parent = names.get(span.parent) if span.parent is not None else None
    return parent is None or not parent.startswith("runtime.store.")


def derive(spans: Iterable[Span], names: Iterable[str],
           supplied: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every per-layer metric in ``names`` from ``spans`` plus counters.

    ``supplied`` holds figures a workload measured itself; each must be
    one of ``names`` and overrides what the spans give.
    """
    spans = list(spans)
    span_names = {span.span_id: span.name for span in spans}
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    self_s = self_time_by_name(spans)

    out: Dict[str, float] = {name: 0.0 for name in names}
    for name in out:
        stem, _, kind = name.rpartition(".")
        if kind == "calls" and not stem.startswith("runtime.store"):
            out[name] = float(calls.get(stem, 0))
        elif kind == "self_s" and stem in self_s:
            out[name] = self_s[stem]
        elif stem == "serving.rejected":
            out[name] = float(sum(1 for s in spans if s.name == "serving.reject"
                                  and s.attrs.get("reason") == kind))

    points = calls.get("eval.sweep.evaluate_point", 0)
    if points:
        out["eval.sweep.report_hit_ratio"] = \
            1.0 - calls.get("arch.run_inference", 0) / (2.0 * points)
    out["core.schedule.self_s"] = (self_s.get("core.schedule", 0.0)
                                   + self_s.get("core.schedule.network", 0.0))

    store_spans = [s for s in spans if s.name.startswith("runtime.store.")]
    top = [s for s in store_spans if _is_top_store_call(s, span_names)]
    for verb in STORE_VERBS:
        if verb != "other":
            out[f"runtime.store.{verb}.calls"] = float(
                sum(1 for s in top if s.name == f"runtime.store.{verb}"))
    out["runtime.store.self_s"] = sum(
        value for name, value in self_s.items()
        if name.startswith("runtime.store."))
    if points:
        out["runtime.store.ops_per_point"] = len(top) / points
    out["eval.columnar.append.bytes"] = float(sum(
        s.attrs.get("bytes", 0) for s in spans
        if s.name == "eval.columnar.append"))

    out["bnn.autotune.pipeline_on"] = float(calls.get("bnn.pipeline.run", 0) > 0)

    for key, value in (supplied or {}).items():
        if key not in out:
            raise KeyError(f"unknown per-layer metric {key!r}")
        out[key] = float(value)
    return out


def layer_shares(spans: Iterable[Span]) -> Dict[str, float]:
    """Share of all traced self time held by each layer prefix."""
    totals: Dict[str, float] = {}
    for name, value in self_time_by_name(list(spans)).items():
        layer = next((p for p in LAYER_PREFIXES
                      if name == p or name.startswith(p + ".")), "other")
        totals[layer] = totals.get(layer, 0.0) + value
    whole = sum(totals.values()) or 1.0
    return {layer: value / whole for layer, value in sorted(totals.items())}
