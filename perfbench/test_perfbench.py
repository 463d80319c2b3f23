"""Self-tests of the benchmark: span arithmetic, limits, and its checks.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probes  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def span(span_id, start, end, parent=None, name="x"):
    return tracing.Span(span_id, name, start, end, parent, span_id)


# --------------------------------------------------------------------------- #
# span self-time arithmetic
# --------------------------------------------------------------------------- #

def test_union_length_merges_overlaps_and_clips():
    assert tracing.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.union_length([(1, 3), (2, 5), (7, 8)], 2, 7.5) == 3.5
    assert tracing.union_length([(4, 4), (6, 5)], 0, 10) == 0
    assert tracing.union_length([], 0, 10) == 0


def test_self_time_is_duration_minus_child_cover():
    spans = [span(1, 0, 10), span(2, 1, 3, parent=1), span(3, 4, 8, parent=1),
             span(4, 5, 6, parent=3)]
    own = tracing.self_times(spans)
    assert own == {1: 4, 2: 2, 3: 3, 4: 1}
    # self times partition the root interval
    assert sum(own.values()) == 10


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, 0, 10), span(2, 2, 6, parent=1), span(3, 4, 9, parent=1)]
    assert tracing.self_times(spans)[1] == 3


def test_self_time_by_name_sums_spans():
    spans = [span(1, 0, 4, name="a"), span(2, 1, 2, parent=1, name="b"),
             span(3, 5, 7, name="a")]
    assert tracing.self_time_by_name(spans) == {"a": 5, "b": 1}


def test_tracer_records_parent_shared_id_and_attrs():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap(lambda x: x + 1, "inner",
                        attrs=lambda a, k, r: {"result": r})
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer",
                        trace_id=lambda a, k: 42)
    assert outer(1) == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["inner"].trace_id == by_name["outer"].trace_id == 42
    assert by_name["inner"].attrs == {"result": 2}
    own = tracing.self_times(tracer.spans)
    assert own[by_name["outer"].span_id] == 2  # 0..3 minus 1..2
    tracer.enabled = False
    outer(1)
    assert len(tracer.spans) == 2


def test_adopting_span_parents_spans_of_other_threads():
    import threading

    tracer = tracing.Tracer()
    kernel = tracer.wrap(lambda: None, "kernel")
    run = tracer.wrap(lambda: [t.start() or t.join() for t in
                               [threading.Thread(target=kernel)]],
                      "run", adopt=True)
    run()
    kernel()  # after the adopting span closed: a root again
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    inside, outside = by_name["kernel"]
    assert inside.parent == by_name["run"][0].span_id
    assert outside.parent is None


def test_patch_function_reaches_importers_and_restores():
    from repro.eval import robustness, sweep

    original = robustness.popcount_error_rate
    tracer = tracing.Tracer()
    tracer.patch_function(robustness, "popcount_error_rate", "p")
    try:
        assert sweep.popcount_error_rate is not original
        sweep.popcount_error_rate(vector_length=8, num_outputs=2, trials=1,
                                  read_noise_sigma=0.01, rng=0)
        assert [s.name for s in tracer.spans] == ["p"]
    finally:
        tracer.restore()
    assert sweep.popcount_error_rate is original
    assert robustness.popcount_error_rate is original


def test_patch_method_handles_classmethods_and_inherited_methods():
    from repro.bnn.xnor_ops import PackedTensor
    from repro.runtime.store import ObjectStore

    tracer = tracing.Tracer()
    tracer.patch_method(PackedTensor, "pack_signs", "pack")
    tracer.patch_method(ObjectStore, "list_children", "list")
    try:
        PackedTensor.pack_signs(np.ones((2, 8)))
        assert [s.name for s in tracer.spans] == ["pack"]
        assert "list_children" in ObjectStore.__dict__
    finally:
        tracer.restore()
    assert "list_children" not in ObjectStore.__dict__
    assert isinstance(PackedTensor.__dict__["pack_signs"], classmethod)


# --------------------------------------------------------------------------- #
# metric names and count limits
# --------------------------------------------------------------------------- #

def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_meets_its_limits():
    loaded = spec.load(SPEC_PATH)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in loaded[key]]
    assert all(spec.NAME_RE.fullmatch(n) for n in names)
    assert len(loaded["end_to_end"]) <= 16
    assert len(loaded["per_layer"]) <= 128
    assert set(loaded) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}


@pytest.mark.parametrize("mutate", [
    lambda s: s["end_to_end"].extend(
        {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1}
        for i in range(17 - len(s["end_to_end"]))),
    lambda s: s["per_layer"].extend(
        {"name": f"l{i}", "unit": "s", "better": "lower"}
        for i in range(129 - len(s["per_layer"]))),
    lambda s: s["per_layer"][0].update(name="bad name"),
    lambda s: s["per_layer"][0].update(name="x" * 65),
    lambda s: s["per_layer"][0].update(name="_leading"),
    lambda s: s["per_layer"][1].update(name=s["per_layer"][0]["name"]),
    lambda s: s["end_to_end"][0].update(bound=0.3),
    lambda s: s["per_layer"][0].update(unit="m s"),
    lambda s: s["end_to_end"].pop(0),  # drops setup_s
])
def test_spec_limits_are_enforced(mutate):
    broken = load_spec()
    mutate(broken)
    with pytest.raises(spec.SpecError):
        spec.validate(broken)


def test_derive_reports_every_named_metric_and_only_those():
    names = spec.metric_names(load_spec(), trace=True)
    spans = [span(1, 0, 3, name="bnn.engine.forward_batch"),
             span(2, 1, 2, parent=1, name="bnn.xnor_ops.fused_matmul_sign")]
    out = probes.derive(spans, names)
    assert list(out) == names
    assert out["bnn.engine.forward_batch.calls"] == 1
    assert out["bnn.engine.forward_batch.self_s"] == 2
    assert out["bnn.xnor_ops.fused_matmul_sign.self_s"] == 1
    with pytest.raises(KeyError):
        probes.derive(spans, names, {"not.a.metric": 1.0})


def test_flush_stats_counts_only_the_given_spans():
    def flush(span_id, start, rows):
        s = span(span_id, start, start + 1, name="serving.flush")
        s.attrs = {"rows": rows, "max_batch": 4, "waits": [0.001] * rows,
                   "services": [0.002] * rows}
        return s

    def trigger(span_id, kind):
        s = span(span_id, 0, 0, name="serving.flush_trigger")
        s.attrs = {"trigger": kind}
        return s

    out = probes.flush_stats([flush(1, 0, 4), flush(2, 2, 2),
                              trigger(3, "size"), trigger(4, "deadline")])
    assert out["serving.flush.calls"] == 2
    assert out["serving.flush_triggers.size"] == 1
    assert out["serving.flush_triggers.deadline"] == 1
    assert out["serving.batch_occupancy"] == 0.75
    assert out["serving.queue_wait_ms.p99"] == pytest.approx(1.0)


def test_result_line_needs_every_metric():
    loaded = spec.load(SPEC_PATH)
    names = spec.metric_names(loaded, trace=False)
    values = {name: 1.5 for name in names}
    line = spec.result_line(loaded, trace=False, correct=True, attempted=3,
                            failed=0, values=values)
    assert list(line) == list(spec.RESULT_KEYS)
    assert set(line["metrics"]) == set(names)
    del values[names[-1]]
    with pytest.raises(spec.SpecError):
        spec.result_line(loaded, trace=False, correct=True, attempted=3,
                         failed=0, values=values)


# --------------------------------------------------------------------------- #
# every correctness check rejects a perturbed output
# --------------------------------------------------------------------------- #

def nudge(record):
    """The record with its latency moved by one ulp."""
    return dataclasses.replace(
        record, latency_s=float(np.nextafter(record.latency_s, np.inf)))


TINY_GRID = dict(networks=("MLP-S",), designs=("baseline_epcm",
                                               "einsteinbarrier"),
                 crossbar_sizes=(128,), wdm_capacities=(4,))


def test_record_checks_reject_a_one_ulp_change():
    from repro.eval.sweep import SweepGrid, run_sweep

    records = run_sweep(SweepGrid(**TINY_GRID)).records
    perturbed = [nudge(records[0])] + records[1:]
    assert checks.records_digest(perturbed) != checks.records_digest(records)
    checks.check_records("same", records, list(records))
    with pytest.raises(checks.CheckFailed):
        checks.check_records("nudged", perturbed, records)


def test_sweep_analytic_checks_reject_perturbed_records():
    from repro.eval.sweep import SweepGrid, run_sweep

    workload = workloads.SweepAnalytic(0, "")
    workload.noise = SweepGrid(**TINY_GRID)
    records = run_sweep(workload.noise).records
    with pytest.raises(checks.CheckFailed, match="full grid digest"):
        workload.check_full([nudge(records[0])] + records[1:])
    with pytest.raises(checks.CheckFailed, match="noise slice"):
        workload.check(SimpleNamespace(records=[nudge(records[0])]
                                       + records[1:]))


def test_headline_check_rejects_a_changed_number():
    reference = checks.load_reference()["sweep_analytic"]["headline"]
    checks.check_headline(dict(reference), reference)
    changed = dict(reference, tacitmap_max=reference["tacitmap_max"] * (1 + 1e-15))
    with pytest.raises(checks.CheckFailed):
        checks.check_headline(changed, reference)


def test_sweep_sharded_check_rejects_recompute_and_wrong_records():
    from repro.eval.sweep import SweepGrid, run_sweep

    workload = workloads.SweepSharded(0, "")
    workload.cold = SweepGrid(**TINY_GRID)
    workload.extended = SweepGrid(**dict(TINY_GRID, crossbar_sizes=(128, 256)))
    cold = run_sweep(workload.cold)
    extended = run_sweep(workload.extended)
    workload.check(cold, extended, [extended], 0)
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        workload.check(cold, extended, [extended], 1)
    bad = SimpleNamespace(records=[nudge(extended.records[0])]
                          + extended.records[1:])
    with pytest.raises(checks.CheckFailed, match="resume"):
        workload.check(cold, extended, [bad], 0)
    with pytest.raises(checks.CheckFailed, match="extend"):
        workload.check(cold, bad, [extended], 0)


def small_model():
    from repro.bnn.networks import build_network

    model = build_network("MLP-S", seed=1)
    model.eval()
    return model


def test_batch_clean_check_rejects_perturbed_logits():
    from repro.bnn.model import InferenceEngine

    model = small_model()
    x = np.random.default_rng(0).standard_normal(
        (64,) + model.input_shape).astype(np.float32)
    logits = np.concatenate([
        InferenceEngine(model).forward_batch(x[lo:lo + 32], batch_size=32)
        for lo in (0, 32)])
    workload = workloads.BatchInfer(0, "")
    workload.models, workload.images = {"MLP-S": model}, {"MLP-S": x}
    workload.check_clean({("MLP-S", "clean"): logits})
    bad = logits.copy()
    bad[:, 0] = np.nextafter(bad[:, 0], np.inf)
    with pytest.raises(checks.CheckFailed):
        workload.check_clean({("MLP-S", "clean"): bad})


def test_serve_check_rejects_a_wrong_argmax():
    from repro.bnn.model import InferenceEngine

    model = small_model()
    workload = workloads.ServeOpen(0, "")
    workload.engine = InferenceEngine(model)
    workload.burst_served = []
    workload.pool = np.random.default_rng(1).standard_normal(
        (8,) + model.input_shape).astype(np.float32)
    expected = workload.engine.forward_batch(workload.pool, batch_size=64)

    def phase(rows):
        result = workloads._Phase("base", 1.0)
        for index, row in enumerate(rows):
            future = Future()
            future.set_result(row)
            result.images.append(index)
            result.stamp(index, future)
        return result

    workload.check([phase(expected)])
    wrong = expected.copy()
    wrong[3] = -wrong[3]
    with pytest.raises(checks.CheckFailed, match="argmax"):
        workload.check([phase(wrong)])
