"""Vectorised inference kernels + parallel design-space sweep subsystem.

Two measurements, recorded into ``BENCH_sweep.json`` at the repo root (the
artifact CI uploads per PR):

* the im2col/bit-packed binary convolution kernels against the per-pixel
  loop oracle (:func:`repro.bnn.xnor_ops.binary_conv2d_reference`) on a
  CIFAR-scale layer — the speedup must stay >= 20x;
* the declarative :mod:`repro.eval.sweep` grid runner (network x design x
  crossbar size x WDM capacity) with its memoised schedule/model caches,
  executing through the :mod:`repro.runtime` layer;
* the hierarchy-sizing scenario: VCores/ECore x Tiles/Node provisioning
  axes with the ``nodes_required`` / ``node_utilisation`` metrics;
* the queue-store protocol scenario: per-task fleet-protocol overhead of
  the ``dir`` (POSIX rename) vs ``object`` (S3-style conditional put)
  storage backends, records checked against the serial oracle;
* the sharded-resume scenario: cold :mod:`repro.eval.shard` submission
  (partition planning, columnar fold, tree aggregation) vs resuming an
  interrupted sweep, with the re-executed-published-identity count gated
  at exactly zero.

Repeated kernel timings run through :func:`repro.runtime.measure.measure`,
the same layer the sweeps execute on.

Run with ``pytest benchmarks/bench_sweep.py -s`` (add ``--smoke`` for the
CI-sized configuration).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.bnn.xnor_ops import (
    binary_conv2d,
    binary_conv2d_reference,
    binary_matmul_reference,
    im2col_reference,
)
from repro.core.schedule import clear_schedule_cache, schedule_cache_stats
from repro.eval.reporting import format_sweep_table, host_info, write_json_report
from repro.eval.sweep import SweepGrid, clear_sweep_caches, run_sweep
from repro.runtime import measure
from repro.utils.rng import make_rng

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the checked-in full-run artifact; smoke runs write a sibling file so the
#: CI smoke job never clobbers the committed full-scale measurements
ARTIFACT_PATH = os.path.join(REPO_ROOT, "BENCH_sweep.json")
SMOKE_ARTIFACT_PATH = os.path.join(REPO_ROOT, "BENCH_sweep.smoke.json")


def _random_bipolar(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1, 1).astype(np.int8)


def _time_conv_kernels(smoke: bool) -> dict:
    """Time the loop oracle against the vectorised kernels, exactness-checked."""
    rng = make_rng(0xC1FA)
    if smoke:
        batch, channels, extent = 1, 32, 16
    else:
        # CIFAR-scale hidden layer of CNN-L: 128 -> 128 channels, 3x3, 32x32
        batch, channels, extent = 1, 128, 32
    images = _random_bipolar(rng, (batch, channels, extent, extent))
    kernels = _random_bipolar(rng, (channels, channels, 3, 3))

    start = time.perf_counter()
    reference_out = binary_conv2d_reference(images, kernels, stride=1, padding=1)
    loop_seconds = time.perf_counter() - start

    # the pre-vectorisation implementation this PR actually replaced:
    # loop-based im2col feeding the double-int-matmul match counter
    start = time.perf_counter()
    patches, out_h, out_w = im2col_reference(images, 3, stride=1, padding=1)
    prior_out = binary_matmul_reference(
        patches, kernels.reshape(channels, -1)
    ).reshape(batch, out_h, out_w, channels).transpose(0, 3, 1, 2)
    prior_seconds = time.perf_counter() - start
    assert np.array_equal(prior_out, reference_out)

    results = {
        "layer_shape": {
            "batch": batch, "channels": channels,
            "height": extent, "width": extent, "kernel": 3, "padding": 1,
        },
        "loop_reference_seconds": loop_seconds,
        "prior_implementation_seconds": prior_seconds,
        "kernels": {},
    }
    for kernel_name in ("blas", "packed"):
        out = binary_conv2d(images, kernels, stride=1, padding=1,
                            kernel=kernel_name)
        assert np.array_equal(out, reference_out), kernel_name
        timing = measure(
            lambda: binary_conv2d(images, kernels, stride=1, padding=1,
                                  kernel=kernel_name),
            reps=1 if smoke else 3, label=f"binary_conv2d/{kernel_name}",
        )
        results["kernels"][kernel_name] = {
            "seconds": timing.best,
            "speedup_vs_loop_reference": loop_seconds / timing.best,
            "speedup_vs_prior_implementation": prior_seconds / timing.best,
        }
    return results


def _hierarchy_sizing_sweep(smoke: bool) -> dict:
    """Hierarchy-sizing scenario: provisioning vs node organisation.

    Sweeps VCores/ECore and Tiles/Node (the axes that close the ROADMAP's
    hierarchy-sizing item) on the two PUMA-like designs and reports how the
    node count and VCore utilisation respond — the axis collapses for the
    baseline design, which contributes a single fixed-organisation point.
    """
    grid = SweepGrid(
        networks=("CNN-S",) if smoke else ("CNN-L", "MLP-L"),
        designs=("baseline_epcm", "tacitmap_epcm", "einsteinbarrier"),
        crossbar_sizes=(256,),
        wdm_capacities=(16,),
        vcores_per_ecore=(None, 2) if smoke else (None, 2, 4),
        tiles_per_node=(None, 1) if smoke else (None, 1, 2),
    )
    result = run_sweep(grid)
    # shrinking the node must never *reduce* the nodes required, and the
    # baseline must collapse to exactly one organisation per network
    for network in grid.networks:
        for design in ("tacitmap_epcm", "einsteinbarrier"):
            picks = [r for r in result.records
                     if r.network == network and r.design == design]
            default = next(r for r in picks
                           if (r.vcores_per_ecore, r.tiles_per_node) == (8, 8))
            smallest = min(
                picks, key=lambda r: r.vcores_per_ecore * r.tiles_per_node
            )
            assert smallest.nodes_required >= default.nodes_required
            assert smallest.node_utilisation >= default.node_utilisation
        baseline_points = [r for r in result.records
                           if r.network == network
                           and r.design == "baseline_epcm"]
        assert len(baseline_points) == 1
    return {
        "grid_points": len(result.records),
        "records": [record.to_dict() for record in result.records],
    }


def _queue_fleet_bench(smoke: bool) -> dict:
    """Fleet-protocol scenario: the sweep through the hardened work queue.

    Drives the queue protocol directly — shared-fn publication,
    lease-stamped claims, heartbeat-renewed execution, opportunistic
    result compaction into bundles, bundle-aware collection — over
    **both queue-storage backends** (the POSIX ``dir`` layout and the
    S3-semantics ``object`` store), and checks the records stay
    identical to the in-process serial oracle either way.  The recorded
    overhead-per-task numbers are what a fleet operator pays for
    durability: renames on a shared filesystem vs conditional puts with
    generation tokens.

    Each store is additionally swept over ``tasks_per_claim`` (1 / 4 /
    16): batched leases (PR 8) amortise the claim/lease/release
    round-trips over whole batches, and the per-task overhead reduction
    at 16 vs the classic protocol is the gated win.  ``tasks_per_claim=1``
    doubles as the store-level backwards-compatible numbers.
    """
    import tempfile

    from repro.eval.sweep import evaluate_point
    from repro.runtime import janitor
    from repro.runtime.queue import (
        collect_results,
        enqueue_task,
        init_queue_dirs,
        serve,
        write_shared_fn,
    )
    from repro.runtime.store import make_store
    from repro.runtime.tasks import WorkList

    grid = SweepGrid(
        networks=("MLP-S",) if smoke else ("MLP-S", "CNN-S"),
        crossbar_sizes=(128, 256),
        wdm_capacities=(4, 16),
    )
    specs = grid.points()
    worklist = WorkList.from_items(evaluate_point, specs)
    # warm the memoisation caches so serial vs queue isolates protocol cost
    serial_records = [task.run() for task in worklist]
    start = time.perf_counter()
    serial_records = [task.run() for task in worklist]
    serial_seconds = time.perf_counter() - start

    chunk = 4
    results = {"grid_points": len(specs), "serial_seconds": serial_seconds,
               "compact_chunk": chunk, "stores": {}}
    reps = 3  # median-of-reps absorbs fs/scheduler noise on small runs
    for store_name in ("dir", "object"):
        store = make_store(store_name)
        batches = {}
        for tasks_per_claim in (1, 4, 16):
            timings = []
            for _ in range(reps):
                with tempfile.TemporaryDirectory(
                        prefix=f"repro-bench-queue-{store_name}-") as root:
                    init_queue_dirs(root, store=store)
                    write_shared_fn(root, evaluate_point, store=store)
                    for task in worklist:
                        enqueue_task(root, task, shared_fn=True, store=store)
                    start = time.perf_counter()
                    served = serve(root, compact_threshold=chunk,
                                   tasks_per_claim=tasks_per_claim,
                                   store=store)
                    status = janitor.status(root, store=store)
                    queue_records = collect_results(
                        root, len(specs), timeout_s=120.0,
                        poll_interval_s=0.01, compact_threshold=chunk,
                        store=store,
                    )
                    timings.append(time.perf_counter() - start)
                assert served == len(specs), (store_name, tasks_per_claim)
                assert queue_records == serial_records, (store_name,
                                                         tasks_per_claim)
                assert status["done"] == len(specs) and status["failed"] == 0
                assert status["layouts"]["."]["bundles"] >= 1  # compacted
            queue_seconds = statistics.median(timings)
            batches[str(tasks_per_claim)] = {
                "queue_seconds": queue_seconds,
                "protocol_overhead_ms_per_task":
                    (queue_seconds - serial_seconds) * 1e3 / len(specs),
                "bundles": status["layouts"]["."]["bundles"],
                "reps": reps,
            }
        classic = batches["1"]["protocol_overhead_ms_per_task"]
        batched = batches["16"]["protocol_overhead_ms_per_task"]
        results["stores"][store_name] = {
            # tasks_per_claim=1 doubles as the store-level classic numbers
            # (the shape earlier trend entries ingest)
            "queue_seconds": batches["1"]["queue_seconds"],
            "protocol_overhead_ms_per_task": classic,
            "bundles": batches["1"]["bundles"],
            "tasks_per_claim": batches,
            "batching_overhead_reduction":
                classic / batched if batched > 0 else float("inf"),
        }
    return results


def _identity_log_path():
    return os.environ.get("REPRO_BENCH_SWEEP_EXEC_LOG")


def _logged_evaluate_identified_point(pair):
    """Shared task callable that ledgers each executed identity.

    Module-level so the queue can pickle it by import path; the ledger
    file (one identity per line, O_APPEND) is how the sharded-resume
    scenario *counts* recomputation instead of assuming it away.
    """
    from repro.eval.shard import evaluate_identified_point

    identity, _ = pair
    log_path = _identity_log_path()
    if log_path:
        fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, (identity + "\n").encode("utf-8"))
        finally:
            os.close(fd)
    return evaluate_identified_point(pair)


def _sharded_resume_bench(smoke: bool) -> dict:
    """Sharded-sweep scenario: cold submit vs resume after interruption.

    Runs one grid cold through :func:`repro.eval.shard.run_sharded_sweep`
    (plan -> ``part-*`` queues -> columnar fold -> tree aggregation),
    then stages an interrupted sweep — a *prefix* grid completed into a
    second root — and resumes the full grid there.  The gated numbers
    are the per-record cost of each path and ``recomputed``: how many
    already-published identities the resume executed again, which the
    content-addressed planner must hold at exactly zero.  The summary
    block comes from the streaming columnar reader
    (:func:`repro.eval.reporting.summarise_sweep_stream`), the same path
    ``record_trend.py --columnar`` ingests.
    """
    import tempfile

    from repro.eval import shard
    from repro.eval.columnar import iter_sweep_rows
    from repro.eval.reporting import summarise_sweep_stream

    partitions = 8
    sigmas = tuple(i / 100 for i in range(4 if smoke else 8))
    thermal = (0.0, 0.05) if smoke else (0.0, 0.05, 0.1)
    shot = (0.0,) if smoke else (0.0, 0.05)

    def make_grid(noise_sigmas):
        return SweepGrid(
            networks=("MLP-S",),
            designs=("baseline_epcm", "einsteinbarrier"),
            crossbar_sizes=(128, 256),
            wdm_capacities=(4, 16),
            noise_sigmas=noise_sigmas,
            thermal_sigmas=thermal,
            shot_factors=shot,
            noise_trials=1,
            noise_vector_length=16,
            noise_num_outputs=4,
            seed=17,
        )

    full_grid = make_grid(sigmas)
    partial_grid = make_grid(sigmas[: len(sigmas) // 2])
    total = len(full_grid.points())
    run_sweep(full_grid)  # warm the schedule/model caches

    with tempfile.TemporaryDirectory(prefix="repro-bench-shard-") as root:
        start = time.perf_counter()
        cold = shard.run_sharded_sweep(full_grid, root,
                                       partitions=partitions)
        cold_seconds = time.perf_counter() - start
    assert len(cold.records) == total

    with tempfile.TemporaryDirectory(prefix="repro-bench-resume-") as root:
        # the "interrupted" sweep: a prefix of the grid already published
        shard.run_sharded_sweep(partial_grid, root, partitions=partitions)
        published = shard.columnar_store(root).published_identities()
        log_path = os.path.join(root, "resume-executions.log")
        os.environ["REPRO_BENCH_SWEEP_EXEC_LOG"] = log_path
        try:
            start = time.perf_counter()
            resumed = shard.run_sharded_sweep(
                full_grid, root, partitions=partitions,
                point_fn=_logged_evaluate_identified_point,
            )
            resume_seconds = time.perf_counter() - start
        finally:
            os.environ.pop("REPRO_BENCH_SWEEP_EXEC_LOG", None)
        with open(log_path, "r", encoding="utf-8") as handle:
            executed = [line.strip() for line in handle if line.strip()]
        recomputed = len(published.intersection(executed))
        summary = summarise_sweep_stream(
            record.to_dict()
            for _, record in iter_sweep_rows(shard.columnar_store(root))
        )

    assert resumed.records == cold.records
    assert summary["records"] == total
    return {
        "grid_points": total,
        "partitions": partitions,
        "cold_seconds": cold_seconds,
        "cold_ms_per_record": cold_seconds * 1e3 / total,
        "reused": len(published),
        "resumed_new": len(set(executed)),
        "recomputed": recomputed,
        "resume_seconds": resume_seconds,
        "resume_ms_per_record": resume_seconds * 1e3 / total,
        "stream_summary": summary,
    }


def test_sweep_subsystem(benchmark, smoke):
    """Benchmark the grid runner and record kernel + sweep numbers as JSON."""
    conv = _time_conv_kernels(smoke)
    for kernel_name, numbers in conv["kernels"].items():
        print(
            f"\nbinary_conv2d[{kernel_name}]: {numbers['seconds'] * 1e3:.1f} ms, "
            f"{numbers['speedup_vs_loop_reference']:.0f}x vs per-pixel oracle "
            f"({conv['loop_reference_seconds']:.2f} s), "
            f"{numbers['speedup_vs_prior_implementation']:.1f}x vs prior "
            f"im2col-loop path ({conv['prior_implementation_seconds'] * 1e3:.0f} ms)"
        )
    # acceptance: the vectorised path must beat the per-pixel loop >= 20x on
    # the CIFAR-scale layer (the smoke layer is far smaller, so the loop
    # overhead — and hence the margin — shrinks with it)
    floor = 5.0 if smoke else 20.0
    assert conv["kernels"]["blas"]["speedup_vs_loop_reference"] >= floor
    assert conv["kernels"]["packed"]["speedup_vs_loop_reference"] >= floor

    if smoke:
        grid = SweepGrid(networks=("MLP-S", "CNN-S"),
                         crossbar_sizes=(128, 256), wdm_capacities=(4, 16))
    else:
        grid = SweepGrid(networks=("MLP-S", "MLP-L", "CNN-S", "CNN-L"),
                         crossbar_sizes=(64, 128, 256, 512),
                         wdm_capacities=(1, 4, 16),
                         noise_sigmas=(0.0, 0.02))
    clear_sweep_caches()
    clear_schedule_cache()
    start = time.perf_counter()
    cold = run_sweep(grid)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_sweep(grid)
    warm_seconds = time.perf_counter() - start
    assert warm.records == cold.records
    # pytest-benchmark stats over the warm (fully memoised) path
    benchmark(lambda: run_sweep(grid))

    stats = schedule_cache_stats()
    print(f"\n=== Design-space sweep: {len(cold.records)} grid points ===")
    print(format_sweep_table(record.to_dict() for record in cold.records[:12]))
    print(
        f"cold {cold_seconds * 1e3:.0f} ms, warm {warm_seconds * 1e3:.0f} ms, "
        f"schedule cache: {stats['hits']} hits / {stats['misses']} misses"
    )
    # every layer schedule is built at most once per process; reuse across
    # the cost/hierarchy/area models shows up as cache hits
    assert stats["hits"] >= stats["misses"]
    best = cold.best()
    assert best.design == "einsteinbarrier"
    assert best.speedup_vs_baseline > 1.0

    hierarchy = _hierarchy_sizing_sweep(smoke)
    print(f"\n=== Hierarchy sizing: {hierarchy['grid_points']} grid points ===")
    print(format_sweep_table(hierarchy["records"][:12]))

    fleet = _queue_fleet_bench(smoke)
    print(f"\n=== Queue fleet protocol: {fleet['grid_points']} tasks, "
          f"serial {fleet['serial_seconds'] * 1e3:.0f} ms ===")
    for store_name, numbers in fleet["stores"].items():
        print(f"  {store_name:>6} store: "
              f"{numbers['protocol_overhead_ms_per_task']:.2f} ms/task "
              f"protocol overhead (queue "
              f"{numbers['queue_seconds'] * 1e3:.0f} ms, "
              f"{numbers['bundles']} result bundle(s)); "
              f"tasks_per_claim=16 cuts it "
              f"{numbers['batching_overhead_reduction']:.1f}x to "
              f"{numbers['tasks_per_claim']['16']['protocol_overhead_ms_per_task']:.2f} ms/task")

    sharded = _sharded_resume_bench(smoke)
    print(f"\n=== Sharded resume: {sharded['grid_points']} grid points, "
          f"{sharded['partitions']} partitions ===")
    print(f"  cold  {sharded['cold_ms_per_record']:.2f} ms/record "
          f"({sharded['cold_seconds'] * 1e3:.0f} ms total); "
          f"resume reused {sharded['reused']} published rows, computed "
          f"{sharded['resumed_new']} new at "
          f"{sharded['resume_ms_per_record']:.2f} ms/record, "
          f"recomputed {sharded['recomputed']}")
    # the content-addressed planner must never re-execute a published row
    assert sharded["recomputed"] == 0

    artifact_path = SMOKE_ARTIFACT_PATH if smoke else ARTIFACT_PATH
    write_json_report(artifact_path, {
        "smoke": smoke,
        "host": host_info(),
        "conv_kernel_bench": conv,
        "sweep_grid_points": len(cold.records),
        "sweep_cold_seconds": cold_seconds,
        "sweep_warm_seconds": warm_seconds,
        "schedule_cache": stats,
        "best_point": best.to_dict(),
        "sweep": cold.to_payload(),
        "hierarchy_sweep": hierarchy,
        "queue_fleet_bench": fleet,
        "sharded_resume": sharded,
    })
    print(f"wrote {artifact_path}")
