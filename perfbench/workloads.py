"""The four benchmark workloads.

Each workload runs in a child process of its own (see ``child.py``):
:meth:`Workload.setup` builds what the program needs before the first
measured operation, :meth:`Workload.run` measures for a time budget and
checks every output against its oracle.  ``run`` returns, per end-to-end
metric, a list of estimates (one per cycle, pass or time window); the
parent reports the median over all of them.

Every cycle of the analytical workloads starts with cold memoisation
caches, as a user's fresh process would.  A traced child runs exactly one
cycle of fixed size, so the span counts of every workload but
``serve_open`` (whose micro-batches depend on timing) repeat exactly from
run to run.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time
from typing import Dict, List

import numpy as np

from checks import (
    array_digest,
    check_arrays_equal,
    check_equal,
    check_headline,
    check_records,
    load_reference,
    records_digest,
)
from probes import flush_stats, percentile
from repro.bnn import workload as bnn_workload
from repro.core.schedule import clear_schedule_cache, schedule_cache_stats
from repro.eval.sweep import SweepGrid, clear_sweep_caches, run_sweep
from repro.runtime.executors import SerialExecutor
from repro.utils.rng import derive_seed

clock = time.perf_counter

#: the memoised workload extractor, captured before any tracer wraps it
_GET_WORKLOAD = bnn_workload.get_workload

DESIGNS = ("baseline_epcm", "tacitmap_epcm", "einsteinbarrier")

#: the paper's analytical evaluation grid: 6 networks x 3 designs x
#: crossbar sizes x WDM capacities x ADC sharing x hierarchy sizing
FULL_GRID = dict(
    networks=("CNN-S", "CNN-M", "CNN-L", "MLP-S", "MLP-M", "MLP-L"),
    designs=DESIGNS, crossbar_sizes=(64, 128, 256, 512),
    wdm_capacities=(1, 4, 16), columns_per_adc=(None, 2),
    vcores_per_ecore=(None, 2, 4), ecores_per_tile=(None, 2, 4),
    tiles_per_node=(None, 1, 2),
)

#: read and thermal noise on top: runs the crossbar popcount simulation
NOISE_SLICE = dict(
    networks=("MLP-S", "CNN-S"), designs=("tacitmap_epcm", "einsteinbarrier"),
    crossbar_sizes=(256,), wdm_capacities=(16,),
    noise_sigmas=(0.002, 0.005, 0.01), thermal_sigmas=(0.0, 0.01),
)

#: the sharded grid; the extend phase adds one crossbar size
SHARD_GRID = dict(
    networks=("MLP-S", "CNN-S"), designs=DESIGNS, crossbar_sizes=(128, 256),
    wdm_capacities=(1, 4, 16), columns_per_adc=(None, 2),
    vcores_per_ecore=(None, 2), ecores_per_tile=(None, 2),
    tiles_per_node=(None, 1, 2, 4),
)
SHARD_EXTRA_SIZE = 512
#: no-op resubmits of a traced run (an untraced run repeats them for its
#: whole budget)
SHARD_TRACED_RESUMES = 8

#: (network, images): each pass makes one ``forward_batch`` call over all
#: of a network's images per mode, in ``BATCH_CHUNK``-row chunks, as the
#: repository's offline callers do
BATCH_NETWORKS = (("CNN-M", 512), ("CNN-L", 64))
BATCH_CHUNK = 32
#: the network whose call latency gives ``latency_ms`` and
#: ``phase2_latency_ms``
BATCH_LATENCY_NETWORK = "CNN-M"
#: images of the noisy canary call checked against ``reference.json``
BATCH_CANARY_IMAGES = 2 * BATCH_CHUNK
BATCH_READ_NOISE = 0.005
MODEL_SEED = 7

SERVE_NETWORK = "MLP-L"
SERVE_POOL = 512
#: fixed open-loop rates.  The ~2,400 req/s burst throughput of a 2-CPU
#: host needs full 32-row batches; at these rates flushes are small and
#: cost nearly as much as full ones, so the engine is already busy most of
#: the time (``serving.engine_busy_ratio`` read 0.89 over both phases)
SERVE_BASE_RPS = 400.0
SERVE_HIGH_RPS = 800.0
#: latency percentiles are taken per window of a phase and the median
#: across windows reported, so one host stall moves one window, not the run
SERVE_WINDOWS = 4
SERVE_WARMUP_S = 1.0
SERVE_BURST = 1000
#: the generator counts as behind when its p99 lateness exceeds this
#: (a few 5 ms interpreter switch intervals: waiting for the lock held by
#: the dispatcher thread is normal, falling further behind is not)
SERVE_LATE_LIMIT_MS = 20.0


def rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_caches() -> None:
    """Empty every memoisation cache of the analytical path (cold start)."""
    clear_sweep_caches()
    clear_schedule_cache()
    _GET_WORKLOAD.cache_clear()


class TimingExecutor(SerialExecutor):
    """Serial executor that records the wall time of every task."""

    def __init__(self) -> None:
        self.latencies: List[float] = []

    def map(self, fn, items):
        out = []
        for item in items:
            start = clock()
            out.append(fn(item))
            self.latencies.append(clock() - start)
        return out

    def take(self) -> List[float]:
        taken, self.latencies = self.latencies, []
        return taken


def fits(start: float, budget_s: float, done: int) -> bool:
    """Whether one more cycle of average length ends within the budget."""
    elapsed = clock() - start
    return elapsed + elapsed / done <= budget_s


def new_estimates() -> Dict[str, List[float]]:
    """Empty estimate lists: the main-phase wall time and every metric."""
    return {k: [] for k in ("main_wall", "items_per_s", "latency_ms",
                            "phase2_latency_ms")}


def median_ms(seconds: List[float]) -> float:
    return percentile(seconds, 50) * 1e3


class Workload:
    """One named workload; subclasses fill in :meth:`setup` and :meth:`run`."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.detail: Dict[str, object] = {}
        self.supplied: Dict[str, float] = {}
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, budget_s: float, traced: bool) -> Dict[str, List[float]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started (threads, services)."""

    @contextlib.contextmanager
    def untraced(self):
        """Context in which the tracer (if any) records nothing."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True


# --------------------------------------------------------------------------- #
# sweep_analytic
# --------------------------------------------------------------------------- #

class SweepAnalytic(Workload):
    """Serial ``run_sweep`` over the full analytical grid plus a noise slice."""

    name = "sweep_analytic"

    def setup(self) -> None:
        self.full = SweepGrid(**FULL_GRID, seed=self.seed)
        self.noise = SweepGrid(**NOISE_SLICE, seed=self.seed)
        clear_caches()

    def run(self, budget_s: float, traced: bool) -> Dict[str, List[float]]:
        est = new_estimates()
        timer = TimingExecutor()
        point_ms: Dict[str, List[float]] = {"latency_ms": [],
                                            "phase2_latency_ms": []}
        start = clock()
        cycles = 0
        while cycles == 0 or (not traced and fits(start, budget_s, cycles)):
            clear_caches()
            begin = clock()
            full = run_sweep(self.full, executor=timer)
            wall = clock() - begin
            full_ms = median_ms(timer.take())
            noise = run_sweep(self.noise, executor=timer)
            noise_ms = median_ms(timer.take())
            if cycles == 0:
                stats = schedule_cache_stats()
                lookups = stats["hits"] + stats["misses"]
                self.supplied["core.schedule.hit_ratio"] = \
                    stats["hits"] / lookups if lookups else 0.0
            with self.untraced():
                self.check_full(full.records)
            est["main_wall"].append(wall)
            est["items_per_s"].append(len(full.records) / wall)
            point_ms["latency_ms"].append(full_ms)
            point_ms["phase2_latency_ms"].append(noise_ms)
            self.attempted += len(full.records) + len(noise.records)
            cycles += 1
        # a cycle's median point runs wholly in a fast or a ~1.7x slower
        # host regime, in a share that differs from run to run: the mean
        # over cycles moves with that share, a median flips between the two
        for key, values in point_ms.items():
            est[key].append(statistics.fmean(values))
        self.peak_rss_mb = rss_mb()
        with self.untraced():
            self.check(noise)
        self.detail.update(cycles=cycles, points=len(full.records),
                           noise_points=len(noise.records))
        return est

    def check_full(self, records) -> None:
        """Every record of the full grid, by digest (seed-independent)."""
        check_equal("full grid digest", records_digest(records),
                    load_reference()["sweep_analytic"]["full_grid_digest"])

    def check(self, noise) -> None:
        """The noise slice and the paper's headline numbers."""
        from repro.eval.experiments import headline_numbers

        ref = load_reference()["sweep_analytic"]
        check_records("noise slice vs warm re-run", noise.records,
                      run_sweep(self.noise).records)
        canary = run_sweep(SweepGrid(**NOISE_SLICE, seed=0))
        check_equal("noise slice digest at seed 0",
                    records_digest(canary.records), ref["noise_canary_digest"])
        headline = headline_numbers()
        check_headline(headline, ref["headline"])
        self.detail["headline"] = headline


# --------------------------------------------------------------------------- #
# sweep_sharded
# --------------------------------------------------------------------------- #

#: completion stamps of the sharded point callable (same process: the
#: inline queue worker runs tasks in the submitting process)
_COMPLETIONS: List[float] = []
_FAILURES: List[str] = []


def timed_identified_point(pair):
    """The sharded sweep's point callable, stamping each completion."""
    from repro.eval.shard import evaluate_identified_point

    try:
        result = evaluate_identified_point(pair)
    except Exception as exc:
        _FAILURES.append(repr(exc))
        raise
    _COMPLETIONS.append(clock())
    return result


def _gaps(start: float, stamps: List[float]) -> List[float]:
    """Per-task service time of a serial drain: gaps between completions."""
    points = [start] + sorted(stamps)
    return [b - a for a, b in zip(points, points[1:])]


class SweepSharded(Workload):
    """``run_sharded_sweep`` on the object store: cold, extend, no-op resume.

    The cold submit and the extend (the write path: enqueue, claim,
    publish, columnar append) run once per child and are traced, but give
    no end-to-end metric: on shared hosts the kernel's file-system cost
    swings up to 3x over minutes, far beyond any usable bound.  The
    end-to-end metrics time the read path: the no-op resubmit of the
    finished grid (identity scan, skip, aggregate) and the aggregation
    alone.
    """

    name = "sweep_sharded"

    def setup(self) -> None:
        self.cold = SweepGrid(**SHARD_GRID, seed=self.seed)
        sizes = SHARD_GRID["crossbar_sizes"] + (SHARD_EXTRA_SIZE,)
        self.extended = SweepGrid(**dict(SHARD_GRID, crossbar_sizes=sizes),
                                  seed=self.seed)
        self.root = os.path.join(self.workdir, f"sharded-{os.getpid()}")

    def close(self) -> None:
        shutil.rmtree(getattr(self, "root", ""), ignore_errors=True)

    def _phase(self, grid):
        from repro.eval.shard import run_sharded_sweep

        del _COMPLETIONS[:]
        start = clock()
        result = run_sharded_sweep(grid, self.root, store="object",
                                   point_fn=timed_identified_point)
        return result, clock() - start, _gaps(start, _COMPLETIONS)

    def run(self, budget_s: float, traced: bool) -> Dict[str, List[float]]:
        from repro.eval.shard import aggregate_sweep

        clear_caches()
        cold, cold_s, cold_gaps = self._phase(self.cold)
        extended, ext_s, ext_gaps = self._phase(self.extended)
        total = len(self.extended.points())
        resumes: List[float] = []
        aggregates: List[float] = []
        recomputed = 0
        start = clock()
        while len(resumes) < (SHARD_TRACED_RESUMES if traced else 1) or (
                not traced and fits(start, budget_s, len(resumes))):
            resumed, resume_s, resume_gaps = self._phase(self.extended)
            recomputed += len(resume_gaps)
            resumes.append(resume_s)
            begin = clock()
            aggregated = aggregate_sweep(self.root, self.extended)
            aggregates.append(clock() - begin)
        self.attempted += len(cold_gaps) + len(ext_gaps) + len(resumes)
        self.supplied.update({
            "eval.shard.skip_ratio": (total - len(ext_gaps)) / total,
            "eval.shard.recomputed": recomputed,
            "runtime.queue.tasks_failed": len(_FAILURES),
        })
        self.failed += len(_FAILURES)
        self.peak_rss_mb = rss_mb()
        with self.untraced():
            self.check(cold, extended, [resumed, aggregated], recomputed)
        self.detail.update(
            cold_points=len(cold_gaps), extend_points=len(ext_gaps),
            write_points_per_s=(len(cold_gaps) + len(ext_gaps))
            / (cold_s + ext_s),
            write_task_p50_ms=median_ms(cold_gaps + ext_gaps),
            resubmits=len(resumes), resubmit_p50_ms=median_ms(resumes))
        # the fastest of many repeats: a shared host runs this ~0.15 s read
        # path in a fast and a ~1.7x slower regime, in a share that differs
        # from run to run, so a median flips between the two
        return {
            "main_wall": resumes,
            "items_per_s": [total / min(resumes)],
            "latency_ms": [min(resumes) * 1e3],
            "phase2_latency_ms": [min(aggregates) * 1e3],
        }

    def check(self, cold, extended, rereads, recomputed: int) -> None:
        check_equal("points recomputed by a no-op resume", recomputed, 0)
        check_equal("failed sweep tasks", len(_FAILURES), 0)
        ext_oracle = run_sweep(self.extended).records
        check_records("sharded cold vs serial", cold.records,
                      run_sweep(self.cold).records)
        check_records("sharded extend vs serial", extended.records, ext_oracle)
        for reread in rereads:
            check_records("sharded resume vs serial", reread.records,
                          ext_oracle)


# --------------------------------------------------------------------------- #
# batch_infer
# --------------------------------------------------------------------------- #

def _images(network: str, count: int, seed: int) -> np.ndarray:
    from repro.bnn.datasets import load_dataset
    from repro.bnn.networks import dataset_for_network

    data = load_dataset(dataset_for_network(network), train_size=1,
                        test_size=count, seed=seed)
    return data.test_images


def _flip_rate(seed: int):
    from repro.eval.robustness import popcount_flip_rate_fn

    return popcount_flip_rate_fn(read_noise_sigma=BATCH_READ_NOISE,
                                 technology="epcm", num_outputs=16, trials=4,
                                 seed=seed)


class BatchInfer(Workload):
    """Offline packed inference, noise-free and with popcount flip noise."""

    name = "batch_infer"

    def setup(self) -> None:
        from repro.bnn.model import InferenceEngine
        from repro.bnn.networks import build_network

        self.models = {}
        self.images = {}
        self.engines = {}
        noise_seed = derive_seed(self.seed, "batch_infer/noise")
        for network, count in BATCH_NETWORKS:
            model = build_network(network, seed=MODEL_SEED)
            model.eval()
            self.models[network] = model
            self.images[network] = _images(
                network, count, derive_seed(self.seed, f"images/{network}"))
            clean = InferenceEngine(model)
            noisy = InferenceEngine(model, flip_rate=_flip_rate(noise_seed),
                                    seed=noise_seed)
            # two tiny chunks: builds the packed weights and starts the
            # pipeline's stage threads once, at little cost
            warm = self.images[network][:4]
            clean.forward_batch(warm, batch_size=2)
            noisy.forward_batch(warm, batch_size=2)
            self.engines[network] = {"clean": clean, "noisy": noisy}

    def _pass(self):
        calls = {}
        outputs = {}
        images = 0
        start = clock()
        for network, _ in BATCH_NETWORKS:
            x = self.images[network]
            for mode in ("clean", "noisy"):
                t = clock()
                outputs[(network, mode)] = self.engines[network][mode] \
                    .forward_batch(x, batch_size=BATCH_CHUNK)
                calls[(network, mode)] = clock() - t
                images += len(x)
        return clock() - start, images, calls, outputs

    def run(self, budget_s: float, traced: bool) -> Dict[str, List[float]]:
        from repro.bnn import autotune

        est = new_estimates()
        first = None
        start = clock()
        passes = 0
        while passes == 0 or (not traced and fits(start, budget_s, passes)):
            wall, images, calls, outputs = self._pass()
            est["main_wall"].append(wall)
            est["items_per_s"].append(images / wall)
            est["latency_ms"].append(
                calls[(BATCH_LATENCY_NETWORK, "clean")] * 1e3)
            est["phase2_latency_ms"].append(
                calls[(BATCH_LATENCY_NETWORK, "noisy")] * 1e3)
            self.attempted += images
            with self.untraced():
                if first is None:
                    first = outputs
                for key, out in outputs.items():
                    check_arrays_equal(f"{key} pass {passes} vs pass 0",
                                       out, first[key])
            passes += 1
        self.supplied.update(self._op_counts(passes))
        self.supplied["bnn.autotune.cache_hit"] = \
            float(autotune.get_params().source == "cache")
        self.peak_rss_mb = rss_mb()
        with self.untraced():
            self.check(first)
        self.detail.update(passes=passes)
        return est

    def _op_counts(self, passes: int) -> Dict[str, float]:
        """XNOR+popcount ops and packed bytes moved, from the layer specs."""
        ops = moved = 0
        for network, count in BATCH_NETWORKS:
            images = 2 * count * passes
            chunks = 2 * -(-count // BATCH_CHUNK) * passes
            for spec in _GET_WORKLOAD(network).binary_layers:
                ops += spec.macs * images
                io_bits = spec.num_input_vectors * (spec.vector_length
                                                    + spec.num_weight_vectors)
                moved += io_bits * images // 8 + spec.weight_bits * chunks // 8
        return {"bnn.xnor_ops.binary_ops": ops,
                "bnn.xnor_ops.bytes_moved": moved}

    def check(self, outputs) -> None:
        self.check_clean(outputs)
        self.check_noisy_canary()

    def check_clean(self, outputs) -> None:
        """Clean logits equal the dense model at identical chunking.

        Checked on a seeded sample of chunks per network: the dense path
        is several times slower than the packed one.
        """
        rng = np.random.default_rng(derive_seed(self.seed, "batch/check"))
        for network, x in self.images.items():
            starts = list(range(0, len(x), BATCH_CHUNK))
            for lo in rng.choice(starts, size=min(2, len(starts)),
                                 replace=False):
                chunk = x[lo:lo + BATCH_CHUNK]
                check_arrays_equal(
                    f"{network} clean logits at rows {lo}+ vs model.forward",
                    outputs[(network, "clean")][lo:lo + BATCH_CHUNK],
                    self.models[network].forward(chunk))

    def check_noisy_canary(self) -> None:
        """Noisy predictions at seed 0 equal the recorded digests."""
        from repro.bnn.model import InferenceEngine

        ref = load_reference()["batch_infer"]
        for network, _ in BATCH_NETWORKS:
            canary = InferenceEngine(self.models[network],
                                     flip_rate=_flip_rate(0), seed=0)
            x = _images(network, BATCH_CANARY_IMAGES, 0)
            preds = canary.forward_batch(x, batch_size=BATCH_CHUNK).argmax(1)
            check_equal(f"{network} noisy predictions digest at seed 0",
                        array_digest(preds), ref[f"noisy_{network}"])


# --------------------------------------------------------------------------- #
# serve_open
# --------------------------------------------------------------------------- #

class _Phase:
    """Outcome of one open-loop phase.

    Completions keep only their time and served argmax: holding every
    future (and its logits row) would grow the heap the interpreter's
    collector walks, adding pauses to the very latencies measured.
    """

    def __init__(self, name: str, rate: float) -> None:
        self.name = name
        self.rate = rate
        self.due: List[float] = []
        self.late: List[float] = []
        self.images: List[int] = []
        self.done: Dict[int, float] = {}
        self.served: Dict[int, int] = {}
        self.errors: List[str] = []
        self.rejected = 0
        self.start = self.end = 0.0

    def stamp(self, index: int, future) -> None:
        self.done[index] = clock()
        if future.exception() is not None:
            self.errors.append(repr(future.exception()))
        else:
            self.served[index] = int(np.argmax(future.result()))


class ServeOpen(Workload):
    """Open-loop Poisson arrivals into an ``InferenceService`` (MLP-L)."""

    name = "serve_open"

    def setup(self) -> None:
        from repro.bnn.model import InferenceEngine
        from repro.bnn.networks import build_network
        from repro.serving.service import InferenceService

        model = build_network(SERVE_NETWORK, seed=MODEL_SEED)
        model.eval()
        pool = _images(SERVE_NETWORK, SERVE_POOL,
                       derive_seed(self.seed, "serve/pool"))
        self.pool = pool.reshape(len(pool), *model.input_shape)
        self.engine = InferenceEngine(model)
        self.service = InferenceService(self.engine, max_batch=32,
                                        max_delay_ms=5.0, queue_capacity=4096)
        self.burst_served: List[List[int]] = []
        with self.untraced():
            for rows in range(1, 33):  # every flush shape the batcher forms
                self.engine.forward_batch(self.pool[:rows], batch_size=rows)
            self._open_loop("warmup", SERVE_BASE_RPS, SERVE_WARMUP_S)

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()

    def _open_loop(self, name: str, rate: float, seconds: float) -> _Phase:
        from repro.serving.admission import RejectedError

        phase = _Phase(name, rate)
        rng = np.random.default_rng(derive_seed(self.seed, f"serve/{name}"))
        count = max(1, int(rate * seconds))
        offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
        images = rng.integers(0, len(self.pool), size=count)
        submit = self.service.submit
        phase.start = base = clock() + 0.002
        for index, (offset, image) in enumerate(zip(offsets, images)):
            due = base + float(offset)
            now = clock()
            if due > now:
                time.sleep(due - now)
            phase.late.append(max(0.0, clock() - due))
            try:
                future = submit(self.pool[image])
            except RejectedError:
                phase.rejected += 1
                continue
            future.add_done_callback(
                lambda f, i=len(phase.due): phase.stamp(i, f))
            phase.due.append(due)
            phase.images.append(int(image))
        deadline = clock() + 60.0
        while len(phase.done) < len(phase.due) and clock() < deadline:
            time.sleep(0.001)
        phase.end = max(phase.done.values(), default=clock())
        return phase

    def _burst(self) -> float:
        """Saturation throughput: submit a burst at once, time its drain."""
        futures = []
        start = clock()
        for k in range(SERVE_BURST):
            futures.append(self.service.submit(self.pool[k % len(self.pool)]))
        for future in futures:
            future.result(timeout=60)
        rps = SERVE_BURST / (clock() - start)
        self.burst_served.append([int(np.argmax(f.result())) for f in futures])
        return rps

    def _windows(self, phase: _Phase) -> Dict[str, List[float]]:
        """p50/p99 latency (from due time) per equal-length time window."""
        span = (phase.due[-1] - phase.start) / SERVE_WINDOWS
        buckets: List[List[float]] = [[] for _ in range(SERVE_WINDOWS)]
        for index, due in enumerate(phase.due):
            slot = min(int((due - phase.start) / span), SERVE_WINDOWS - 1)
            buckets[slot].append(phase.done[index] - due)
        return {q: [percentile(b, float(q[1:])) * 1e3 for b in buckets if b]
                for q in ("p50", "p99")}

    def run(self, budget_s: float, traced: bool) -> Dict[str, List[float]]:
        phase_s = 0.4 * budget_s
        phases, bursts = [], []
        for name, rate in (("base", SERVE_BASE_RPS), ("high", SERVE_HIGH_RPS)):
            # bursts spread over the run, so one host slowdown moves few;
            # the traced figures describe the open-loop phases alone
            with self.untraced():
                bursts += [self._burst() for _ in range(1 if traced else 2)]
                self._open_loop(f"warmup-{name}", rate, SERVE_WARMUP_S)
            phases.append(self._open_loop(name, rate, phase_s))
        base, high = phases
        base_w, high_w = self._windows(base), self._windows(high)
        for prefix, windows in (("load.", base_w), ("load.high.", high_w)):
            self.supplied[f"{prefix}latency_ms.p99"] = \
                statistics.median(windows["p99"])
        self.attempted += sum(len(p.late) for p in phases) \
            + SERVE_BURST * len(bursts)
        self.failed += sum(p.rejected for p in phases)
        self.peak_rss_mb = rss_mb()
        with self.untraced():
            self.check(phases)
        behind = 0
        for phase, prefix in ((base, "load."), (high, "load.high.")):
            late_p99 = percentile(phase.late, 99) * 1e3
            achieved = len(phase.done) / (phase.end - phase.start)
            behind += late_p99 > SERVE_LATE_LIMIT_MS
            self.supplied.update({
                f"{prefix}offered_rps": len(phase.late) / phase_s,
                f"{prefix}achieved_rps": achieved,
                f"{prefix}gen_late_ms.p99": late_p99,
            })
            self.detail[phase.name] = {
                "offered": len(phase.late), "served": len(phase.done),
                "rejected": phase.rejected, "offered_rps": phase.rate,
                "achieved_rps": achieved, "gen_late_p99_ms": late_p99,
                "generator_behind": bool(late_p99 > SERVE_LATE_LIMIT_MS),
            }
        self.supplied["load.gen_behind"] = behind
        if self.tracer is not None:
            # the open-loop phases only: a flush of a warm-up or burst can
            # still be recorded as the tracer is switched back on
            inside = [s for s in self.tracer.spans
                      if any(p.start <= s.start <= p.end for p in phases)]
            busy = sum(s.duration for s in inside
                       if s.name == "bnn.engine.forward_batch")
            self.supplied["serving.engine_busy_ratio"] = busy / sum(
                p.end - p.start for p in phases)
            self.supplied.update(flush_stats(inside))
        self.detail["burst_rps"] = bursts
        return {
            "main_wall": [1.0 / rps for rps in bursts],
            "items_per_s": bursts,
            "latency_ms": base_w["p50"], "phase2_latency_ms": high_w["p50"],
        }

    def check(self, phases) -> None:
        expected = self.engine.forward_batch(self.pool, batch_size=64).argmax(1)
        for phase in phases:
            check_equal(f"{phase.name} failed requests", phase.errors, [])
            check_equal(f"{phase.name} requests served", len(phase.served),
                        len(phase.images))
            for index, image in enumerate(phase.images):
                if phase.served[index] != expected[image]:
                    check_equal(f"{phase.name} served argmax of image {image}",
                                phase.served[index], int(expected[image]))
        burst_expected = [int(expected[k % len(self.pool)])
                          for k in range(SERVE_BURST)]
        for served in self.burst_served:
            check_equal("burst served argmaxes", served, burst_expected)


WORKLOADS = {cls.name: cls for cls in (SweepAnalytic, SweepSharded, BatchInfer,
                                       ServeOpen)}
