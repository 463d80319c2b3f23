"""Chaos soak: the full sweep grid under continuous, seeded failure.

The acceptance bar of the supervisor/chaos PR: run a complete
``SweepGrid`` through the queue while

* the **supervisor** (not the test) owns every worker process — spawning
  the fleet, restarting each SIGKILLed worker under jittered backoff,
* a **chaos killer** SIGKILLs random live workers on a seeded cadence
  for the whole run, and
* the **storage layer** injects seeded latency spikes, transient I/O
  errors and conditional-verb conflicts into every store the fleet
  resolves (via ``REPRO_RUNTIME_FAULTS``),

and the collected records come out **byte-identical** to the serial
oracle.  Determinism under chaos is the whole point: leases, the
reaper, idempotent publishes and per-primitive retries must conspire so
that a run soaked in failure is indistinguishable — at the artifact
level — from a clean one.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import threading
import time

import pytest

import _fleet_helpers as helpers
from repro.eval.sweep import SweepGrid, evaluate_point
from repro.runtime.faults import FAULTS_ENV, FaultPlan
from repro.runtime.queue import (
    LEASE_ENV,
    MAX_RETRIES_ENV,
    collect_results,
    enqueue_task,
    init_queue_dirs,
)
from repro.runtime.resilience import BackoffPolicy, retry_call
from repro.runtime.store import STORE_ENV
from repro.runtime.supervisor import Supervisor
from repro.runtime.tasks import WorkList

TESTS_RUNTIME_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(TESTS_RUNTIME_DIR)), "src"
)

#: the soak's seeded chaos schedule — storage trouble for every verb the
#: fleet (and this collecting process) performs, plus the kill cadence
SOAK_PLAN = FaultPlan(
    seed=20260808,
    latency={"rate": 0.03, "min_s": 0.001, "max_s": 0.01},
    errors={"rate": 0.02},
    conflicts={"rate": 0.03},
    kill_interval_s=(0.5, 1.2),
)


def _soak_grid() -> SweepGrid:
    # 12 points of 0.3 s each: the drain must outlast at least two ticks
    # of the plan's kill cadence, or the killer lands a single SIGKILL
    return SweepGrid(
        networks=("MLP-S",),
        designs=("baseline_epcm", "einsteinbarrier"),
        crossbar_sizes=(128, 256, 512),
        wdm_capacities=(4,),
        noise_sigmas=(0.0, 0.05),
        noise_trials=2,
        noise_vector_length=32,
        noise_num_outputs=8,
        seed=7,
    )


@pytest.fixture(params=["dir", "object"])
def chaos_env(request, monkeypatch):
    """Fleet-wide chaos configuration, inherited by worker subprocesses.

    * ``REPRO_RUNTIME_STORE`` — run the soak on both backends;
    * ``REPRO_RUNTIME_FAULTS`` — one seeded schedule for every process;
    * ``REPRO_RUNTIME_LEASE_S`` — short leases so a SIGKILLed worker's
      task is reaped in seconds, not minutes;
    * ``REPRO_RUNTIME_MAX_RETRIES`` — effectively unlimited re-queues:
      under continuous kills a task may die many times without being a
      poison pill, and quarantining it would corrupt the oracle check;
    * ``PYTHONPATH`` — workers must import the task helpers by path.
    """
    monkeypatch.setenv(STORE_ENV, request.param)
    monkeypatch.setenv(FAULTS_ENV, SOAK_PLAN.to_json())
    monkeypatch.setenv(LEASE_ENV, "2.0")
    monkeypatch.setenv(MAX_RETRIES_ENV, "1000")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [SRC_DIR, TESTS_RUNTIME_DIR,
         os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    return request.param


class ChaosKiller(threading.Thread):
    """SIGKILL a random live worker on the plan's seeded cadence."""

    def __init__(self, supervisor: Supervisor, stop: threading.Event,
                 seed: int = 99) -> None:
        super().__init__(daemon=True)
        self.supervisor = supervisor
        self.stop_event = stop
        self.rng = random.Random(seed)
        self.kills = 0

    def run(self) -> None:
        while not self.stop_event.is_set():
            delay = SOAK_PLAN.next_kill_delay_s()
            if self.stop_event.wait(delay):
                return
            pids = self.supervisor.worker_pids()
            if not pids:
                continue
            victim = self.rng.choice(pids)
            try:
                os.kill(victim, 9)
            except (OSError, ProcessLookupError):
                continue  # the worker died on its own — still chaos
            self.kills += 1


def test_sweep_survives_continuous_chaos_byte_identical(tmp_path,
                                                        chaos_env):
    grid = _soak_grid()
    specs = grid.points()
    oracle = [evaluate_point(spec) for spec in specs]

    root = str(tmp_path / "queue")
    # the producer runs under the same chaos env as everything else, so
    # its storage calls retry like any fleet member's would
    enqueue_policy = BackoffPolicy(base_delay_s=0.01, max_delay_s=0.1,
                                   max_attempts=20)
    retry_call(lambda: init_queue_dirs(root), policy=enqueue_policy)
    worklist = WorkList.from_items(helpers.slow_evaluate_point, specs)
    for task in worklist.tasks:
        retry_call(lambda: enqueue_task(root, task), policy=enqueue_policy)

    events = []
    events_lock = threading.Lock()

    def emit(event):
        with events_lock:
            events.append(event)

    supervisor = Supervisor(
        root,
        store=chaos_env,
        min_workers=2,
        max_workers=3,
        tasks_per_worker=2,
        poll_interval_s=0.2,
        cooldown_s=0.5,
        lease_s=2.0,
        worker_poll_interval_s=0.1,
        restart_backoff=BackoffPolicy(base_delay_s=0.05, max_delay_s=0.3,
                                      multiplier=3.0),
        max_restarts=10,
        restart_window_s=3.0,
        seed=7,
        emit=emit,
    )
    stop = threading.Event()
    runner = threading.Thread(target=supervisor.run, kwargs={"stop": stop},
                              daemon=True)
    killer = ChaosKiller(supervisor, stop)
    runner.start()
    killer.start()
    try:
        # the *test* never runs a worker: if results arrive, the
        # supervisor's restarts kept real capacity alive under fire
        records = collect_results(
            root, len(specs), timeout_s=420.0, poll_interval_s=0.1,
            max_retries=1000, maintenance_interval_s=0.5,
        )
    finally:
        stop.set()
        killer.join(timeout=10.0)
        runner.join(timeout=60.0)
    assert not runner.is_alive(), "supervisor failed to drain"

    # the chaos actually happened…
    assert killer.kills >= 2, (
        f"killer only landed {killer.kills} SIGKILLs — soak too gentle"
    )
    with events_lock:
        kinds = [e["event"] for e in events]
    assert "restart" in kinds, "supervisor never restarted a worker"
    assert supervisor.summary()["restarts"] >= 1

    # …and left no fingerprints: byte-identical to the serial oracle
    assert json.dumps([r.to_dict() for r in records]) == \
        json.dumps([r.to_dict() for r in oracle])
    for recovered, reference in zip(records, oracle):
        assert pickle.dumps(recovered) == pickle.dumps(reference)


def test_soak_plan_round_trips_through_the_env(chaos_env):
    """The exact schedule the soak exports reproduces from its seed."""
    plan = FaultPlan.from_env()
    assert plan is not None
    assert plan.seed == SOAK_PLAN.seed
    assert plan.to_dict() == SOAK_PLAN.to_dict()


def test_killer_waits_out_an_empty_fleet(tmp_path, chaos_env):
    """The chaos killer never crashes when no workers are up yet."""
    supervisor = Supervisor(str(tmp_path), spawn=lambda name: None,
                            advisory_fn=lambda current: {
                                "desired_workers": 0, "queue_depth": 0,
                                "claimed": 0},
                            max_workers=1)
    stop = threading.Event()
    killer = ChaosKiller(supervisor, stop)
    killer.start()
    time.sleep(0.1)
    stop.set()
    killer.join(timeout=5.0)
    assert not killer.is_alive()
    assert killer.kills == 0
