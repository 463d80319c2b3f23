"""Kill/resume equivalence for sharded sweeps: the PR's acceptance bar.

A sharded sweep is submitted into a root, real worker subprocesses
(``python -m repro.runtime.queue <root> serve``) drain its ``part-*``
partitions, and the suite SIGKILLs them mid-partition.  Resuming into
the same root must then (a) never re-execute an identity that was
already published at resume time — proven through the execution ledger
of ``_shard_helpers.logged_evaluate_identified_point`` — and (b) finish
with records byte-identical to an uninterrupted serial oracle, at the
per-record pickle level and at the JSON-artifact level.

Parameterised over both queue-storage backends, like every fleet test.

The default grid keeps tier-1 fast; the CI ``sweep-scale`` job exports
``REPRO_SWEEP_SCALE=full`` to run the same scenario at the acceptance
scale (>= 10^4 grid points across >= 8 partitions).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np
import pytest

import _shard_helpers as helpers
from repro.eval import shard
from repro.eval.columnar import RECORD_SCHEMA_VERSION, task_identity
from repro.eval.shard import (
    aggregate_sweep,
    drain_and_aggregate,
    identified_points,
    partition_namespace,
    prepare_sweep,
    run_sharded_sweep,
)
from repro.eval.sweep import (
    SweepGrid,
    SweepResult,
    evaluate_point,
    run_sweep,
    write_sweep_json,
)
from repro.runtime import janitor
from repro.runtime.queue import PART_PREFIX
from repro.runtime.store import STORE_ENV, resolve_store

TESTS_EVAL_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(TESTS_EVAL_DIR)), "src"
)

#: ``REPRO_SWEEP_SCALE=full`` switches to the >= 10^4-point acceptance
#: grid (the CI sweep-scale job); anything else keeps tier-1 quick
SCALE = os.environ.get("REPRO_SWEEP_SCALE", "").strip().lower() == "full"


@pytest.fixture(params=["dir", "object"])
def queue_store(request, monkeypatch):
    """Once per storage backend, fleet-wide via the environment.

    Worker subprocesses inherit ``os.environ``, so exporting
    ``REPRO_RUNTIME_STORE`` steers the submitter and every external
    worker onto the same backend — how an operator moves a real fleet.
    """
    monkeypatch.setenv(STORE_ENV, request.param)
    return request.param


def _resume_grid() -> SweepGrid:
    """The kill/resume grid: 48 points by default, 12 000 under SCALE."""
    if SCALE:
        return SweepGrid(
            networks=("MLP-S",),
            designs=("baseline_epcm", "einsteinbarrier"),
            crossbar_sizes=(64, 128),
            wdm_capacities=(4, 8),
            noise_sigmas=tuple(i / 100 for i in range(10)),
            thermal_sigmas=tuple(i / 50 for i in range(10)),
            shot_factors=tuple(i / 20 for i in range(10)),
            ir_drop_alphas=(0.0, 0.1),
            noise_trials=1,
            noise_vector_length=16,
            noise_num_outputs=4,
            seed=11,
        )
    return SweepGrid(
        networks=("MLP-S",),
        designs=("baseline_epcm", "einsteinbarrier"),
        crossbar_sizes=(64,),
        wdm_capacities=(4,),
        noise_sigmas=(0.0, 0.02, 0.04),
        thermal_sigmas=(0.0, 0.1),
        shot_factors=(0.0, 0.05),
        ir_drop_alphas=(0.0, 0.1),
        noise_trials=1,
        noise_vector_length=16,
        noise_num_outputs=4,
        seed=11,
    )


def _small_grid(crossbar_sizes=(64,)) -> SweepGrid:
    """A cheap grid for the inline (no-subprocess) resume scenarios."""
    return SweepGrid(
        networks=("MLP-S",),
        designs=("baseline_epcm", "einsteinbarrier"),
        crossbar_sizes=crossbar_sizes,
        wdm_capacities=(4, 8),
        noise_sigmas=(0.0, 0.05),
        noise_trials=1,
        noise_vector_length=16,
        noise_num_outputs=4,
        seed=3,
    )


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, TESTS_EVAL_DIR, env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return env


def _start_worker(root, *extra_args):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.queue", root, "serve",
         *extra_args],
        env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for(predicate, timeout_s=120.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("condition not reached within timeout")


def _published_identities_now(root):
    """Everything durably published at this instant: columnar rows plus
    successful results still sitting in leftover partition namespaces
    (the next ``prepare_sweep`` salvages those without re-executing)."""
    backend = resolve_store()
    published = shard.columnar_store(root).published_identities()
    for layout in backend.list_layouts(root, run_prefix=PART_PREFIX):
        if os.path.normpath(layout) == os.path.normpath(root):
            continue
        for _, (ok, payload) in janitor.result_entries(
                layout, store=backend).items():
            if ok:
                published.add(payload[0])
    return published


def _assert_matches_oracle(result, oracle, tmp_path):
    """Byte-identity at the record level and the artifact level.

    Per-record pickle bytes (not one list-level pickle: pickle memoises
    shared strings, so two lists of equal records serialise differently)
    plus the deterministic JSON artifact — the repo's established
    equivalence contract.
    """
    assert len(result.records) == len(oracle.records)
    for got, want in zip(result.records, oracle.records):
        assert pickle.dumps(got) == pickle.dumps(want)
    got_path = str(tmp_path / "sharded.json")
    want_path = str(tmp_path / "oracle.json")
    write_sweep_json(got_path, result)
    write_sweep_json(want_path, oracle)
    with open(got_path, "rb") as handle:
        got_bytes = handle.read()
    with open(want_path, "rb") as handle:
        want_bytes = handle.read()
    assert got_bytes == want_bytes


class TestKillResumeEquivalence:
    def test_sigkilled_fleet_resumes_with_zero_recompute(
            self, tmp_path, queue_store, monkeypatch):
        """SIGKILL workers mid-partition; resume recomputes nothing."""
        grid = _resume_grid()
        points = identified_points(grid)
        partitions = 8
        kill_after = 1500 if SCALE else 8
        if SCALE:
            assert len(points) >= 10_000

        oracle = SweepResult(
            grid=grid,
            records=[evaluate_point(spec) for spec in grid.points()],
        )

        root = str(tmp_path / "sweep")
        phase1_log = str(tmp_path / "phase1.log")
        phase2_log = str(tmp_path / "phase2.log")
        monkeypatch.setenv(helpers.EXEC_LOG_ENV, phase1_log)
        if not SCALE:
            # slow each point down so the kill lands mid-partition
            monkeypatch.setenv(helpers.SLEEP_ENV, "0.04")

        plan = prepare_sweep(
            grid, root, partitions=partitions,
            point_fn=helpers.logged_evaluate_identified_point,
        )
        assert len(plan.partitions) == partitions
        assert plan.skipped == 0 and plan.pending == len(points)

        workers = [
            _start_worker(root, "--watch", "--poll-interval", "0.05",
                          "--lease-seconds", "1.0")
            for _ in range(2)
        ]
        try:
            _wait_for(lambda: len(helpers.read_exec_log(phase1_log))
                      >= kill_after)
            for worker in workers:
                worker.kill()
        finally:
            for worker in workers:
                worker.communicate(timeout=60)

        published_before = _published_identities_now(root)
        assert published_before, "the fleet published nothing before dying"
        assert len(published_before) < len(points), \
            "the kill landed after the sweep already finished"

        monkeypatch.setenv(helpers.EXEC_LOG_ENV, phase2_log)
        monkeypatch.delenv(helpers.SLEEP_ENV, raising=False)
        result = run_sharded_sweep(
            grid, root, partitions=partitions,
            point_fn=helpers.logged_evaluate_identified_point,
            timeout_s=600.0,
        )

        # zero recomputation: nothing published at resume time executed
        # again, and the resume covered exactly the unpublished rest
        executed = set(helpers.read_exec_log(phase2_log))
        assert executed.isdisjoint(published_before)
        assert executed == {identity for identity, _ in points
                            if identity not in published_before}

        _assert_matches_oracle(result, oracle, tmp_path)

        # the partitions retired as they drained and the store is clean
        backend = resolve_store()
        leftovers = [
            layout for layout in
            backend.list_layouts(root, run_prefix=PART_PREFIX)
            if os.path.normpath(layout) != os.path.normpath(root)
        ]
        assert leftovers == []
        report = shard.columnar_store(root).scan()
        assert not report.corrupt and not report.orphans

    def test_resubmitting_a_complete_sweep_enqueues_nothing(
            self, tmp_path, queue_store, monkeypatch):
        """Submitting the same grid into a finished root is a no-op."""
        grid = _small_grid()
        root = str(tmp_path / "sweep")
        first = run_sharded_sweep(grid, root, partitions=4)

        log_path = str(tmp_path / "resubmit.log")
        monkeypatch.setenv(helpers.EXEC_LOG_ENV, log_path)
        plan = prepare_sweep(
            grid, root, partitions=4,
            point_fn=helpers.logged_evaluate_identified_point,
        )
        assert plan.pending == 0
        assert plan.skipped == plan.total_points == len(grid.points())
        again = drain_and_aggregate(root, plan)
        assert helpers.read_exec_log(log_path) == []
        for got, want in zip(again.records, first.records):
            assert pickle.dumps(got) == pickle.dumps(want)

    def test_extended_grid_computes_only_the_new_points(
            self, tmp_path, queue_store, monkeypatch):
        """Growing an axis resumes the sweep instead of restarting it."""
        root = str(tmp_path / "sweep")
        run_sharded_sweep(_small_grid(), root, partitions=4)
        published_before = _published_identities_now(root)

        extended = _small_grid(crossbar_sizes=(64, 128))
        log_path = str(tmp_path / "extend.log")
        monkeypatch.setenv(helpers.EXEC_LOG_ENV, log_path)
        result = run_sharded_sweep(
            extended, root, partitions=4,
            point_fn=helpers.logged_evaluate_identified_point,
        )

        new_identities = {
            identity for identity, _ in identified_points(extended)
            if identity not in published_before
        }
        assert new_identities, "extending the grid added no points"
        assert set(helpers.read_exec_log(log_path)) == new_identities

        oracle = SweepResult(
            grid=extended,
            records=[evaluate_point(spec) for spec in extended.points()],
        )
        _assert_matches_oracle(result, oracle, tmp_path)

    def test_incomplete_sweep_aggregation_names_the_resume_path(
            self, tmp_path, queue_store):
        """Partial roots fail loudly with the resume instruction."""
        grid = _small_grid()
        root = str(tmp_path / "sweep")
        pairs = identified_points(grid)
        store = shard.columnar_store(root)
        from repro.eval.columnar import sweep_records_to_array
        store.append(sweep_records_to_array(
            [(pairs[0][0], evaluate_point(pairs[0][1]))]
        ))
        with pytest.raises(RuntimeError,
                           match="unpublished.*run_sharded_sweep"):
            aggregate_sweep(root, grid)


class TestAggregation:
    """Rows land at their grid position; the first published row wins."""

    @staticmethod
    def _rows(grid):
        return [(identity, evaluate_point(spec))
                for identity, spec in identified_points(grid)]

    @staticmethod
    def _aggregate(tmp_path, grid, segments):
        from repro.eval.columnar import sweep_records_to_array
        root = str(tmp_path / f"sweep-{len(os.listdir(tmp_path))}")
        store = shard.columnar_store(root)
        for rows in segments:
            store.append(sweep_records_to_array(rows))
        return aggregate_sweep(root, grid)

    @staticmethod
    def _assert_records(result, rows):
        assert len(result.records) == len(rows)
        for got, (_, want) in zip(result.records, rows):
            assert pickle.dumps(got) == pickle.dumps(want)

    def test_duplicates_shuffles_and_foreign_rows(self, tmp_path):
        grid = _small_grid()
        rows = self._rows(grid)
        foreign = self._rows(_small_grid(crossbar_sizes=(128,)))
        order = np.random.default_rng(5).permutation(len(rows))
        shuffled = [rows[i] for i in order]
        for segments in (
            [rows],
            [shuffled[:3], shuffled[3:7], shuffled[7:]],
            [rows[5:], rows[:5], rows[2:9]],               # across segments
            [rows[:4] + rows[:4], rows[4:] + rows[-1:]],   # within one
            [foreign[:3], shuffled[::-1], foreign[3:]],    # not in the grid
            [[pair] for pair in shuffled],                 # one row each
        ):
            self._assert_records(self._aggregate(tmp_path, grid, segments),
                                 rows)

    def test_first_published_row_wins(self, tmp_path):
        grid = _small_grid()
        rows = self._rows(grid)
        identity, record = rows[2]
        other = replace(record, latency_s=record.latency_s * 2)
        for segments, kept in (
            ([rows, [(identity, other)]], record),
            ([[(identity, other)], rows], other),
            ([rows[:2] + [(identity, other)] + rows[2:]], other),
        ):
            result = self._aggregate(tmp_path, grid, segments)
            assert result.records[2] == kept

    def test_a_duplicate_never_stands_in_for_a_missing_point(self, tmp_path):
        grid = _small_grid()
        rows = self._rows(grid)
        # as many rows as grid points, one point twice and one never
        with pytest.raises(RuntimeError,
                           match=f"has 1 of {len(rows)} grid points "
                                 "unpublished"):
            self._aggregate(tmp_path, grid, [rows[1:] + rows[1:2]])

    def test_a_grid_listing_a_point_twice_aggregates(self, tmp_path):
        grid = SweepGrid(networks=("MLP-S",), designs=("baseline_epcm",),
                         crossbar_sizes=(64, 128, 64), seed=3)
        result = run_sharded_sweep(grid, str(tmp_path / "sweep"),
                                   partitions=2)
        assert result.records == run_sweep(grid).records
        assert result.records[0] == result.records[2]


class TestPrepareReadsOnce:
    """``prepare_sweep`` reads and checksums each segment once per call."""

    def test_one_read_per_segment_and_damage_quarantined_first(
            self, tmp_path, monkeypatch):
        from repro.eval.columnar import ColumnarStore
        grid = _small_grid()
        root = str(tmp_path / "sweep")
        run_sharded_sweep(grid, root, partitions=4)
        store = shard.columnar_store(root)
        segments = store.segments()
        assert len(segments) == 4
        # tear the last segment and leave an orphan beside the manifest
        torn = os.path.join(store.root, segments[-1].name)
        with open(torn, "rb") as handle:
            blob = handle.read()
        with open(torn, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        orphan = "seg-9999999-deadbeef.npz"
        with open(os.path.join(store.root, orphan), "wb") as handle:
            handle.write(blob)

        reads = []
        real = ColumnarStore._read_verified

        def counting(self, segment):
            reads.append(segment.name)
            return real(self, segment)

        monkeypatch.setattr(ColumnarStore, "_read_verified", counting)
        plan = prepare_sweep(grid, root, partitions=4)
        assert sorted(reads) == sorted(s.name for s in segments)
        assert sorted(os.listdir(os.path.join(store.root, "quarantine"))) \
            == sorted([segments[-1].name, orphan])
        # the torn segment's rows are pending again, nothing else is
        torn_rows = segments[-1].rows
        assert (plan.pending, plan.skipped) \
            == (torn_rows, len(grid.points()) - torn_rows)

        del reads[:]
        again = prepare_sweep(grid, root, partitions=4)
        assert len(reads) == 3 and again.pending == torn_rows
        monkeypatch.undo()
        result = drain_and_aggregate(root, again)
        assert result.records == run_sweep(grid).records


class TestStatus:
    """``python -m repro.eval.shard <root> --status`` is read-only and
    reports the damage a crash mid-append leaves."""

    ARGS = ["--networks", "MLP-S", "--designs", "baseline_epcm",
            "einsteinbarrier", "--crossbar-sizes", "64", "128",
            "--wdm-capacities", "4", "16"]

    def _status(self, root, capsys):
        assert shard.main([root, *self.ARGS, "--status"]) == 0
        return json.loads(capsys.readouterr().out)

    def _sweep(self, tmp_path):
        grid = SweepGrid(networks=("MLP-S",),
                         designs=("baseline_epcm", "einsteinbarrier"),
                         crossbar_sizes=(64, 128), wdm_capacities=(4, 16))
        root = str(tmp_path / "sweep")
        run_sharded_sweep(grid, root, partitions=3)
        return grid, root, shard.columnar_store(root)

    def test_clean_store_reports_everything_published(self, tmp_path, capsys):
        grid, root, store = self._sweep(tmp_path)
        segments = store.segments()
        assert self._status(root, capsys) == {
            "rows": len(grid.points()),
            "segments": len(segments),
            "grid_points": len(grid.points()),
            "pending_points": 0,
            "schema_version": RECORD_SCHEMA_VERSION,
            "scan": {"ok": [s.name for s in segments], "corrupt": [],
                     "orphans": [], "quarantined": []},
        }

    def test_damage_is_listed_and_left_in_place(self, tmp_path, capsys):
        grid, root, store = self._sweep(tmp_path)
        segments = store.segments()
        torn = os.path.join(store.root, segments[-1].name)
        with open(torn, "rb") as handle:
            blob = handle.read()
        with open(torn, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        orphan = "seg-9999999-deadbeef.npz"
        with open(os.path.join(store.root, orphan), "wb") as handle:
            handle.write(blob)
        with open(store.manifest_path, "rb") as handle:
            manifest = handle.read()
        listing = sorted(os.listdir(store.root))

        payload = self._status(root, capsys)
        assert payload["scan"] == {
            "ok": [s.name for s in segments[:-1]],
            "corrupt": [segments[-1].name],
            "orphans": [orphan],
            "quarantined": [],
        }
        # the torn segment's rows are what a resume recomputes
        assert payload["pending_points"] == segments[-1].rows
        assert payload["grid_points"] == len(grid.points())
        with open(store.manifest_path, "rb") as handle:
            assert handle.read() == manifest
        assert sorted(os.listdir(store.root)) == listing


class TestTaskIdentity:
    """Property tests for the content-addressed task identity."""

    def _spec(self):
        return _small_grid().points()[0]

    def test_identity_ignores_mapping_order(self):
        from dataclasses import asdict

        spec = self._spec()
        fields = asdict(spec)
        shuffled = dict(reversed(list(fields.items())))
        assert list(shuffled) != list(fields)
        assert task_identity(fields) == task_identity(shuffled)
        assert task_identity(fields) == task_identity(spec)

    def test_identity_stable_across_processes(self, tmp_path):
        """Same spec, fresh interpreter, adversarial hash seed: same hash.

        ``PYTHONHASHSEED`` is forced to a different value in the child so
        any dependence on dict/set iteration order would show up.
        """
        spec = self._spec()
        spec_path = str(tmp_path / "spec.pkl")
        with open(spec_path, "wb") as handle:
            pickle.dump(spec, handle)
        script = (
            "import pickle, sys\n"
            "from repro.eval.columnar import task_identity\n"
            "with open(sys.argv[1], 'rb') as handle:\n"
            "    spec = pickle.load(handle)\n"
            "print(task_identity(spec))\n"
        )
        env = _worker_env()
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", script, spec_path],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == task_identity(spec)

    def test_identity_distinct_for_every_changed_axis(self):
        from dataclasses import asdict

        spec = self._spec()
        base_fields = asdict(spec)
        base = task_identity(spec)
        seen = {base}
        for name, value in base_fields.items():
            perturbed = dict(base_fields)
            if isinstance(value, bool):  # pragma: no cover - no bool axes
                perturbed[name] = not value
            elif isinstance(value, int):
                perturbed[name] = value + 1
            elif isinstance(value, float):
                perturbed[name] = value + 0.125
            elif isinstance(value, str):
                perturbed[name] = value + "-x"
            else:  # Optional axes currently at None
                perturbed[name] = 1
            changed = task_identity(perturbed)
            assert changed != base, f"changing {name} kept the identity"
            assert changed not in seen, f"{name} collided with another axis"
            seen.add(changed)

    def test_schema_bump_changes_every_identity(self):
        spec = self._spec()
        assert task_identity(spec) == task_identity(
            spec, schema_version=RECORD_SCHEMA_VERSION)
        assert task_identity(spec) != task_identity(
            spec, schema_version=RECORD_SCHEMA_VERSION + 1)

    def test_identity_rejects_non_point_values(self):
        with pytest.raises(TypeError, match="dataclass instance or a map"):
            task_identity(["not", "a", "point"])

    @staticmethod
    def _asdict_identity(point, schema_version=RECORD_SCHEMA_VERSION):
        """The identity's definition: canonical JSON of ``asdict``."""
        from dataclasses import asdict

        blob = json.dumps({"point": asdict(point), "schema": schema_version},
                          sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def test_identity_matches_asdict_reference_off_default_axes(self):
        grid = SweepGrid(
            networks=("MLP-S",),
            designs=("baseline_epcm", "tacitmap_epcm", "einsteinbarrier"),
            crossbar_sizes=(64,),
            wdm_capacities=(4,),
            noise_sigmas=(0.01,),
            thermal_sigmas=(0.02,),
            shot_factors=(0.5,),
            ir_drop_alphas=(0.1,),
            columns_per_adc=(None, 2),
            vcores_per_ecore=(None, 2),
            ecores_per_tile=(None, 2),
            tiles_per_node=(None, 4),
            seed=9,
        )
        pairs = identified_points(grid)
        specs = [spec for _, spec in pairs]
        assert any(spec.columns_per_adc is None for spec in specs)
        assert any(spec.hierarchy == (2, 2, 4) and spec.columns_per_adc == 2
                   for spec in specs)
        for identity, spec in pairs:
            assert identity == self._asdict_identity(spec)
            assert task_identity(spec, schema_version=7) == \
                self._asdict_identity(spec, schema_version=7)

    def test_perfbench_shaped_grid_identities_are_pinned(self):
        """The 516-point sharded benchmark grid hashes as it always has."""
        grid = SweepGrid(
            networks=("MLP-S", "CNN-S"),
            designs=("baseline_epcm", "tacitmap_epcm", "einsteinbarrier"),
            crossbar_sizes=(128, 256),
            wdm_capacities=(1, 4, 16),
            columns_per_adc=(None, 2),
            vcores_per_ecore=(None, 2),
            ecores_per_tile=(None, 2),
            tiles_per_node=(None, 1, 2, 4),
            seed=1,
        )
        identities = [identity for identity, _ in identified_points(grid)]
        assert len(identities) == 516
        assert hashlib.sha256("\n".join(identities).encode()).hexdigest() == (
            "d113d126820f3f0d9dac731ae81b9da3e341e927bbd68fdb1f1e7478da3b9dc1"
        )

    def test_non_scalar_fields_take_the_asdict_route(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Inner:
            sizes: Tuple[int, ...]
            sigma: Optional[float]

        @dataclass(frozen=True)
        class Point:
            name: str
            inner: Inner
            scale: float
            count: int

        point = Point(name="p", inner=Inner(sizes=(1, 2), sigma=None),
                      scale=np.float64(0.5), count=3)
        assert task_identity(point) == self._asdict_identity(point)
        flat = Point(name="p", inner=None, scale=0.5, count=3)
        assert task_identity(flat) == self._asdict_identity(flat)


class TestIdentityPasses:
    """A sharded sweep derives each grid identity once per call."""

    @staticmethod
    def _count_identities(monkeypatch):
        calls = []
        original = shard.task_identity

        def counting(point, **kwargs):
            calls.append(point)
            return original(point, **kwargs)

        monkeypatch.setattr(shard, "task_identity", counting)
        return calls

    def test_each_call_computes_the_grid_identities_once(
            self, tmp_path, monkeypatch):
        grid = _small_grid()
        root = str(tmp_path / "sweep")
        calls = self._count_identities(monkeypatch)
        cold = run_sharded_sweep(grid, root, partitions=2)
        assert len(calls) == len(grid.points())

        del calls[:]
        again = run_sharded_sweep(grid, root, partitions=2)
        assert len(calls) == len(grid.points())

        del calls[:]
        aggregated = aggregate_sweep(root, grid)
        assert len(calls) == len(grid.points())
        for result in (again, aggregated):
            for got, want in zip(result.records, cold.records):
                assert pickle.dumps(got) == pickle.dumps(want)

    def test_mismatched_identities_raise(self, tmp_path):
        grid = _small_grid()
        extended = _small_grid(crossbar_sizes=(64, 128))
        root = str(tmp_path / "sweep")
        run_sharded_sweep(extended, root, partitions=2)
        with pytest.raises(ValueError,
                           match="identified has 6 points but the grid has 12"):
            aggregate_sweep(root, extended,
                            identified=identified_points(grid))
        result = aggregate_sweep(root, extended,
                                 identified=identified_points(extended))
        assert len(result.records) == len(extended.points())


class TestSweepResultBest:
    def test_best_on_empty_records_explains_itself(self):
        result = SweepResult(grid=_small_grid(), records=[])
        with pytest.raises(ValueError) as excinfo:
            result.best()
        message = str(excinfo.value)
        assert "empty SweepResult" in message
        assert "'speedup_vs_baseline'" in message
        assert "columnar" in message  # points at the sharded-sweep store


def test_partition_namespace_layout():
    assert partition_namespace("/mnt/sweep", 3) == "/mnt/sweep/part-0003"
    assert os.path.basename(partition_namespace("", 12)).startswith(
        PART_PREFIX)
