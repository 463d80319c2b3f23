"""Tests for the declarative design-space sweep subsystem."""

from __future__ import annotations

import json
from dataclasses import replace
from functools import partial

import pytest

from repro.arch import accelerator, hierarchy
from repro.arch.accelerator import AcceleratorModel
from repro.arch.config import AcceleratorConfig, baseline_epcm_config
from repro.arch.hierarchy import EinsteinBarrierSystem
from repro.bnn.networks import build_network, list_networks
from repro.bnn.workload import extract_workload, get_workload
from repro.eval.sweep import (
    DESIGN_FACTORIES,
    AccuracySweepGrid,
    SweepGrid,
    SweepPointSpec,
    clear_sweep_caches,
    evaluate_point,
    get_accelerator_model,
    run_accuracy_sweep,
    run_sweep,
    write_accuracy_sweep_json,
    write_sweep_json,
)
from repro.runtime.executors import BACKEND_ENV, ThreadExecutor
from repro.utils.rng import derive_seed


@pytest.fixture()
def small_grid():
    return SweepGrid(
        networks=("MLP-S",),
        designs=("baseline_epcm", "einsteinbarrier"),
        crossbar_sizes=(128, 256),
        wdm_capacities=(4, 16),
        noise_sigmas=(0.0, 0.05),
        noise_trials=2,
        noise_vector_length=32,
        noise_num_outputs=8,
        seed=42,
    )


class TestSweepGrid:
    def test_wdm_axis_collapses_for_electronic_designs(self, small_grid):
        points = small_grid.points()
        baseline = [p for p in points if p.design == "baseline_epcm"]
        einstein = [p for p in points if p.design == "einsteinbarrier"]
        # baseline: 2 sizes x 2 sigmas at K=1; einstein: 2 sizes x 2 K x 2 sigmas
        assert len(baseline) == 4
        assert all(p.wdm_capacity == 1 for p in baseline)
        assert len(einstein) == 8
        assert {p.wdm_capacity for p in einstein} == {4, 16}

    def test_empty_noise_axis_yields_single_none_sigma(self):
        grid = SweepGrid(networks=("MLP-S",), designs=("baseline_epcm",),
                         crossbar_sizes=(256,))
        points = grid.points()
        assert len(points) == 1
        assert points[0].noise_sigma is None

    def test_sequences_are_normalised_to_tuples(self):
        grid = SweepGrid(networks=["MLP-S"], designs=["baseline_epcm"],
                         crossbar_sizes=[128], wdm_capacities=[4])
        assert grid.networks == ("MLP-S",)
        assert grid.crossbar_sizes == (128,)

    @pytest.mark.parametrize("kwargs", [
        {"networks": ()},
        {"designs": ()},
        {"crossbar_sizes": ()},
        {"wdm_capacities": ()},
        {"designs": ("not_a_design",)},
        {"crossbar_sizes": (1,)},
        {"wdm_capacities": (0,)},
        {"noise_sigmas": (-0.1,)},
        {"noise_sigmas": (1.5,)},
        {"noise_trials": 0},
    ])
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SweepGrid(**kwargs)

    def test_points_are_seeded_distinctly(self, small_grid):
        seeds = [p.seed for p in small_grid.points()]
        assert len(set(seeds)) == len(seeds)

    def test_point_seeds_equal_per_point_derive_seed(self):
        """Every salt suffix: read noise, the dense axes, ADC, hierarchy."""
        grid = SweepGrid(
            networks=("MLP-S", "CNN-S"), designs=tuple(DESIGN_FACTORIES),
            crossbar_sizes=(64, 256), wdm_capacities=(1, 16),
            noise_sigmas=(0.0, 0.01), thermal_sigmas=(0.0, 0.02),
            shot_factors=(0.0, 0.5), ir_drop_alphas=(0.0, 0.1),
            columns_per_adc=(None, 2), vcores_per_ecore=(None, 2),
            ecores_per_tile=(None, 4), tiles_per_node=(None, 1), seed=99,
        )
        points = grid.points()
        suffixes = set()
        for p in points:
            salt = (f"{p.network}/{p.design}/{p.crossbar_size}/"
                    f"{p.wdm_capacity}/{p.noise_sigma}")
            dense = (p.thermal_sigma, p.shot_factor, p.ir_drop_alpha,
                     p.columns_per_adc)
            if dense != (0.0, 0.0, 0.0, None):
                salt += "/{}/{}/{}/{}".format(*dense)
            if p.hierarchy != (None, None, None):
                salt += "/h{}/{}/{}".format(*p.hierarchy)
            suffixes.add((dense != (0.0, 0.0, 0.0, None),
                          p.hierarchy != (None, None, None)))
            assert p.seed == derive_seed(99, salt)
        assert suffixes == {(False, False), (True, False), (False, True),
                            (True, True)}

    def test_points_carry_every_axis_value(self):
        grid = SweepGrid(networks=("MLP-S",), designs=("einsteinbarrier",),
                         crossbar_sizes=(64,), wdm_capacities=(4,),
                         noise_sigmas=(0.01,), thermal_sigmas=(0.02,),
                         shot_factors=(0.5,), ir_drop_alphas=(0.1,),
                         columns_per_adc=(2,), vcores_per_ecore=(3,),
                         ecores_per_tile=(5,), tiles_per_node=(7,),
                         noise_trials=6, noise_vector_length=40,
                         noise_num_outputs=9, seed=4)
        (point,) = grid.points()
        assert point == SweepPointSpec(
            network="MLP-S", design="einsteinbarrier", crossbar_size=64,
            wdm_capacity=4, noise_sigma=0.01, noise_trials=6,
            noise_vector_length=40, noise_num_outputs=9, seed=point.seed,
            columns_per_adc=2, vcores_per_ecore=3, ecores_per_tile=5,
            tiles_per_node=7, thermal_sigma=0.02, shot_factor=0.5,
            ir_drop_alpha=0.1,
        )

    @pytest.mark.parametrize("kwargs", [
        {},
        {"designs": ("baseline_epcm",), "crossbar_sizes": (256,)},
        {"networks": ("MLP-S", "CNN-S"), "crossbar_sizes": (64, 128),
         "wdm_capacities": (1, 4, 16), "noise_sigmas": (0.0, 0.01),
         "thermal_sigmas": (0.0, 0.02), "shot_factors": (0.0, 0.5),
         "ir_drop_alphas": (0.0, 0.1), "columns_per_adc": (None, 2)},
        {"designs": ("baseline_epcm", "tacitmap_epcm", "einsteinbarrier"),
         "columns_per_adc": (None, 2, 4), "vcores_per_ecore": (None, 2),
         "ecores_per_tile": (None, 2), "tiles_per_node": (None, 1, 2, 4)},
    ])
    def test_num_points_counts_the_expansion(self, kwargs):
        grid = SweepGrid(**kwargs)
        assert grid.num_points == len(grid.points())


class TestRunSweep:
    def test_deterministic_across_runs_and_workers(self, small_grid):
        serial = run_sweep(small_grid)
        again = run_sweep(small_grid)
        parallel = run_sweep(small_grid, workers=2)
        assert serial.records == again.records
        assert serial.records == parallel.records

    def test_caches_do_not_change_results(self, small_grid):
        clear_sweep_caches()
        cold = run_sweep(small_grid)
        warm = run_sweep(small_grid)
        assert cold.records == warm.records

    def test_einsteinbarrier_wins_and_baseline_is_unity(self, small_grid):
        result = run_sweep(small_grid)
        for record in result.records:
            if record.design == "baseline_epcm":
                assert record.speedup_vs_baseline == pytest.approx(1.0)
                assert record.energy_ratio_vs_baseline == pytest.approx(1.0)
        best = result.best()
        assert best.design == "einsteinbarrier"
        assert best.speedup_vs_baseline > 1.0

    def test_noise_axis_populates_popcount_error(self, small_grid):
        result = run_sweep(small_grid)
        assert all(r.popcount_error is not None for r in result.records)
        # the swept sigma must actually reach the functional simulation:
        # heavy read noise produces strictly more errors than the ideal point
        for design in small_grid.designs:
            quiet = sum(r.popcount_error for r in result.records
                        if r.design == design and r.noise_sigma == 0.0)
            noisy = sum(r.popcount_error for r in result.records
                        if r.design == design and r.noise_sigma == 0.05)
            assert noisy > quiet, design

    def test_evaluate_point_matches_run_sweep(self, small_grid):
        point = small_grid.points()[0]
        record = evaluate_point(point)
        assert record == run_sweep(small_grid).records[0]


class TestArtifacts:
    def test_json_roundtrip_is_byte_identical(self, small_grid, tmp_path):
        result = run_sweep(small_grid)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        payload = write_sweep_json(str(first), result)
        write_sweep_json(str(second), run_sweep(small_grid, workers=2))
        assert first.read_bytes() == second.read_bytes()
        loaded = json.loads(first.read_text())
        assert loaded == json.loads(json.dumps(payload))
        assert len(loaded["records"]) == len(result.records)
        assert loaded["grid"]["networks"] == ["MLP-S"]


class TestExtendedAxes:
    @pytest.fixture()
    def noisy_grid(self):
        return SweepGrid(
            networks=("MLP-S",),
            designs=("baseline_epcm", "tacitmap_epcm"),
            crossbar_sizes=(128,),
            noise_sigmas=(0.0,),
            thermal_sigmas=(0.0, 0.05),
            shot_factors=(0.0, 0.1),
            ir_drop_alphas=(0.0, 0.2),
            columns_per_adc=(None, 4),
            noise_trials=2,
            noise_vector_length=32,
            noise_num_outputs=8,
            seed=13,
        )

    def test_cartesian_expansion_with_design_collapse(self, noisy_grid):
        points = noisy_grid.points()
        baseline = [p for p in points if p.design == "baseline_epcm"]
        tacitmap = [p for p in points if p.design == "tacitmap_epcm"]
        # baseline: ADC axis collapses -> 1 x 2 x 2 x 2; tacitmap: 2 x 2 x 2 x 2
        assert len(baseline) == 8
        assert all(p.columns_per_adc is None for p in baseline)
        assert len(tacitmap) == 16
        assert {p.columns_per_adc for p in tacitmap} == {None, 4}
        assert len({p.seed for p in points}) == len(points)

    def test_default_axes_keep_pre_extension_seeds(self):
        grid = SweepGrid(networks=("MLP-S",), designs=("baseline_epcm",),
                         crossbar_sizes=(128,), noise_sigmas=(0.05,), seed=21)
        point = grid.points()[0]
        # the salt of an all-default-axes point is the pre-extension format,
        # so grids written before the new axes keep their derived streams
        assert point.seed == derive_seed(21, "MLP-S/baseline_epcm/128/1/0.05")

    def test_records_carry_axis_values_and_resolved_adc(self, noisy_grid):
        result = run_sweep(noisy_grid)
        assert [r.thermal_sigma for r in result.records] \
            == [p.thermal_sigma for p in noisy_grid.points()]
        tacitmap = [r for r in result.records if r.design == "tacitmap_epcm"]
        # None resolves to the tacitmap factory default of 8
        assert {r.columns_per_adc for r in tacitmap} == {4, 8}
        baseline = [r for r in result.records if r.design == "baseline_epcm"]
        assert {r.columns_per_adc for r in baseline} == {1}

    def test_dense_noise_axes_drive_popcount_error(self, noisy_grid):
        result = run_sweep(noisy_grid)
        # read noise axis is 0.0 only, but the dense axes activate the
        # functional simulation for every point
        assert all(r.popcount_error is not None for r in result.records)
        quiet = [r.popcount_error for r in result.records
                 if r.thermal_sigma == 0.0 and r.shot_factor == 0.0
                 and r.ir_drop_alpha == 0.0]
        loud = [r.popcount_error for r in result.records
                if r.thermal_sigma == 0.05 and r.shot_factor == 0.1
                and r.ir_drop_alpha == 0.2]
        assert sum(loud) > sum(quiet)

    def test_ideal_axes_skip_functional_simulation(self):
        grid = SweepGrid(networks=("MLP-S",), designs=("baseline_epcm",),
                         crossbar_sizes=(128,))
        result = run_sweep(grid)
        assert all(r.popcount_error is None for r in result.records)

    def test_deterministic_across_workers_and_json_roundtrip(self, noisy_grid,
                                                             tmp_path):
        serial = run_sweep(noisy_grid)
        parallel = run_sweep(noisy_grid, workers=2)
        assert serial.records == parallel.records
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_sweep_json(str(first), serial)
        write_sweep_json(str(second), parallel)
        assert first.read_bytes() == second.read_bytes()
        loaded = json.loads(first.read_text())
        assert loaded["records"][0].keys() >= {
            "thermal_sigma", "shot_factor", "ir_drop_alpha", "columns_per_adc"
        }

    @pytest.mark.parametrize("kwargs", [
        {"thermal_sigmas": ()},
        {"thermal_sigmas": (-0.1,)},
        {"shot_factors": (-1.0,)},
        {"ir_drop_alphas": (1.0,)},
        {"columns_per_adc": (0,)},
    ])
    def test_invalid_axes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SweepGrid(**kwargs)

    def test_columns_per_adc_reaches_model(self):
        clear_sweep_caches()
        model = get_accelerator_model("tacitmap_epcm", columns_per_adc=4)
        assert model.config.tile.columns_per_adc == 4
        default = get_accelerator_model("tacitmap_epcm")
        assert default.config.tile.columns_per_adc == 8
        assert model is not default
        # baseline has no sharing knob: the override collapses
        collapsed = get_accelerator_model("baseline_epcm", columns_per_adc=4)
        assert collapsed is get_accelerator_model("baseline_epcm")


class TestAccuracySweep:
    @pytest.fixture()
    def accuracy_grid(self):
        return AccuracySweepGrid(
            networks=("MLP-S",),
            read_noise_sigmas=(0.0, 0.02),
            train_epochs=1,
            num_images=48,
            batch_size=24,
            seed=3,
        )

    def test_points_expand_and_share_training_seed(self, accuracy_grid):
        points = accuracy_grid.points()
        assert len(points) == 2
        assert len({p.train_seed for p in points}) == 1
        assert len({p.seed for p in points}) == 2

    def test_deterministic_regardless_of_worker_count(self, accuracy_grid):
        clear_sweep_caches()
        serial = run_accuracy_sweep(accuracy_grid)
        clear_sweep_caches()
        again = run_accuracy_sweep(accuracy_grid)
        parallel = run_accuracy_sweep(accuracy_grid, workers=2)
        assert serial.records == again.records
        assert serial.records == parallel.records

    def test_noise_degrades_accuracy_toward_chance(self, accuracy_grid):
        result = run_accuracy_sweep(accuracy_grid)
        curve = dict(result.curve("MLP-S"))
        assert curve[0.0] > 0.5      # quick training learns the synthetic set
        assert curve[0.02] < curve[0.0]  # garbled columns lose the signal
        noisy_record = [r for r in result.records
                        if r.read_noise_sigma == 0.02][0]
        assert noisy_record.mean_flip_rate > 0.0
        clean_record = [r for r in result.records
                        if r.read_noise_sigma == 0.0][0]
        assert clean_record.mean_flip_rate == 0.0

    def test_json_roundtrip(self, accuracy_grid, tmp_path):
        result = run_accuracy_sweep(accuracy_grid)
        path = tmp_path / "accuracy.json"
        payload = write_accuracy_sweep_json(str(path), result)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(payload))
        assert len(loaded["records"]) == 2
        assert loaded["grid"]["networks"] == ["MLP-S"]

    def test_untrained_evaluation_is_supported(self):
        grid = AccuracySweepGrid(networks=("MLP-S",),
                                 read_noise_sigmas=(0.0,),
                                 train_epochs=0, num_images=16,
                                 batch_size=16)
        result = run_accuracy_sweep(grid)
        assert 0.0 <= result.records[0].accuracy <= 1.0

    @pytest.mark.parametrize("kwargs", [
        {"networks": ()},
        {"technologies": ("tcam",)},
        {"read_noise_sigmas": (2.0,)},
        {"train_epochs": -1},
        {"num_images": 0},
        {"flip_trials": 0},
    ])
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AccuracySweepGrid(**kwargs)


class TestModelCache:
    def test_models_are_shared(self):
        clear_sweep_caches()
        first = get_accelerator_model("einsteinbarrier", crossbar_size=256,
                                      wdm_capacity=16)
        second = get_accelerator_model("einsteinbarrier", crossbar_size=256,
                                       wdm_capacity=16)
        assert first is second

    def test_wdm_ignored_for_electronic_designs(self):
        clear_sweep_caches()
        first = get_accelerator_model("tacitmap_epcm", wdm_capacity=16)
        second = get_accelerator_model("tacitmap_epcm", wdm_capacity=4)
        assert first is second
        assert first.config.wdm_capacity == 1

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            get_accelerator_model("gpu")


class TestRuntimeBackends:
    """run_sweep / run_accuracy_sweep through the unified runtime layer."""

    @pytest.fixture()
    def tiny_grid(self):
        return SweepGrid(
            networks=("MLP-S",),
            designs=("baseline_epcm", "einsteinbarrier"),
            crossbar_sizes=(128,),
            wdm_capacities=(4, 16),
            noise_sigmas=(0.0, 0.05),
            noise_trials=2,
            noise_vector_length=32,
            noise_num_outputs=8,
            seed=11,
        )

    def test_records_byte_identical_across_backends(self, tiny_grid, tmp_path):
        paths = {}
        for backend in ("serial", "thread", "process"):
            result = run_sweep(tiny_grid, backend=backend, workers=2)
            path = tmp_path / f"{backend}.json"
            write_sweep_json(str(path), result)
            paths[backend] = path.read_bytes()
        assert paths["serial"] == paths["thread"] == paths["process"]

    def test_queue_backend_matches_serial(self, tiny_grid):
        serial = run_sweep(tiny_grid)
        queued = run_sweep(tiny_grid, backend="queue")
        assert serial.records == queued.records

    def test_queue_backend_options_thread_through(self, tiny_grid, tmp_path):
        # the fleet-hardening knobs (short lease, tiny compaction chunks)
        # must not perturb the records
        serial = run_sweep(tiny_grid)
        queued = run_sweep(tiny_grid, backend="queue", backend_options={
            "lease_s": 5.0, "max_retries": 1, "compact_threshold": 2,
        })
        assert serial.records == queued.records

    def test_backend_options_rejected_without_backend(self, tiny_grid,
                                                      monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        with pytest.raises(ValueError, match="no backend was resolved"):
            run_sweep(tiny_grid, backend_options={"lease_s": 5.0})

    def test_backend_options_rejected_with_explicit_executor(self, tiny_grid):
        # a pre-built executor carries its own knobs; silently dropping
        # options alongside it would hide misconfiguration
        executor = ThreadExecutor(2)
        with pytest.raises(ValueError, match="cannot be combined"):
            run_sweep(tiny_grid, executor=executor,
                      backend_options={"lease_s": 5.0})
        executor.close()

    def test_caller_owned_executor_is_reused_not_closed(self, tiny_grid):
        executor = ThreadExecutor(2)
        first = run_sweep(tiny_grid, executor=executor)
        second = run_sweep(tiny_grid, executor=executor)
        assert first.records == second.records
        # still usable after the sweeps: run_sweep must not close it
        assert executor.map(len, [[1, 2]]) == [2]
        executor.close()

    def test_env_toggle_selects_backend(self, tiny_grid, monkeypatch):
        serial = run_sweep(tiny_grid)
        monkeypatch.setenv(BACKEND_ENV, "process")
        forced = run_sweep(tiny_grid)
        assert serial.records == forced.records

    def test_accuracy_sweep_backends_match(self):
        grid = AccuracySweepGrid(networks=("MLP-S",),
                                 read_noise_sigmas=(0.0, 0.02),
                                 train_epochs=1, num_images=32,
                                 batch_size=16, seed=5)
        serial = run_accuracy_sweep(grid)
        threaded = run_accuracy_sweep(grid, backend="thread", workers=2)
        processed = run_accuracy_sweep(grid, backend="process", workers=2)
        assert serial.records == threaded.records == processed.records

    def test_invalid_backend_rejected(self, tiny_grid):
        with pytest.raises(ValueError, match="unknown runtime backend"):
            run_sweep(tiny_grid, backend="gpu")


class TestHierarchyAxes:
    @pytest.fixture()
    def hierarchy_grid(self):
        return SweepGrid(
            networks=("MLP-S",),
            designs=("baseline_epcm", "tacitmap_epcm", "einsteinbarrier"),
            crossbar_sizes=(128,),
            wdm_capacities=(4,),
            vcores_per_ecore=(None, 2),
            ecores_per_tile=(None, 4),
            tiles_per_node=(None, 1),
            seed=17,
        )

    def test_axes_collapse_for_the_baseline(self, hierarchy_grid):
        points = hierarchy_grid.points()
        baseline = [p for p in points if p.design == "baseline_epcm"]
        tacitmap = [p for p in points if p.design == "tacitmap_epcm"]
        einstein = [p for p in points if p.design == "einsteinbarrier"]
        assert len(baseline) == 1
        assert baseline[0].hierarchy == (None, None, None)
        # 2 x 2 x 2 hierarchy combinations for the PUMA-like designs
        assert len(tacitmap) == 8
        assert len(einstein) == 8
        assert len({p.seed for p in points}) == len(points)

    def test_default_hierarchy_keeps_pre_extension_seeds(self):
        grid = SweepGrid(networks=("MLP-S",), designs=("einsteinbarrier",),
                         crossbar_sizes=(128,), wdm_capacities=(4,),
                         noise_sigmas=(0.05,), seed=21)
        point = grid.points()[0]
        assert point.seed == derive_seed(21, "MLP-S/einsteinbarrier/128/4/0.05")

    def test_records_resolve_hierarchy_and_provisioning(self, hierarchy_grid):
        result = run_sweep(hierarchy_grid)
        for record in result.records:
            assert record.vcores_required > 0
            assert record.nodes_required >= 1
            assert 0.0 < record.node_utilisation <= 1.0
            provisioned = (record.vcores_per_ecore * record.ecores_per_tile
                           * record.tiles_per_node * record.nodes_required)
            assert record.node_utilisation \
                == pytest.approx(record.vcores_required / provisioned)
        tacitmap = [r for r in result.records if r.design == "tacitmap_epcm"]
        # None components resolve to the factory default of 8
        assert {r.vcores_per_ecore for r in tacitmap} == {2, 8}
        assert {r.ecores_per_tile for r in tacitmap} == {4, 8}
        assert {r.tiles_per_node for r in tacitmap} == {1, 8}

    def test_smaller_nodes_raise_utilisation(self, hierarchy_grid):
        result = run_sweep(hierarchy_grid)
        for design in ("tacitmap_epcm", "einsteinbarrier"):
            picks = [r for r in result.records if r.design == design]
            default = next(r for r in picks if (r.vcores_per_ecore,
                                                r.ecores_per_tile,
                                                r.tiles_per_node) == (8, 8, 8))
            smallest = next(r for r in picks if (r.vcores_per_ecore,
                                                 r.ecores_per_tile,
                                                 r.tiles_per_node) == (2, 4, 1))
            assert smallest.node_utilisation >= default.node_utilisation

    def test_hierarchy_does_not_change_latency_or_energy(self, hierarchy_grid):
        # fresh models per sizing, so the sweep's shared cost cache (which
        # relies on this independence) cannot make the check vacuous
        workload = extract_workload(build_network("MLP-S"))
        for design in ("tacitmap_epcm", "einsteinbarrier"):
            reports = [
                AcceleratorModel(DESIGN_FACTORIES[design](
                    crossbar_size=128, vcores_per_ecore=vpe,
                    ecores_per_tile=ept, tiles_per_node=tpn,
                )).run_inference(workload)
                for vpe, ept, tpn in ((8, 8, 8), (2, 4, 1), (1, 2, 3))
            ]
            assert len({r.latency.total for r in reports}) == 1
            assert len({r.energy.total for r in reports}) == 1
            assert len({r.allocation.nodes_required for r in reports}) > 1

    def test_hierarchy_reaches_model_and_cache_distinguishes(self):
        clear_sweep_caches()
        sized = get_accelerator_model("einsteinbarrier", vcores_per_ecore=2,
                                      tiles_per_node=1)
        default = get_accelerator_model("einsteinbarrier")
        assert sized is not default
        assert sized.config.vcores_per_ecore == 2
        assert sized.config.tiles_per_node == 1
        assert sized.config.ecores_per_tile == 8
        # the baseline has no hierarchy knob: the override collapses
        collapsed = get_accelerator_model("baseline_epcm", vcores_per_ecore=2)
        assert collapsed is get_accelerator_model("baseline_epcm")

    def test_deterministic_across_backends(self, hierarchy_grid):
        serial = run_sweep(hierarchy_grid)
        parallel = run_sweep(hierarchy_grid, workers=2)
        assert serial.records == parallel.records

    @pytest.mark.parametrize("kwargs", [
        {"vcores_per_ecore": ()},
        {"vcores_per_ecore": (0,)},
        {"ecores_per_tile": (-1,)},
        {"tiles_per_node": (0,)},
    ])
    def test_invalid_hierarchy_axes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SweepGrid(**kwargs)


def _fresh_record(record, workloads):
    """``record`` recomputed from fresh models, bypassing every sweep cache."""
    kwargs = {"crossbar_size": record.crossbar_size}
    if record.design != "baseline_epcm":
        kwargs.update(columns_per_adc=record.columns_per_adc,
                      vcores_per_ecore=record.vcores_per_ecore,
                      ecores_per_tile=record.ecores_per_tile,
                      tiles_per_node=record.tiles_per_node)
    if record.design == "einsteinbarrier":
        kwargs["wdm_capacity"] = record.wdm_capacity
    workload = workloads[record.network]
    report = AcceleratorModel(
        DESIGN_FACTORIES[record.design](**kwargs)
    ).run_inference(workload)
    baseline = AcceleratorModel(
        baseline_epcm_config(crossbar_size=record.crossbar_size)
    ).run_inference(workload)
    return replace(
        record,
        latency_s=report.latency.total,
        energy_j=report.energy.total,
        speedup_vs_baseline=baseline.latency.total / report.latency.total,
        energy_ratio_vs_baseline=report.energy.total / baseline.energy.total,
        vcores_required=report.allocation.vcores_required,
        nodes_required=report.allocation.nodes_required,
        node_utilisation=report.allocation.node_utilisation,
    )


class TestCostReuse:
    @pytest.fixture()
    def reuse_grid(self):
        return SweepGrid(
            networks=("MLP-S", "CNN-S"),
            designs=tuple(DESIGN_FACTORIES),
            crossbar_sizes=(128,),
            wdm_capacities=(4, 16),
            columns_per_adc=(None, 2),
            vcores_per_ecore=(None, 2),
            ecores_per_tile=(None, 4),
            tiles_per_node=(None, 1),
            seed=5,
        )

    def test_records_equal_fresh_models(self, reuse_grid):
        clear_sweep_caches()
        workloads = {name: extract_workload(build_network(name))
                     for name in reuse_grid.networks}
        records = run_sweep(reuse_grid).records
        assert len({r.nodes_required for r in records}) > 1
        for record in records:
            assert record == _fresh_record(record, workloads)

    def test_one_compile_per_hierarchy_free_key(self, reuse_grid,
                                                monkeypatch):
        compiled = []
        real = accelerator.compile_network

        def counting(workload, config):
            compiled.append((workload.name, config))
            return real(workload, config)

        monkeypatch.setattr(accelerator, "compile_network", counting)
        points = reuse_grid.points()
        keys = {(p.network, p.design, p.crossbar_size, p.wdm_capacity,
                 p.columns_per_adc) for p in points}
        # 2 networks x (1 baseline + 2 ADC + 2 ADC x 2 WDM) cost keys
        assert len(keys) == 14 < len(points)
        # in-process, so the counter sees every compile whatever the
        # environment's default backend
        clear_sweep_caches()
        first = run_sweep(reuse_grid, backend="serial").records
        assert len(compiled) == len(keys)
        run_sweep(reuse_grid, backend="serial")
        assert len(compiled) == len(keys)
        # a cleared cache compiles again, to the same records
        clear_sweep_caches()
        assert run_sweep(reuse_grid, backend="serial").records == first
        assert len(compiled) == 2 * len(keys)

    def test_sizing_builds_no_model_and_no_schedule(self, reuse_grid,
                                                    monkeypatch):
        inits, schedules, overrides = [], [], []
        real_init = AcceleratorModel.__init__
        real_schedule = hierarchy.build_network_schedule
        real_overrides = AcceleratorConfig.with_overrides

        def counting_init(model, config):
            inits.append(config)
            real_init(model, config)

        def counting_schedule(workload, **kwargs):
            schedules.append(workload.name)
            return real_schedule(workload, **kwargs)

        def counting_overrides(config, **kwargs):
            overrides.append(kwargs)
            return real_overrides(config, **kwargs)

        monkeypatch.setattr(AcceleratorModel, "__init__", counting_init)
        monkeypatch.setattr(hierarchy, "build_network_schedule",
                            counting_schedule)
        monkeypatch.setattr(AcceleratorConfig, "with_overrides",
                            counting_overrides)
        points = reuse_grid.points()
        unsized_keys = {(p.design, p.crossbar_size, p.wdm_capacity,
                         p.columns_per_adc) for p in points}
        cost_keys = {(p.network, p.design, p.crossbar_size, p.wdm_capacity,
                      p.columns_per_adc) for p in points}
        assert (len(unsized_keys), len(cost_keys)) == (7, 14)
        assert any(p.hierarchy != (None, None, None) for p in points)
        expected = (len(unsized_keys), len(cost_keys), 0)

        def counts():
            return len(inits), len(schedules), len(overrides)

        # in-process, so the counters see every call whatever the
        # environment's default backend
        clear_sweep_caches()
        first = run_sweep(reuse_grid, backend="serial").records
        # one model per hierarchy-free key, one network schedule per cost;
        # no sizing builds a config: it is arithmetic on the cost
        assert counts() == expected
        assert run_sweep(reuse_grid, backend="serial").records == first
        assert counts() == expected
        clear_sweep_caches()
        assert run_sweep(reuse_grid, backend="serial").records == first
        assert counts() == tuple(2 * n for n in expected)


#: the hierarchy sizings the equivalence checks cover
SIZINGS = [(1, 1, 1), (2, 4, 1), (3, 5, 7), (8, 8, 8)]
HIERARCHY_FIELDS = ("vcores_per_ecore", "ecores_per_tile", "tiles_per_node")


class TestSizingArithmetic:
    """The sweep provisions each sizing by arithmetic on one cached cost."""

    @pytest.mark.parametrize("design, crossbar_size, wdm_capacity", [
        ("tacitmap_epcm", 64, 1), ("tacitmap_epcm", 256, 1),
        ("einsteinbarrier", 64, 1), ("einsteinbarrier", 64, 16),
        ("einsteinbarrier", 256, 1), ("einsteinbarrier", 256, 16),
    ])
    def test_reprovisioned_allocation_equals_fresh_allocate(
            self, design, crossbar_size, wdm_capacity):
        factory = DESIGN_FACTORIES[design]
        base = {"crossbar_size": crossbar_size}
        if design == "einsteinbarrier":
            base["wdm_capacity"] = wdm_capacity
        # every SIZINGS component, plus None for the factory default
        axes = [(None,) + tuple(sorted({s[i] for s in SIZINGS}))
                for i in range(3)]
        grid = SweepGrid(networks=tuple(list_networks()), designs=(design,),
                         crossbar_sizes=(crossbar_size,),
                         wdm_capacities=(wdm_capacity,),
                         **dict(zip(HIERARCHY_FIELDS, axes)))
        clear_sweep_caches()
        records = run_sweep(grid, backend="serial").records
        assert len(records) == 6 * 5 * 5 * 4
        for spec, record in zip(grid.points(), records):
            sizing = {name: value for name, value
                      in zip(HIERARCHY_FIELDS, spec.hierarchy)
                      if value is not None}
            config = factory(**base, **sizing)
            fresh = EinsteinBarrierSystem(config).allocate(
                get_workload(spec.network))
            assert (record.vcores_per_ecore, record.ecores_per_tile,
                    record.tiles_per_node) == (
                config.vcores_per_ecore, config.ecores_per_tile,
                config.tiles_per_node)
            # exact: the floats must be the ones provision computes
            assert (record.vcores_required, record.nodes_required,
                    record.node_utilisation) == (
                fresh.vcores_required, fresh.nodes_required,
                fresh.node_utilisation)
        assert len({r.nodes_required for r in records}) > 2
        assert any(0.0 < r.node_utilisation < 1.0 for r in records)

    def test_unset_sizing_reads_the_factory_default(self, monkeypatch):
        """``None`` takes each field's own default, however they differ."""
        factory = partial(DESIGN_FACTORIES["tacitmap_epcm"],
                          vcores_per_ecore=2, ecores_per_tile=3,
                          tiles_per_node=5)
        monkeypatch.setitem(DESIGN_FACTORIES, "tacitmap_epcm", factory)
        grid = SweepGrid(networks=("CNN-L",), designs=("tacitmap_epcm",),
                         crossbar_sizes=(64,), vcores_per_ecore=(None, 4),
                         ecores_per_tile=(None, 1), tiles_per_node=(None,))
        clear_sweep_caches()
        try:
            records = run_sweep(grid, backend="serial").records
        finally:
            clear_sweep_caches()
        fresh = [
            EinsteinBarrierSystem(factory(crossbar_size=64, **{
                name: value for name, value
                in zip(HIERARCHY_FIELDS, spec.hierarchy) if value is not None
            })).allocate(get_workload("CNN-L"))
            for spec in grid.points()
        ]
        assert [(r.vcores_per_ecore, r.ecores_per_tile, r.tiles_per_node)
                for r in records] == [(2, 3, 5), (2, 1, 5), (4, 3, 5),
                                      (4, 1, 5)]
        assert [(r.nodes_required, r.node_utilisation) for r in records] \
            == [(f.nodes_required, f.node_utilisation) for f in fresh]

    def test_baseline_sizing_collapses_to_its_factory_default(self):
        spec = SweepGrid(networks=("MLP-S",), designs=("baseline_epcm",),
                         crossbar_sizes=(128,)).points()[0]
        record = evaluate_point(replace(spec, vcores_per_ecore=1,
                                        tiles_per_node=2))
        assert record == evaluate_point(spec)
        assert (record.vcores_per_ecore, record.ecores_per_tile,
                record.tiles_per_node) == (8, 8, 8)

    @pytest.mark.parametrize("sizing", [
        {"vcores_per_ecore": 0}, {"ecores_per_tile": -1},
        {"tiles_per_node": 0},
    ])
    def test_invalid_point_sizing_rejected(self, sizing):
        spec = SweepGrid(networks=("MLP-S",), designs=("einsteinbarrier",),
                         crossbar_sizes=(128,)).points()[0]
        with pytest.raises(ValueError, match="must be >= 1"):
            evaluate_point(replace(spec, **sizing))

    @pytest.mark.parametrize("design", ["tacitmap_epcm", "einsteinbarrier"])
    @pytest.mark.parametrize("crossbar_size", [64, 256])
    @pytest.mark.parametrize("columns_per_adc", [1, 8])
    def test_sizing_override_equals_factory_keywords(
            self, design, crossbar_size, columns_per_adc):
        factory = DESIGN_FACTORIES[design]
        wdm_capacities = (1, 4, 16) if design == "einsteinbarrier" else (None,)
        for wdm_capacity in wdm_capacities:
            base = {"crossbar_size": crossbar_size,
                    "columns_per_adc": columns_per_adc}
            if wdm_capacity is not None:
                base["wdm_capacity"] = wdm_capacity
            for sizing in SIZINGS:
                sizing = dict(zip(HIERARCHY_FIELDS, sizing))
                assert factory(**base, **sizing) \
                    == factory(**base).with_overrides(**sizing)
