"""The GenAI workload layer: specs, laws, experiments, service, ledger.

Covers the :mod:`repro.workloads.genai` subsystem end to end:

* structured spec validation (the 10+-row boundary table of rejected
  knobs, each with its :class:`~repro.errors.UnitError` message);
* the exact workload laws the invariant registry names (energy linear
  in tokens, inverse in MFU, checkpoint overhead vanishing, serving
  additivity, the crossover metamorphic);
* the grep-enforced confinement of the diurnal sinusoid to
  ``repro.workloads.traces`` (mirroring the PR-2 kWh x intensity gate);
* registration of the four golden experiments and their byte-exact
  round trips through the runner envelope, the ``/footprint`` genai
  queries, and ``ledger show --payload``.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.canonical import canonical_bytes
from repro.energy.devices import A100_TENSOR, V100_TENSOR
from repro.errors import QueryError, UnitError
from repro.experiments.registry import experiment_ids, get_spec, run_experiment
from repro.service import parse_query, render_payload
from repro.testing.invariants import check_result
from repro.workloads.genai import (
    MODEL_INVENTORY,
    GenAIFootprint,
    LifetimeCrossover,
    LLMServingSpec,
    LLMTrainingSpec,
    default_genai_context,
    default_serving_spec,
    inventory_spec,
    kv_cache_gb_per_request,
    lifetime_crossover,
    scale_qps,
    serving_fleet,
    serving_footprint,
    training_footprint,
)
from repro.workloads.traces import diurnal_demand

GENAI_EXPERIMENTS = (
    "ext-genai-inventory",
    "ext-genai-crossover",
    "ext-genai-fleet",
    "ext-genai-checkpoint",
)


def training(**overrides) -> LLMTrainingSpec:
    base = dict(name="t", n_params=7.0e9, n_tokens=1.4e11, n_accelerators=512)
    base.update(overrides)
    return LLMTrainingSpec(**base)


def serving(**overrides) -> LLMServingSpec:
    base = dict(name="s", n_params=7.0e9, peak_qps=100.0, hours=72)
    base.update(overrides)
    return LLMServingSpec(**base)


# ---------------------------------------------------------------------------
# Spec validation: the boundary table
# ---------------------------------------------------------------------------


class TestSpecValidation:
    BOUNDARY_TABLE = [
        # (constructor, overrides, message fragment)
        (training, {"n_params": -1.0}, "parameter 'n_params' must be in (0.0, inf], got -1.0"),
        (training, {"n_tokens": float("nan")}, "parameter 'n_tokens' must be finite, got nan"),
        (training, {"mfu": 0.0}, "parameter 'mfu' must be in (0.0, 1.0], got 0.0"),
        (training, {"mfu": 1.5}, "parameter 'mfu' must be in (0.0, 1.0], got 1.5"),
        (training, {"n_accelerators": 0}, "parameter 'n_accelerators' must be in [1, inf], got 0"),
        (training, {"checkpoint_interval_hours": 0.0},
         "parameter 'checkpoint_interval_hours' must be in (0.0, inf], got 0.0"),
        (training, {"checkpoint_cost_hours": -0.1},
         "parameter 'checkpoint_cost_hours' must be in [0.0, inf], got -0.1"),
        (training, {"mtbf_hours": float("inf")}, "parameter 'mtbf_hours' must be finite, got inf"),
        (training, {"failed_run_fraction": 11.0},
         "parameter 'failed_run_fraction' must be in [0.0, 10.0], got 11.0"),
        (serving, {"peak_qps": 0.0}, "parameter 'peak_qps' must be in (0.0, inf], got 0.0"),
        (serving, {"batch_size": 0}, "parameter 'batch_size' must be in [1, inf], got 0"),
        (serving, {"hours": 0}, "parameter 'hours' must be in [1, inf], got 0"),
        (serving, {"trough_fraction": 0.0},
         "parameter 'trough_fraction' must be in (0.0, 1.0], got 0.0"),
        (serving, {"tokens_per_request": float("-inf")},
         "parameter 'tokens_per_request' must be finite, got -inf"),
        (serving, {"n_params": 4.5e10}, "do not fit"),
        (serving, {"context_tokens": 2.0e5}, "does not fit beside the weights"),
        (serving, {"context_tokens": 5e-324},
         "parameter 'context_tokens' must be in [1.0, inf], got 5e-324"),
        (serving, {"demand_seed": -1}, "parameter 'demand_seed' must be in [0, 4294967295], got -1"),
        (serving, {"batch_size": 2.5}, "parameter 'batch_size' must be an integer, got 2.5"),
        (training, {"mfu": True}, "parameter 'mfu' must be a number, got a boolean"),
    ]

    @pytest.mark.parametrize(
        "factory, overrides, fragment",
        BOUNDARY_TABLE,
        ids=[
            f"{factory.__name__}-{next(iter(overrides))}-{i}"
            for i, (factory, overrides, _) in enumerate(BOUNDARY_TABLE)
        ],
    )
    def test_invalid_knob_is_rejected_with_structured_message(
        self, factory, overrides, fragment
    ):
        with pytest.raises(UnitError, match=re.escape(fragment)):
            factory(**overrides)

    def test_valid_specs_construct(self):
        assert training().n_params == 7.0e9
        assert serving().peak_qps == 100.0

    def test_empty_name_is_rejected(self):
        with pytest.raises(UnitError, match="name must be non-empty"):
            training(name="")
        with pytest.raises(UnitError, match="name must be non-empty"):
            serving(name="")

    def test_inventory_lookup_is_structured(self):
        assert inventory_spec("llm-7b").n_params == 7.0e9
        with pytest.raises(UnitError, match="unknown model"):
            inventory_spec("llm-9000b")

    def test_inventory_is_chinchilla_ordered(self):
        params = [spec.n_params for spec in MODEL_INVENTORY]
        assert params == sorted(params)
        assert len(MODEL_INVENTORY) >= 4


# ---------------------------------------------------------------------------
# Training laws
# ---------------------------------------------------------------------------


class TestTrainingLaws:
    def test_energy_exactly_linear_in_tokens(self):
        spec = training()
        assert replace(spec, n_tokens=spec.n_tokens * 2.0).it_energy.joules == (
            pytest.approx(2.0 * spec.it_energy.joules, rel=1e-12)
        )

    def test_energy_exactly_inverse_in_mfu(self):
        spec = training(mfu=0.5)
        assert replace(spec, mfu=0.25).it_energy.joules == pytest.approx(
            2.0 * spec.it_energy.joules, rel=1e-12
        )

    def test_flops_model_is_six_params_tokens(self):
        spec = training(n_params=1e9, n_tokens=1e10)
        assert spec.total_training_flops == 6.0 * 1e9 * 1e10

    def test_tensor_core_peak_drives_device_hours(self):
        """The same run on V100 tensor cores takes 312/125 x the hours."""
        a100 = training()
        v100 = training(accelerator=V100_TENSOR)
        assert v100.base_accelerator_hours / a100.base_accelerator_hours == (
            pytest.approx(A100_TENSOR.peak_tflops / V100_TENSOR.peak_tflops)
        )

    def test_overhead_multiplier_compounds_restart_and_failed_runs(self):
        spec = training()
        expected = (1.0 + spec.checkpoint_write_overhead
                    + spec.expected_lost_work_fraction) * (
            1.0 + spec.failed_run_fraction
        )
        assert spec.overhead_multiplier == pytest.approx(expected, rel=1e-12)

    def test_checkpoint_overhead_vanishes_with_interval(self):
        spec = training(checkpoint_interval_hours=1e9)
        assert spec.checkpoint_write_overhead <= 1e-9
        assert training().restart_overhead_fraction >= 0.0

    def test_young_daly_interval_minimizes_overhead(self):
        spec = training()
        optimum = spec.optimal_checkpoint_interval_hours
        best = replace(spec, checkpoint_interval_hours=optimum)
        for factor in (0.1, 0.5, 2.0, 10.0):
            other = replace(spec, checkpoint_interval_hours=optimum * factor)
            assert best.restart_overhead_fraction <= other.restart_overhead_fraction

    def test_zero_cost_checkpointing_has_no_optimum(self):
        assert training(checkpoint_cost_hours=0.0).optimal_checkpoint_interval_hours == 0.0

    def test_it_series_integrates_to_it_energy(self):
        spec = training()
        assert spec.it_series().integrate().joules == pytest.approx(
            spec.it_energy.joules, rel=1e-12
        )
        assert len(spec.it_series().values) == math.ceil(spec.wall_clock_hours)

    def test_footprint_splits_operational_and_embodied(self):
        fp = training_footprint(training())
        assert isinstance(fp, GenAIFootprint)
        assert fp.total.kg == pytest.approx(fp.operational.kg + fp.embodied.kg)
        assert 0.0 < fp.embodied_share < 1.0
        assert fp.operational_share + fp.embodied_share == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# KV-cache geometry and serving laws
# ---------------------------------------------------------------------------


class TestServingLaws:
    def test_kv_cache_monotone_in_context(self):
        assert kv_cache_gb_per_request(7e9, 2048.0) == pytest.approx(
            2.0 * kv_cache_gb_per_request(7e9, 1024.0)
        )

    def test_kv_pressure_caps_the_effective_batch(self):
        roomy = serving(batch_size=8)
        assert roomy.effective_batch == 8
        squeezed = serving(batch_size=512, context_tokens=8192.0)
        assert squeezed.effective_batch == squeezed.kv_capped_batch < 512
        assert squeezed.joules_per_token > serving(batch_size=512).joules_per_token

    def test_throughput_saturates_with_batch(self):
        spec = serving()
        assert spec.device_tokens_per_s(32) < 2.0 * spec.device_tokens_per_s(16)
        assert spec.device_tokens_per_s(1024) < spec.peak_tokens_per_s

    def test_demand_trace_is_the_shared_diurnal_helper(self):
        """Bit-equal to a direct ``diurnal_demand`` call — one sinusoid."""
        spec = serving()
        expected = diurnal_demand(
            hours=spec.hours,
            peak=1.0,
            trough_fraction=spec.trough_fraction,
            seed=spec.demand_seed,
        )
        assert np.array_equal(spec.demand_trace(), expected)

    def test_energy_additive_across_qps_splits(self):
        spec = serving()
        whole = spec.it_series().integrate().joules
        parts = (
            scale_qps(spec, 0.3).it_series().integrate().joules
            + scale_qps(spec, 0.7).it_series().integrate().joules
        )
        assert parts == pytest.approx(whole, rel=1e-9)

    def test_busy_device_hours_scale_with_qps(self):
        spec = serving()
        assert scale_qps(spec, 2.0).busy_device_hours == pytest.approx(
            2.0 * spec.busy_device_hours, rel=1e-12
        )

    def test_serving_fleet_sizes_for_peak_and_autoscales(self):
        fleet = serving_fleet(default_serving_spec(peak_qps=2000.0))
        assert fleet.tier_servers == math.ceil(fleet.spec.accelerators_at_peak / 8)
        assert fleet.autoscale.energy_saving_fraction >= 0.0
        assert 0.0 < fleet.embodied_share < 1.0
        assert fleet.total.kg == pytest.approx(
            fleet.operational.kg + fleet.embodied.kg
        )

    def test_serving_footprint_embodied_rides_busy_hours(self):
        spec = serving()
        context = default_genai_context()
        assert serving_footprint(scale_qps(spec, 2.0), context).embodied.kg == (
            pytest.approx(2.0 * serving_footprint(spec, context).embodied.kg, rel=1e-12)
        )


class TestCrossover:
    def test_doubling_qps_halves_the_crossover(self):
        context = default_genai_context()
        train = inventory_spec("llm-7b")
        serve = default_serving_spec()
        base = lifetime_crossover(train, serve, context)
        doubled = lifetime_crossover(train, scale_qps(serve, 2.0), context)
        assert doubled.crossover_days == pytest.approx(
            base.crossover_days / 2.0, rel=1e-9
        )
        assert doubled.crossover_days < base.crossover_days

    def test_inference_share_grows_toward_one(self):
        crossing = lifetime_crossover(
            inventory_spec("llm-7b"), default_serving_spec(), default_genai_context()
        )
        year1 = crossing.inference_share_after(365.0)
        year4 = crossing.inference_share_after(4 * 365.0)
        assert 0.0 < year1 < year4 < 1.0

    def test_idle_model_never_crosses(self):
        crossing = LifetimeCrossover(training_total_kg=1000.0, serving_kg_per_day=0.0)
        assert crossing.crossover_days == math.inf
        assert crossing.inference_share_after(365.0) == 0.0


# ---------------------------------------------------------------------------
# Diurnal-shape confinement (mirrors the PR-2 kWh x intensity gate)
# ---------------------------------------------------------------------------

SINUSOID_PATTERN = re.compile(r"\b(?:np|numpy|math)\s*\.\s*(?:cos|sin)\s*\(")


def test_diurnal_sinusoid_lives_only_in_traces():
    """No workloads module re-derives the diurnal shape.

    ``repro.workloads.serving`` and ``repro.workloads.genai`` must share
    :func:`repro.workloads.traces.diurnal_demand` rather than duplicate
    the sinusoid, so a scenario comparing the two is comparing workloads
    — not accidentally-different day shapes.
    """
    workloads = Path(__file__).resolve().parents[1] / "src" / "repro" / "workloads"
    offenders = []
    for path in sorted(workloads.rglob("*.py")):
        if path.name == "traces.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if SINUSOID_PATTERN.search(line):
                offenders.append(f"{path.relative_to(workloads)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "diurnal sinusoid outside repro/workloads/traces.py "
        "(share diurnal_demand instead):\n" + "\n".join(offenders)
    )


def test_genai_imports_the_shared_trace_helper():
    genai_src = (
        Path(__file__).resolve().parents[1] / "src" / "repro" / "workloads" / "genai.py"
    )
    assert "diurnal_demand" in genai_src.read_text()


# ---------------------------------------------------------------------------
# Experiments: registration, determinism, invariants
# ---------------------------------------------------------------------------


class TestExperiments:
    def test_all_four_registered_as_extensions(self):
        ids = experiment_ids()
        assert len(ids) >= 49
        for eid in GENAI_EXPERIMENTS:
            assert eid in ids
            assert get_spec(eid).category == "extension"

    @pytest.mark.parametrize("eid", GENAI_EXPERIMENTS)
    def test_results_satisfy_every_result_invariant(self, all_results, eid):
        assert check_result(all_results[eid]) == []

    @pytest.mark.parametrize("eid", GENAI_EXPERIMENTS)
    def test_payload_round_trips_byte_identically(self, all_results, eid):
        from repro.experiments.base import ExperimentResult

        payload = all_results[eid].to_payload()
        restored = ExperimentResult.from_payload(payload)
        assert canonical_bytes(restored.to_payload()) == canonical_bytes(payload)

    def test_reruns_are_byte_identical(self):
        first = canonical_bytes(run_experiment("ext-genai-crossover").to_payload())
        second = canonical_bytes(run_experiment("ext-genai-crossover").to_payload())
        assert first == second

    def test_crossover_headline_obeys_the_metamorphic_law(self, all_results):
        headline = all_results["ext-genai-crossover"].headline
        assert headline["crossover_days_2x_qps"] == pytest.approx(
            headline["crossover_days_base"] / 2.0, rel=1e-9
        )

    def test_checkpoint_headline_pins_the_young_daly_optimum(self, all_results):
        headline = all_results["ext-genai-checkpoint"].headline
        assert headline["overhead_fraction_at_optimum"] <= (
            headline["overhead_fraction_at_1h"]
        )
        assert headline["young_daly_interval_hours"] > 0.0


# ---------------------------------------------------------------------------
# Service queries (parser-level; HTTP conformance lives in the slow tier)
# ---------------------------------------------------------------------------


class TestGenAIQueries:
    def test_model_name_normalizes_to_its_expansion(self):
        spec = inventory_spec("llm-7b")
        by_model = parse_query("genai", {"workload": "llm-training", "model": "llm-7b"})
        by_knobs = parse_query(
            "genai",
            {
                "workload": "llm-training",
                "n_params": spec.n_params,
                "n_tokens": spec.n_tokens,
                "mfu": spec.mfu,
                "n_accelerators": spec.n_accelerators,
            },
        )
        assert by_model.cache_key() == by_knobs.cache_key()
        assert render_payload(by_model.execute()) == render_payload(by_knobs.execute())

    def test_training_query_matches_library_path(self):
        query = parse_query("genai", {"workload": "llm-training", "model": "llm-1b"})
        fp = training_footprint(
            replace(inventory_spec("llm-1b"), name="service-genai"),
            query._context(),
        )
        headline = query.execute()["headline"]
        assert headline["total_kg"] == fp.total.kg
        assert headline["embodied_share"] == fp.embodied_share

    def test_serving_query_matches_library_path(self):
        query = parse_query("genai", {"workload": "llm-serving", "peak_qps": 250})
        headline = query.execute()["headline"]
        spec = query._spec()
        fp = serving_footprint(spec, query._context())
        assert headline["total_kg"] == fp.total.kg
        assert headline["joules_per_token"] == spec.joules_per_token

    def test_service_payload_bridges_to_result_invariants(self):
        from repro.service.queries import payload_to_result

        payload = parse_query(
            "genai", {"workload": "llm-serving", "peak_qps": 50}
        ).execute()
        result = payload_to_result(payload)
        assert result.experiment_id == "service-genai"
        assert check_result(result) == []

    @pytest.mark.parametrize(
        "params, fragment",
        [
            ({"workload": "llm-cooking"}, "workload"),
            ({"workload": "llm-serving", "model": "llm-7b"}, "llm-training"),
            ({"workload": "llm-training", "model": "llm-7b", "mfu": 0.5}, "not both"),
            ({"workload": "llm-training", "mfu": 2}, "mfu"),
            ({"workload": "llm-serving", "n_params": 4.5e10}, "do not fit"),
            ({"workload": "llm-training", "accelerator": "abacus"}, "accelerator"),
            ({"workload": "llm-training", "bogus": 1}, "unknown parameter"),
        ],
    )
    def test_bad_queries_raise_structured_errors(self, params, fragment):
        with pytest.raises(QueryError, match=re.escape(fragment)):
            parse_query("genai", params)


# ---------------------------------------------------------------------------
# Ledger round trip
# ---------------------------------------------------------------------------


def test_ledger_payload_round_trips_byte_identically(tmp_path, capsys, monkeypatch):
    """``ledger show --payload`` reconstructs the genai record exactly."""
    from repro.core import ledger as ledger_mod
    from repro.experiments.runner import main

    monkeypatch.delenv(ledger_mod.LEDGER_DIR_ENV_VAR, raising=False)
    ledger_dir = tmp_path / "ledger"
    assert main(
        ["ledger", "record", "ext-genai-checkpoint", "--ledger-dir", str(ledger_dir),
         "--run-id", "r-genai", "--recorded-at", "1000.0", "--quiet", "--jobs", "1"]
    ) == 0
    capsys.readouterr()
    assert main(
        ["ledger", "show", "r-genai", "--experiment", "ext-genai-checkpoint",
         "--payload", "--ledger-dir", str(ledger_dir)]
    ) == 0
    out = capsys.readouterr().out
    expected = canonical_bytes(run_experiment("ext-genai-checkpoint").to_payload())
    assert out.encode("utf-8") == expected
