"""Embodied carbon amortization tests."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.carbon.embodied import (
    AmortizationPolicy,
    CPU_SERVER_EMBODIED,
    GPU_SERVER_EMBODIED,
    embodied_for_device_hours,
    operational_embodied_split,
)
from repro.core.quantities import Carbon
from repro.errors import UnitError


class TestAnchors:
    def test_paper_values(self):
        assert GPU_SERVER_EMBODIED.kg == 2000.0
        assert CPU_SERVER_EMBODIED.kg == 1000.0  # half, per the paper


class TestAmortizationPolicy:
    def test_defaults_match_paper_midpoints(self):
        policy = AmortizationPolicy()
        assert policy.lifetime_years == 4.0  # 3-5 years
        assert policy.average_utilization == 0.45  # 30-60%

    def test_validation(self):
        with pytest.raises(UnitError):
            AmortizationPolicy(lifetime_years=0)
        with pytest.raises(UnitError):
            AmortizationPolicy(average_utilization=0.0)
        with pytest.raises(UnitError):
            AmortizationPolicy(average_utilization=1.5)
        with pytest.raises(UnitError, match="leaves no utilized hours"):
            AmortizationPolicy(lifetime_years=1e-323, average_utilization=1e-100)

    def test_full_lifetime_amortizes_everything(self):
        policy = AmortizationPolicy()
        total = policy.amortize(GPU_SERVER_EMBODIED, policy.utilized_hours)
        assert math.isclose(total.kg, GPU_SERVER_EMBODIED.kg, rel_tol=1e-9)

    def test_amortization_capped_at_manufacturing(self):
        policy = AmortizationPolicy()
        over = policy.amortize(GPU_SERVER_EMBODIED, policy.utilized_hours * 10)
        assert over.kg == GPU_SERVER_EMBODIED.kg

    def test_lower_utilization_charges_more_per_hour(self):
        busy = AmortizationPolicy(average_utilization=0.9)
        idle = AmortizationPolicy(average_utilization=0.3)
        assert idle.rate_per_utilized_hour(GPU_SERVER_EMBODIED) > busy.rate_per_utilized_hour(
            GPU_SERVER_EMBODIED
        )

    @given(
        st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    def test_amortize_monotone_in_hours(self, utilization, lifetime, hours):
        policy = AmortizationPolicy(lifetime, utilization)
        less = policy.amortize(GPU_SERVER_EMBODIED, hours)
        more = policy.amortize(GPU_SERVER_EMBODIED, hours * 1.5)
        assert more.kg >= less.kg

    def test_amortize_rejects_negative(self):
        with pytest.raises(UnitError):
            AmortizationPolicy().amortize(GPU_SERVER_EMBODIED, -1.0)

    def test_multiple_servers_scale(self):
        policy = AmortizationPolicy()
        one = policy.amortize(GPU_SERVER_EMBODIED, 100.0, n_servers=1)
        four = policy.amortize(GPU_SERVER_EMBODIED, 100.0, n_servers=4)
        assert math.isclose(four.kg, 4 * one.kg)


class TestHelpers:
    def test_embodied_for_device_hours(self):
        carbon = embodied_for_device_hours(100.0)
        policy = AmortizationPolicy()
        expected = policy.rate_per_utilized_hour(GPU_SERVER_EMBODIED) * 100.0
        assert math.isclose(carbon.kg, expected)

    def test_split(self):
        emb, op = operational_embodied_split(Carbon(70.0), Carbon(30.0))
        assert math.isclose(emb, 0.3)
        assert math.isclose(op, 0.7)

    def test_split_zero_total(self):
        assert operational_embodied_split(Carbon.zero(), Carbon.zero()) == (0.0, 0.0)
