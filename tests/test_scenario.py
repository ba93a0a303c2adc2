"""Scenario / what-if sweep tests (Figure 9 machinery)."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.carbon.intensity import SOLAR_LIFECYCLE
from repro.core.scenario import (
    Scenario,
    evaluate_work,
    renewable_variant,
    utilization_sweep,
)
from repro.errors import UnitError

utils = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


NAN, INF = float("nan"), float("inf")

#: (kwargs, message) — every bad knob must raise a *structured* UnitError at
#: construction, naming the field and its row's bound, instead of leaking
#: NaN/inf into downstream footprints.  The ids name each row's field.
BAD_SCENARIOS = [
    pytest.param({"utilization": 0.0}, "parameter 'utilization' must be in (0.0, 1.0], got 0.0", id="kwargs0-utilization"),
    pytest.param({"utilization": -0.2}, "parameter 'utilization' must be in (0.0, 1.0], got -0.2", id="kwargs1-utilization"),
    pytest.param({"utilization": 1.5}, "parameter 'utilization' must be in (0.0, 1.0], got 1.5", id="kwargs2-utilization"),
    pytest.param({"utilization": NAN}, "parameter 'utilization' must be finite, got nan", id="kwargs3-utilization"),
    pytest.param({"utilization": INF}, "parameter 'utilization' must be finite, got inf", id="kwargs4-utilization"),
    pytest.param({"board_power_fraction": 0.0}, "parameter 'board_power_fraction' must be in (0.0, 1.0], got 0.0", id="kwargs5-board power"),
    pytest.param({"board_power_fraction": NAN}, "parameter 'board_power_fraction' must be finite, got nan", id="kwargs6-board power"),
    pytest.param({"infrastructure_embodied_factor": 0.5}, "parameter 'infrastructure_embodied_factor' must be in [1.0, inf], got 0.5", id="kwargs7-infrastructure"),
    pytest.param({"infrastructure_embodied_factor": NAN}, "parameter 'infrastructure_embodied_factor' must be finite, got nan", id="kwargs8-infrastructure"),
    pytest.param({"lifetime_years": 0.0}, "parameter 'lifetime_years' must be in (0.0, inf], got 0.0", id="kwargs9-lifetime"),
    pytest.param({"lifetime_years": -3.0}, "parameter 'lifetime_years' must be in (0.0, inf], got -3.0", id="kwargs10-lifetime"),
    pytest.param({"lifetime_years": NAN}, "parameter 'lifetime_years' must be finite, got nan", id="kwargs11-lifetime"),
    pytest.param({"lifetime_years": INF}, "parameter 'lifetime_years' must be finite, got inf", id="kwargs12-lifetime"),
    pytest.param({"pue": 0.9}, "parameter 'pue' must be in [1.0, inf], got 0.9", id="kwargs13-PUE"),
    pytest.param({"pue": NAN}, "parameter 'pue' must be finite, got nan", id="kwargs14-PUE"),
    pytest.param({"pue": INF}, "parameter 'pue' must be finite, got inf", id="kwargs15-PUE"),
    pytest.param({"devices_per_server": 0}, "parameter 'devices_per_server' must be in [1, 1024], got 0", id="kwargs16-devices_per_server"),
    pytest.param({"devices_per_server": 1025}, "parameter 'devices_per_server' must be in [1, 1024], got 1025", id="kwargs17-devices_per_server"),
    pytest.param({"devices_per_server": 2.5}, "parameter 'devices_per_server' must be an integer, got 2.5", id="kwargs18-devices_per_server"),
    pytest.param({"utilization": True}, "parameter 'utilization' must be a number, got a boolean", id="kwargs19-utilization"),
    pytest.param({"pue": "1.1"}, "parameter 'pue' must be a number, got str", id="kwargs20-PUE"),
]

#: Bad work quanta for evaluate_work itself.
BAD_BUSY_HOURS = [
    pytest.param(-1.0, "parameter 'busy_device_hours' must be in [0.0, inf], got -1.0", id="-1.0-non-negative"),
    pytest.param(NAN, "parameter 'busy_device_hours' must be finite, got nan", id="nan-finite"),
    pytest.param(INF, "parameter 'busy_device_hours' must be finite, got inf", id="inf-finite"),
]


class TestScenario:
    @pytest.mark.parametrize("kwargs,message", BAD_SCENARIOS)
    def test_validation_table(self, kwargs, message):
        with pytest.raises(UnitError, match=re.escape(message)):
            Scenario(**kwargs)

    @pytest.mark.parametrize("kwargs,message", BAD_SCENARIOS)
    def test_but_revalidates(self, kwargs, message):
        # dataclasses.replace re-runs __post_init__, so a valid scenario
        # cannot be mutated-by-copy into an invalid one.
        with pytest.raises(UnitError, match=re.escape(message)):
            Scenario().but(**kwargs)

    def test_but_creates_modified_copy(self):
        base = Scenario()
        changed = base.but(utilization=0.8)
        assert changed.utilization == 0.8
        assert base.utilization == 0.45


class TestEvaluateWork:
    def test_zero_work_zero_footprint(self):
        result = evaluate_work(0.0, Scenario())
        assert result.total.kg == 0.0

    @given(utils, utils)
    def test_total_decreases_with_utilization(self, u1, u2):
        lo, hi = sorted((u1, u2))
        if hi - lo < 1e-6:
            return
        low = evaluate_work(1000.0, Scenario(utilization=lo))
        high = evaluate_work(1000.0, Scenario(utilization=hi))
        assert high.total.kg <= low.total.kg + 1e-9

    def test_both_components_scale_inverse_utilization(self):
        a = evaluate_work(1000.0, Scenario(utilization=0.4))
        b = evaluate_work(1000.0, Scenario(utilization=0.8))
        assert math.isclose(a.operational.kg, 2 * b.operational.kg, rel_tol=1e-9)
        assert math.isclose(a.embodied.kg, 2 * b.embodied.kg, rel_tol=1e-9)

    def test_renewable_variant_reduces_operational_only(self):
        grey = evaluate_work(1000.0, Scenario())
        green = evaluate_work(1000.0, renewable_variant(Scenario()))
        assert green.operational.kg < grey.operational.kg
        assert math.isclose(green.embodied.kg, grey.embodied.kg)

    def test_renewable_uses_solar_lifecycle(self):
        scenario = renewable_variant(Scenario())
        assert scenario.intensity is SOLAR_LIFECYCLE

    def test_embodied_share_rises_with_cleanliness(self):
        grey = evaluate_work(1000.0, Scenario())
        green = evaluate_work(1000.0, renewable_variant(Scenario()))
        assert green.embodied_share > grey.embodied_share

    @pytest.mark.parametrize("busy,message", BAD_BUSY_HOURS)
    def test_bad_work_rejected(self, busy, message):
        with pytest.raises(UnitError, match=re.escape(message)):
            evaluate_work(busy, Scenario())

    def test_longer_lifetime_less_embodied(self):
        short = evaluate_work(1000.0, Scenario(lifetime_years=3.0))
        long = evaluate_work(1000.0, Scenario(lifetime_years=5.0))
        assert long.embodied.kg < short.embodied.kg


class TestSweep:
    def test_paper_factors(self):
        sweep = utilization_sweep(1000.0, np.array([0.3, 0.8]))
        ratio = sweep[0].total.kg / sweep[1].total.kg
        assert 2.3 < ratio < 3.2  # "~3x" from 30% -> 80%

    def test_sweep_length(self):
        sweep = utilization_sweep(10.0, np.linspace(0.2, 0.8, 7))
        assert len(sweep) == 7

    def test_renewable_gain_near_2x(self):
        grey = evaluate_work(1000.0, Scenario(utilization=0.8))
        green = evaluate_work(
            1000.0, renewable_variant(Scenario(utilization=0.8))
        )
        assert 1.5 < grey.total.kg / green.total.kg < 3.0
