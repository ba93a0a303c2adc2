"""Property-based tests: service responses are invariant-clean and stable.

Hypothesis drives randomized footprint/schedule parameters through a live
service (with ``SUSTAINABLE_AI_CHECK_INVARIANTS`` enabled, so the
runtime accounting self-checks fire inside the execution too) and asserts
that every 200 response:

* passes the PR-3 result-invariant registry after bridging through
  :func:`repro.service.queries.payload_to_result` (non-negative carbon/energy,
  shares inside the unit interval, finite numbers);
* is byte-stable: repeating the identical query returns identical bytes.

The service is started once per module; Hypothesis examples travel over
real HTTP.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.carbon.intensity import regions  # noqa: E402
from repro.core.series import CHECK_ENV_VAR  # noqa: E402
from repro.service.queries import payload_to_result  # noqa: E402
from repro.testing.invariants import check_result  # noqa: E402
from tests.serviceutil import running_service  # noqa: E402

pytestmark = pytest.mark.property

_SERVICE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def service(request):
    import os

    previous = os.environ.get(CHECK_ENV_VAR)
    os.environ[CHECK_ENV_VAR] = "1"
    try:
        with running_service(workers=0, lru_size=512) as (handle, client):
            yield handle, client
    finally:
        if previous is None:
            os.environ.pop(CHECK_ENV_VAR, None)
        else:
            os.environ[CHECK_ENV_VAR] = previous


footprint_params = st.fixed_dictionaries(
    {
        "busy_device_hours": st.floats(0.0, 1e9, allow_nan=False),
        "utilization": st.floats(0.05, 1.0, allow_nan=False),
        "pue": st.floats(1.0, 3.0, allow_nan=False),
        "lifetime_years": st.floats(0.5, 10.0, allow_nan=False),
        "region": st.sampled_from(regions()),
        "devices_per_server": st.integers(1, 16),
        "board_power_fraction": st.floats(0.1, 1.0, allow_nan=False),
        "infrastructure_factor": st.floats(1.0, 10.0, allow_nan=False),
    }
)

schedule_params = st.fixed_dictionaries(
    {
        "n_jobs": st.integers(1, 40),
        "seed": st.integers(0, 10_000),
        "horizon_hours": st.integers(24, 168),
        "grid_seed": st.integers(0, 50),
    }
)


class TestFootprintProperties:
    @_SERVICE_SETTINGS
    @given(params=footprint_params)
    def test_response_is_invariant_clean_and_byte_stable(self, service, params):
        _handle, client = service
        first = client.post("/footprint", params)
        assert first.status == 200, first.body
        violations = check_result(payload_to_result(first.json()))
        assert violations == [], violations
        assert client.post("/footprint", params).body == first.body

    @_SERVICE_SETTINGS
    @given(params=footprint_params)
    def test_headline_is_internally_consistent(self, service, params):
        _handle, client = service
        headline = client.post("/footprint", params).json()["headline"]
        assert headline["total_kg"] == pytest.approx(
            headline["operational_kg"] + headline["embodied_kg"]
        )
        if headline["total_kg"] > 0:
            assert headline["operational_share"] + headline["embodied_share"] == (
                pytest.approx(1.0)
            )
        # PUE >= 1 means the facility never draws less than the IT load.
        assert headline["facility_energy_kwh"] >= headline["it_energy_kwh"] - 1e-9


class TestScheduleProperties:
    @_SERVICE_SETTINGS
    @given(params=schedule_params)
    def test_response_is_invariant_clean_and_byte_stable(self, service, params):
        _handle, client = service
        first = client.post("/schedule/carbon-aware", params)
        assert first.status == 200, first.body
        violations = check_result(payload_to_result(first.json()))
        assert violations == [], violations
        payload = first.json()
        headline = payload["headline"]
        # Without a capacity bound, carbon-aware placement never emits more
        # than immediate placement on the same trace.
        assert headline["carbon_aware_kg"] <= headline["immediate_kg"] + 1e-9
        assert headline["deadline_misses"] == 0.0
        assert len(payload["start_hours"]) == params["n_jobs"]
        assert client.post("/schedule/carbon-aware", params).body == first.body
