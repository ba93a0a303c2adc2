"""What-if scenarios over the holistic accounting (Figures 5 and 9).

A :class:`Scenario` bundles the environmental knobs the paper sweeps —
grid carbon intensity (location vs carbon-free), device utilization,
server lifetime, PUE — and evaluates the total footprint of a fixed
amount of *useful work* under those knobs.

Modeling choices (matching Figure 9's construction):

* The task is defined by the useful work it must complete, so at lower
  utilization the same work holds the hardware for proportionally more
  wall-clock hours.
* Training boards draw close to full board power whenever a job is
  resident, *regardless of achieved utilization* — fleet "GPU
  utilization" metrics measure achieved math throughput while the board
  sits near TDP either way.  ``board_power_fraction`` sets that draw.
  Both energy and embodied amortization therefore scale ~1/utilization,
  which is what makes utilization such a strong lever (~3x from 30% to
  80%).
* "Renewable" supply carries the solar life-cycle residual intensity
  (panel manufacturing), not a literal zero.
* Embodied carbon counts the server (Mac Pro dual-GPU LCA anchor) *plus*
  the datacenter's own construction/networking/storage share via
  ``infrastructure_embodied_factor`` (Gupta et al. 2021 show facility
  embodied carbon is of the same order as IT embodied carbon).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.carbon.embodied import AmortizationPolicy, GPU_SERVER_EMBODIED
from repro.carbon.intensity import CarbonIntensity, SOLAR_LIFECYCLE, US_AVERAGE
from repro.core import knobs
from repro.core.context import AccountingContext
from repro.core.quantities import Carbon, Energy
from repro.energy.devices import DeviceSpec, V100


@dataclass(frozen=True, slots=True)
class Scenario:
    """Environmental knobs for evaluating a fixed quantum of useful work."""

    intensity: CarbonIntensity = US_AVERAGE
    utilization: float = 0.45
    lifetime_years: float = 4.0
    pue: float = 1.10
    device: DeviceSpec = V100
    #: Devices per embodied "server" — 2 matches the dual-GPU LCA anchor.
    devices_per_server: int = 2
    server_embodied: Carbon = GPU_SERVER_EMBODIED
    #: Board power as a fraction of TDP while a job is resident.
    board_power_fraction: float = 0.95
    #: Multiplier folding datacenter construction / network / storage
    #: embodied carbon onto the server's own (Gupta et al. 2021).
    infrastructure_embodied_factor: float = 3.0
    name: str = "baseline"

    def __post_init__(self) -> None:
        knobs.check_fields(self, knobs.SCENARIO)

    def but(self, **changes) -> "Scenario":
        """A modified copy (``scenario.but(utilization=0.8)``)."""
        return replace(self, **changes)

    def accounting_context(self) -> AccountingContext:
        """This scenario's knobs as the shared accounting bundle.

        The amortization policy spreads the (infrastructure-inclusive)
        server footprint over *wall-clock* lifetime hours — residency,
        not achieved utilization, is what occupies the server here, so
        ``average_utilization`` is pinned at 1.0 and the utilization knob
        instead stretches residency in :func:`evaluate_work`.
        """
        return AccountingContext(
            intensity=self.intensity,
            pue=self.pue,
            amortization=AmortizationPolicy(
                lifetime_years=self.lifetime_years,
                average_utilization=1.0,
                devices_per_server=float(self.devices_per_server),
                infrastructure_factor=self.infrastructure_embodied_factor,
            ),
        )


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    """Footprint of the work quantum under one scenario."""

    scenario: Scenario
    energy: Energy
    operational: Carbon
    embodied: Carbon

    @property
    def total(self) -> Carbon:
        return self.operational + self.embodied

    @property
    def embodied_share(self) -> float:
        total = self.total.kg
        return self.embodied.kg / total if total else 0.0


def evaluate_work(busy_device_hours: float, scenario: Scenario) -> ScenarioResult:
    """Footprint of ``busy_device_hours`` of *fully-busy-equivalent* work.

    ``busy_device_hours`` is the device time the work would take at 100%
    utilization.  Under ``scenario.utilization`` the device is resident
    (and drawing board power) for ``busy/utilization`` wall-clock hours
    and occupies servers for the whole window, accruing embodied carbon.
    """
    knobs.SWEEP["busy_device_hours"].check("busy_device_hours", busy_device_hours)
    context = scenario.accounting_context()
    resident_hours = busy_device_hours / scenario.utilization
    board_watts = scenario.device.tdp_watts * scenario.board_power_fraction
    it_energy = Energy(board_watts * resident_hours / 1e3)
    facility = context.facility_energy(it_energy)
    operational = context.operational_for_energy(it_energy)

    # Occupying a server for H hours consumes H / lifetime of its
    # (infrastructure-inclusive) manufacturing footprint.
    server_hours = resident_hours / scenario.devices_per_server
    embodied = context.amortized_embodied(scenario.server_embodied, server_hours)
    return ScenarioResult(scenario, facility, operational, embodied)


def utilization_sweep(
    busy_device_hours: float,
    utilizations: np.ndarray,
    base: Scenario | None = None,
) -> list[ScenarioResult]:
    """Evaluate the work quantum across a range of utilizations (Fig. 9)."""
    base = base or Scenario()
    return [
        evaluate_work(busy_device_hours, base.but(utilization=float(u), name=f"util={u:.0%}"))
        for u in np.asarray(utilizations, dtype=float)
    ]


def renewable_variant(scenario: Scenario) -> Scenario:
    """The same scenario on solar supply (life-cycle residual intensity)."""
    return scenario.but(intensity=SOLAR_LIFECYCLE, name=f"{scenario.name}+green")
