"""Embodied (manufacturing) carbon via life-cycle analysis.

Methodology from Section III-A of the paper:

* A GPU-based AI training server is assumed to have an embodied footprint
  comparable to the production footprint of Apple's 28-core Mac Pro with
  dual GPUs: **2000 kgCO2e**.  CPU-only servers: **half** of that.
* Servers live **3-5 years** and run ML work at **30-60% utilization** on
  average; the embodied carbon of a task is the share of server-lifetime
  *useful* capacity the task consumes.

For client (edge) devices, manufacturing is ~74% of the device's total
life-cycle footprint (Gupta et al. 2021), which the edge package uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.core.quantities import Carbon
from repro.errors import UnitError

#: Embodied carbon of a GPU AI training server (Apple Mac Pro LCA proxy).
GPU_SERVER_EMBODIED = Carbon(2000.0)
#: Embodied carbon of a CPU-only server (half the GPU system, per paper).
CPU_SERVER_EMBODIED = Carbon(1000.0)
#: Manufacturing share of a client device's life-cycle footprint.
CLIENT_DEVICE_MANUFACTURING_SHARE = 0.74

#: Paper's stated server operating assumptions.
DEFAULT_LIFETIME_YEARS = 4.0  # midpoint of 3-5 years
DEFAULT_UTILIZATION = 0.45  # midpoint of 30-60%


@dataclass(frozen=True, slots=True)
class AmortizationPolicy:
    """How manufacturing carbon is spread over a server's useful life.

    ``lifetime_years`` is the service life; ``average_utilization`` the
    long-run fraction of time the server does useful work.  Amortization
    divides the manufacturing footprint over *utilized* hours only: an
    under-utilized server charges each hour of real work more embodied
    carbon, which is exactly the paper's argument for raising utilization
    (Figure 9).

    ``devices_per_server`` splits the server-level rate across the
    accelerators sharing one chassis; ``infrastructure_factor`` scales
    the manufacturing footprint to include datacenter construction and
    supporting equipment beyond the server itself (1.0 = server only).
    """

    lifetime_years: float = DEFAULT_LIFETIME_YEARS
    average_utilization: float = DEFAULT_UTILIZATION
    devices_per_server: float = 1.0
    infrastructure_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.lifetime_years <= 0:
            raise UnitError(f"lifetime must be positive, got {self.lifetime_years}")
        if not (0 < self.average_utilization <= 1):
            raise UnitError(
                f"utilization must be in (0, 1], got {self.average_utilization}"
            )
        if self.utilized_hours == 0.0:  # both positive, but the product underflowed
            raise UnitError(
                f"lifetime {self.lifetime_years} years at utilization "
                f"{self.average_utilization} leaves no utilized hours"
            )
        if self.devices_per_server <= 0:
            raise UnitError(
                f"devices per server must be positive, got {self.devices_per_server}"
            )
        if self.infrastructure_factor < 1.0:
            raise UnitError(
                "infrastructure factor must be >= 1 (1.0 = server only), "
                f"got {self.infrastructure_factor}"
            )

    @property
    def lifetime_hours(self) -> float:
        return self.lifetime_years * units.HOURS_PER_YEAR

    @property
    def utilized_hours(self) -> float:
        return self.lifetime_hours * self.average_utilization

    def rate_per_utilized_hour(self, manufacturing: Carbon) -> float:
        """kgCO2e charged per hour of useful work on one server."""
        return manufacturing.kg * self.infrastructure_factor / self.utilized_hours

    def rate_per_device_hour(self, manufacturing: Carbon) -> float:
        """kgCO2e charged per utilized hour of one accelerator device."""
        return self.rate_per_utilized_hour(manufacturing) / self.devices_per_server

    def amortize(
        self, manufacturing: Carbon, busy_hours: float, n_servers: float = 1.0
    ) -> Carbon:
        """Embodied carbon attributed to ``busy_hours`` of work.

        Parameters
        ----------
        manufacturing:
            Manufacturing footprint of *one* server.
        busy_hours:
            Hours of useful work the task performed per server.
        n_servers:
            Number of servers involved (may be fractional for shared
            capacity).
        """
        if busy_hours < 0:
            raise UnitError(f"busy hours must be non-negative, got {busy_hours}")
        if n_servers < 0:
            raise UnitError(f"server count must be non-negative, got {n_servers}")
        attributed = self.rate_per_utilized_hour(manufacturing) * busy_hours * n_servers
        # A task cannot be charged more than the full manufacturing cost of
        # the servers (and their share of infrastructure) it ran on.
        cap = manufacturing.kg * self.infrastructure_factor * n_servers
        return Carbon(min(attributed, cap))


def embodied_for_device_hours(
    device_hours: float,
    manufacturing: Carbon = GPU_SERVER_EMBODIED,
    policy: AmortizationPolicy | None = None,
) -> Carbon:
    """Embodied carbon of ``device_hours`` of accelerator-server time.

    Convenience wrapper treating the workload as device-hours on identical
    servers under ``policy`` (paper defaults when omitted).
    """
    policy = policy or AmortizationPolicy()
    return Carbon(policy.rate_per_utilized_hour(manufacturing) * device_hours)


def operational_embodied_split(operational: Carbon, embodied: Carbon) -> tuple[float, float]:
    """(embodied, operational) shares of a total footprint."""
    total = operational.kg + embodied.kg
    if total == 0:
        return (0.0, 0.0)
    return (embodied.kg / total, operational.kg / total)
