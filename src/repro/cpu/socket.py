"""Socket topology: cores, hyperthread siblings, and the paper's machines."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.address import CacheGeometry

__all__ = ["SocketSpec"]


@dataclass(frozen=True)
class SocketSpec:
    """Static description of one processor socket.

    Attributes:
        name: Human-readable model name.
        num_cores: Physical cores.
        threads_per_core: SMT width (the paper pins vCPUs to separate
            physical threads and excludes intra-core interference, so the
            simulator schedules at thread granularity but never co-runs two
            workloads on one core).
        frequency_hz: Nominal frequency (used to convert cycles to seconds
            in reports; the timing model runs scaled).
        llc: Shared LLC geometry.
    """

    name: str
    num_cores: int
    threads_per_core: int
    frequency_hz: float
    llc: CacheGeometry

    def __post_init__(self) -> None:
        if self.num_cores < 1 or self.threads_per_core < 1:
            raise ValueError("socket needs at least one core and one thread")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def num_threads(self) -> int:
        return self.num_cores * self.threads_per_core

    @property
    def llc_way_bytes(self) -> int:
        return self.llc.way_bytes

    @classmethod
    def xeon_e5_2697v4(cls) -> "SocketSpec":
        """The paper's evaluation machine: 18 cores @ 2.3 GHz, 20-way 45 MB LLC."""
        return cls(
            name="Xeon E5-2697 v4",
            num_cores=18,
            threads_per_core=2,
            frequency_hz=2.3e9,
            llc=CacheGeometry.xeon_e5(),
        )

    @classmethod
    def xeon_d(cls) -> "SocketSpec":
        """The paper's other machine: 8-core Xeon-D, 12-way 12 MB LLC."""
        return cls(
            name="Xeon D",
            num_cores=8,
            threads_per_core=2,
            frequency_hz=2.0e9,
            llc=CacheGeometry.xeon_d(),
        )
