"""Intel Cache Monitoring Technology (CMT) and Memory Bandwidth Monitoring.

The paper's footnotes weigh CMT as an alternative to dCat's perf-counter
approach and reject it: CMT reports *LLC occupancy* per RMID (and MBM
reports memory bandwidth), but occupancy alone cannot say whether a
workload would *benefit* from more cache — a streaming workload holds
occupancy as high as a cache-loving one — and CMT "cannot integrate with
CAT to dynamically allocate cache".  We model it anyway: it completes the
RDT (Resource Director Technology) surface, it is useful for verifying that
allocations took effect, and the test suite uses it to demonstrate the
paper's footnote quantitatively.

Model: each core's IA32_PQR_ASSOC carries an RMID alongside its CLOS; the
platform reports per-RMID occupancy (scaled by the architectural upscale
factor from CPUID) and cumulative memory-traffic byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CmtReading", "CacheMonitoringTechnology"]


@dataclass(frozen=True)
class CmtReading:
    """One RMID's monitored state."""

    rmid: int
    occupancy_bytes: int
    total_bandwidth_bytes: int
    local_bandwidth_bytes: int


class CacheMonitoringTechnology:
    """RMID association plus occupancy/bandwidth event reporting.

    Args:
        num_rmids: Supported resource-monitoring IDs (CPUID.0xF reports
            e.g. 88-176 on Broadwell; we default to 64).
        num_cores: Cores on the socket.
        upscale_bytes: The CPUID "upscaling factor": occupancy counters
            tick in units of this many bytes.
    """

    def __init__(
        self, num_rmids: int = 64, num_cores: int = 36, upscale_bytes: int = 65536
    ) -> None:
        if num_rmids < 1 or num_cores < 1 or upscale_bytes < 1:
            raise ValueError("num_rmids, num_cores, upscale_bytes must be >= 1")
        self.num_rmids = num_rmids
        self.num_cores = num_cores
        self.upscale_bytes = upscale_bytes
        self._core_rmid: Dict[int, int] = {c: 0 for c in range(num_cores)}
        self._occupancy_units: Dict[int, int] = {}
        self._mbm_total: Dict[int, int] = {}
        self._mbm_local: Dict[int, int] = {}

    # -- association (the monitoring half of IA32_PQR_ASSOC) -----------------

    def assoc_rmid(self, core: int, rmid: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range")
        if not 0 <= rmid < self.num_rmids:
            raise ValueError(f"rmid {rmid} out of range [0, {self.num_rmids})")
        self._core_rmid[core] = rmid

    def rmid_of(self, core: int) -> int:
        return self._core_rmid[core]

    # -- platform-side reporting ------------------------------------------------

    def report_occupancy(self, rmid: int, occupancy_bytes: int) -> None:
        """Set an RMID's current occupancy (platform/simulator side)."""
        self._check_rmid(rmid)
        if occupancy_bytes < 0:
            raise ValueError("occupancy cannot be negative")
        self._occupancy_units[rmid] = occupancy_bytes // self.upscale_bytes

    def report_traffic(
        self, rmid: int, total_bytes: int, local_bytes: int | None = None
    ) -> None:
        """Accumulate memory traffic attributed to an RMID (MBM counters)."""
        self._check_rmid(rmid)
        if total_bytes < 0:
            raise ValueError("traffic cannot be negative")
        self._mbm_total[rmid] = self._mbm_total.get(rmid, 0) + total_bytes
        local = total_bytes if local_bytes is None else local_bytes
        self._mbm_local[rmid] = self._mbm_local.get(rmid, 0) + local

    # -- controller-side reads (IA32_QM_EVTSEL / IA32_QM_CTR) --------------------

    def read(self, rmid: int) -> CmtReading:
        """Read an RMID's occupancy and cumulative bandwidth counters."""
        self._check_rmid(rmid)
        return CmtReading(
            rmid=rmid,
            occupancy_bytes=self._occupancy_units.get(rmid, 0) * self.upscale_bytes,
            total_bandwidth_bytes=self._mbm_total.get(rmid, 0),
            local_bandwidth_bytes=self._mbm_local.get(rmid, 0),
        )

    def _check_rmid(self, rmid: int) -> None:
        if not 0 <= rmid < self.num_rmids:
            raise ValueError(f"rmid {rmid} out of range [0, {self.num_rmids})")
