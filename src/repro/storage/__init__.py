"""Storage substrate: real files, modeled disk timing.

The paper's testbed is two 500 GB HDDs with the page cache disabled and
direct I/O. This subpackage reproduces the *behaviourally relevant* part
of that setup in a sandbox:

* graph data really lives in binary files on disk and is really read back
  (:mod:`repro.storage.blockfile`),
* every access is charged to a :class:`~repro.storage.disk.SimulatedDisk`
  which classifies it as sequential or random and converts bytes moved
  into deterministic, modeled disk seconds using the same four bandwidth
  classes the paper's cost model uses (``B_sr``, ``B_sw``, ``B_rr``,
  ``B_rw`` — Table 2),
* :class:`~repro.storage.iostats.IOStats` keeps the raw byte/request
  counters behind the paper's I/O-traffic figures (Fig. 7, Fig. 9b).
"""

from repro.storage.disk import (
    DiskProfile,
    MachineProfile,
    SimulatedDisk,
    HDD_PROFILE,
    SSD_PROFILE,
    NVME_PROFILE,
    DEFAULT_MACHINE,
)
from repro.storage.faults import (
    ChecksumError,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    GatherFault,
    SimulatedCrash,
    TransientIOError,
    flip_bit,
)
from repro.storage.gatherpool import GatherPool
from repro.storage.iostats import IOStats
from repro.storage.pagecache import PageCache, PageCacheStats
from repro.storage.blockfile import ArrayFile, Device

__all__ = [
    "ChecksumError",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GatherFault",
    "SimulatedCrash",
    "TransientIOError",
    "flip_bit",
    "DiskProfile",
    "MachineProfile",
    "SimulatedDisk",
    "HDD_PROFILE",
    "SSD_PROFILE",
    "NVME_PROFILE",
    "DEFAULT_MACHINE",
    "GatherPool",
    "IOStats",
    "PageCache",
    "PageCacheStats",
    "ArrayFile",
    "Device",
]
