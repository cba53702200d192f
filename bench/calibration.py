"""Machine-speed calibration for the end-to-end timings.

The speed of the 2-core machine this benchmark was written on drifts by
up to ±25% over tens of seconds, for the same code in the same process
(other tenants share its cores, caches and memory).  Raw wall times of
runs a few minutes apart then differ by up to 40% at one commit.  So
every timed interval is bracketed by two slices of a fixed computation
that shares no code with nbl_lab, and is reported scaled by
REFERENCE_SLICE_S over the mean of the two slices: as if the machine had
run at the speed at which one slice takes REFERENCE_SLICE_S.  A change
to nbl_lab does not change the slices, so it moves the scaled time as it
moves the raw one.

A slice has a CPU part (blake2b and dict work, like the lab's Python
code) and a memory part (faulting in fresh anonymous pages, like a
process start), because the drift hits the two differently.
"""

from __future__ import annotations

import hashlib
import mmap
import time

HASH_STEPS = 2000
MAPPINGS = 2
MAPPING_BYTES = 1 << 20
_CHUNK = bytes(1 << 16)
# About the median slice time on the reference machine (2 cores, Python 3.11).
REFERENCE_SLICE_S = 0.0035


def calibration_slice() -> float:
    """Seconds taken by one slice: HASH_STEPS rounds of blake2b and dict
    work, then MAPPINGS fresh 1 MiB mappings written through."""
    start = time.perf_counter()
    digest, table = b"calibration", {}
    for i in range(HASH_STEPS):
        digest = hashlib.blake2b(digest, digest_size=32).digest()
        table[digest[:4]] = (i, digest)
    for _ in range(MAPPINGS):
        with mmap.mmap(-1, MAPPING_BYTES) as pages:
            for _ in range(MAPPING_BYTES // len(_CHUNK)):
                pages.write(_CHUNK)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that brings an interval between two slices to reference speed."""
    return REFERENCE_SLICE_S / ((before + after) / 2)
